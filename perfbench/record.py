#!/usr/bin/env python3
"""Record the reference answers that run.py checks every report against.

    python3 perfbench/record.py [--seeds K]

Run it from the root of a source checkout at the commit whose answers are
trusted.  It runs every invocation of every workload once for each csmetric
seed 0..K-1, at the benchmark's sample count and at the self-test's, and
writes references.json.  A benchmark seed n is run as csmetric seed n mod K,
so every seed the benchmark accepts has a recorded answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=128)
    args = parser.parse_args(argv)
    os.makedirs(run.WORK, exist_ok=True)
    out_path = os.path.join(run.WORK, "record.json")
    references = {}
    for workload, samples in run.DEFAULT_SAMPLES.items():
        sizes = (None,) if samples is None else (samples, run.SELFTEST_SAMPLES)
        for size in sizes:
            for seed in range(args.seeds):
                for key, cli_args in run.invocations(workload, seed, size):
                    _, _, code = run.spawn(run.csmetric_argv(cli_args), out_path)
                    with open(out_path, encoding="utf-8") as fh:
                        projection = run.project(json.load(fh), code)
                    entry = references.setdefault(run.reference_key(key, size),
                                                  {"projections": [], "by_seed": []})
                    if projection not in entry["projections"]:
                        entry["projections"].append(projection)
                    entry["by_seed"].append(entry["projections"].index(projection))
            print(f"recorded {workload} at samples {size}", file=sys.stderr)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"seed_modulus": args.seeds, "references": references}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
