"""A fixed program, independent of csmetric, whose run time gauges how fast
the machine runs Python at the moment.

run.py times it as a child process before each workload execution and
scales that execution's times by run.YARDSTICK_NOMINAL_S over the
yardstick's time, so that the drift in speed of a shared machine cancels
out of the end-to-end metrics.  Like the workloads it starts an
interpreter, runs float arithmetic and calls in a loop, and serializes a
large report.  It uses only the standard library.  Changing it rescales
every normalized figure, so compare no runs across such a change.
"""

import json
import math
import random


def distance(q, h, w):
    return abs(q - w) + abs(h - w)


def main():
    rng = random.Random(7)
    points = []
    best = math.inf
    for _ in range(20000):
        t = (rng.random(), rng.random(), rng.random())
        d = distance(*t) + 2.0 * math.sqrt(t[0])
        if d < best:
            best = d
        points.append(t)
    orbit = [0.9999 ** k for k in range(50000)]
    json.dumps({"best": best, "points": points, "orbit": orbit}, indent=2)


if __name__ == "__main__":
    main()
