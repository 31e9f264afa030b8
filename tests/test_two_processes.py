"""An audit of ``_FORK_CHUNKS`` chunks or more, whose kernels run package
code alone, is evaluated by two processes where two CPUs are usable: a
forked helper evaluates the odd chunks of each stream and this process the
even ones.  Every test here forces ``_FORK_CHUNKS`` to 0 where it wants a
helper, and compares with the serial run, which ``_FORK_CHUNKS`` at
infinity keeps in this process.  The last tests hold ``helper.split``,
which the audit and the report writer share, to its contract."""

import errno
import io
import json
import math
import os
import threading
import time

import pytest

from csmetric import (NumericError, PointDomain, SampleConfig, SelfMap, TripleMetric, axiom_audit,
                      check_composed_triangle, check_identity_axiom, check_m2, cli, helper, kannan_mf,
                      make_alpha, make_builtin_space, make_self_map, verify_theorem_4_1)
from csmetric.fixed_point import _banach
from csmetric.helper import split
from csmetric.spaces import replace

pytestmark = pytest.mark.skipif(
    not all(hasattr(os, f) for f in ("fork", "memfd_create", "sched_getaffinity")),
    reason="needs fork, memfd_create and sched_getaffinity")


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs and a counted os.fork; the list of fork calls.  No
    helper is left unreaped."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: calls.append(os.getpid()) or fork())
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(run, monkeypatch, chunks):
    """run()'s result, or its error's type and text, with _FORK_CHUNKS at chunks."""
    with monkeypatch.context() as m:
        m.setattr(axiom_audit, "_FORK_CHUNKS", chunks)
        try:
            return run()
        except Exception as exc:
            return type(exc), str(exc)


def _forked_and_serial(run, monkeypatch):
    return _outcome(run, monkeypatch, 0), _outcome(run, monkeypatch, math.inf)


def _space_checks(space):
    return [lambda: axiom_audit._identity(space),
            lambda: axiom_audit._triangles(space, {"composed_triangle": space.alpha,
                                                   "classic_triangle": None}),
            lambda: axiom_audit._symmetry(space)]


def test_verify_thm41_gives_the_serial_report(forks, monkeypatch):
    forked, serial = _forked_and_serial(
        lambda: json.dumps(verify_theorem_4_1(3, seed=9, samples=5000)), monkeypatch)
    assert forked == serial
    assert len(forks) == 1


@pytest.mark.parametrize("command", [
    ["verify-thm41", "--m", "3", "--samples", "6000"],
    ["verify-space", "--builtin", "discrete_nat", "--samples", "6000"],
    ["verify-space", "--builtin", "squared_diff", "--samples", "6000"],
    ["check-contraction", "--builtin", "discrete_nat", "--map", '{"kind":"const","value":3}',
     "--r", "0.5", "--samples", "6000"],
], ids=lambda command: command[0] + "-" + command[2])
def test_a_forked_command_writes_the_serial_bytes(command, forks, monkeypatch, tmp_path):
    monkeypatch.delenv("CSMETRIC_SEED", raising=False)

    def report():
        out = tmp_path / "report.json"
        code = cli.main([*command, "--output", "json", "--out", str(out)])
        return code, out.read_bytes()
    forked, serial = _forked_and_serial(report, monkeypatch)
    assert forked == serial
    assert len(forks) == 1


def test_a_failed_fork_leaves_every_chunk_to_this_process(forks, monkeypatch):
    def no_fork():
        forks.append(os.getpid())
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    space = make_builtin_space("abs_sum")
    cfg = SampleConfig(seed=5, count=5000)
    forked, serial = _forked_and_serial(lambda: axiom_audit._audit(cfg, _space_checks(space)),
                                        monkeypatch)
    assert forked == serial
    assert len(forks) == 1


def _no_memfd(name):
    raise OSError(errno.EMFILE, "Too many open files")


def test_a_failed_memfd_leaves_every_chunk_to_this_process(forks, monkeypatch):
    monkeypatch.setattr(os, "memfd_create", _no_memfd)
    space = make_builtin_space("abs_sum")
    cfg = SampleConfig(seed=5, count=5000)
    forked, serial = _forked_and_serial(lambda: axiom_audit._audit(cfg, _space_checks(space)),
                                        monkeypatch)
    assert forked == serial
    assert not isinstance(forked[0], type)  # verdicts, not an error
    assert forks == []


@pytest.mark.parametrize("how", ["exits", "raises"])
def test_a_failed_helper_leaves_its_chunks_to_this_process(how, forks, monkeypatch):
    here, evaluate = os.getpid(), axiom_audit._evaluate

    def in_this_process_only(*args):
        if os.getpid() != here:
            if how == "exits":
                os._exit(3)
            raise RuntimeError("the helper fails")
        return evaluate(*args)
    monkeypatch.setattr(axiom_audit, "_evaluate", in_this_process_only)
    space = make_builtin_space("discrete_nat")
    cfg = SampleConfig(seed=5, count=5000)
    forked, serial = _forked_and_serial(lambda: axiom_audit._audit(cfg, _space_checks(space)),
                                        monkeypatch)
    assert forked == serial
    assert not isinstance(forked[0], type)  # verdicts, not an error
    assert len(forks) == 1


# alpha(t) is NaN above about 1.49932, where exp(473.4 t) saturates to inf,
# and S(x, u) = |x - u| on [0, 1.5] exceeds that only within 0.0007 of the
# ends: the drawn tuples never do at this seed, the pinned ones below do.
_NAN_ABOVE_1_4993 = make_alpha("t+0*exp(473.4*t)")
_NAN_SPACE = replace(make_builtin_space("app_metric"), domain=PointDomain.real_interval(0.0, 1.5),
                     alpha=_NAN_ABOVE_1_4993)


@pytest.mark.parametrize("bad", [{0: 1.5}, {1500: 1.5}, {1500: 1.4999, 2500: 1.5}],
                         ids=["even", "odd", "odd-then-even"])
@pytest.mark.parametrize("shared", [False, True], ids=["one-check", "three-checks"])
def test_a_nan_in_either_half_raises_the_serial_error(bad, shared, forks, monkeypatch):
    # 4-tuple i is pinned; (0, 0, 0, u) at the bad indices, whose alpha(u)
    # is NaN.  With two bad chunks this process meets chunk 2's first, but
    # the serial error is chunk 1's.
    pins = tuple((0.0, 0.0, 0.0, bad.get(i, 0.0)) for i in range(max(bad) + 1))
    cfg = SampleConfig(seed=3, count=3000, pinned=pins)
    if shared:
        def run():
            return axiom_audit._audit(cfg, _space_checks(_NAN_SPACE))
    else:
        def run():
            return check_composed_triangle(_NAN_SPACE, cfg)
    forked, serial = _forked_and_serial(run, monkeypatch)
    u = bad[min(bad)]
    assert forked == serial == (NumericError, f"composing function 'custom' returned nan at {u!r}")
    assert len(forks) == 1


def test_only_package_code_runs_in_a_helper(forks, monkeypatch):
    """A library metric, a map that is not inlined, Mf and a pinned point of
    a float subclass keep the audit in this process."""
    monkeypatch.setattr(axiom_audit, "_FORK_CHUNKS", 0)
    space, cfg = make_builtin_space("app_metric"), SampleConfig(seed=5, count=3000)
    fn = space.metric.fn
    library = replace(space, metric=TripleMetric(id="library", fn=lambda q, h, w: fn(q, h, w)))
    halving = make_self_map("scale", space.domain, factor=0.5)
    user_map = SelfMap("user", lambda x: 0.5 * x, space.domain)
    pinned = SampleConfig(seed=5, count=3000, pinned=((type("F", (float,), {})(0.5),),))
    for run in (lambda: check_identity_axiom(library, cfg),
                lambda: axiom_audit._audit(cfg, [lambda: _banach(space, user_map, 0.5)]),
                lambda: check_m2(kannan_mf(0.4), cfg),
                lambda: check_identity_axiom(space, pinned)):
        run()
    assert forks == []
    for run in (lambda: check_identity_axiom(space, cfg),
                lambda: axiom_audit._audit(cfg, [lambda: _banach(space, halving, 0.5)]),
                lambda: check_identity_axiom(space, SampleConfig(seed=5, count=3000,
                                                                 pinned=((0.5,),)))):
        run()
    assert len(forks) == 3


@pytest.mark.parametrize("threshold", [20, 21])
def test_a_helper_is_forked_only_from_fork_chunks(threshold, forks, monkeypatch):
    # Four streams of 5 chunks each: 20 chunks.
    monkeypatch.setattr(axiom_audit, "_FORK_CHUNKS", threshold)
    space = make_builtin_space("app_metric")
    axiom_audit._audit(SampleConfig(seed=1, count=5 * axiom_audit.CHUNK), _space_checks(space))
    assert len(forks) == (threshold == 20)


def test_one_usable_cpu_or_another_thread_keeps_the_audit_here(forks, monkeypatch):
    monkeypatch.setattr(axiom_audit, "_FORK_CHUNKS", 0)
    space, cfg = make_builtin_space("app_metric"), SampleConfig(seed=1, count=3000)
    expected = check_identity_axiom(space, cfg)
    assert len(forks) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert check_identity_axiom(space, cfg) == expected
    finally:
        release.set()
        thread.join(timeout=10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert check_identity_axiom(space, cfg) == expected
    assert len(forks) == 1


# helper.split itself, which the audit and the report writer share.

def _split(back, front=lambda: None):
    """split(front, back, read)'s result and the blocks read, or None where
    read was not called."""
    read = []
    return split(front, back, lambda blocks: read.append(list(blocks))), (read or [None])[0]


def test_a_long_back_half_arrives_intact_and_in_order(forks):
    # More than a pipe buffers, and many 64 KiB blocks, of distinct lines.
    pieces = [b"%07d\n" % i for i in range(150_000)]
    assert sum(map(len, pieces)) > 2 ** 20
    done, blocks = _split(lambda: iter(pieces))
    assert done is True and len(forks) == 1
    assert all(len(block) == 1 << 16 for block in blocks[:-1])
    assert b"".join(blocks) == b"".join(pieces)


def test_an_error_in_front_kills_the_helper_and_is_raised(forks):
    def back():
        time.sleep(60)  # reaped within the test only if it is killed
        yield b"never"

    def front():
        raise KeyError("front")
    start, read = time.monotonic(), []
    with pytest.raises(KeyError, match="front"):
        split(front, back, read.append)
    assert time.monotonic() - start < 30
    assert read == [] and len(forks) == 1


@pytest.mark.parametrize("how", ["raises", "exits"])
def test_a_failed_helper_is_no_helper(how, forks):
    fronts = []

    def back():
        yield b"some bytes"
        if how == "exits":
            os._exit(3)
        raise RuntimeError("the helper fails")
    assert _split(back, lambda: fronts.append(1)) == (False, None)
    assert fronts == [1] and len(forks) == 1


def test_no_anonymous_file_is_no_helper_and_no_fork(forks, monkeypatch):
    monkeypatch.setattr(os, "memfd_create", _no_memfd)
    fronts = []
    assert _split(lambda: iter([b"x"]), lambda: fronts.append(1)) == (False, None)
    assert fronts == [1] and forks == []


# The CPUs a process may run on.  The forks fixture fakes
# os.sched_getaffinity, which split's pin reads in the helper, so the
# tests read the kernel's through this.
_affinity = os.sched_getaffinity


def _helper_cpus(front=lambda: None):
    """The CPUs split's helper may run on, as its back() reports them."""
    done, blocks = _split(lambda: iter([json.dumps(sorted(_affinity(0))).encode()]), front)
    assert done is True
    return set(json.loads(b"".join(blocks)))


def test_the_helper_runs_off_this_process_cpu(forks, monkeypatch):
    usable = _affinity(0)
    if len(usable) < 2:
        pytest.skip("needs two usable CPUs")
    monkeypatch.setattr(os, "sched_getaffinity", _affinity)
    stats = []

    def kept(path, mode):  # the stat split reads, kept for the test
        with open(path, mode) as file:
            stats.append(file.read())
        return io.BytesIO(stats[-1])
    monkeypatch.setattr(helper, "open", kept, raising=False)
    cpus = _helper_cpus()
    (stat,) = stats
    here = int(stat.rpartition(b")")[2].split()[39 - 3])  # field 39; those after comm start at 3
    assert cpus and cpus <= usable - {here}
    assert len(forks) == 1


def test_this_process_keeps_its_cpus(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", _affinity)
    before, during = _affinity(0), []
    assert _helper_cpus(lambda: during.append(_affinity(0)))
    assert during == [before] and _affinity(0) == before
    assert len(forks) == 1


def _refused(code):
    def sched_setaffinity(pid, cpus):
        raise OSError(code, os.strerror(code))
    return sched_setaffinity


def _unreadable(path, mode):
    raise PermissionError(errno.EACCES, "Permission denied", path)


@pytest.mark.parametrize("fault", [
    ("sched_setaffinity", _refused(errno.EINVAL)),
    ("sched_setaffinity", _refused(errno.EPERM)),
    ("sched_getaffinity", lambda pid: {1 << 20, (1 << 20) + 1}),  # the kernel refuses the set
    ("open", _unreadable),
    ("open", lambda path, mode: io.BytesIO(b"4242 (python3) R 1")),  # too few fields
], ids=["EINVAL", "EPERM", "no-such-cpus", "unreadable-stat", "short-stat"])
def test_a_helper_that_cannot_be_pinned_runs_unpinned(fault, forks, monkeypatch):
    name, stub = fault
    monkeypatch.setattr(helper if name == "open" else os, name, stub, raising=False)
    assert _helper_cpus() == _affinity(0)
    forked, serial = _forked_and_serial(
        lambda: json.dumps(verify_theorem_4_1(3, seed=9, samples=5000)), monkeypatch)
    assert forked == serial
    assert not isinstance(forked, tuple)  # a report, not an error
    assert len(forks) == 2
