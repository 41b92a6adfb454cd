import errno
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmosaic import (
    FormatError,
    SelectionParams,
    SfaPattern,
    ShapeError,
    SpectralCube,
    evaluate_dataset,
    mosaic,
    select_hard,
    wb_bilinear,
)
from specmosaic import _threads
from specmosaic._threads import map_records, parallel_map, worker_count


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_worker_count_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "64")
    assert 1 <= worker_count() <= _usable_cpus()
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("SPECMOSAIC_THREADS", "0")
    assert worker_count() == _usable_cpus()


@pytest.mark.parametrize("cpu_count, want", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity_falls_back_to_cpu_count(monkeypatch, cpu_count, want):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert _threads._usable_cpus() == want


@pytest.mark.parametrize("raw", ["-1", "two", "1.5"])
def test_worker_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("SPECMOSAIC_THREADS", raw)
    with pytest.raises(ValueError, match="SPECMOSAIC_THREADS"):
        worker_count()


def test_map_records_names_the_failing_item():
    def fn(x):
        if x == "shape":
            raise ShapeError("bad shape")
        if x == "io":
            raise PermissionError("denied")
        return x.upper()

    assert map_records(fn, ["a", "b"]) == ["A", "B"]
    with pytest.raises(ShapeError, match=r"^pair 1: bad shape$"):
        map_records(fn, ["a", "shape"], what="pair")
    with pytest.raises(FormatError, match=r"^record 2: denied$"):
        map_records(fn, ["a", "b", "io"])


# ------------------------------------------------------------ process pool

needs_two_cpus = pytest.mark.skipif(
    _usable_cpus() < 2, reason="a pool of 2 workers needs 2 usable CPUs"
)


def _assert_no_children():
    # Every worker has been reaped: this process has no child, not even a zombie.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _within(seconds):
    """Raise TimeoutError in place of a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def _workers(n):
    old = os.environ.get("SPECMOSAIC_THREADS")
    os.environ["SPECMOSAIC_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["SPECMOSAIC_THREADS"]
        else:
            os.environ["SPECMOSAIC_THREADS"] = old


@needs_two_cpus
def test_pool_maps_a_closure_in_input_order(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    parent = os.getpid()
    scale = np.arange(3.0)  # captured, never pickled

    def fn(x):
        return x * scale, os.getpid()

    out = map_records(fn, range(12))
    assert [list(v) for v, _ in out] == [[0.0, x, 2.0 * x] for x in range(12)]
    assert all(pid != parent for _, pid in out)
    _assert_no_children()


@needs_two_cpus
def test_pool_worker_errors_keep_type_and_message(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")

    def fn(x):
        if x == 3:
            raise ShapeError("bad shape")
        if x == 5:
            raise PermissionError("denied")
        return x

    with pytest.raises(ShapeError, match=r"^pair 3: bad shape$"):
        map_records(fn, range(8), what="pair")
    _assert_no_children()
    with pytest.raises(FormatError, match=r"^record 5: denied$"):
        map_records(fn, [0, 1, 2, 4, 4, 5, 6])
    _assert_no_children()


@needs_two_cpus
def test_pool_cancels_items_not_started_after_a_failure(monkeypatch, tmp_path):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")

    def fn(x):
        (tmp_path / str(x)).touch()
        if x == 0:
            raise ShapeError("bad")
        time.sleep(0.2)
        return x

    with pytest.raises(ShapeError, match=r"^record 0: bad$"):
        map_records(fn, range(40))
    # Item 0 fails at once; only the few items already handed to a worker run.
    assert len(list(tmp_path.iterdir())) <= 8
    _assert_no_children()


@needs_two_cpus
def test_pool_reports_a_worker_that_dies_mid_item(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")

    def fn(x):
        if x == 3:
            os._exit(3)
        return x

    with _within(10), pytest.raises(
        ChildProcessError, match=r"^item 3: worker exited with status 3 before replying$"
    ):
        parallel_map(fn, range(8))
    _assert_no_children()


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists Linux fds")
@pytest.mark.parametrize(
    "call, nth, code", [("fork", 2, errno.EAGAIN), ("pipe", 4, errno.EMFILE)], ids=["fork2", "pipe4"]
)
def test_pool_closes_its_pipes_when_a_worker_cannot_start(monkeypatch, call, nth, code):
    # The second worker cannot start: its fork, or its reply pipe, fails.
    real, calls = getattr(os, call), []

    def refuse_nth(*args):
        calls.append(args)
        if len(calls) == nth:
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    before = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, refuse_nth)
    with _within(10), pytest.raises(OSError) as raised:
        parallel_map(abs, range(8))
    assert raised.value.errno == code
    assert sorted(os.listdir("/proc/self/fd")) == before
    _assert_no_children()


class _Unpicklable(ValueError):
    pass


@needs_two_cpus
def test_pool_names_an_item_whose_reply_cannot_be_pickled(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")

    def fn(x):
        if x == "exception":
            error = _Unpicklable("bad")
            error.hook = lambda: x
            raise error
        return (lambda: x) if x == "result" else x

    with _within(10):
        with pytest.raises(pickle.PicklingError, match=r"^item 1: cannot send its result back: "):
            parallel_map(fn, ["a", "result", "b"])
        with pytest.raises(pickle.PicklingError, match=r"^item 1: cannot send its exception back: "):
            parallel_map(fn, ["a", "exception", "b"])
    _assert_no_children()


@needs_two_cpus
def test_pool_runs_with_a_closed_or_missing_std_stream(monkeypatch):
    # The pool flushes both streams before it forks and in each worker as it
    # exits; a caller may have closed one or run without one.
    closed = open(os.devnull, "w")
    closed.close()
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    monkeypatch.setattr(sys, "stdout", closed)
    monkeypatch.setattr(sys, "stderr", None)
    assert parallel_map(abs, [-1, -2, -3]) == [1, 2, 3]
    _assert_no_children()


@needs_two_cpus
def test_pool_imports_no_multiprocessing():
    # The map forks its workers itself: neither package is loaded by the CLI
    # process, whose start-up they would lengthen.
    code = (
        "import sys\n"
        "from specmosaic import cli\n"
        "from specmosaic._threads import parallel_map\n"
        "assert parallel_map(abs, [-1, -2]) == [1, 2]\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, SPECMOSAIC_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts Linux tasks")
def test_pool_runs_no_helper_thread_while_items_run(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")

    def parent_tasks(x):
        time.sleep(0.05)
        return len(os.listdir(f"/proc/{os.getppid()}/task"))

    assert parallel_map(parent_tasks, range(6)) == [1] * 6
    _assert_no_children()


@needs_two_cpus
def test_pool_forks_with_no_other_thread_alive(monkeypatch):
    # From Python 3.12 a fork while the process has other threads (OS
    # threads, so a BLAS pool too) emits a DeprecationWarning. The warning
    # cannot be turned into an error, because the interpreter clears it, so
    # it is recorded and counted here.
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        assert map_records(abs, range(-4, 0)) == [4, 3, 2, 1]
    assert [str(w.message) for w in log if "fork()" in str(w.message)] == []


# OS threads of this process right after each fork, while a list is set. A
# fork handler cannot be unregistered, so it is registered once and gated.
_tasks_after_fork: list[int] | None = None
_task_recorder_registered = False


def _record_tasks_after_fork() -> None:
    if _tasks_after_fork is not None:
        _tasks_after_fork.append(len(os.listdir("/proc/self/task")))


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts Linux tasks")
def test_pool_forks_while_the_parent_runs_one_thread(monkeypatch):
    # NumPy's OpenBLAS keeps a pool thread alive after import, and its own
    # fork handler stops it before each fork. This is the precondition of the
    # fork-warning tests above, checked also on Pythons that do not warn.
    global _tasks_after_fork, _task_recorder_registered
    if not _task_recorder_registered:
        os.register_at_fork(after_in_parent=_record_tasks_after_fork)
        _task_recorder_registered = True
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    _tasks_after_fork = counts = []
    try:
        assert map_records(abs, range(-4, 0)) == [4, 3, 2, 1]
    finally:
        _tasks_after_fork = None
    assert counts == [1, 1]  # one fork per worker, each with the parent alone


@pytest.mark.parametrize("threads, n_items", [("1", 5), ("2", 1)])
def test_one_worker_never_forks(monkeypatch, threads, n_items):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("SPECMOSAIC_THREADS", threads)
    assert map_records(lambda x: x + 1, range(n_items)) == list(range(1, n_items + 1))


@st.composite
def _cube_pairs(draw):
    period = draw(st.integers(1, 3))
    order = draw(st.permutations(range(period * period)))
    pattern = SfaPattern(np.array(order).reshape(period, period))
    h = draw(st.integers(11, 24))
    w = draw(st.integers(11, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(2, 4))):
        cube = SpectralCube(rng.uniform(0, 1, (pattern.bands, h, w)).astype(np.float32))
        pairs.append((cube, wb_bilinear(mosaic(cube, pattern), pattern)))
    return pairs


def _loaders(pairs):
    return [lambda p=p: p for p in pairs]


@needs_two_cpus
@settings(max_examples=20, deadline=None)
@given(pairs=_cube_pairs(), t_var=st.floats(0.0, 2.0))
def test_results_identical_at_one_and_two_workers(pairs, t_var):
    sparams = SelectionParams(t_var=t_var, t_cnt=0)
    swapped = [(b, a) for a, b in pairs]
    runs = []
    for n in (1, 2):
        with _workers(n):
            runs.append((select_hard(pairs, sparams=sparams), evaluate_dataset(swapped)))
            runs.append(
                (
                    select_hard(_loaders(pairs), sparams=sparams),
                    evaluate_dataset(_loaders(swapped)),
                )
            )
    assert all(run == runs[0] for run in runs)  # in memory and loaded, at 1 and 2 workers


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failures_read_record_for_loaders_and_pairs_alike(monkeypatch, threads):
    monkeypatch.setenv("SPECMOSAIC_THREADS", threads)
    a = SpectralCube(np.full((4, 16, 16), 0.5, dtype=np.float32))
    bad = SpectralCube(np.full((4, 16, 17), 0.5, dtype=np.float32))

    def unreadable():
        raise OSError("c.bsq: unreadable")

    for batch in (select_hard, evaluate_dataset):
        with pytest.raises(FormatError, match=r"^record 1: c\.bsq: unreadable$"):
            batch([lambda: (a, a), unreadable])
        with pytest.raises(FormatError, match=r"^record 1: "):
            batch([(a, a), unreadable])
        with pytest.raises(ShapeError, match=r"^record 1: "):
            batch([(a, a), (a, bad)])
        with pytest.raises(ShapeError, match=r"^record 1: "):
            batch([(a, a), lambda: (a, bad)])
