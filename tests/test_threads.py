import multiprocessing
import os
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
from specmosaic._threads import map_records, worker_count


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_worker_count_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setenv("SPECMOSAIC_THREADS", "64")
    assert 1 <= worker_count() <= _usable_cpus()
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("SPECMOSAIC_THREADS", "0")
    assert worker_count() == _usable_cpus()


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
    assert multiprocessing.active_children() == []


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
    assert multiprocessing.active_children() == []
    with pytest.raises(FormatError, match=r"^record 5: denied$"):
        map_records(fn, [0, 1, 2, 4, 4, 5, 6])
    assert multiprocessing.active_children() == []


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
    assert multiprocessing.active_children() == []


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
def test_loader_failures_read_record_and_pair_failures_read_pair(monkeypatch, threads):
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
        with pytest.raises(ShapeError, match=r"^pair 1: "):
            batch([(a, a), (a, bad)])
        with pytest.raises(ShapeError, match=r"^record 1: "):
            batch([(a, a), lambda: (a, bad)])
