"""Deterministic worker-pool helpers.

The environment variable ``SPECMOSAIC_THREADS`` caps parallelism for every
batch operation in the package (0 or unset means auto-detect). The cap never
exceeds the CPUs this process may run on. Workers are processes forked from
the caller with ``os.fork``, so the many small NumPy calls each record makes
do not queue on one interpreter lock. A forked worker inherits the mapped
function and its inputs through copy-on-write memory: neither is pickled, so
closures work, and only item indices go out and pickled results come back,
each worker over its own pair of pipes. The caller hands out one index at a
time, in input order, and runs no helper thread. No kernel in the package
calls BLAS, so its threads need no pinning inside workers. Forking is unsafe
while other threads of the caller may hold locks: a caller that runs threads
of its own should set ``SPECMOSAIC_THREADS=1``.

All parallel maps preserve input order and all mapped functions are pure, so
results — and therefore every file written from them — are byte-identical
regardless of the worker count or scheduling.
"""

from __future__ import annotations

import os
import pickle
import select
import sys
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

from .core import FormatError, SpecmosaicError

__all__ = ["worker_count", "parallel_map", "map_records", "map_pairs"]

_ENV_VAR = "SPECMOSAIC_THREADS"

T = TypeVar("T")
R = TypeVar("R")

_HEAD = 8  # bytes of an item index, or of a reply's length, on a pipe


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_count() -> int:
    """Resolve the worker cap from ``SPECMOSAIC_THREADS`` (0/unset = auto),
    never more than the usable CPUs."""
    raw = os.environ.get(_ENV_VAR, "").strip() or "0"
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be a non-negative integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"{_ENV_VAR} must be a non-negative integer, got {n}")
    cpus = _usable_cpus()
    return min(n, cpus) if n else cpus


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or one the caller closed
            pass


def _serve(fn: Callable, seq: Sequence, tasks: BinaryIO, replies: BinaryIO) -> None:
    """A worker's loop: for each index read from ``tasks``, write the pickled
    ``(ok, value)`` of ``fn(seq[i])`` to ``replies``, until ``tasks`` closes."""
    while len(head := tasks.read(_HEAD)) == _HEAD:
        i = int.from_bytes(head, "little")
        try:
            reply = (True, fn(seq[i]))
        except BaseException as e:  # raised again by the caller
            reply = (False, e)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            what = "result" if reply[0] else "exception"
            error = pickle.PicklingError(f"item {i}: cannot send its {what} back: {e}")
            data = pickle.dumps((False, error))
        replies.write(len(data).to_bytes(_HEAD, "little") + data)
        replies.flush()


def _fork_map(fn: Callable, seq: Sequence, n: int) -> tuple[list, dict[int, BaseException]]:
    """Run ``fn`` over ``seq`` in ``n`` forked workers; returns the results in
    input order and the failures by index. After the first failure no item is
    handed out, and the running ones finish."""
    results: list = [None] * len(seq)
    failures: dict[int, BaseException] = {}
    todo = iter(range(len(seq)))
    # Each worker is keyed by the fd of its reply pipe.
    workers: dict[int, tuple[int, BinaryIO]] = {}  # its pid and reply file
    tasks: dict[int, int] = {}  # the fd of its task pipe, until that is closed
    running: dict[int, int] = {}  # the index of the item it runs
    poller = select.poll()

    def hand_out(r: int) -> None:
        i = None if failures else next(todo, None)
        if i is None:  # closing the task pipe lets the worker exit
            poller.unregister(r)
            os.close(tasks.pop(r))
        else:
            os.write(tasks[r], i.to_bytes(_HEAD, "little"))
            running[r] = i

    _flush_std_streams()  # else each worker would write the caller's buffered output again
    try:
        for _ in range(n):
            fds: list[int] = []  # this worker's pipes, closed here if it cannot start
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except BaseException:
                for fd in fds:
                    os.close(fd)
                raise
            task_r, task_w, reply_r, reply_w = fds
            if pid == 0:  # the worker: it never returns into the caller's stack
                status = 1
                try:
                    # A sibling whose task pipe stays open here would never exit.
                    for fd in (task_w, reply_r, *workers, *tasks.values()):
                        os.close(fd)
                    with open(task_r, "rb") as task_in, open(reply_w, "wb") as reply_out:
                        _serve(fn, seq, task_in, reply_out)
                    status = 0
                finally:
                    try:
                        _flush_std_streams()
                    finally:
                        os._exit(status)
            os.close(task_r)
            os.close(reply_w)
            workers[reply_r], tasks[reply_r] = (pid, open(reply_r, "rb")), task_w
            poller.register(reply_r, select.POLLIN)
            hand_out(reply_r)
        while running:
            for r, _ in poller.poll():
                i = running.pop(r)
                replies = workers[r][1]
                head = replies.read(_HEAD)
                size = int.from_bytes(head, "little")
                body = replies.read(size)
                if len(head) == _HEAD and len(body) == size:
                    ok, value = pickle.loads(body)
                else:  # end of file: the worker died mid-item
                    poller.unregister(r)
                    os.close(tasks.pop(r))
                    replies.close()
                    pid = workers.pop(r)[0]
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    ok, value = False, ChildProcessError(
                        f"item {i}: worker exited with status {code} before replying")
                if ok:
                    results[i] = value
                else:
                    failures[i] = value
                if r in tasks:
                    hand_out(r)
    except BaseException:
        import signal

        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in tasks.values():
            os.close(fd)
        for pid, replies in workers.values():
            replies.close()
            os.waitpid(pid, 0)
    return results, failures


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items``, returning results in input order.

    Forks ``min(worker_count(), len(items))`` workers and hands each idle one
    the next index in input order; runs a plain loop when that is one worker
    or the platform cannot fork. Results and exceptions must be picklable:
    one that is not comes back as a :class:`pickle.PicklingError` naming its
    item. After the first failure no further item starts; the running ones
    finish, and the failure with the smallest index is raised. A worker that
    dies mid-item raises :class:`ChildProcessError` naming the item.
    """
    seq: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    n = min(worker_count(), len(seq))
    if n < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in seq]
    results, failures = _fork_map(fn, seq, n)
    if failures:
        raise failures[min(failures)]
    return results


def _named(fn: Callable[[T], R], what: str, item: tuple[int, T]) -> R:
    """``fn(x)`` for an ``(i, x)`` item, naming the item if it fails.

    A :class:`SpecmosaicError` from ``fn`` is re-raised as the same type
    prefixed with ``"{what} {i}: "``; an ``OSError`` becomes a
    :class:`FormatError` with that prefix.
    """
    i, x = item
    try:
        return fn(x)
    except (SpecmosaicError, OSError) as e:
        kind = type(e) if isinstance(e, SpecmosaicError) else FormatError
        raise kind(f"{what} {i}: {e}") from e


def map_records(fn: Callable[[T], R], items: Iterable[T], what: str = "record") -> list[R]:
    """:func:`parallel_map` of :func:`_named`, which names the failing item."""
    return parallel_map(lambda item: _named(fn, what, item), list(enumerate(items)))


def map_pairs(
    fn: Callable[[T, T], R], items: Iterable[tuple[T, T] | Callable[[], tuple[T, T]]]
) -> list[R]:
    """:func:`map_records` of ``fn(a, b)`` over pairs given in memory or as
    loaders. A loader runs in the worker, so the caller holds loaders, not
    arrays; a failure reads ``record i`` for either form.
    """
    return map_records(lambda x: fn(*(x() if callable(x) else x)), items)
