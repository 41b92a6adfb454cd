"""Deterministic worker-pool helpers.

The environment variable ``SPECMOSAIC_THREADS`` caps parallelism for every
batch operation in the package (0 or unset means auto-detect). The cap never
exceeds the CPUs this process may run on. Workers are processes forked from
the caller, so the many small NumPy calls each record makes do not queue on
one interpreter lock. A forked worker inherits the mapped function and its
inputs through copy-on-write memory: neither is pickled, so closures work,
and only item indices go out and results come back. No kernel in the package
calls BLAS, so its threads need no pinning inside workers. Forking is unsafe
while other threads of the caller may hold locks: a caller that runs threads
of its own should set ``SPECMOSAIC_THREADS=1``.

All parallel maps preserve input order and all mapped functions are pure, so
results — and therefore every file written from them — are byte-identical
regardless of the worker count or scheduling.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

from .core import FormatError, SpecmosaicError

__all__ = ["worker_count", "parallel_map", "map_records", "map_pairs"]

_ENV_VAR = "SPECMOSAIC_THREADS"

T = TypeVar("T")
R = TypeVar("R")

# The (fn, items) of the map a forked worker serves; set in each worker only.
_job: tuple[Callable, Sequence] | None = None


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


def _install(fn: Callable, seq: Sequence) -> None:
    # Runs in each worker right after the fork; the arguments were inherited
    # from the parent's memory, not pickled.
    global _job
    _job = (fn, seq)


def _call(i: int):
    fn, seq = _job
    return fn(seq[i])


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items``, returning results in input order.

    Uses a pool of ``min(worker_count(), len(items))`` forked processes; runs
    a plain loop when that is one worker or the platform cannot fork. Results
    must be picklable. The first failing item in input order raises its
    exception, and items that have not started by then are cancelled.
    """
    seq: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    n = min(worker_count(), len(seq))
    if n > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                n, mp_context=ctx, initializer=_install, initargs=(fn, seq)
            ) as ex:
                try:
                    return list(ex.map(_call, range(len(seq))))
                except BaseException:
                    ex.shutdown(cancel_futures=True)
                    raise
    return [fn(x) for x in seq]


def _named(fn: Callable[[T], R], what: str | Callable[[T], str], item: tuple[int, T]) -> R:
    """``fn(x)`` for an ``(i, x)`` item, naming the item if it fails.

    A :class:`SpecmosaicError` from ``fn`` is re-raised as the same type
    prefixed with ``"{what} {i}: "``; an ``OSError`` becomes a
    :class:`FormatError` with that prefix; ``what`` may be a function of the
    failing item.
    """
    i, x = item
    try:
        return fn(x)
    except (SpecmosaicError, OSError) as e:
        word = what if isinstance(what, str) else what(x)
        kind = type(e) if isinstance(e, SpecmosaicError) else FormatError
        raise kind(f"{word} {i}: {e}") from e


def map_records(
    fn: Callable[[T], R],
    items: Iterable[T],
    what: str | Callable[[T], str] = "record",
) -> list[R]:
    """:func:`parallel_map` of :func:`_named`, which names the failing item."""
    return parallel_map(lambda item: _named(fn, what, item), list(enumerate(items)))


def map_pairs(
    fn: Callable[[T, T], R], items: Iterable[tuple[T, T] | Callable[[], tuple[T, T]]]
) -> list[R]:
    """:func:`map_records` of ``fn(a, b)`` over pairs given in memory or as
    loaders. A loader runs in the worker, so the caller holds loaders, not
    arrays; a failure reads ``record i`` for a loader, ``pair i`` otherwise.
    """
    return map_records(lambda x: fn(*(x() if callable(x) else x)), items,
                       what=lambda x: "record" if callable(x) else "pair")
