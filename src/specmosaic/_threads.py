"""Deterministic worker-pool helpers.

The environment variable ``SPECMOSAIC_THREADS`` caps parallelism for every
batch operation in the package (0 or unset means auto-detect). The cap never
exceeds the CPUs this process may run on: extra threads only contend for the
GIL. All parallel maps preserve input order and all mapped functions are
pure, so results — and therefore every file written from them — are
byte-identical regardless of the worker count or scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .core import FormatError, SpecmosaicError

__all__ = ["worker_count", "parallel_map", "map_records"]

_ENV_VAR = "SPECMOSAIC_THREADS"

T = TypeVar("T")
R = TypeVar("R")


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


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items``, returning results in input order.

    Uses a thread pool sized by :func:`worker_count`; falls back to a plain
    loop when one worker (or one item) makes a pool pointless. Exceptions
    from ``fn`` propagate at the failing item's position in input order.
    """
    seq: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    n = worker_count()
    if n <= 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, seq))


def map_records(
    fn: Callable[[T], R], items: Iterable[T], what: str = "record"
) -> list[R]:
    """:func:`parallel_map` that names the failing item.

    A :class:`SpecmosaicError` from ``fn`` is re-raised as the same type
    prefixed with ``"{what} {i}: "``; an ``OSError`` becomes a
    :class:`FormatError` with that prefix.
    """

    def job(item: tuple[int, T]) -> R:
        i, x = item
        try:
            return fn(x)
        except SpecmosaicError as e:
            raise type(e)(f"{what} {i}: {e}") from e
        except OSError as e:
            raise FormatError(f"{what} {i}: {e}") from e

    return parallel_map(job, list(enumerate(items)))
