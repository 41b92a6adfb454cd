"""In-process tracer that times calls into each layer's public functions.

The program is not modified: :func:`installed` rebinds every listed function
at its module-level name in every ``specmosaic`` module that holds it (the
defining module and each module that imported it), and restores the
originals on exit. Spans stay in memory; :meth:`Tracer.layer_stats` turns
them into per-function self time, call counts and latency percentiles.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# layer name -> (defining module, public functions timed at that layer)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "fileio": ("specmosaic.fileio",
               ("read_cube", "read_sidecar", "read_mosaic", "write_cube", "write_mosaic")),
    "core": ("specmosaic.core", ("validate_cube", "transform_d4", "crop_aligned")),
    "sfa": ("specmosaic.sfa", ("remosaic",)),
    "demosaic": ("specmosaic.demosaic", ("wb_bilinear",)),
    "freqsel": ("specmosaic.freqsel",
                ("centered_spectrum", "log_magnitude", "gaussian_blur",
                 "classify_patch", "frequency_variation_map")),
    "metrics": ("specmosaic.metrics", ("psnr", "ssim", "sam")),
    "dataset": ("specmosaic.dataset",
                ("make_pseudo_pairs", "filter_hard", "read_manifest",
                 "write_manifest", "patchify", "augment_cube")),
    "threads": ("specmosaic._threads", ("parallel_map",)),
}

# Per-record kernels that also get latency percentiles.
KERNELS = ("freqsel.frequency_variation_map", "metrics.ssim",
           "demosaic.wb_bilinear", "fileio.read_cube")

TAIL_EXCESS = 10  # the tail percentile is the highest with this many calls beyond it


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    record: int | None  # index of the parallel_map item this span belongs to
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, record: int | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if record is None and parent is not None:
            record = self.spans[parent].record
        s = Span(name, perf_counter(), parent, record)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line; times in seconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                    "record": s.record, "start": s.start - t0,
                                    "end": s.end - t0}) + "\n")

    def root_time(self, since: int = 0) -> float:
        """Total duration of top-level spans recorded from index ``since``."""
        return sum(s.end - s.start for s in self.spans[since:] if s.parent is None)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s``, ``calls`` and, for kernels, ``p50_ms``
        and ``tail_ms`` (with ``tail_pct``, the percentile it sits at; the
        slowest call when there are too few calls for a tail)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        durations: dict[str, list[float]] = {n: [] for n in span_names()}
        self_s: dict[str, float] = {n: 0.0 for n in span_names()}
        for s, c in zip(self.spans, child):
            if s.name in durations:
                durations[s.name].append(s.end - s.start)
                self_s[s.name] += s.end - s.start - c
        stats: dict[str, dict[str, float]] = {}
        for name, ds in durations.items():
            st = {"self_s": self_s[name], "calls": len(ds)}
            if name in KERNELS and ds:
                ds = sorted(ds)
                k = len(ds) - 1 - TAIL_EXCESS if len(ds) > TAIL_EXCESS else len(ds) - 1
                st["p50_ms"] = 1e3 * ds[(len(ds) - 1) // 2]
                st["tail_ms"] = 1e3 * ds[k]
                st["tail_pct"] = 100.0 * k / max(len(ds) - 1, 1)
            stats[name] = st
        return stats


def _sidecar_size(path) -> int:
    p = Path(path)
    if p.suffix in (".bsq", ".json"):
        p = p.with_suffix("")
    return p.with_suffix(".json").stat().st_size


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Rebind the LAYERS functions (and the atomic writer, for byte counts)
    to traced versions for the duration of the block."""
    importlib.import_module("specmosaic.cli")  # imports every layer
    mods = [m for n, m in list(sys.modules.items())
            if n == "specmosaic" or n.startswith("specmosaic.")]
    replacements: list[tuple[Callable, Callable]] = []

    for layer, (modname, fns) in LAYERS.items():
        mod = sys.modules[modname]
        for fn in fns:
            orig = getattr(mod, fn)
            replacements.append((orig, _traced(tracer, f"{layer}.{fn}", orig)))

    fileio = sys.modules["specmosaic.fileio"]
    atomic = fileio._atomic_write_bytes

    def counted_write(path, data):
        tracer.bytes_written += len(data)
        return atomic(path, data)

    replacements.append((atomic, counted_write))

    undo: list[tuple[object, str, Callable]] = []
    try:
        for orig, new in replacements:
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
                        undo.append((mod, attr, orig))
        yield
    finally:
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)


def _traced(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if name == "threads.parallel_map":
        # Each item's job runs in a "record" span carrying the item index,
        # so every span of one record shares that id.
        def parallel_map(job, items):
            def record_job(pair):
                i, item = pair
                with tracer.span("record", record=i):
                    return job(item)
            with tracer.span(name):
                return fn(record_job, list(enumerate(items)))
        return parallel_map
    traced = tracer.wrap(name, fn)
    if name == "fileio.read_sidecar":
        def read_sidecar(path):
            out = traced(path)
            tracer.bytes_read += _sidecar_size(path)
            return out
        return read_sidecar
    if name == "fileio.read_cube":
        def read_cube(path):
            cube = traced(path)
            tracer.bytes_read += cube.data.nbytes
            return cube
        return read_cube
    if name == "dataset.read_manifest":
        def read_manifest(path):
            out = traced(path)
            tracer.bytes_read += Path(path).stat().st_size
            return out
        return read_manifest
    return traced
