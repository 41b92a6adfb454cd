"""Pseudo-paired dataset construction and hard-subset filtering.

The training-data workflow: take generated (or reconstructed) label cubes,
optionally augment them with the square symmetries, cut pattern-aligned
patches, and pair every label patch with the mosaic obtained by re-sampling
it through the filter array — so each pair is pixel-aligned by construction.
The pair list is written as a JSON-lines manifest whose file paths are
relative to the manifest's own directory, one record per line:

    {"mosaic": str, "cube": str, "source": str, "origin": [row, col],
     "aug": str, "hard": bool|null, "count": int|null}

A record is scored as the pair :func:`record_pair` returns: its label cube
and the bilinear reconstruction of its own mosaic. ``filter_hard`` runs the
frequency-domain detector over one such loader per record and keeps only the
hard ones, yielding a subsequence of the input manifest; ``specmosaic
metrics`` scores the same pairs.

Augmentation happens on label cubes *before* re-sampling: rotating a mosaic
directly would permute the filter pattern under the data, whereas
augment-then-remosaic keeps every emitted pair on the canonical pattern.

Record processing parallelizes under the ``SPECMOSAIC_THREADS`` cap, with
each record loaded inside its worker; files are written atomically and
manifests in input order, so outputs are byte-identical for any worker
count. ``make_pseudo_pairs`` decides every record from the sources'
sidecars before its workers start, and they only cut and write, so a source
its checks reject stops the run with no file written.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from ._threads import _named, map_records
from ._version import TOOL_VERSION
from .core import (
    D4_OPS,
    AlignmentError,
    BoundsError,
    FormatError,
    PatchOrigin,
    SfaPattern,
    SpectralCube,
    _as_format_error,
    _json_int,
    _json_str,
    crop_aligned,
    transform_d4,
)
from .demosaic import wb_bilinear
from .fileio import (
    cube_stem,
    read_cube,
    read_mosaic,
    read_sidecar,
    write_cube,
    write_mosaic,
    _atomic_write_bytes,
)
from .freqsel import FreqParams, SelectionParams, count_distribution, select_hard
from .sfa import _check_bands, mosaic

__all__ = [
    "PairRecord",
    "patchify",
    "augment_cube",
    "make_pseudo_pairs",
    "filter_hard",
    "record_pair",
    "read_manifest",
    "write_manifest",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.jsonl"

#: The shape-preserving D4 subset that augment_cube emits for non-square inputs.
AUGMENT_OPS_NONSQUARE = ("identity", "rot180", "flip_h", "flip_v")


@dataclass(frozen=True)
class PairRecord:
    """One manifest line: a mosaic/cube file pair plus its provenance."""

    mosaic: str
    cube: str
    source: str
    origin: tuple[int, int]
    aug: str
    hard: bool | None = None
    count: int | None = None

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json_line(cls, line: str) -> "PairRecord":
        with _as_format_error("manifest record"):
            doc = json.loads(line)
            row, col = doc["origin"]
            hard = doc.get("hard")
            if hard is not None and type(hard) is not bool:
                raise TypeError(f"hard must be true, false or null, got {hard!r}")
            return cls(
                mosaic=_json_str(doc["mosaic"]),
                cube=_json_str(doc["cube"]),
                source=_json_str(doc["source"]),
                origin=(_json_int(row), _json_int(col)),
                aug=_json_str(doc["aug"]),
                hard=hard,
                count=None if doc.get("count") is None else _json_int(doc["count"]),
            )


def write_manifest(records: Iterable[PairRecord], path: str | Path) -> None:
    text = "".join(r.to_json_line() + "\n" for r in records)
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def read_manifest(path: str | Path) -> list[PairRecord]:
    with _as_format_error(f"manifest {path}"):
        text = Path(path).read_text(encoding="utf-8")
    records: list[PairRecord] = []
    # Not splitlines(): JSON strings may hold U+0085, U+2028 and U+2029 raw,
    # and read_text has already turned "\r\n" and "\r" into "\n".
    for n, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        try:
            records.append(PairRecord.from_json_line(line))
        except FormatError as e:
            raise FormatError(f"{path} line {n + 1}: {e}") from e
    return records


def _patch_stride(patch_h: int, patch_w: int, stride: int | None) -> int:
    """``stride`` if given, else the side of a square patch (non-overlapping
    tiles); a non-square patch has no default stride."""
    if stride is not None:
        return stride
    if patch_h != patch_w:
        raise AlignmentError(f"non-square patch {patch_h}x{patch_w} needs an explicit stride")
    return patch_h


def _patch_origins(
    height: int, width: int, patch_h: int, patch_w: int, stride: int, period: int
) -> list[PatchOrigin]:
    """The windows :func:`patchify` cuts from a ``height`` x ``width`` cube,
    with its checks and messages."""
    if patch_h < 1 or patch_w < 1 or stride < 1:
        raise BoundsError(f"patch {patch_h}x{patch_w} and stride {stride} must be positive")
    for name, value in (("patch height", patch_h), ("patch width", patch_w), ("stride", stride)):
        if value % period != 0:
            raise AlignmentError(
                f"{name} {value} is not a multiple of the pattern period {period}")
    if patch_h > height or patch_w > width:
        raise BoundsError(f"patch {patch_h}x{patch_w} exceeds cube extent {height}x{width}")
    return [
        PatchOrigin(row, col, patch_h, patch_w)
        for row in range(0, height - patch_h + 1, stride)
        for col in range(0, width - patch_w + 1, stride)
    ]


def patchify(
    cube: SpectralCube, patch_h: int, patch_w: int, stride: int, period: int
) -> list[tuple[PatchOrigin, SpectralCube]]:
    """Cut all fully-inside windows at stride offsets, row-major order.

    Patch dims and the stride must be multiples of the pattern period so
    every patch keeps the parent's mosaic phase.
    """
    origins = _patch_origins(cube.height, cube.width, patch_h, patch_w, stride, period)
    return [(o, crop_aligned(cube, o, period)) for o in origins]


def _augment_ops(height: int, width: int, what: str) -> Sequence[str]:
    """The ops augmentation applies to a ``height`` x ``width`` cube: all of
    D4_OPS if it is square, else the shape-preserving 4 and a warning."""
    if height == width:
        return D4_OPS
    warnings.warn(
        f"non-square {what} {height}x{width}: emitting only the "
        f"{len(AUGMENT_OPS_NONSQUARE)} shape-preserving variants",
        RuntimeWarning,
    )
    return AUGMENT_OPS_NONSQUARE


def augment_cube(cube: SpectralCube) -> list[tuple[str, SpectralCube]]:
    """All square-symmetry variants of a cube as (op name, cube) pairs.

    Square inputs yield the 8 variants of D4_OPS in that fixed order,
    the first being the input itself. Non-square inputs can only keep their
    shape under 4 of the 8 ops, so only those are emitted, with a warning.

    No pipeline calls it: ``pairs`` runs :func:`_augment_ops` on each
    source's sidecar shape and :func:`~specmosaic.core.transform_d4` one
    variant at a time. It stays public while the benchmark's per-layer trace
    still looks it up.
    """
    return [(op, transform_d4(cube, op)) for op in _augment_ops(cube.height, cube.width, "cube")]


def _patch_stem(prefix: str, origin: PatchOrigin) -> str:
    """``prefix`` plus the patch origin, the one stem format of every patch."""
    return f"{prefix}_r{origin.row:05d}_c{origin.col:05d}"


def make_pseudo_pairs(
    cube_paths: Sequence[str | Path],
    pattern: SfaPattern,
    out_dir: str | Path,
    *,
    patch: tuple[int, int] | None = None,
    stride: int | None = None,
    augment: bool = False,
) -> list[PairRecord]:
    """Build the pseudo-paired dataset from label cube files.

    For every input cube: (optionally) augment, (optionally) patchify, and
    for each resulting label patch write the patch cube plus the mosaic
    re-sampled from it, both carrying the pattern in their sidecars (the
    cube also the source's ``wavelengths_nm``, if any). Paths in
    the returned records (and the manifest written to
    ``out_dir/MANIFEST_NAME``) are relative to ``out_dir``. Re-reading any
    record and re-sampling its cube reproduces its mosaic bit-exactly.

    Every record is decided before any file is written. Each source's
    sidecar is read once, in source order: its shape decides the ops (with
    ``augment``, all of D4_OPS for a square source, else the
    shape-preserving 4 and one warning naming it), its band count must match
    the pattern, and its patch origins are laid out as :func:`patchify`
    would. Sources whose ``{source}_{op}`` stems meet for the ops they emit,
    equal names included, raise :class:`FormatError`. A run those checks
    stop writes no file. Workers then only read payloads and write one patch
    at a time, so a worker holds one source cube, one variant and one patch.

    ``stride`` defaults to the patch height/width when omitted
    (non-overlapping tiling); a non-square patch requires an explicit stride.
    """
    out = Path(out_dir)
    if patch is not None:
        patch_h, patch_w = int(patch[0]), int(patch[1])
        stride = _patch_stride(patch_h, patch_w, stride)
    elif stride is not None:
        raise AlignmentError("a stride without a patch size is meaningless")

    Plan = tuple[Path, tuple[float, ...] | None, list[PatchOrigin], dict[str, list[PairRecord]]]

    def plan(source: Path) -> Plan:
        side = read_sidecar(source)
        ops = _augment_ops(side.height, side.width, f"cube {source}") if augment else ("identity",)
        _check_bands(side, pattern, f"cube {source}")
        # Variants keep the source's shape (a non-square one gets only the
        # shape-preserving ops), so one origin list serves every op.
        origins = [PatchOrigin(0, 0, side.height, side.width)] if patch is None else (
            _patch_origins(side.height, side.width, patch_h, patch_w, stride, pattern.period))
        by_op: dict[str, list[PairRecord]] = {}
        for op in ops:
            stems = [_patch_stem(f"{source.name}_{op}", o) for o in origins]
            by_op[op] = [PairRecord(f"{t}_mosaic.bsq", f"{t}_cube.bsq", source.name,
                                    (o.row, o.col), op) for t, o in zip(stems, origins)]
        return source, side.wavelengths_nm, origins, by_op

    # In the parent and in source order, so warnings and errors come out the
    # same for any worker count.
    plans = [_named(plan, "source", item) for item in enumerate(map(cube_stem, cube_paths))]
    # Record stems start "{source}_{op}", so equal names meet, and so do
    # "s" + "anti_transpose" and "s_anti" + "transpose".
    writer: dict[str, int] = {}
    for i, (source, _, _, by_op) in enumerate(plans):
        for op in by_op:
            j = writer.setdefault(f"{source.name}_{op}", i)
            if j != i:
                raise FormatError(
                    f"sources {plans[j][0]} and {source} both write records named "
                    f"{source.name}_{op}_*"
                )

    def job(item: Plan) -> None:
        path, wavelengths, origins, by_op = item
        cube = read_cube(path)
        for op, recs in by_op.items():
            var = transform_d4(cube, op)
            for origin, rec in zip(origins, recs):
                # D4 ops and crops keep band order, so every patch keeps the list.
                label = crop_aligned(var, origin, pattern.period)
                write_cube(label, out / rec.cube, pattern=pattern, wavelengths_nm=wavelengths)
                write_mosaic(mosaic(label, pattern), out / rec.mosaic, pattern=pattern)
                del label  # before the next patch is cut
            del var  # before the next variant is made

    map_records(job, plans, what="source")
    records = [r for *_, by_op in plans for recs in by_op.values() for r in recs]
    write_manifest(records, out / MANIFEST_NAME)
    return records


def record_pair(base: str | Path, rec: PairRecord) -> tuple[SpectralCube, SpectralCube]:
    """The pair a record is scored on: its label cube and the bilinear
    reconstruction of its own mosaic, with paths relative to ``base``; the
    pattern comes from the cube's sidecar."""
    cube, side = read_cube(Path(base) / rec.cube), read_sidecar(Path(base) / rec.cube)
    if side.pattern is None:
        raise FormatError(f"cube sidecar for {rec.cube} carries no pattern")
    return cube, wb_bilinear(read_mosaic(Path(base) / rec.mosaic), side.pattern)


def filter_hard(
    manifest_path: str | Path,
    fparams: FreqParams | None = None,
    sparams: SelectionParams | None = None,
    *,
    out_path: str | Path,
) -> list[PairRecord]:
    """Keep only the hard records of a manifest.

    Runs :func:`~specmosaic.freqsel.select_hard` over one loader per record,
    each returning the record's :func:`record_pair`, so a failure names
    ``record i``. The filtered manifest — a subsequence of the input, with
    ``hard`` and ``count`` filled in and paths rebased onto its own
    directory — is written to ``out_path``, and a full per-record verdict
    sidecar to ``out_path + ".verdicts.json"``. Returns the surviving records;
    a run that keeps none or all of them warns with the count distribution.
    """
    fparams = fparams or FreqParams()
    sparams = sparams or SelectionParams()
    records = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    loaders = [partial(record_pair, base, rec) for rec in records]
    verdicts = select_hard(loaders, fparams, sparams)

    def rebase(rel: str) -> str:
        return os.path.relpath(base / rel, Path(out_path).parent)

    kept = [
        replace(rec, mosaic=rebase(rec.mosaic), cube=rebase(rec.cube),
                hard=v.is_hard, count=v.count)
        for rec, v in zip(records, verdicts)
        if v.is_hard
    ]
    write_manifest(kept, out_path)
    sidecar = {
        "params": {**asdict(fparams), **asdict(sparams)},
        "verdicts": [
            {"index": i, "count": v.count, "hard": v.is_hard}
            for i, v in enumerate(verdicts)
        ],
        "tool_version": TOOL_VERSION,
    }
    doc = json.dumps(sidecar, indent=2) + "\n"
    _atomic_write_bytes(Path(str(out_path) + ".verdicts.json"), doc.encode("utf-8"))
    if verdicts and len(kept) in (0, len(verdicts)):
        # Keeping none or all says the thresholds do not separate this corpus.
        d = count_distribution([v.count for v in verdicts])
        warnings.warn(
            f"kept {len(kept)} of {len(verdicts)} records "
            f"({len(kept) / len(verdicts):.0%}); counts min {d['min']:.12g}, "
            f"p50 {d['p50']:.12g}, max {d['max']:.12g} against t_cnt {sparams.t_cnt}",
            RuntimeWarning,
        )
    return kept
