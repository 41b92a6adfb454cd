"""Bit-exact on-disk formats.

Cubes travel as a pair of files sharing a stem: ``<stem>.bsq`` holds raw
little-endian IEEE-754 float32 samples, band-sequential and row-major within
each band, and ``<stem>.json`` is a sidecar describing the geometry plus
optional filter-pattern and wavelength metadata. The pair is trivial to parse
from any language and round-trips bit-identically.

Mosaics reuse the same container with ``bands = 1``. A frequency-variation
map, a plain (H, W) array, is written as a 1-band cube and can additionally
be exported as an 8-bit PGM preview normalized by the map maximum.

All writes go through a temp-file-then-rename so readers never observe a
partially written artifact. Each write uses its own randomly named temp file
in the target's directory, so concurrent writers of one path cannot collide,
and a failed write removes its temp file before the error propagates. A
cube's write first removes any old sidecar, then writes the payload, then the
new sidecar: a write cut anywhere between, over a fresh or an existing cube,
reads back as a missing sidecar (:class:`FormatError`), never as a payload
beside a stale sidecar.

Every reader fails on a missing or malformed file with :class:`FormatError`
naming the file, or with :class:`ValidationError` on NaN/Inf samples.
Fields must have their JSON types: an integer field rejects ``2.0``, ``"2"``
and ``true``, a string field rejects ``5`` and ``null``, and a wavelength
must be a finite number, not ``true``, ``"450"`` or ``NaN``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import InitVar, dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    FormatError,
    MosaicImage,
    SfaPattern,
    ShapeError,
    SpectralCube,
    ValidationError,
    _as_format_error,
    _json_float,
    _json_int,
    _json_str,
    validate_cube,
)

__all__ = [
    "CubeSidecar",
    "write_cube",
    "read_cube",
    "read_sidecar",
    "write_mosaic",
    "read_mosaic",
    "write_pgm8",
    "write_fvmap",
    "load_pattern_spec",
    "cube_stem",
]

PAYLOAD_SUFFIX = ".bsq"
SIDECAR_SUFFIX = ".json"


def cube_stem(path: str | Path) -> Path:
    """Normalize a cube reference to its stem: ``x``, ``x.bsq`` and
    ``x.json`` all name the same pair of files. Only a final ``.bsq`` or
    ``.json`` is stripped, so ``x.v2`` is a stem of its own."""
    p = Path(path)
    if p.suffix in (PAYLOAD_SUFFIX, SIDECAR_SUFFIX):
        return p.with_suffix("")
    return p


def _atomic_write_bytes(path: Path, data: bytes | memoryview) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # A random temp name per call keeps concurrent writers of one path apart,
    # and exclusive creation never opens another writer's temp file. open()
    # creates it with mode 0o666 & ~umask, like any other new file.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class CubeSidecar:
    """Geometry and metadata accompanying a ``.bsq`` payload, which is always
    little-endian float32, band-sequential (``dtype`` and ``interleave``)."""

    height: int
    width: int
    bands: int
    pattern: SfaPattern | None = None
    wavelengths_nm: tuple[float, ...] | None = None
    what: InitVar[str] = "sidecar"  # names the input in a failed check

    def __post_init__(self, what: str) -> None:
        with _as_format_error(what):
            if self.height < 1 or self.width < 1 or self.bands < 1:
                raise ValueError(
                    f"dims must be positive, got {self.height}x{self.width}x{self.bands}"
                )
            if self.wavelengths_nm is not None:
                wl = tuple(_json_float(x) for x in self.wavelengths_nm)
                object.__setattr__(self, "wavelengths_nm", wl)
                if len(wl) != self.bands:
                    raise ValueError(
                        f"wavelengths_nm has {len(wl)} entries for {self.bands} bands"
                    )

    def to_dict(self) -> dict:
        d: dict = {
            "height": self.height,
            "width": self.width,
            "bands": self.bands,
            "dtype": "f32le",
            "interleave": "bsq",
        }
        if self.pattern is not None:
            d["pattern"] = self.pattern.to_dict()
        if self.wavelengths_nm is not None:
            d["wavelengths_nm"] = list(self.wavelengths_nm)
        return d

    @classmethod
    def from_dict(cls, d: dict, *, what: str = "sidecar") -> "CubeSidecar":
        """Parse :meth:`to_dict`'s output; ``what`` names the input in errors."""
        if not isinstance(d, dict):
            raise FormatError(f"{what} must be a JSON object, got {type(d).__name__}")
        with _as_format_error(what):
            pattern = d.get("pattern")
            if pattern is not None:
                pattern = SfaPattern.from_dict(pattern, what=f"{what} pattern")
            dtype = _json_str(d.get("dtype", "f32le"))
            interleave = _json_str(d.get("interleave", "bsq"))
            dims = [_json_int(d[k]) for k in ("height", "width", "bands")]
            # Values are checked in order: dims, dtype, interleave, wavelengths.
            side = cls(*dims, pattern=pattern, what=what)
            if dtype != "f32le":
                raise ValueError(f"unsupported dtype {dtype!r} (only f32le)")
            if interleave != "bsq":
                raise ValueError(f"unsupported interleave {interleave!r} (only bsq)")
            return replace(side, wavelengths_nm=d.get("wavelengths_nm"), what=what)


def write_cube(
    cube: SpectralCube,
    path: str | Path,
    *,
    pattern: SfaPattern | None = None,
    wavelengths_nm: tuple[float, ...] | None = None,
) -> Path:
    """Write ``<stem>.bsq`` + ``<stem>.json``; returns the stem path. Metadata
    that :func:`read_sidecar` would reject raises before any file is touched."""
    stem = cube_stem(path)
    side_path = stem.with_name(stem.name + SIDECAR_SUFFIX)
    sidecar = CubeSidecar(
        height=cube.height,
        width=cube.width,
        bands=cube.bands,
        pattern=pattern,
        wavelengths_nm=wavelengths_nm,
        what=f"sidecar {side_path}",
    )
    # A byte view, not a copy; len() of the cast view is the byte count.
    payload = memoryview(np.ascontiguousarray(cube.data, dtype="<f4")).cast("B")
    # An old sidecar must not outlive its payload: a write cut after the
    # payload then reads back as a missing sidecar, not a stale one.
    side_path.unlink(missing_ok=True)
    _atomic_write_bytes(stem.with_name(stem.name + PAYLOAD_SUFFIX), payload)
    doc = json.dumps(sidecar.to_dict(), indent=2) + "\n"
    _atomic_write_bytes(side_path, doc.encode("utf-8"))
    return stem


def _move_cube(src: str | Path, dst: str | Path) -> None:
    """Rename a cube pair in :func:`write_cube`'s order: cut anywhere, it reads
    back as a missing sidecar."""
    src, dst = cube_stem(src), cube_stem(dst)
    dst.with_name(dst.name + SIDECAR_SUFFIX).unlink(missing_ok=True)
    for suffix in (PAYLOAD_SUFFIX, SIDECAR_SUFFIX):
        os.replace(src.with_name(src.name + suffix), dst.with_name(dst.name + suffix))


def read_sidecar(path: str | Path) -> CubeSidecar:
    stem = cube_stem(path)
    side_path = stem.with_name(stem.name + SIDECAR_SUFFIX)
    what = f"sidecar {side_path}"
    with _as_format_error(what):
        doc = json.loads(side_path.read_text(encoding="utf-8"))
    return CubeSidecar.from_dict(doc, what=what)


def read_cube(path: str | Path) -> SpectralCube:
    """Read a cube pair; bit-identical inverse of :func:`write_cube`. Every
    cube payload, a mosaic's too, is read here.

    Non-finite samples are rejected: files are the trust boundary, and every
    kernel assumes finite data. Every read runs
    :func:`~specmosaic.core.validate_cube`, and its error is re-raised with
    the payload path in front.
    """
    stem = cube_stem(path)
    side = read_sidecar(stem)
    payload_path = stem.with_name(stem.name + PAYLOAD_SUFFIX)
    with _as_format_error(f"payload {payload_path}"):
        raw = payload_path.read_bytes()
    expected = side.height * side.width * side.bands * 4
    if len(raw) != expected:
        raise FormatError(
            f"payload {payload_path} holds {len(raw)} bytes, "
            f"expected {expected} for {side.bands}x{side.height}x{side.width}"
        )
    arr = np.frombuffer(raw, dtype="<f4").reshape(side.bands, side.height, side.width)
    cube = SpectralCube(arr)
    try:
        validate_cube(cube)
    except ValidationError as e:
        raise ValidationError(f"{payload_path}: {e}") from None
    return cube


def write_mosaic(
    mosaic_img: MosaicImage, path: str | Path, *, pattern: SfaPattern | None = None
) -> Path:
    """Store a mosaic as a 1-band cube pair."""
    return write_cube(SpectralCube(mosaic_img.data[None]), path, pattern=pattern)


def read_mosaic(path: str | Path) -> MosaicImage:
    cube = read_cube(path)
    if cube.bands != 1:
        raise FormatError(f"{cube_stem(path)} has {cube.bands} bands; a mosaic has 1")
    return MosaicImage(cube.data[0])


def write_pgm8(values: np.ndarray, path: str | Path) -> None:
    """Export a non-negative 2D map as 8-bit PGM, normalized by its maximum
    (an all-zero map exports as all black)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError(f"PGM export needs a 2D map, got shape {arr.shape}")
    peak = float(arr.max()) if arr.size else 0.0
    if peak > 0.0:
        img = np.clip(np.rint(arr / peak * 255.0), 0, 255).astype(np.uint8)
    else:
        img = np.zeros(arr.shape, dtype=np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    _atomic_write_bytes(Path(path), header + img.tobytes())


def write_fvmap(
    values: np.ndarray, path: str | Path, *, pgm: str | Path | None = None
) -> Path:
    """Write a frequency-variation map, an (H, W) array, as a 1-band cube
    file, optionally with an 8-bit PGM preview for visual inspection."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"map must be 2-dimensional, got shape {arr.shape}")
    stem = write_cube(SpectralCube(arr[None].astype(np.float32)), path)
    if pgm is not None:
        write_pgm8(arr, pgm)
    return stem


_PATTERN_SPEC_RE = re.compile(r"^(\d+)x(\d+)$")


def load_pattern_spec(spec: str) -> SfaPattern:
    """Resolve a CLI pattern argument: ``NxN`` (row-major band assignment)
    or a path to a JSON file {"period": N, "band_at": [row-major indices]}."""
    m = _PATTERN_SPEC_RE.match(spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a != b or a < 1:
            rule = "be square, e.g. 4x4" if a != b else "have a side of at least 1"
            raise FormatError(f"pattern spec {spec!r} must {rule}")
        return SfaPattern.row_major(a)
    what = f"pattern spec {spec!r} (neither NxN nor a readable JSON pattern file)"
    with _as_format_error(what):
        doc = json.loads(Path(spec).read_text(encoding="utf-8"))
    return SfaPattern.from_dict(doc, what=what)
