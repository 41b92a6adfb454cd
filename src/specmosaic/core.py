"""Core value types for spectral cubes, mosaics, and filter-array patterns.

Conventions that hold across the whole package:

* Cube samples are stored band-sequential: ``data[band, row, col]`` in a
  C-contiguous float32 array. Per-band access is a cheap view, which is the
  access pattern every downstream kernel wants.
* Storage is float32; arithmetic inside kernels happens in float64 and is
  rounded back to float32 on output. This keeps file round-trips bit-exact
  while avoiding drift inside the math.
* Value types are immutable after construction (backing numpy buffers are
  marked read-only), so they can be shared freely, including with forked
  worker processes, which inherit them copy-on-write.
* Geometry helpers that interact with the mosaic lattice take the pattern
  period explicitly and refuse misaligned windows — a patch that starts
  off-phase would silently scramble the band assignment of every pixel in it.
"""

from __future__ import annotations

import dataclasses
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "SpecmosaicError",
    "ShapeError",
    "AlignmentError",
    "BoundsError",
    "ValidationError",
    "FormatError",
    "DegenerateInputError",
    "SpectralCube",
    "MosaicImage",
    "SfaPattern",
    "PatchOrigin",
    "validate_cube",
    "crop_aligned",
    "transform_d4",
    "D4_OPS",
]

DTYPE = np.float32


class SpecmosaicError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SpecmosaicError, ValueError):
    """Array dimensions do not satisfy an operation's contract."""


class AlignmentError(SpecmosaicError, ValueError):
    """An origin or size is not aligned to the pattern period."""


class BoundsError(SpecmosaicError, ValueError):
    """A window or index falls outside its parent image."""


class ValidationError(SpecmosaicError, ValueError):
    """Data values violate an invariant (non-finite samples, bad pattern)."""


class FormatError(SpecmosaicError, ValueError):
    """An on-disk file is missing, truncated, or ill-formed."""


class DegenerateInputError(SpecmosaicError, ValueError):
    """The input is too small or too empty for the operation to be defined."""


@contextmanager
def _as_format_error(what: str) -> Iterator[None]:
    """The parse boundary for outside input: inside it a bad file or value
    raises only :class:`FormatError`. One raised inside passes through, a
    missing file becomes ``missing {what}``, and the errors of reading or
    decoding a bad file or value become ``ill-formed {what}: {e}``."""
    try:
        yield
    except FormatError:
        raise
    except FileNotFoundError:
        raise FormatError(f"missing {what}") from None
    except (OSError, ValueError, TypeError, KeyError, IndexError, OverflowError,
            RecursionError) as e:  # RecursionError: JSON nested too deep
        raise FormatError(f"ill-formed {what}: {e}") from e


def _json_int(value: object) -> int:
    """``value`` if it is a JSON integer; a float, string or bool raises."""
    if type(value) is not int:  # not isinstance: a bool is an int
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_str(value: object) -> str:
    """``value`` if it is a JSON string; a number, bool or null raises."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _json_float(value: object) -> float:
    """``value`` as a float if it is a finite real number, NumPy scalars
    included; a bool, string, NaN or infinity raises."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and np.isfinite(float(value))):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _frozen_f32(data: np.ndarray, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if any(n < 1 for n in arr.shape):
        raise ShapeError(f"{what} dimensions must all be >= 1, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype=DTYPE)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralCube:
    """A dense spectral image: ``data[band, row, col]`` float32, read-only.

    Construction checks structure only (3 dimensions, each >= 1). Values may
    be anything representable, NaN and infinities included: the value check
    is :func:`validate_cube`, which every cube read runs. The constructor
    takes ownership of the buffer when it is already C-contiguous float32
    (it is marked read-only in place); otherwise a converted copy is made.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen_f32(self.data, 3, "cube data"))

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def band(self, k: int) -> np.ndarray:
        """Read-only (height, width) view of band ``k``."""
        return self.data[k]


@dataclass(frozen=True)
class MosaicImage:
    """A single-channel sensor frame: ``data[row, col]`` float32, read-only."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen_f32(self.data, 2, "mosaic data"))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SfaPattern:
    """A period x period grid assigning one band index to each cell.

    The assignment must be a bijection onto {0, ..., period**2 - 1}: each band
    is sampled exactly once per period tile, so the per-pixel masks partition
    the sensor.
    """

    band_at: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.band_at)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ShapeError(f"pattern grid must be square, got shape {grid.shape}")
        p = grid.shape[0]
        if p < 1:
            raise ShapeError("pattern period must be >= 1")
        grid = np.ascontiguousarray(grid, dtype=np.int64)
        if not np.array_equal(np.sort(grid.ravel()), np.arange(p * p)):
            raise ValidationError(
                f"pattern must assign each band in 0..{p * p - 1} exactly once"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "band_at", grid)

    @classmethod
    def row_major(cls, period: int) -> "SfaPattern":
        """The default assignment: band ``i*period + j`` at cell (i, j)."""
        if period < 1:
            raise ShapeError("pattern period must be >= 1")
        return cls(np.arange(period * period).reshape(period, period))

    @property
    def period(self) -> int:
        return self.band_at.shape[0]

    @property
    def bands(self) -> int:
        return self.period * self.period

    def index_map(self, height: int, width: int) -> np.ndarray:
        """(height, width) int array giving the band sampled at each pixel."""
        p = self.period
        rows = np.arange(height) % p
        cols = np.arange(width) % p
        return self.band_at[rows[:, None], cols[None, :]]

    def to_dict(self) -> dict:
        return {"period": self.period, "band_at": self.band_at.ravel().tolist()}

    @classmethod
    def from_dict(cls, d: dict, *, what: str = "pattern description") -> "SfaPattern":
        """Parse :meth:`to_dict`'s output; ``what`` names the input in errors."""
        with _as_format_error(what):
            period = _json_int(d["period"])
            if period < 1:
                raise FormatError(f"{what}: period must be >= 1, got {period}")
            flat = [_json_int(b) for b in d["band_at"]]
            if len(flat) != period * period:
                raise FormatError(
                    f"{what}: band_at must list period**2 = {period * period} entries"
                )
            return cls(np.asarray(flat, dtype=np.int64).reshape(period, period))


@dataclass(frozen=True)
class PatchOrigin:
    """A window into a parent image: top-left corner plus size."""

    row: int
    col: int
    size_h: int
    size_w: int

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise BoundsError(f"origin ({self.row}, {self.col}) must be non-negative")
        if self.size_h < 1 or self.size_w < 1:
            raise BoundsError(
                f"patch size {self.size_h}x{self.size_w} must be at least 1x1"
            )


def validate_cube(cube: SpectralCube) -> None:
    """Raise :class:`ValidationError` unless every sample is finite; the
    value check :func:`~specmosaic.fileio.read_cube` runs on every read.

    The test is the samples' minimum and maximum, finite exactly when every
    sample is (NaN reaches both, an infinity one). The message counts the
    non-finite samples and lists the first 10 (band, row, col) positions in
    storage order.
    """
    data = cube.data
    if np.isfinite(data.min()) and np.isfinite(data.max()):
        return
    bad = ~np.isfinite(data)
    first = ", ".join(str(tuple(int(i) for i in idx)) for idx in np.argwhere(bad)[:10])
    raise ValidationError(f"non_finite: {int(bad.sum())} sample(s), first at {first}")


def crop_aligned(cube: SpectralCube, origin: PatchOrigin, period: int) -> SpectralCube:
    """Extract the window described by ``origin`` from all bands.

    The origin must sit on a period boundary so the patch keeps the parent's
    mosaic phase, and the window must lie fully inside the cube.
    """
    if period < 1:
        raise AlignmentError("period must be >= 1")
    if origin.row % period != 0 or origin.col % period != 0:
        raise AlignmentError(
            f"origin ({origin.row}, {origin.col}) not aligned to period {period}"
        )
    if origin.row + origin.size_h > cube.height or origin.col + origin.size_w > cube.width:
        raise BoundsError(
            f"window {origin} exceeds cube extent {cube.height}x{cube.width}"
        )
    window = cube.data[
        :,
        origin.row : origin.row + origin.size_h,
        origin.col : origin.col + origin.size_w,
    ]
    return SpectralCube(window.copy())


# Spatial index maps, applied identically to every band. With out = f(x):
#   rot90cw:        out[u, v] = x[H-1-v, u]      (top row becomes right column)
#   rot180:         out[u, v] = x[H-1-u, W-1-v]
#   rot270cw:       out[u, v] = x[v, W-1-u]
#   flip_h:         out[u, v] = x[u, W-1-v]      (left-right mirror)
#   flip_v:         out[u, v] = x[H-1-u, v]      (top-bottom mirror)
#   transpose:      out[u, v] = x[v, u]
#   anti_transpose: out[u, v] = x[H-1-v, W-1-u]  (transpose of rot180)
_D4_ARRAY_OPS = {
    "identity": lambda d: d,
    "rot90cw": lambda d: np.rot90(d, k=-1, axes=(1, 2)),
    "rot180": lambda d: np.rot90(d, k=2, axes=(1, 2)),
    "rot270cw": lambda d: np.rot90(d, k=1, axes=(1, 2)),
    "flip_h": lambda d: d[:, :, ::-1],
    "flip_v": lambda d: d[:, ::-1, :],
    "transpose": lambda d: d.swapaxes(1, 2),
    "anti_transpose": lambda d: d[:, ::-1, ::-1].swapaxes(1, 2),
}
#: The 8 square symmetries, in augmentation order.
D4_OPS = tuple(_D4_ARRAY_OPS)


def transform_d4(cube: SpectralCube, op: str) -> SpectralCube:
    """Apply one of the 8 square symmetries to every band.

    Rotations and transposes of non-square cubes swap the spatial dimensions
    of the output. Each transform is a pure pixel permutation, so per-band
    value multisets are preserved exactly.
    """
    try:
        fn = _D4_ARRAY_OPS[op]
    except KeyError:
        raise ValueError(f"unknown transform {op!r}; expected one of {D4_OPS}") from None
    return SpectralCube(np.ascontiguousarray(fn(cube.data)))
