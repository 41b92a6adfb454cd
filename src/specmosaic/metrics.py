"""Reconstruction quality metrics: PSNR, SSIM, and spectral angle.

All three accept either :class:`~specmosaic.core.SpectralCube` values or bare
3D arrays laid out band-first, compute in float64, and are symmetric in their
two image arguments. Inputs are converted one band at a time: ``ssim``'s
temporaries are one (H, 4, W) float64 stack of a band's four moment maps
plus the results of its two filter passes, ``sam`` holds float64
temporaries of one band and three per-pixel sums, and ``psnr`` one float64
difference cube. Dataset-level scores are arithmetic means of per-image
values taken in input order (PSNR is averaged in dB, at peak 1.0).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from ._threads import map_pairs
from ._version import TOOL_VERSION
from .core import DegenerateInputError, ShapeError, SpectralCube
from .freqsel import _check_positive, _equal_bands, _gauss_kernel

__all__ = [
    "psnr",
    "ssim",
    "sam",
    "evaluate_dataset",
    "ImageMetrics",
    "MetricReport",
]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_L = 1.0
_SAM_NORM_GUARD = 1e-12

# SSIM's filter products: _BLOCK output rows by at most _CHUNK columns keep
# m*n*k within 2**18, so OpenBLAS runs each on the calling thread.
_BLOCK, _CHUNK = 16, 512
# Row i holds the 11 taps from column i on: row i of _KB @ block filters
# input rows i .. i + 10 of the block.
_KB = sum(tap * np.eye(_BLOCK, _BLOCK + _SSIM_WINDOW - 1, j)
          for j, tap in enumerate(_gauss_kernel(_SSIM_SIGMA, (_SSIM_WINDOW - 1) // 2)))


def _as_bands(x: SpectralCube | np.ndarray, name: str) -> np.ndarray:
    data = x.data if isinstance(x, SpectralCube) else np.asarray(x)
    if data.ndim != 3:
        raise ShapeError(f"{name} must be a cube (bands, height, width), got shape {data.shape}")
    return data


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    af = _as_bands(a, "a")
    bf = _as_bands(b, "b")
    if af.shape != bf.shape:
        raise ShapeError(f"shape mismatch: {af.shape} vs {bf.shape}")
    return af, bf


def psnr(a: SpectralCube | np.ndarray, b: SpectralCube | np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB: 10*log10(peak^2 / MSE) with the MSE
    taken over every sample of the cube. Identical inputs return +inf."""
    _check_positive("peak", peak)
    af, bf = _paired(a, b)
    diff = np.subtract(af, bf, dtype=np.float64)
    mse = float(np.mean(np.multiply(diff, diff, out=diff)))
    if mse == 0.0:
        return math.inf
    return float(10.0 * np.log10(peak * peak / mse))


def _filter_rows(a: np.ndarray, out: np.ndarray) -> None:
    """Write the valid 11-tap SSIM Gaussian down the rows of the 2D float64
    ``a`` into ``out``, either of them possibly a transposed view, as _KB
    products of at most _BLOCK output rows by _CHUNK columns."""
    n = out.shape[0]
    for r0 in range(0, n, _BLOCK):
        m = min(_BLOCK, n - r0)
        kb = _KB[:m, : m + _SSIM_WINDOW - 1]
        block = a[r0 : r0 + m + _SSIM_WINDOW - 1]
        for c0 in range(0, a.shape[1], _CHUNK):
            np.matmul(kb, block[:, c0 : c0 + _CHUNK], out=out[r0 : r0 + m, c0 : c0 + _CHUNK])


def ssim(a: SpectralCube | np.ndarray, b: SpectralCube | np.ndarray) -> float:
    """Mean structural similarity, per band then averaged across bands.

    Local statistics use an 11x11 Gaussian window (sigma 1.5, normalized to
    sum 1) on the valid region only — no padding — with the standard
    stabilizers C1 = (K1*L)^2, C2 = (K2*L)^2 at L = 1, K1 = 0.01, K2 = 0.03.
    Identical inputs score exactly 1.0. A band whose two samples hold equal
    finite values (zeros of either sign) is set to 1.0 without filtering:
    each numerator factor then equals its denominator twin, so every
    quotient is 1.0. Bands holding NaN or an infinity are filtered.
    """
    af, bf = _paired(a, b)
    if af.shape[1] < _SSIM_WINDOW or af.shape[2] < _SSIM_WINDOW:
        raise ShapeError(
            f"spatial extent {af.shape[1]}x{af.shape[2]} is smaller than the "
            f"{_SSIM_WINDOW}x{_SSIM_WINDOW} window"
        )
    c1 = (_SSIM_K1 * _SSIM_L) ** 2
    c2 = (_SSIM_K2 * _SSIM_L) ** 2
    _, h, w = af.shape
    hv, wv = h - _SSIM_WINDOW + 1, w - _SSIM_WINDOW + 1  # valid windows
    stack = np.empty((h, 4, w))
    rows = np.empty((hv, 4, w))
    moments = np.empty((hv, 4, wv))
    x, y, xy, xx_yy = (stack[:, i] for i in range(4))
    per_band = np.empty(af.shape[0], dtype=np.float64)
    for k in range(af.shape[0]):
        if _equal_bands(af[k], bf[k]):
            per_band[k] = 1.0
            continue
        x[...] = af[k]
        y[...] = bf[k]
        np.multiply(x, y, out=xy)
        np.add(np.multiply(x, x, out=xx_yy), y * y, out=xx_yy)
        # Down the columns, then along the rows through transposed views, so
        # moments[:, i] is moment i's (H - 10, W - 10) map.
        _filter_rows(stack.reshape(h, -1), rows.reshape(hv, -1))
        _filter_rows(rows.reshape(-1, w).T, moments.reshape(-1, wv).T)
        mx, my, exy, exx_yy = (moments[:, i] for i in range(4))
        mxy = mx * my
        mm = mx * mx + my * my
        # Covariance via E[xy] - E[x]E[y]; the denominator needs only the sum
        # of the variances, so x*x + y*y takes one filter pass. When x equals
        # y, doubling is exact, so every factor of the quotient is bitwise
        # equal to its denominator twin and ssim(a, a) == 1.0 exactly.
        # Swapping x and y swaps the stack's first two maps and keeps the
        # other two, and gemm sums each output from its own input column in
        # one order, so every quotient keeps its bits: ssim(a, b) == ssim(b, a).
        sxy = exy - mxy
        ss = exx_yy - mm
        num = (2.0 * mxy + c1) * (2.0 * sxy + c2)
        den = (mm + c1) * (ss + c2)
        per_band[k] = np.mean(num / den)
    return float(np.mean(per_band))


def sam(a: SpectralCube | np.ndarray, b: SpectralCube | np.ndarray) -> float:
    """Mean spectral angle in degrees.

    Each pixel's band vector pair contributes arccos of the clamped cosine
    similarity; pixels where either vector norm falls below 1e-12 are
    excluded (the angle is undefined there). Raises when no pixel survives.
    """
    af, bf = _paired(a, b)
    # Band-order sums from +0.0, as np.sum(axis=0) adds them.
    daa, dbb, dab = (np.zeros(af.shape[1:]) for _ in range(3))
    for k in range(af.shape[0]):
        x = af[k].astype(np.float64, copy=False)
        y = bf[k].astype(np.float64, copy=False)
        daa += x * x
        dbb += y * y
        dab += x * y
    valid = (np.sqrt(daa) >= _SAM_NORM_GUARD) & (np.sqrt(dbb) >= _SAM_NORM_GUARD)
    if not valid.any():
        raise DegenerateInputError("no pixel has both spectra above the norm guard")
    cos = dab[valid] / np.sqrt(daa[valid] * dbb[valid])
    angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    return float(np.mean(angles))


@dataclass(frozen=True)
class ImageMetrics:
    index: int
    psnr: float
    ssim: float
    sam: float


@dataclass(frozen=True)
class MetricReport:
    """Per-image metrics plus their arithmetic means, in input order."""

    per_image: tuple[ImageMetrics, ...]
    mean_psnr: float
    mean_ssim: float
    mean_sam: float
    peak: float
    tool_version: str = TOOL_VERSION

    def to_json(self) -> str:
        # +inf PSNR serializes as the JavaScript-style Infinity token, which
        # json.loads round-trips.
        return json.dumps(asdict(self), indent=2) + "\n"


def evaluate_dataset(
    pairs: Iterable[tuple[SpectralCube | np.ndarray, SpectralCube | np.ndarray] | Callable],
) -> MetricReport:
    """Score every (reconstruction, reference) pair and average the results.

    Each item is a pair or a zero-argument loader of one, called in the
    worker. Scores keep input order under any ``SPECMOSAIC_THREADS`` cap. A
    failure aborts the run as ``record i``, in either form.
    """

    def job(recon, ref) -> tuple[float, float, float]:
        return psnr(recon, ref), ssim(recon, ref), sam(recon, ref)

    triples = map_pairs(job, pairs)
    if not triples:
        raise DegenerateInputError("cannot aggregate an empty metric sequence")
    psnrs, ssims, sams = zip(*triples)
    return MetricReport(
        tuple(ImageMetrics(i, *t) for i, t in enumerate(triples)),
        float(np.mean(psnrs)), float(np.mean(ssims)), float(np.mean(sams)), 1.0,
    )
