"""Frequency-domain artifact detection and hard-patch selection.

Demosaicing artifacts (zippering, moiré, ghost periodicities) are hard to see
in global image metrics but light up as localized disparities between the
log-magnitude spectra of two reconstructions of the same scene. The detector
here compares two cubes channel by channel:

    1. centered 2D spectrum of each band,
    2. log magnitude ln(|S| + eps),
    3. absolute difference of the two log-magnitude maps,
    4. Gaussian smoothing (stabilizes single-bin spikes),
    5. pixelwise maximum across channels,
    6. annular bandpass that zeroes the DC neighbourhood (exposure and
       brightness offsets) and the outermost corners (quantization hash),

producing a frequency-variation map. A patch is declared *hard* when the
number of map bins strictly above ``t_var`` strictly exceeds ``t_cnt``. Hard
patches are the ones worth keeping when curating a fine-tuning set.

Everything is computed in float64 with fixed reduction order, so results are
independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._threads import map_pairs
from .core import ShapeError, SpectralCube

__all__ = [
    "FreqParams",
    "SelectionParams",
    "FrequencyVariationMap",
    "PatchVerdict",
    "SelectionReport",
    "centered_spectrum",
    "log_magnitude",
    "gaussian_blur",
    "frequency_variation_map",
    "classify_patch",
    "select_hard",
    "count_distribution",
]


@dataclass(frozen=True)
class FreqParams:
    """Knobs for building a frequency-variation map.

    epsilon      log guard: ln(|S| + epsilon) keeps empty bins finite.
    blur_sigma   Gaussian smoothing width (pixels in frequency space).
    blur_radius  kernel half-width; the kernel spans 2*radius + 1 taps.
    r_low/r_high annulus bounds as fractions of R_max = min(H, W) / 2;
                 bins with distance d from the DC bin survive when
                 r_low*R_max <= d <= r_high*R_max (hard cutoff).
    """

    epsilon: float = 1e-8
    blur_sigma: float = 1.5
    blur_radius: int = 5
    r_low: float = 0.08
    r_high: float = 0.5

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.blur_sigma > 0:
            raise ValueError(f"blur_sigma must be > 0, got {self.blur_sigma}")
        if self.blur_radius < 1:
            raise ValueError(f"blur_radius must be >= 1, got {self.blur_radius}")
        if not (0.0 <= self.r_low < self.r_high <= 1.0):
            raise ValueError(
                f"need 0 <= r_low < r_high <= 1, got ({self.r_low}, {self.r_high})"
            )


@dataclass(frozen=True)
class SelectionParams:
    """Hardness thresholds.

    t_var  map intensity (natural-log magnitude units) a bin must strictly
           exceed to count as disparate.
    t_cnt  number of suprathreshold bins a patch must strictly exceed to be
           hard. The default suits 128x128 patches with the default annulus:
           an artifact-free pair produces 0 suprathreshold bins, while a
           single contaminating sinusoid already produces ~8, so 5 separates
           the two with margin. Recalibrate via :func:`count_distribution`
           when changing patch size or bandpass.
    """

    t_var: float = 1.0
    t_cnt: int = 5

    def __post_init__(self) -> None:
        if not self.t_var >= 0:
            raise ValueError(f"t_var must be >= 0, got {self.t_var}")
        if self.t_cnt < 0 or int(self.t_cnt) != self.t_cnt:
            raise ValueError(f"t_cnt must be a non-negative integer, got {self.t_cnt}")


@dataclass(frozen=True)
class FrequencyVariationMap:
    """Non-negative per-bin disparity map, plus where its DC bin sits."""

    values: np.ndarray
    dc_row: int
    dc_col: int

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"map must be 2-dimensional, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PatchVerdict:
    count: int
    is_hard: bool


@dataclass(frozen=True)
class SelectionReport:
    verdicts: tuple[PatchVerdict, ...]
    hard_indices: tuple[int, ...]


def centered_spectrum(band: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2D DFT with the DC bin circularly shifted to
    (floor(H/2), floor(W/2)); valid for both parities."""
    arr = np.asarray(band, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2D map, got shape {arr.shape}")
    return np.fft.fftshift(np.fft.fft2(arr))


def log_magnitude(spectrum: np.ndarray, epsilon: float) -> np.ndarray:
    """Elementwise ln(|S| + epsilon). The guard is added to the modulus so
    empty bins map to the finite floor ln(epsilon)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return np.log(np.abs(spectrum) + epsilon)


def _gauss_kernel(sigma: float, radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _corr_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a symmetric 1D kernel on both
    axes; output shrinks by (len(kernel) - 1) along each axis."""
    out = img
    taps = len(kernel)
    for axis in (0, 1):
        n = out.shape[axis] - (taps - 1)
        view = [slice(None), slice(None)]

        def tap(i: int) -> np.ndarray:
            view[axis] = slice(i, i + n)
            return kernel[i] * out[tuple(view)]

        # The sum starts at the first product, not at 0.0: the two differ
        # only where every product is -0.0, which no non-negative input gives.
        acc = tap(0)
        for i in range(1, taps):
            acc += tap(i)
        out = acc
    return out


def gaussian_blur(map2d: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    """Separable Gaussian smoothing with replicate borders.

    The 1D kernel is the sampled Gaussian on [-radius, radius], normalized to
    sum 1, applied along each axis in turn to the edge-padded map; this
    equals dense 2D convolution with the outer-product kernel.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    out = np.asarray(map2d, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2D map, got shape {out.shape}")
    return _corr_valid(np.pad(out, radius, mode="edge"), _gauss_kernel(sigma, radius))


def frequency_variation_map(
    c1: SpectralCube, c2: SpectralCube, params: FreqParams | None = None
) -> FrequencyVariationMap:
    """Build the bandpassed channel-max spectral disparity map of two cubes.

    Symmetric in (c1, c2). Identical inputs produce the exact zero map, and
    every nonzero output bin lies inside the annulus.
    """
    params = params or FreqParams()
    if c1.data.shape != c2.data.shape:
        raise ShapeError(
            f"cube shapes differ: {c1.data.shape} vs {c2.data.shape}"
        )
    h, w = c1.height, c1.width
    acc: np.ndarray | None = None
    for k in range(c1.bands):
        m1 = log_magnitude(centered_spectrum(c1.band(k)), params.epsilon)
        m2 = log_magnitude(centered_spectrum(c2.band(k)), params.epsilon)
        r = gaussian_blur(np.abs(m1 - m2), params.blur_sigma, params.blur_radius)
        acc = r if acc is None else np.maximum(acc, r)
    assert acc is not None
    dc_row, dc_col = h // 2, w // 2
    uu = np.arange(h, dtype=np.float64)[:, None] - dc_row
    vv = np.arange(w, dtype=np.float64)[None, :] - dc_col
    dist = np.sqrt(uu * uu + vv * vv)
    r_max = min(h, w) / 2.0
    keep = (dist >= params.r_low * r_max) & (dist <= params.r_high * r_max)
    return FrequencyVariationMap(np.where(keep, acc, 0.0), dc_row, dc_col)


def classify_patch(
    fvmap: FrequencyVariationMap, params: SelectionParams | None = None
) -> PatchVerdict:
    """Count bins strictly above t_var; hard iff that count strictly exceeds
    t_cnt (a count exactly equal to t_cnt is NOT hard)."""
    params = params or SelectionParams()
    count = int((fvmap.values > params.t_var).sum())
    return PatchVerdict(count=count, is_hard=count > params.t_cnt)


def select_hard(
    pairs: Iterable[tuple[SpectralCube, SpectralCube] | Callable],
    fparams: FreqParams | None = None,
    sparams: SelectionParams | None = None,
) -> SelectionReport:
    """Classify every (reference, comparison) pair and report the hard ones.

    Each item is a pair or a zero-argument loader of one, called in the
    worker. Verdicts keep input order under any ``SPECMOSAIC_THREADS`` cap. A
    failure aborts the run as ``pair i`` (in memory) or ``record i`` (loader).
    """
    fparams = fparams or FreqParams()
    sparams = sparams or SelectionParams()

    def job(ref: SpectralCube, comp: SpectralCube) -> PatchVerdict:
        return classify_patch(frequency_variation_map(ref, comp, fparams), sparams)

    verdicts = tuple(map_pairs(job, pairs))
    hard = tuple(i for i, v in enumerate(verdicts) if v.is_hard)
    return SelectionReport(verdicts=verdicts, hard_indices=hard)


def count_distribution(counts: Iterable[int]) -> dict[str, float]:
    """Summarize suprathreshold-bin counts over a dataset so a count
    threshold can be chosen by percentile (e.g. keep the top decile hard)."""
    arr = np.asarray(list(counts), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("count_distribution needs at least one count")
    return {
        "n": float(arr.size),
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }
