"""Frequency-domain artifact detection and hard-patch selection.

Demosaicing artifacts (zippering, moiré, ghost periodicities) are hard to see
in global image metrics but light up as localized disparities between the
log-magnitude spectra of two reconstructions of the same scene. The detector
here compares two cubes channel by channel:

    1. unshifted 2D spectrum of each band,
    2. log magnitude ln(|S| + eps),
    3. absolute difference of the two log-magnitude maps, shifted once so
       the DC bin sits at (H//2, W//2) (steps 2 and 3 are elementwise, so
       this equals differencing two centered spectra),
    4. Gaussian smoothing (stabilizes single-bin spikes),
    5. pixelwise maximum across channels,
    6. annular bandpass that zeroes the DC neighbourhood (per-band offsets;
       a global gain g still moves every bin by up to |ln g|) and the
       outermost corners (quantization hash),

producing a frequency-variation map, a plain read-only (H, W) array. No bin
farther than r_high*R_max rows or columns from DC survives step 6, so steps
2-5 run only on that box, and the blur reads it grown by its radius,
gathered from the unshifted spectrum.
This is exact, not an approximation: clipping the gather index at the map
edge is np.pad(mode="edge"), taking it mod the side is fftshift, and a row
FFT of every row followed by a column FFT of the needed columns is those
columns of fft2, which runs the same two 1D passes in the same order.
A band whose two samples are equal is skipped: its spectra are equal, so
its log difference is +0.0 in every bin and cannot raise the channel max,
which starts from a zero box. Equal means equal values, so a zero's sign
may differ (every FFT intermediate is then numerically equal); NaN and
infinite bands still run every step, which propagates them.

A patch is declared *hard* when the number of map bins strictly above
``t_var`` strictly exceeds ``t_cnt``. Hard patches are the ones worth keeping
when curating a fine-tuning set.

Everything is computed in float64 with fixed reduction order, so results are
independent of worker scheduling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._threads import map_pairs
from .core import ShapeError, SpectralCube

__all__ = [
    "FreqParams",
    "SelectionParams",
    "PatchVerdict",
    "centered_spectrum",
    "log_magnitude",
    "gaussian_blur",
    "frequency_variation_map",
    "classify_patch",
    "select_hard",
    "count_distribution",
]


def _check_whole(name: str, value, low: int) -> None:
    # bool is an Integral, but True as a radius or count is a slip, not a 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_real(name: str, value, ok: bool, rule: str) -> None:
    # bool is a Real too, and True as a width or threshold is a slip, not 1.0.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_positive(name: str, value) -> None:
    _check_real(name, value, 0 < value < np.inf, "finite and > 0")


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
        for name in ("epsilon", "blur_sigma"):
            _check_positive(name, getattr(self, name))
        _check_whole("blur_radius", self.blur_radius, 1)
        _check_real("r_low", self.r_low, self.r_low >= 0, ">= 0")
        _check_real("r_high", self.r_high, self.r_low < self.r_high <= 1, "in (r_low, 1]")


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
        _check_real("t_var", self.t_var, self.t_var >= 0, ">= 0")
        _check_whole("t_cnt", self.t_cnt, 0)


@dataclass(frozen=True)
class PatchVerdict:
    count: int
    is_hard: bool


def centered_spectrum(band: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2D DFT with the DC bin circularly shifted to
    (floor(H/2), floor(W/2)); valid for both parities.

    The reference form of the map's step 1; no pipeline calls it. Its user
    is acceptance criterion 2 ("centered spectrum vs O(N^4) DFT"), which
    checks this package function against a brute-force DFT.
    """
    arr = np.asarray(band, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2D map, got shape {arr.shape}")
    return np.fft.fftshift(np.fft.fft2(arr))


def log_magnitude(spectrum: np.ndarray, epsilon: float) -> np.ndarray:
    """Elementwise ln(|S| + epsilon). The guard is added to the modulus so
    empty bins map to the finite floor ln(epsilon)."""
    _check_positive("epsilon", epsilon)
    mag = np.add(np.abs(spectrum), epsilon)  # float, whatever the input dtype
    # An array takes the log in place; a 0-d input gives a scalar, which cannot.
    return np.log(mag, out=mag if isinstance(mag, np.ndarray) else None)


def _gauss_kernel(sigma: float, radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _corr_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a symmetric 1D kernel on both
    axes of a 2D map with both sides >= len(kernel).

    Returns a float64 (H - taps + 1, W - taps + 1) map whose element (r, c)
    is sum_j k[j] * (sum_i k[i] * img[r + i, c + j]), each sum taken in tap
    order from its first product. The result may be a strided view: its
    rows sit W apart in a fresh buffer, so writing to it touches nothing else.
    """
    taps = len(kernel)
    n = img.shape[0] - (taps - 1)
    # The sums start at the first product, not at 0.0: the two differ only
    # where every product is -0.0, which no non-negative input gives.
    rows = kernel[0] * img[:n]
    for i in range(1, taps):
        rows += kernel[i] * img[i : i + n]
    # Along the rows, each tap is one contiguous run over the flattened map.
    # Sums that run past the end of a row land in its last taps - 1 columns,
    # which the returned view leaves out.
    flat = rows.ravel()
    size = flat.size - (taps - 1)
    buf = np.empty_like(flat)
    acc = np.multiply(flat[:size], kernel[0], out=buf[:size])
    for i in range(1, taps):
        acc += kernel[i] * flat[i : i + size]
    return buf.reshape(rows.shape)[:, : rows.shape[1] - (taps - 1)]


def gaussian_blur(map2d: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    """Separable Gaussian smoothing with replicate borders.

    The 1D kernel is the sampled Gaussian on [-radius, radius], normalized to
    sum 1, applied along each axis in turn to the edge-padded map; this
    equals dense 2D convolution with the outer-product kernel. Returns a
    float64 map of the input's shape, as the view :func:`_corr_valid` gives
    (it may be strided, never shares memory with the input).

    The reference form of the map's step 4; no pipeline calls it. It stays
    public while the benchmark's per-layer trace still looks it up.
    """
    _check_positive("sigma", sigma)
    _check_whole("radius", radius, 1)
    out = np.asarray(map2d, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2D map, got shape {out.shape}")
    return _corr_valid(np.pad(out, radius, mode="edge"), _gauss_kernel(sigma, radius))


def _equal_bands(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two bands hold equal, finite values (zeros of either sign)."""
    return np.array_equal(x, y) and bool(np.isfinite(x).all())


def _box_source(n: int, reach: int, radius: int) -> tuple[int, int, np.ndarray]:
    """Kept span [lo, hi] of one centered axis of length n, and the unshifted
    spectrum index of each of the hi - lo + 1 + 2*radius samples its blur
    reads: the clip is np.pad(mode="edge"), the mod is fftshift."""
    lo, hi = max(0, n // 2 - reach), min(n - 1, n // 2 + reach)
    shifted = np.clip(np.arange(lo - radius, hi + radius + 1), 0, n - 1)
    return lo, hi, (shifted - n // 2) % n


def frequency_variation_map(
    c1: SpectralCube, c2: SpectralCube, params: FreqParams | None = None
) -> np.ndarray:
    """Build the bandpassed channel-max spectral disparity map of two cubes.

    Returns a read-only, C-contiguous float64 (H, W) array with the DC bin
    at (H//2, W//2). Symmetric in (c1, c2). Identical inputs produce the
    exact zero map, and every nonzero output bin lies inside the annulus.
    """
    params = params or FreqParams()
    if c1.data.shape != c2.data.shape:
        raise ShapeError(
            f"cube shapes differ: {c1.data.shape} vs {c2.data.shape}"
        )
    h, w = c1.height, c1.width
    r_max = min(h, w) / 2.0
    r_out = params.r_high * r_max
    # No bin more than floor(r_out) rows or columns from DC is kept, so only
    # that box is blurred; the blur reads the box grown by its radius.
    reach, radius = math.floor(r_out), params.blur_radius
    top, bottom, rows = _box_source(h, reach, radius)
    left, right, cols = _box_source(w, reach, radius)
    kernel = _gauss_kernel(params.blur_sigma, radius)
    # The row FFTs run in place in this one buffer (out= needs NumPy 2):
    # a fresh complex map per transform costs more than copying the band in.
    spec = np.empty((h, w), dtype=np.complex128)

    def log_box(cube: SpectralCube, k: int) -> np.ndarray:
        spec[...] = cube.band(k)
        # fft2 runs axis -1, then axis -2, one vector at a time, so a column
        # FFT of gathered columns, repeats too, gives those columns of fft2.
        np.fft.fft(spec, axis=1, out=spec)
        part = spec[:, cols]
        np.fft.fft(part, axis=0, out=part)
        return log_magnitude(part[rows], params.epsilon)

    acc = np.zeros((bottom - top + 1, right - left + 1))
    for k in range(c1.bands):
        if _equal_bands(c1.band(k), c2.band(k)):
            continue  # blurs to +0.0, and max(acc, +0.0) is acc
        d = log_box(c1, k)
        d -= log_box(c2, k)
        np.maximum(acc, _corr_valid(np.abs(d, out=d), kernel), out=acc)
    uu = np.arange(top, bottom + 1, dtype=np.float64)[:, None] - h // 2
    vv = np.arange(left, right + 1, dtype=np.float64)[None, :] - w // 2
    dist = np.sqrt(uu * uu + vv * vv)
    keep = (dist >= params.r_low * r_max) & (dist <= r_out)
    out = np.zeros((h, w))
    out[top : bottom + 1, left : right + 1] = np.where(keep, acc, 0.0)
    out.flags.writeable = False
    return out


def classify_patch(
    fvmap: np.ndarray, params: SelectionParams | None = None
) -> PatchVerdict:
    """Count map bins (any array-like) strictly above t_var; hard iff that
    count strictly exceeds t_cnt (a count exactly equal to t_cnt is NOT hard)."""
    params = params or SelectionParams()
    count = int((np.asarray(fvmap, dtype=np.float64) > params.t_var).sum())
    return PatchVerdict(count=count, is_hard=count > params.t_cnt)


def select_hard(
    pairs: Iterable[tuple[SpectralCube, SpectralCube] | Callable],
    fparams: FreqParams | None = None,
    sparams: SelectionParams | None = None,
) -> tuple[PatchVerdict, ...]:
    """Classify every (reference, comparison) pair: one verdict per pair, in
    input order under any ``SPECMOSAIC_THREADS`` cap, so the hard pairs are
    those with ``is_hard``.

    Each item is a pair or a zero-argument loader of one, called in the
    worker. A failure aborts the run as ``record i``, in either form.
    """
    fparams = fparams or FreqParams()
    sparams = sparams or SelectionParams()

    def job(ref: SpectralCube, comp: SpectralCube) -> PatchVerdict:
        return classify_patch(frequency_variation_map(ref, comp, fparams), sparams)

    return tuple(map_pairs(job, pairs))


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
