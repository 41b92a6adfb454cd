"""Reference kernels and tables shared by several test modules.

Each restates a library rule without importing the code under test: either
an earlier form of a kernel, so that the faster form can be checked against
it byte for byte, or a direct definition (a score one window or pixel at a
time, the DFT one bin at a time), checked to a stated tolerance. It also
builds the band relations that the equal-band properties draw.
"""

import math

import numpy as np

#: The inverse of each square symmetry, by name.
D4_INVERSE = {
    "identity": "identity",
    "rot90cw": "rot270cw",
    "rot180": "rot180",
    "rot270cw": "rot90cw",
    "flip_h": "flip_h",
    "flip_v": "flip_v",
    "transpose": "transpose",
    "anti_transpose": "anti_transpose",
}


def lattice_offsets(pattern, band):
    """(row, col) of the one period cell whose filter passes ``band``."""
    i, j = np.argwhere(pattern.band_at == band)[0]
    return int(i), int(j)


def mosaic_bits_oracle(data, band_at):
    """The float32 bits of the mosaic of ``data`` (bands, h, w), one pixel at
    a time: pixel (u, v) is ``data[band_at[u % p, v % p], u, v]``."""
    bits = np.asarray(data, dtype=np.float32).view(np.uint32)
    p = len(band_at)
    out = np.empty(bits.shape[1:], dtype=np.uint32)
    for u in range(out.shape[0]):
        for v in range(out.shape[1]):
            out[u, v] = bits[band_at[u % p][v % p], u, v]
    return out


def sparse_expand_bits_oracle(mosaic_data, band_at):
    """The float32 bits of the sparse cube of a (h, w) mosaic, one pixel at a
    time: each sample in band ``band_at[u % p, v % p]``, +0.0 elsewhere."""
    bits = np.asarray(mosaic_data, dtype=np.float32).view(np.uint32)
    p = len(band_at)
    out = np.zeros((p * p, *bits.shape), dtype=np.uint32)
    for u in range(bits.shape[0]):
        for v in range(bits.shape[1]):
            out[band_at[u % p][v % p], u, v] = bits[u, v]
    return out


def _axis_coords(n_out, offset, period, n_sites):
    """Per-output-pixel interpolation coordinates along one axis.

    Returns (ia, ib, t): lower/upper lattice indices clamped into the grid
    and the fractional position t in [0, 1). Clamping both indices to the
    same site outside the lattice hull implements replicate padding while
    keeping the single lerp formula ``g[ia] + t*(g[ib] - g[ia])`` valid
    everywhere (the bracket is exactly zero when ia == ib).
    """
    q, r = np.divmod(np.arange(n_out) - offset, period)
    ia = np.clip(q, 0, n_sites - 1)
    ib = np.clip(q + 1, 0, n_sites - 1)
    t = r.astype(np.float64) / period
    return ia, ib, t


def wb_gather_recipe(mosaic_img, pattern):
    """The (bands, h, w) float32 bilinear reconstruction as index gathers:
    every output row and column gathers its two clamped lattice neighbours
    and takes ``lo + t * (hi - lo)`` in float64, then rounds to float32."""
    h, w = mosaic_img.height, mosaic_img.width
    p = pattern.period
    m = mosaic_img.data
    out = np.empty((pattern.bands, h, w), dtype=np.float32)
    # Bands on one row (column) offset share their row (column) coordinates.
    col_coords = [_axis_coords(w, j, p, len(range(j, w, p))) for j in range(p)]
    for i in range(p):
        ia, ib, tu = _axis_coords(h, i, p, len(range(i, h, p)))
        for j, (ja, jb, tv) in enumerate(col_coords):
            band = int(pattern.band_at[i, j])
            grid = m[i::p, j::p].astype(np.float64)
            if grid.size == 0:
                raise ValueError(f"band {band} has no lattice sites")
            # Interpolate along columns at every lattice row, then along rows.
            left = grid[:, ja]
            rows = left + tv[None, :] * (grid[:, jb] - left)
            low = rows[ia, :]
            out[band] = (low + tu[:, None] * (rows[ib, :] - low)).astype(np.float32)
            # The lerp turns a -0.0 sample into +0.0; copy the sites as stored.
            out[band, i::p, j::p] = m[i::p, j::p]
    return out


def gauss_taps(sigma, radius):
    """The sampled Gaussian on [-radius, radius], normalized to sum 1."""
    k = np.exp(-0.5 * (np.arange(-radius, radius + 1, dtype=np.float64) / sigma) ** 2)
    return k / k.sum()


def two_axis_taps(img, kernel):
    """Separable valid-mode correlation as a tap loop over each axis in turn
    (rows, then columns, on strided views). Each sum starts at its first
    product and adds the later taps in order."""
    out = img
    taps = len(kernel)
    for axis in (0, 1):
        n = out.shape[axis] - (taps - 1)
        view = [slice(None), slice(None)]

        def tap(i):
            view[axis] = slice(i, i + n)
            return kernel[i] * out[tuple(view)]

        acc = tap(0)
        for i in range(1, taps):
            acc += tap(i)
        out = acc
    return out


def dft_oracle_centered(x):
    """Direct-definition O(N^4) DFT with the DC bin moved to
    (H//2, W//2) by explicit index arithmetic."""
    h, w = x.shape
    uu = np.arange(h)[:, None]
    vv = np.arange(w)[None, :]
    out = np.zeros((h, w), dtype=complex)
    for ku in range(h):
        for kv in range(w):
            phase = np.exp(-2j * np.pi * (ku * uu / h + kv * vv / w))
            out[(ku + h // 2) % h, (kv + w // 2) % w] = np.sum(x * phase)
    return out


def psnr_oracle(a, b, peak=1.0):
    """10 log10(peak^2 / MSE), the MSE as an exact sum over every sample."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    mse = math.fsum((x - y) ** 2 for x, y in zip(a, b)) / a.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def sam_oracle(a, b, guard=1e-12):
    """Mean spectral angle in degrees, one pixel at a time, over the pixels
    whose two spectra both have norm >= guard."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    angles = []
    for i in range(a.shape[1]):
        for j in range(a.shape[2]):
            va, vb = a[:, i, j], b[:, i, j]
            daa = math.fsum(float(x) * float(x) for x in va)
            dbb = math.fsum(float(x) * float(x) for x in vb)
            if math.sqrt(daa) < guard or math.sqrt(dbb) < guard:
                continue
            dab = math.fsum(float(x) * float(y) for x, y in zip(va, vb))
            cos = dab / math.sqrt(daa * dbb)
            angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
    if not angles:
        raise ValueError("no valid pixels")
    return math.fsum(angles) / len(angles)


def ssim_oracle(a, b):
    """Mean SSIM, one 11x11 Gaussian window (sigma 1.5) at a time over the
    valid region of each band, then averaged across bands."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    kern = np.outer(gauss_taps(1.5, 5), gauss_taps(1.5, 5))
    c1 = (0.01 * 1.0) ** 2
    c2 = (0.03 * 1.0) ** 2
    band_means = []
    for band in range(a.shape[0]):
        vals = []
        for i in range(a.shape[1] - 10):
            for j in range(a.shape[2] - 10):
                wx = a[band, i : i + 11, j : j + 11]
                wy = b[band, i : i + 11, j : j + 11]
                mx = np.sum(kern * wx)
                my = np.sum(kern * wy)
                sxx = np.sum(kern * wx * wx) - mx * mx
                syy = np.sum(kern * wy * wy) - my * my
                sxy = np.sum(kern * wx * wy) - mx * my
                num = (2 * mx * my + c1) * (2 * sxy + c2)
                den = (mx * mx + my * my + c1) * (sxx + syy + c2)
                vals.append(num / den)
        band_means.append(np.mean(vals))
    return float(np.mean(band_means))


#: How a second cube's bands relate to the first's, for the properties that
#: pin skipping band pairs with equal finite values (NaN and infinite bands
#: are never skipped).
BAND_MODES = ("none", "one_equal", "signed_zeros", "nan_band", "inf_band", "all_equal")


def with_band_mode(a, b, mode, seed):
    """Copies of two (bands, h, w) arrays with band ``seed % bands`` (or every
    band) related as ``mode`` says."""
    a, b = a.copy(), b.copy()
    k = seed % a.shape[0]
    if mode == "one_equal":
        b[k] = a[k]
    elif mode == "signed_zeros":  # equal values, every zero's sign flipped
        rng = np.random.default_rng(seed)
        a[k][rng.uniform(size=a[k].shape) < 0.5] = 0.0
        a[k][rng.uniform(size=a[k].shape) < 0.25] = -0.0
        b[k] = np.where(a[k] == 0, -a[k], a[k])
    elif mode in ("nan_band", "inf_band"):  # in both cubes
        a[k].flat[seed % a[k].size] = np.nan if mode == "nan_band" else np.inf
        b[k] = a[k]
    elif mode == "all_equal":
        b[...] = a
    return a, b


def same_bytes_and_nans(got, want):
    """NaN where ``want`` is NaN, and ``want``'s bytes everywhere else."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (np.isnan(got) == nan).all() and got[~nan].tobytes() == want[~nan].tobytes()
