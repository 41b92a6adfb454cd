"""Reference per-band bilinear demosaicer.

Each band is reconstructed independently from its own sampling lattice
(stride = pattern period, offsets from the pattern cell that carries the
band). Lattice samples are kept exactly; every other pixel is bilinearly
interpolated from the four surrounding lattice sites. Beyond the outermost
lattice row/column the nearest lattice sample is replicated, which keeps the
whole output a convex combination of mosaic values.

This is the classical "weighted bilinear" baseline: crude around edges (it
ignores inter-channel correlation entirely) but exactly invertible under
re-sampling, which makes it the anchor for round-trip tests and the default
comparison reconstruction for artifact mining.
"""

from __future__ import annotations

import numpy as np

from .core import DegenerateInputError, MosaicImage, SfaPattern, SpectralCube

__all__ = ["wb_bilinear"]


def _axis_coords(n_out: int, offset: int, period: int, n_sites: int):
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


def wb_bilinear(mosaic_img: MosaicImage, pattern: SfaPattern) -> SpectralCube:
    """Demosaic by per-band bilinear interpolation over each band's lattice.

    Weights are computed in double precision and the result is rounded to
    cube precision. Lattice sites are copied from the mosaic, so they keep
    their samples bit-exactly (``-0.0`` included) and
    ``remosaic(wb_bilinear(m), pattern) == m`` byte for byte.
    """
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
                raise DegenerateInputError(
                    f"band {band} has no lattice sites inside a {h}x{w} mosaic "
                    f"(offsets ({i}, {j}), period {p})"
                )
            # Interpolate along columns at every lattice row, then along rows.
            left = grid[:, ja]
            rows = left + tv[None, :] * (grid[:, jb] - left)
            low = rows[ia, :]
            out[band] = (low + tu[:, None] * (rows[ib, :] - low)).astype(np.float32)
            # The lerp turns a -0.0 sample into +0.0; copy the sites as stored.
            out[band, i::p, j::p] = m[i::p, j::p]
    return SpectralCube(out)
