"""Reference per-band bilinear demosaicer.

Each band is reconstructed independently from its own sampling lattice
(stride = pattern period, offsets from the pattern cell that carries the
band). Lattice samples are kept exactly; every other pixel is bilinearly
interpolated from the four surrounding lattice sites. Beyond the outermost
lattice row/column the nearest lattice sample is replicated, which keeps the
whole output a convex combination of mosaic values.

Each axis is interpolated one lattice phase at a time. The lattice rows,
padded with their first and last, are differenced once, and the rows at
``phase`` past a lattice row get ``lo + phase / period * (hi - lo)`` in one
strided slice: the clamped per-pixel formula, on the same float64 operands
in the same order, so finite mosaics give its bytes. NaN or infinite
samples give NaN in the same places, of either sign.

This is the classical "weighted bilinear" baseline: crude around edges (it
ignores inter-channel correlation entirely) but exactly invertible under
re-sampling, which makes it the anchor for round-trip tests and the default
comparison reconstruction for artifact mining.
"""

from __future__ import annotations

import numpy as np

from .core import DegenerateInputError, MosaicImage, SfaPattern, SpectralCube

__all__ = ["wb_bilinear"]


def _lerp_rows(g: np.ndarray, offset: int, period: int, out: np.ndarray) -> None:
    """Interpolate lattice rows ``g``, at rows ``offset + k * period`` of
    ``out``, onto every row of ``out`` by phase (see the module docstring)."""
    ext = np.concatenate((g[:1], g, g[-1:]), dtype=np.float64)
    diff = ext[1:] - ext[:-1]
    for phase in range(period):
        r0 = (offset + phase) % period
        q = 1 - (offset + phase) // period  # padded index of row r0's lower site
        n = len(range(r0, len(out), period))
        np.add(ext[q : q + n], np.multiply(phase / period, diff[q : q + n]),
               out=out[r0::period])


def wb_bilinear(mosaic_img: MosaicImage, pattern: SfaPattern) -> SpectralCube:
    """Demosaic by per-band bilinear interpolation over each band's lattice.

    Weights are float64, applied one lattice phase at a time, and the result
    is rounded to float32 once: finite mosaics give the per-pixel formula's
    bytes, and a NaN's sign is unspecified. Lattice sites are copied from the
    mosaic, so they keep their samples bit-exactly (``-0.0`` included) and
    ``remosaic(wb_bilinear(m), pattern) == m`` byte for byte.
    """
    m, p = mosaic_img.data, pattern.period
    h, w = m.shape
    if min(h, w) < p:
        i, j = (0, w) if w < p else (h, 0)  # the first empty lattice, row-major
        raise DegenerateInputError(
            f"band {int(pattern.band_at[i, j])} has no lattice sites inside a "
            f"{h}x{w} mosaic (offsets ({i}, {j}), period {p})"
        )
    out = np.empty((pattern.bands, h, w), dtype=np.float32)
    for j in range(p):
        # Interpolate along columns at every mosaic row, once for all bands on
        # this column offset, then along rows; that pass rounds to float32.
        cols = np.empty((h, w))
        _lerp_rows(m[:, j::p].T, j, p, cols.T)
        for i in range(p):
            band = int(pattern.band_at[i, j])
            _lerp_rows(cols[i::p], i, p, out[band])
            # The lerp turns a -0.0 sample into +0.0; copy the sites as stored.
            out[band, i::p, j::p] = m[i::p, j::p]
    return SpectralCube(out)
