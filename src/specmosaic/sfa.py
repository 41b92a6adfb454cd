"""The discrete filter-array sampling model.

A spectral filter array tiles the sensor with a period x period pattern of
narrowband filters, so each pixel records exactly one band. ``mosaic``
simulates that capture from a full cube; ``remosaic`` is ``mosaic`` itself,
under the paper's name for sampling a reconstructed or generated cube into an
input exactly aligned with it; ``sparse_expand`` scatters a mosaic back into
a cube that is zero except at each band's own lattice sites.
"""

from __future__ import annotations

import numpy as np

from .core import MosaicImage, SfaPattern, ShapeError, SpectralCube

__all__ = ["mosaic", "remosaic", "sparse_expand"]


def _check_bands(cube: SpectralCube, pattern: SfaPattern, what: str = "cube") -> None:
    if cube.bands != pattern.bands:
        raise ShapeError(
            f"{what} has {cube.bands} bands but pattern period {pattern.period} "
            f"requires {pattern.bands}"
        )


def mosaic(cube: SpectralCube, pattern: SfaPattern) -> MosaicImage:
    """Sample one band per pixel according to the pattern.

    output(u, v) = cube[band_at[u mod p, v mod p], u, v] for period p.
    Because the per-band masks partition the sensor, exactly one band
    contributes to each pixel. Spatial dims need not be period multiples
    (sensor crops exist).
    """
    _check_bands(cube, pattern)
    idx = pattern.index_map(cube.height, cube.width)[None]
    return MosaicImage(np.take_along_axis(cube.data, idx, axis=0)[0])


#: The paper's name for ``mosaic`` of a reconstructed or generated cube.
remosaic = mosaic


def sparse_expand(mosaic_img: MosaicImage, pattern: SfaPattern) -> SpectralCube:
    """Scatter a mosaic into a cube: band k holds the mosaic values on k's
    lattice sites and zero elsewhere. ``mosaic(sparse_expand(m)) == m``."""
    h, w = mosaic_img.height, mosaic_img.width
    data = np.zeros((pattern.bands, h, w), dtype=mosaic_img.data.dtype)
    np.put_along_axis(data, pattern.index_map(h, w)[None], mosaic_img.data[None], axis=0)
    return SpectralCube(data)
