"""specmosaic: spectral filter-array mosaicing, demosaicing, frequency-domain
hard-patch mining, and reconstruction scoring.

The package is organized by pipeline stage:

* :mod:`specmosaic.core` — value types (cubes, mosaics, patterns) and the
  pattern-aware geometry ops (aligned crop, square symmetries, validation).
* :mod:`specmosaic.sfa` — the discrete filter-array sampling model
  (mosaic / remosaic / sparse expansion).
* :mod:`specmosaic.demosaic` — the per-band bilinear reference demosaicer.
* :mod:`specmosaic.freqsel` — frequency-variation maps and hard-patch
  selection.
* :mod:`specmosaic.metrics` — PSNR / SSIM / spectral angle and dataset
  aggregation.
* :mod:`specmosaic.dataset` — pseudo-paired dataset construction, manifests,
  and hard-subset filtering.
* :mod:`specmosaic.fileio` — the bit-exact cube/mosaic container, PGM
  export, and pattern files.
* :mod:`specmosaic.cli` — the ``specmosaic`` command.
"""

from ._version import TOOL_VERSION, __version__
from .core import (
    D4_OPS,
    AlignmentError,
    BoundsError,
    DegenerateInputError,
    FormatError,
    MosaicImage,
    PatchOrigin,
    SfaPattern,
    ShapeError,
    SpecmosaicError,
    SpectralCube,
    ValidationError,
    crop_aligned,
    transform_d4,
    validate_cube,
)
from .demosaic import wb_bilinear
from .freqsel import (
    FreqParams,
    PatchVerdict,
    SelectionParams,
    centered_spectrum,
    classify_patch,
    count_distribution,
    frequency_variation_map,
    gaussian_blur,
    log_magnitude,
    select_hard,
)
from .metrics import ImageMetrics, MetricReport, evaluate_dataset, psnr, sam, ssim
from .sfa import mosaic, remosaic, sparse_expand

__all__ = [
    "__version__",
    "TOOL_VERSION",
    # core
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
    # sfa
    "mosaic",
    "remosaic",
    "sparse_expand",
    # demosaic
    "wb_bilinear",
    # freqsel
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
    # metrics
    "psnr",
    "ssim",
    "sam",
    "evaluate_dataset",
    "ImageMetrics",
    "MetricReport",
]
