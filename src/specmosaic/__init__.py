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
from . import core, demosaic, freqsel, metrics, sfa
from .core import *
from .demosaic import *
from .freqsel import *
from .metrics import *
from .sfa import *

__all__ = ["__version__", "TOOL_VERSION", *core.__all__, *sfa.__all__, *demosaic.__all__,
           *freqsel.__all__, *metrics.__all__]
