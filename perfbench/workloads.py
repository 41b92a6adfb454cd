"""Seeded corpora for the benchmark workloads.

Each workload is a directory of label cubes that the `specmosaic pairs`
stage ingests, plus the flags the three stages are run with. Cubes are
written here with plain NumPy in the documented on-disk format (raw
little-endian float32, band-sequential, plus a JSON sidecar), so the program
under test only ever receives files and the corpus does not depend on the
code being measured. The same seed always yields the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SINE_AMPLITUDE = 0.2
SINE_FREQUENCY = 0.25  # cycles per pixel, along rows


@dataclass(frozen=True)
class Workload:
    name: str
    sources: int
    bands: int
    size: int          # square source cubes, size x size
    period: int        # square SFA pattern, period x period = bands
    patch: int         # square patch side; stride = patch
    augment: bool      # all 8 square symmetries of every source
    texture: str       # "blocks": 8x8 blocks of uniform noise; "flat": one constant per band
    contaminated_every: int = 0  # flat only: one source in this many carries a sinusoid

    @property
    def variants(self) -> int:
        return 8 if self.augment else 1

    @property
    def records_per_source(self) -> int:
        return self.variants * (self.size // self.patch) ** 2

    @property
    def records(self) -> int:
        return self.sources * self.records_per_source

    def pairs_flags(self) -> list[str]:
        flags = ["--pattern", f"{self.period}x{self.period}",
                 "--patch", str(self.patch), str(self.patch)]
        return flags + (["--augment"] if self.augment else [])


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-5 shape: FFT, blur and SSIM dominate; every record is kept.
        Workload(
            name="c5", sources=1, bands=25, size=200, period=5, patch=100, augment=True,
            texture="blocks",
        ),
        # FFT on cubes larger than L2 dominates; the kept quarter is ground truth.
        Workload(
            name="large-sparse", sources=4, bands=16, size=512, period=4, patch=256, augment=False,
            texture="flat", contaminated_every=4,
        ),
    )
}

# Miniature versions for the smoke test: same shape of work, a fraction of
# the size.
MINI = {
    "c5": replace(WORKLOADS["c5"], size=100, patch=50),
    "large-sparse": replace(WORKLOADS["large-sparse"], size=128, patch=64),
}


def _write_cube(data: np.ndarray, stem: Path) -> None:
    bands, height, width = data.shape
    stem.with_suffix(".bsq").write_bytes(np.ascontiguousarray(data, dtype="<f4").tobytes())
    side = {"height": height, "width": width, "bands": bands,
            "dtype": "f32le", "interleave": "bsq"}
    stem.with_suffix(".json").write_text(json.dumps(side, indent=2) + "\n")


def _blocks(rng: np.random.Generator, bands: int, size: int) -> np.ndarray:
    coarse = rng.uniform(0.05, 0.95, (bands, -(-size // 8), -(-size // 8)))
    return np.kron(coarse, np.ones((1, 8, 8)))[:, :size, :size]


def _flat(rng: np.random.Generator, bands: int, size: int, sine: bool) -> np.ndarray:
    consts = rng.uniform(0.2, 0.8, size=bands)
    data = np.broadcast_to(consts[:, None, None], (bands, size, size)).copy()
    if sine:
        band = int(rng.integers(bands))
        rows = np.arange(size, dtype=np.float64)
        data[band] += (SINE_AMPLITUDE * np.sin(2 * np.pi * SINE_FREQUENCY * rows))[:, None]
    return data


def generate(w: Workload, seed: int, out: Path) -> set[str]:
    """Write the workload's source cubes into ``out``.

    Returns the names of the contaminated sources, i.e. the ground truth of
    which records select-hard must keep (empty for textured workloads, where
    no ground truth is claimed).
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    contaminated: set[str] = set()
    if w.contaminated_every:
        k = w.sources // w.contaminated_every
        contaminated = {f"s{i:03d}" for i in rng.choice(w.sources, size=k, replace=False)}
    for i in range(w.sources):
        name = f"s{i:03d}"
        if w.texture == "blocks":
            data = _blocks(rng, w.bands, w.size)
        else:
            data = _flat(rng, w.bands, w.size, name in contaminated)
        _write_cube(data.astype(np.float32), out / name)
    return contaminated
