"""Golden digests of the output bytes that hold on every install.

``pairs --augment`` runs through ``cli_dispatch`` on a corpus built from
integer arithmetic and one correctly rounded division per sample, with no
``sin`` and no random stream. The sha256 of every file it writes, and of
each record's ``wb_bilinear`` reconstruction, must equal ``golden.json``.
Both are data movement plus IEEE add and multiply with one rounding, so
they carry across NumPy versions and CPUs. The frequency map, the verdicts
and ``report.json`` are not pinned here.

After an intended change to those bytes, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from specmosaic import SpectralCube, wb_bilinear
from specmosaic.cli import cli_dispatch
from specmosaic.dataset import read_manifest
from specmosaic.fileio import read_mosaic, read_sidecar, write_cube

GOLDEN = Path(__file__).with_name("golden.json")


def _corpus(src: Path) -> None:
    """One square and one non-square 9-band source; sample (k, i, j) of
    source s is ((7919*i + 104729*j + 31*k + 613*s) % 1021) / 1021."""
    for s, (name, h, w) in enumerate([("sq", 12, 12), ("wide", 12, 15)]):
        k, i, j = np.indices((9, h, w), dtype=np.int64)
        data = ((7919 * i + 104729 * j + 31 * k + 613 * s) % 1021) / 1021
        write_cube(SpectralCube(data.astype(np.float32)), src / name,
                   wavelengths_nm=[400.0 + 12.5 * b for b in range(9)])


def _digests(root: Path) -> dict:
    """Run ``pairs`` under ``root``; the sha256 of every file it writes and
    of each record's reconstruction, keyed by path relative to the dataset."""
    src, ds = root / "src", root / "ds"
    _corpus(src)
    assert cli_dispatch(["pairs", str(src), "--pattern", "3x3", "--augment", "-o", str(ds)]) == 0
    written = {p.relative_to(ds).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(ds.rglob("*")) if p.is_file()}
    recon = {}
    for rec in read_manifest(ds / "manifest.jsonl"):
        cube = wb_bilinear(read_mosaic(ds / rec.mosaic), read_sidecar(ds / rec.mosaic).pattern)
        recon[rec.mosaic] = hashlib.sha256(cube.data.tobytes()).hexdigest()
    return {"pairs": written, "wb_bilinear": recon}


def test_pairs_and_wb_bilinear_bytes_match_the_golden_digests(tmp_path, capsys):
    got = _digests(tmp_path)
    capsys.readouterr()
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(digests['pairs'])} files, {len(digests['wb_bilinear'])} reconstructions",
          file=sys.stderr)
