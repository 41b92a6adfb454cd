"""Golden outputs of the pipeline that hold on every install.

``pairs --augment``, ``select-hard`` and ``metrics`` run through
``cli_dispatch`` on a corpus built from integer arithmetic and one correctly
rounded division per sample, with no ``sin`` and no random stream.

- The sha256 of every file ``pairs`` writes, and of each record's
  ``wb_bilinear`` reconstruction, must equal ``golden.json``. Both are data
  movement plus IEEE add and multiply with one rounding, so they carry
  across NumPy versions and CPUs.
- Each verdict's ``count`` and ``hard`` must equal ``golden.json``. The map
  goes through NumPy's FFT and ``log``, whose last bits may move, so the
  test first checks that no map bin lies within 1e-6 of ``t_var`` and no
  count within 2 of ``t_cnt``: no such move can flip a verdict.
- Every ``report.json`` value must lie within 1e-12 relative of
  ``golden.json``, because NumPy's sums and BLAS may round differently.
  The frequency map's bytes and the verdict sidecar's digest are not pinned.

After an intended change to those outputs, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from specmosaic import SpectralCube, frequency_variation_map, wb_bilinear
from specmosaic.cli import cli_dispatch
from specmosaic.dataset import read_manifest, record_pair
from specmosaic.fileio import read_mosaic, read_sidecar, write_cube

GOLDEN = Path(__file__).with_name("golden.json")
# Thresholds that keep 8 of the corpus's 12 records and drop 4.
T_VAR, T_CNT = 3.25, 5


def _corpus(src: Path) -> None:
    """One square and one non-square 9-band source; sample (k, i, j) of
    source s is ((7919*i + 104729*j + 31*k + 613*s) % 1021) / 1021."""
    for s, (name, h, w) in enumerate([("sq", 12, 12), ("wide", 12, 15)]):
        k, i, j = np.indices((9, h, w), dtype=np.int64)
        data = ((7919 * i + 104729 * j + 31 * k + 613 * s) % 1021) / 1021
        write_cube(SpectralCube(data.astype(np.float32)), src / name,
                   wavelengths_nm=[400.0 + 12.5 * b for b in range(9)])


def _outputs(root: Path) -> dict:
    """Run ``pairs``, ``select-hard`` and ``metrics`` under ``root``: the
    sha256 of every file ``pairs`` writes and of each record's
    reconstruction, keyed by path relative to the dataset, each verdict, and
    the report without its tool version."""
    src, ds, hard, report = root / "src", root / "ds", root / "hard.jsonl", root / "report.json"
    _corpus(src)
    assert cli_dispatch(["pairs", str(src), "--pattern", "3x3", "--augment", "-o", str(ds)]) == 0
    written = {p.relative_to(ds).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(ds.rglob("*")) if p.is_file()}
    recon = {}
    for rec in read_manifest(ds / "manifest.jsonl"):
        cube = wb_bilinear(read_mosaic(ds / rec.mosaic), read_sidecar(ds / rec.mosaic).pattern)
        recon[rec.mosaic] = hashlib.sha256(cube.data.tobytes()).hexdigest()
    assert cli_dispatch(["select-hard", str(ds / "manifest.jsonl"), "--t-var", str(T_VAR),
                         "--t-cnt", str(T_CNT), "-o", str(hard)]) == 0
    verdicts = json.loads(Path(f"{hard}.verdicts.json").read_text())["verdicts"]
    assert cli_dispatch(["metrics", str(hard), "-o", str(report)]) == 0
    scores = json.loads(report.read_text())
    del scores["tool_version"]
    return {"pairs": written, "wb_bilinear": recon, "report": scores,
            "verdicts": [{"count": v["count"], "hard": v["hard"]} for v in verdicts]}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return _outputs(root), root / "ds"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pairs_and_wb_bilinear_bytes_match_the_golden_digests(outputs, golden):
    got, _ = outputs
    assert {k: got[k] for k in ("pairs", "wb_bilinear")} == {
        k: golden[k] for k in ("pairs", "wb_bilinear")}


def test_select_hard_verdicts_match_the_golden_ones_with_margin(outputs, golden):
    got, ds = outputs
    maps = [frequency_variation_map(*record_pair(ds, rec))
            for rec in read_manifest(ds / "manifest.jsonl")]
    counts = [int((m > T_VAR).sum()) for m in maps]
    assert min(float(np.abs(m[m != 0] - T_VAR).min()) for m in maps) >= 1e-6
    assert min(abs(c - T_CNT) for c in counts) >= 2
    assert [v["count"] for v in got["verdicts"]] == counts
    assert got["verdicts"] == golden["verdicts"]
    assert 0 < sum(v["hard"] for v in got["verdicts"]) < len(counts)


def _close(got, want) -> bool:
    """The same structure and keys, and each float within 1e-12 relative of
    ``want``; integers and strings exactly."""
    if isinstance(want, dict):
        return sorted(got) == sorted(want) and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= 1e-12 * abs(want)
    return type(got) is type(want) and got == want


def test_metrics_report_matches_the_golden_values(outputs, golden):
    got, _ = outputs
    assert len(got["report"]["per_image"]) == sum(v["hard"] for v in golden["verdicts"])
    assert _close(got["report"], golden["report"]), (got["report"], golden["report"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = _outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(out['pairs'])} files, {len(out['wb_bilinear'])} reconstructions, "
          f"{len(out['verdicts'])} verdicts, {len(out['report']['per_image'])} scored",
          file=sys.stderr)
