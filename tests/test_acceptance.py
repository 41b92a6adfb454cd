"""End-to-end acceptance gate.

One test per shipped guarantee; each records a PASS/FAIL line through the
shared ``criterion`` fixture. Kernels are checked against direct-definition
oracles restated in ``tests/oracles.py`` (not imported from the library),
and the batch pipeline runs through the installed command-line entry point
in subprocesses so worker-count determinism is exercised across real process
boundaries.
Tolerances and timing budgets are fixed here, not tuned to the
implementation.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from specmosaic import (
    MosaicImage,
    SelectionParams,
    SfaPattern,
    SpectralCube,
    centered_spectrum,
    classify_patch,
    mosaic,
    psnr,
    remosaic,
    sam,
    sparse_expand,
    ssim,
    wb_bilinear,
)
from specmosaic.dataset import read_manifest
from specmosaic.fileio import read_cube, read_mosaic, read_sidecar, write_cube

from oracles import (
    dft_oracle_centered,
    lattice_offsets,
    psnr_oracle,
    sam_oracle,
    ssim_oracle,
)

# --------------------------------------------------------------- plumbing


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(args, threads):
    env = dict(os.environ)
    env["SPECMOSAIC_THREADS"] = str(threads)
    # The child imports this checkout's package, installed or not.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "specmosaic.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def _ok(proc):
    assert proc.returncode == 0, f"{proc.args}\n{proc.stderr}"


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@dataclass
class PipelineRun:
    root: Path
    ds: Path
    hard: Path
    report: Path | None
    elapsed: float


# ------------------------------------------------------- fixture datasets


def _build_selection_sources(src: Path) -> None:
    """20 near-flat 128x128x16 cubes: one carries an additive sinusoid
    (amplitude 0.2, normalized frequency 0.25) in a single band, another a
    +0.2 global brightness shift."""
    rng = np.random.default_rng(2026)
    for i in range(20):
        consts = rng.uniform(0.2, 0.8, size=16)
        data = np.broadcast_to(consts[:, None, None], (16, 128, 128)).copy()
        if i == 7:
            u = np.arange(128, dtype=np.float64)
            data[3] += (0.2 * np.sin(2 * np.pi * 0.25 * u))[:, None]
        if i == 12:
            data += 0.2
        write_cube(SpectralCube(data.astype(np.float32)), src / f"c{i:02d}")


def _build_pipeline_sources(src: Path) -> None:
    """10 block-textured 200x200x25 cubes (8x8 blocks of uniform noise)."""
    rng = np.random.default_rng(20260819)
    for i in range(10):
        coarse = rng.uniform(0.05, 0.95, (25, 26, 26))
        fine = np.kron(coarse, np.ones((1, 8, 8)))[:, :200, :200]
        write_cube(SpectralCube(fine.astype(np.float32)), src / f"s{i:02d}")


def _run_selection_pipeline(root: Path, src: Path, threads: int) -> PipelineRun:
    t0 = time.perf_counter()
    _ok(_cli(["pairs", src, "--pattern", "4x4", "-o", root / "ds"], threads))
    _ok(
        _cli(
            ["select-hard", root / "ds" / "manifest.jsonl", "-o", root / "hard.jsonl"],
            threads,
        )
    )
    return PipelineRun(
        root, root / "ds", root / "hard.jsonl", None, time.perf_counter() - t0
    )


def _run_dataset_pipeline(root: Path, src: Path, threads: int) -> PipelineRun:
    t0 = time.perf_counter()
    _ok(
        _cli(
            ["pairs", src, "--pattern", "5x5", "--augment",
             "--patch", "100", "100", "-o", root / "ds"],
            threads,
        )
    )
    _ok(
        _cli(
            ["select-hard", root / "ds" / "manifest.jsonl", "-o", root / "hard.jsonl"],
            threads,
        )
    )
    _ok(_cli(["metrics", root / "hard.jsonl", "-o", root / "report.json"], threads))
    return PipelineRun(
        root,
        root / "ds",
        root / "hard.jsonl",
        root / "report.json",
        time.perf_counter() - t0,
    )


@pytest.fixture(scope="session")
def selection_sources(tmp_path_factory):
    src = tmp_path_factory.mktemp("selection_src")
    _build_selection_sources(src)
    return src


@pytest.fixture(scope="session")
def pipeline_sources(tmp_path_factory):
    src = tmp_path_factory.mktemp("pipeline_src")
    _build_pipeline_sources(src)
    return src


@pytest.fixture(scope="session")
def selection_run(tmp_path_factory, selection_sources):
    return _run_selection_pipeline(
        tmp_path_factory.mktemp("selection_t8"), selection_sources, threads=8
    )


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory, pipeline_sources):
    return _run_dataset_pipeline(
        tmp_path_factory.mktemp("pipeline_t8"), pipeline_sources, threads=8
    )


def test_criterion_1_metric_oracle_equivalence(criterion):
    with criterion(1, "metric oracle equivalence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.uniform(0, 1, (4, 8, 8))
            b = rng.uniform(0, 1, (4, 8, 8))
            assert abs(psnr(a, b) - psnr_oracle(a, b)) < 1e-9
            assert abs(sam(a, b) - sam_oracle(a, b)) < 1e-9
        # the windowed index needs 11x11 spatial support, so its oracle
        # comparison runs at 16x16 with the same band count
        for _ in range(100):
            a = rng.uniform(0, 1, (4, 16, 16))
            b = rng.uniform(0, 1, (4, 16, 16))
            assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-7
        # closed forms
        a = rng.uniform(0, 0.5, (4, 16, 16))
        assert abs(psnr(a + 0.1, a, 1.0) - 20.0) <= 1e-9
        assert sam(a + 0.05, 2.0 * (a + 0.05)) == 0.0
        assert sam(a + 0.05, 0.5 * (a + 0.05)) == 0.0
        assert ssim(a, a) == 1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{elapsed:.2f}s"


# ------------------------------------------------------------ criterion 2


def test_criterion_2_spectrum_matches_brute_force(criterion):
    with criterion(2, "centered spectrum vs O(N^4) DFT"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for h in range(1, 9):
            for w in range(1, 9):
                x = rng.uniform(-1, 1, (h, w))
                got = centered_spectrum(x)
                want = dft_oracle_centered(x)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-9 * scale
                # constant input: all energy in one centered DC bin
                s = centered_spectrum(np.full((h, w), 0.75))
                assert abs(s[h // 2, w // 2] - 0.75 * h * w) <= 1e-9 * h * w
                s[h // 2, w // 2] = 0.0
                assert np.max(np.abs(s)) <= 1e-9 * h * w
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{elapsed:.2f}s"


# ------------------------------------------------------------ criterion 3


def test_criterion_3_hard_patch_selection(selection_run, criterion):
    with criterion(3, "sinusoid selected, brightness shift rejected"):
        run = selection_run
        records = read_manifest(run.ds / "manifest.jsonl")
        assert len(records) == 20
        kept = read_manifest(run.hard)
        assert [r.source for r in kept] == ["c07"]
        assert kept[0].hard is True
        verdicts = json.loads(
            Path(str(run.hard) + ".verdicts.json").read_text()
        )["verdicts"]
        assert len(verdicts) == 20
        assert verdicts[7]["hard"] is True
        assert verdicts[12]["hard"] is False  # brightness-only patch
        assert verdicts[12]["count"] == 0  # DC never enters the count
        assert sum(v["hard"] for v in verdicts) == 1
        assert run.elapsed < 30.0, f"{run.elapsed:.2f}s"


# ------------------------------------------------------------ criterion 4


def test_criterion_4_mosaic_demosaic_contracts(criterion):
    with criterion(4, "mosaic/demosaic round-trip contracts"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        for _ in range(50):
            period = int(rng.integers(2, 6))
            bands = period * period
            pattern = SfaPattern(
                rng.permutation(bands).reshape(period, period)
            )
            h = period * int(rng.integers(3, 7))
            w = period * int(rng.integers(3, 7))

            # the per-band masks partition the frame: each pixel is claimed
            # by exactly the band whose lattice it sits on
            idx = pattern.index_map(h, w)
            claims = np.zeros((h, w), dtype=np.int64)
            for b in range(bands):
                row0, col0 = lattice_offsets(pattern, b)
                rows, cols = np.nonzero(idx == b)
                assert rows.size == (h // period) * (w // period)
                assert np.all(rows % period == row0)
                assert np.all(cols % period == col0)
                claims += idx == b
            assert np.all(claims == 1)

            # scatter then gather is the identity on mosaics, bit-exact
            m = MosaicImage(rng.uniform(0, 1, (h, w)).astype(np.float32))
            again = mosaic(sparse_expand(m, pattern), pattern)
            assert again.data.tobytes() == m.data.tobytes()

            # interpolation preserves every sampled site
            recon = wb_bilinear(m, pattern)
            assert np.max(np.abs(
                remosaic(recon, pattern).data.astype(np.float64)
                - m.data.astype(np.float64)
            )) <= 1e-7

            # bilinear interpolation reproduces per-band affine ramps away
            # from the clamped border
            rows = np.arange(h, dtype=np.float64)[:, None]
            cols = np.arange(w, dtype=np.float64)[None, :]
            field = np.empty((bands, h, w), dtype=np.float64)
            for b in range(bands):
                ca = rng.uniform(-0.01, 0.01)
                cb = rng.uniform(-0.01, 0.01)
                cc = rng.uniform(0.2, 0.6)
                field[b] = ca * rows + cb * cols + cc
            cube = SpectralCube(field.astype(np.float32))
            recon = wb_bilinear(mosaic(cube, pattern), pattern)
            interior = (
                slice(None),
                slice(period, h - period),
                slice(period, w - period),
            )
            err = np.abs(recon.data.astype(np.float64) - field)[interior]
            assert err.max() <= 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{elapsed:.2f}s"


# ------------------------------------------------------------ criterion 5


def test_criterion_5_dataset_pipeline(pipeline_run, criterion):
    with criterion(5, "pairs -> select-hard -> metrics pipeline"):
        run = pipeline_run
        records = read_manifest(run.ds / "manifest.jsonl")
        assert len(records) == 320  # 10 sources x 8 variants x 2x2 patches
        kept = read_manifest(run.hard)
        assert kept, "hard subset is empty; nothing for metrics to score"

        # the hard manifest is an order-preserving subsequence
        keys = iter([(r.source, r.aug, r.origin) for r in records])
        assert all((r.source, r.aug, r.origin) in keys for r in kept)

        # every emitted pair round-trips bit-exactly
        for rec in records:
            cube = read_cube(run.ds / rec.cube)
            side = read_sidecar(run.ds / rec.cube)
            mosaic_img = read_mosaic(run.ds / rec.mosaic)
            assert (
                remosaic(cube, side.pattern).data.tobytes()
                == mosaic_img.data.tobytes()
            )

        report = json.loads(run.report.read_text())
        assert len(report["per_image"]) == len(kept)
        assert math.isfinite(report["mean_psnr"])
        assert math.isfinite(report["mean_sam"])
        assert 0.0 < report["mean_ssim"] <= 1.0
        assert run.elapsed < 60.0, f"{run.elapsed:.2f}s"


# ------------------------------------------------------------ criterion 6


def test_criterion_6_threshold_monotonicity(criterion):
    with criterion(6, "selection threshold monotonicity"):
        rng = np.random.default_rng(6)
        maps = [rng.exponential(1.0, (16, 16)) for _ in range(200)]
        # count is non-increasing in the intensity threshold
        for fv in maps:
            tvars = np.sort(rng.uniform(0.0, 4.0, 5))
            counts = [
                classify_patch(fv, SelectionParams(float(t), 0)).count
                for t in tvars
            ]
            assert all(x >= y for x, y in zip(counts, counts[1:]))

        # the hard set shrinks (or stays) as either threshold rises
        grid = [(0.5, 2), (0.5, 8), (1.5, 2), (1.5, 8), (3.0, 16)]
        hard_sets = {
            (tv, tc): {
                i
                for i, fv in enumerate(maps)
                if classify_patch(fv, SelectionParams(tv, tc)).is_hard
            }
            for tv, tc in grid
        }
        for tv1, tc1 in grid:
            for tv2, tc2 in grid:
                if tv2 >= tv1 and tc2 >= tc1:
                    assert hard_sets[(tv2, tc2)] <= hard_sets[(tv1, tc1)]

        # boundary: a count exactly at the limit is not hard
        for fv in maps[:20]:
            count = classify_patch(fv, SelectionParams(1.0, 0)).count
            verdict = classify_patch(fv, SelectionParams(1.0, count))
            assert verdict.count == count and not verdict.is_hard


# ------------------------------------------------------------ criterion 7


def test_criterion_7_worker_count_determinism(
    selection_run, pipeline_run, selection_sources, pipeline_sources,
    tmp_path_factory, criterion,
):
    with criterion(7, "byte-identical outputs across worker counts"):
        sel_t1 = _run_selection_pipeline(
            tmp_path_factory.mktemp("selection_t1"), selection_sources, threads=1
        )
        assert _tree_digest(sel_t1.root) == _tree_digest(selection_run.root)

        pipe_t1 = _run_dataset_pipeline(
            tmp_path_factory.mktemp("pipeline_t1"), pipeline_sources, threads=1
        )
        assert _tree_digest(pipe_t1.root) == _tree_digest(pipeline_run.root)
