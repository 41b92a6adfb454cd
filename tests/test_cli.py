import ctypes
import gc
import hashlib
import json
import math
import mmap
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specmosaic import SfaPattern, SpectralCube, mosaic as sfa_mosaic, wb_bilinear
from specmosaic import cli
from specmosaic.cli import cli_dispatch
from specmosaic.dataset import read_manifest
from specmosaic.fileio import cube_stem, read_cube, read_mosaic, read_sidecar, write_cube
from specmosaic.metrics import evaluate_dataset


def run(capsys, *argv):
    code = cli_dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_const_cube(path, consts, h=32, w=32, sine_band=None):
    consts = np.asarray(consts, dtype=np.float64)
    data = np.broadcast_to(consts[:, None, None], (len(consts), h, w)).copy()
    if sine_band is not None:
        u = np.arange(h, dtype=np.float64)
        data[sine_band] += (0.2 * np.sin(2 * np.pi * 0.25 * u))[:, None]
    return write_cube(SpectralCube(data.astype(np.float32)), path)


# ------------------------------------------------------- mosaic / demosaic


def test_mosaic_demosaic_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(100)
    cube = SpectralCube(rng.uniform(0, 1, (4, 16, 16)).astype(np.float32))
    write_cube(cube, tmp_path / "in")
    code, _, _ = run(
        capsys, "mosaic", tmp_path / "in.bsq", "--pattern", "2x2",
        "-o", tmp_path / "m",
    )
    assert code == 0
    m = read_mosaic(tmp_path / "m")
    want = sfa_mosaic(cube, SfaPattern.row_major(2))
    assert m.data.tobytes() == want.data.tobytes()

    code, _, _ = run(
        capsys, "demosaic", tmp_path / "m.bsq", "--pattern", "2x2",
        "-o", tmp_path / "recon",
    )
    assert code == 0
    recon = read_cube(tmp_path / "recon")
    assert recon.data.shape == cube.data.shape
    # the reconstruction agrees with the mosaic at every sampled site
    again = sfa_mosaic(recon, SfaPattern.row_major(2))
    assert again.data.tobytes() == m.data.tobytes()


def test_mosaic_output_stem_keeps_its_dots(tmp_path, capsys):
    _write_const_cube(tmp_path / "big", [0.1, 0.4, 0.7, 0.9], h=8, w=8)
    out = tmp_path / "out"
    code, _, _ = run(capsys, "mosaic", tmp_path / "big.bsq", "--pattern", "2x2",
                     "-o", out / "frame.v1")
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["frame.v1.bsq", "frame.v1.json"]
    assert read_mosaic(out / "frame.v1").data.shape == (8, 8)


def test_demosaic_constant_is_exact(tmp_path, capsys):
    _write_const_cube(tmp_path / "c", [0.1, 0.4, 0.7, 0.9], h=8, w=8)
    run(capsys, "mosaic", tmp_path / "c.bsq", "--pattern", "2x2", "-o", tmp_path / "m")
    run(capsys, "demosaic", tmp_path / "m.bsq", "--pattern", "2x2", "-o", tmp_path / "r")
    recon = read_cube(tmp_path / "r")
    original = read_cube(tmp_path / "c")
    assert recon.data.tobytes() == original.data.tobytes()


# ------------------------------------------------------------------ fvmap


def test_fvmap_identical_cubes_zero_map(tmp_path, capsys):
    _write_const_cube(tmp_path / "a", [0.3, 0.6], h=16, w=16)
    code, _, _ = run(
        capsys, "fvmap", tmp_path / "a.bsq", tmp_path / "a.bsq",
        "-o", tmp_path / "fv", "--pgm", tmp_path / "fv.pgm",
    )
    assert code == 0
    fv = read_cube(tmp_path / "fv")
    assert fv.bands == 1 and not fv.data.any()
    assert (tmp_path / "fv.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")


def test_fvmap_rejects_bad_flags(tmp_path, capsys):
    _write_const_cube(tmp_path / "a", [0.3], h=8, w=8)
    code, _, err = run(
        capsys, "fvmap", tmp_path / "a.bsq", tmp_path / "a.bsq",
        "--r-low", "0.9", "--r-high", "0.1", "-o", tmp_path / "fv",
    )
    assert code == 1
    assert "error:" in err


# ------------------------------------------------- pairs and select-hard


def test_pairs_then_select_hard(tmp_path, capsys):
    src = tmp_path / "src"
    _write_const_cube(src / "c00", [0.3, 0.5, 0.6, 0.8], h=128, w=128)
    _write_const_cube(src / "c01", [0.2, 0.4, 0.5, 0.7], h=128, w=128, sine_band=1)
    _write_const_cube(src / "c02", [0.5, 0.5, 0.5, 0.5], h=128, w=128)
    ds = tmp_path / "ds"
    code, out, _ = run(capsys, "pairs", src, "--pattern", "2x2", "-o", ds)
    assert code == 0
    assert out.startswith("3 records")
    records = read_manifest(ds / "manifest.jsonl")
    assert [r.source for r in records] == ["c00", "c01", "c02"]

    hard = tmp_path / "hard.jsonl"
    code, out, _ = run(capsys, "select-hard", ds / "manifest.jsonl", "-o", hard)
    assert code == 0
    assert out.startswith("1 hard records")
    kept = read_manifest(hard)
    assert len(kept) == 1 and kept[0].source == "c01"
    verdicts = json.loads((tmp_path / "hard.jsonl.verdicts.json").read_text())
    assert len(verdicts["verdicts"]) == 3


def test_pipeline_keeps_a_dotted_source_apart_from_its_undotted_name(tmp_path, capsys):
    rng = np.random.default_rng(107)
    sources = {name: rng.uniform(0, 1, (4, 24, 24)).astype(np.float32)
               for name in ("scene", "scene.v2")}
    for name, data in sources.items():
        write_cube(SpectralCube(data), tmp_path / "src" / name)
    ds, hard = tmp_path / "ds", tmp_path / "hard.jsonl"
    code, out, _ = run(capsys, "pairs", tmp_path / "src", "--pattern", "2x2",
                       "--patch", "12", "12", "-o", ds)
    assert code == 0 and out.startswith("8 records")
    records = read_manifest(ds / "manifest.jsonl")
    assert sorted(p.name for p in ds.glob("*_cube.bsq")) == sorted(r.cube for r in records)
    assert len({r.cube for r in records}) == 8
    pattern = SfaPattern.row_major(2)
    for rec in records:
        (r, c), cube = rec.origin, read_cube(ds / rec.cube)
        assert cube.data.tobytes() == sources[rec.source][:, r:r + 12, c:c + 12].tobytes()
        want = sfa_mosaic(cube, pattern).data.tobytes()
        assert read_mosaic(ds / rec.mosaic).data.tobytes() == want
    assert run(capsys, "select-hard", ds / "manifest.jsonl", "-o", hard)[0] == 0
    kept = read_manifest(hard)
    assert kept and run(capsys, "metrics", hard, "-o", tmp_path / "r.json")[0] == 0
    assert len(json.loads((tmp_path / "r.json").read_text())["per_image"]) == len(kept)


def test_every_cube_read_goes_through_read_cube(tmp_path, capsys, monkeypatch):
    # Spy on read_cube wherever a specmosaic module binds it, as a tracer
    # would; one worker keeps every read in this process.
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    orig, seen = read_cube, []

    def spy(path):
        seen.append(cube_stem(path).resolve())
        return orig(path)

    for name, mod in list(sys.modules.items()):
        if name == "specmosaic" or name.startswith("specmosaic."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, spy)
    src, ds, hard = tmp_path / "src", tmp_path / "ds", tmp_path / "hard" / "hard.jsonl"
    sources = [
        _write_const_cube(src / "c00", [0.3, 0.5, 0.6, 0.8], h=64, w=64),
        _write_const_cube(src / "c01", [0.2, 0.4, 0.5, 0.7], h=64, w=64, sine_band=1),
    ]
    assert run(capsys, "pairs", src, "--pattern", "2x2", "--patch", "32", "32", "-o", ds)[0] == 0
    assert run(capsys, "select-hard", ds / "manifest.jsonl", "-o", hard)[0] == 0
    assert run(capsys, "metrics", hard, "-o", tmp_path / "report.json")[0] == 0
    records, kept = read_manifest(ds / "manifest.jsonl"), read_manifest(hard)
    assert len(records) == 8 and 0 < len(kept) < len(records)
    want = [s.resolve() for s in sources]
    for base, recs in ((ds, records), (hard.parent, kept)):
        want += [cube_stem(base / p).resolve() for r in recs for p in (r.cube, r.mosaic)]
    assert sorted(seen) == sorted(want)


@pytest.mark.parametrize("sine_bands", [(1, 1, 1), (None, None, None), (None, 1, None)])
def test_select_hard_warns_when_it_keeps_all_or_none(tmp_path, capsys, sine_bands):
    src = tmp_path / "src"
    for i, band in enumerate(sine_bands):
        _write_const_cube(src / f"c{i:02d}", [0.3, 0.5, 0.6, 0.8], h=128, w=128, sine_band=band)
    ds, hard = tmp_path / "ds", tmp_path / "hard.jsonl"
    assert run(capsys, "pairs", src, "--pattern", "2x2", "-o", ds)[0] == 0
    code, out, err = run(capsys, "select-hard", ds / "manifest.jsonl", "-o", hard)
    n_kept = sum(band is not None for band in sine_bands)
    assert code == 0 and out == f"{n_kept} hard records -> {hard}\n"
    counts = sorted(v["count"] for v in json.loads(
        (tmp_path / "hard.jsonl.verdicts.json").read_text())["verdicts"])
    if n_kept == 1:  # a selection that separates the corpus says nothing more
        assert err == ""
    else:
        assert err == (
            f"warning: kept {n_kept} of 3 records ({n_kept // 3:.0%}); counts min "
            f"{counts[0]}, p50 {counts[1]}, max {counts[2]} against t_cnt 5\n"
        )


def test_pairs_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "pairs", empty, "--pattern", "2x2", "-o", tmp_path / "ds")
    assert code == 1
    assert "error:" in err


def test_pairs_given_a_file_exits_1(tmp_path, capsys):
    cube = _write_const_cube(tmp_path / "c", [0.3, 0.5, 0.6, 0.8], h=8, w=8).with_suffix(".bsq")
    code, out, err = run(capsys, "pairs", cube, "--pattern", "2x2", "-o", tmp_path / "ds")
    assert (code, out, err) == (1, "", f"error: {cube} is not a directory\n")


@pytest.mark.parametrize("command", ["select-hard", "metrics"])
def test_stages_name_a_cube_sidecar_without_pattern(tmp_path, capsys, command):
    _write_const_cube(tmp_path / "src" / "c00", [0.3, 0.5, 0.6, 0.8], h=16, w=16)
    ds = tmp_path / "ds"
    assert run(capsys, "pairs", tmp_path / "src", "--pattern", "2x2", "-o", ds)[0] == 0
    rec = read_manifest(ds / "manifest.jsonl")[0]
    write_cube(read_cube(ds / rec.cube), ds / rec.cube)  # the same payload, no pattern
    code, out, err = run(capsys, command, ds / "manifest.jsonl", "-o", tmp_path / "out")
    assert (code, out) == (1, "")
    assert err == f"error: record 0: cube sidecar for {rec.cube} carries no pattern\n"


def _missing_files_manifest(tmp_path):
    ds = tmp_path / "ds"
    ds.mkdir()
    line = {
        "mosaic": "nope_mosaic.bsq", "cube": "nope_cube.bsq", "source": "nope",
        "origin": [0, 0], "aug": "identity", "hard": None, "count": None,
    }
    (ds / "manifest.jsonl").write_text(json.dumps(line) + "\n")
    return ds / "manifest.jsonl"


def test_select_hard_missing_files_reports_record(tmp_path, capsys):
    manifest = _missing_files_manifest(tmp_path)
    code, _, err = run(capsys, "select-hard", manifest, "-o", tmp_path / "h.jsonl")
    assert code == 1
    assert "record 0" in err


# ---------------------------------------------------------------- metrics


def test_metrics_manifest_identity_reconstruction(tmp_path, capsys):
    src = tmp_path / "src"
    _write_const_cube(src / "flat", [0.25, 0.5, 0.75, 1.0], h=16, w=16)
    ds = tmp_path / "ds"
    run(capsys, "pairs", src, "--pattern", "2x2", "-o", ds)
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "metrics", ds / "manifest.jsonl", "-o", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["mean_psnr"] == math.inf
    assert report["mean_ssim"] == 1.0
    assert report["mean_sam"] == 0.0
    assert report["peak"] == 1.0
    assert len(report["per_image"]) == 1
    assert "1 pairs" in out


def test_metrics_manifest_matches_evaluate_dataset(tmp_path, capsys):
    rng = np.random.default_rng(103)
    src = tmp_path / "src"
    for name in ("a", "b"):
        data = rng.uniform(0, 1, (4, 16, 16)).astype(np.float32)
        write_cube(SpectralCube(data), src / name)
    ds = tmp_path / "ds"
    run(capsys, "pairs", src, "--pattern", "2x2", "--patch", "12", "12", "-o", ds)
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "metrics", ds / "manifest.jsonl", "-o", report_path)
    assert code == 0
    pairs = []
    for rec in read_manifest(ds / "manifest.jsonl"):
        pattern = read_sidecar(ds / rec.cube).pattern
        recon = wb_bilinear(read_mosaic(ds / rec.mosaic), pattern)
        pairs.append((recon, read_cube(ds / rec.cube)))
    assert len(pairs) == 2
    assert report_path.read_text() == evaluate_dataset(pairs).to_json()


def test_metrics_manifest_missing_files_reports_record(tmp_path, capsys):
    manifest = _missing_files_manifest(tmp_path)
    code, _, err = run(capsys, "metrics", manifest, "-o", tmp_path / "r.json")
    assert code == 1
    assert "record 0" in err
    assert not (tmp_path / "r.json").exists()


def test_metrics_pair_list_with_comments(tmp_path, capsys):
    rng = np.random.default_rng(101)
    base = rng.uniform(0, 0.5, (3, 16, 16)).astype(np.float32)
    ref = write_cube(SpectralCube(base), tmp_path / "ref")
    recon = write_cube(
        SpectralCube((base.astype(np.float64) + 0.1).astype(np.float32)),
        tmp_path / "recon",
    )
    pair_list = tmp_path / "pairs.txt"
    pair_list.write_text(
        f"# reconstruction scoring\n\n{recon}.bsq {ref}.bsq\n"
    )
    code, _, _ = run(capsys, "metrics", pair_list, "-o", tmp_path / "report.json")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["mean_psnr"] - 20.0) < 1e-3  # float32 quantization
    assert report["tool_version"].startswith("specmosaic ")


def test_metrics_pair_list_paths_resolve_against_the_working_directory(
    tmp_path, capsys, monkeypatch
):
    lists = tmp_path / "lists"
    _write_const_cube(lists / "recon", [0.4, 0.6], h=16, w=16)
    _write_const_cube(lists / "ref", [0.5, 0.5], h=16, w=16)
    (lists / "pairs.txt").write_text("recon.bsq ref.bsq\n")
    monkeypatch.chdir(lists)
    assert run(capsys, "metrics", "pairs.txt", "-o", tmp_path / "a.json")[0] == 0
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "metrics", "lists/pairs.txt", "-o", tmp_path / "b.json")
    assert code == 1
    assert err == "error: record 0: missing sidecar recon.json\n"


def test_metrics_clamp_flag(tmp_path, capsys):
    ref = _write_const_cube(tmp_path / "ref", [0.5, 0.5], h=16, w=16)
    recon = _write_const_cube(tmp_path / "recon", [1.5, 1.5], h=16, w=16)
    pair_list = tmp_path / "pairs.txt"
    pair_list.write_text(f"{recon}.bsq {ref}.bsq\n")
    run(capsys, "metrics", pair_list, "-o", tmp_path / "raw.json")
    code, _, _ = run(
        capsys, "metrics", pair_list, "--clamp", "-o", tmp_path / "clamped.json"
    )
    assert code == 0
    raw = json.loads((tmp_path / "raw.json").read_text())
    clamped = json.loads((tmp_path / "clamped.json").read_text())
    assert abs(raw["mean_psnr"] - 0.0) < 1e-9  # |1.5 - 0.5| = 1.0 everywhere
    assert abs(clamped["mean_psnr"] - 10 * math.log10(4.0)) < 1e-9


def test_metrics_pair_list_report_identical_at_one_and_two_workers(
    tmp_path, capsys, monkeypatch
):
    rng = np.random.default_rng(104)
    lines = ["# recon ref"]
    for i in range(6):
        ref = rng.uniform(0, 1, (3, 16, 16)).astype(np.float32)
        recon = (ref + rng.normal(0, 0.05, ref.shape)).astype(np.float32)
        r = write_cube(SpectralCube(ref), tmp_path / f"ref{i}")
        c = write_cube(SpectralCube(recon), tmp_path / f"recon{i}")
        lines.append(f"{c}.bsq {r}.bsq")
    pair_list = tmp_path / "pairs.txt"
    pair_list.write_text("\n".join(lines) + "\n")
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SPECMOSAIC_THREADS", threads)
        out = tmp_path / f"report{threads}.json"
        assert run(capsys, "metrics", pair_list, "--clamp", "-o", out)[0] == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["per_image"]) == 6


def test_metrics_bad_pair_line_reports_index(tmp_path, capsys):
    pair_list = tmp_path / "pairs.txt"
    pair_list.write_text("only-one-field\n")
    code, _, err = run(capsys, "metrics", pair_list, "-o", tmp_path / "r.json")
    assert code == 1
    assert "record 0" in err


def test_metrics_pair_line_keeps_raw_unicode_line_separator(tmp_path):
    # U+2028 is whitespace, so the line has three fields; the message must
    # name it whole, as line 1, not the fragment before the separator.
    line = "a\u2028b.bsq ref.bsq"
    pair_list = tmp_path / "pairs.txt"
    pair_list.write_text(line + "\n", encoding="utf-8")
    proc = _run_module("metrics", pair_list, "-o", tmp_path / "r.json")
    assert proc.returncode == 1
    assert f"{pair_list} line 1: expected '<recon> <ref>', got {line!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, content, form", [
    ("hard.jsonl", "", "manifest"),  # what select-hard writes when it keeps nothing
    ("pairs.txt", "# recon ref\n\n", "pair list"),
])
def test_metrics_empty_input_names_file_and_form(tmp_path, capsys, name, content, form):
    path = tmp_path / name
    path.write_text(content)
    code, _, err = run(capsys, "metrics", path, "-o", tmp_path / "r.json")
    assert code == 1
    assert err == f"error: {form} {path} has no pairs to score\n"
    assert not (tmp_path / "r.json").exists()


# --------------------------------------------------------------- patchify


def test_patchify_writes_window_files(tmp_path, capsys):
    rng = np.random.default_rng(102)
    cube = SpectralCube(rng.uniform(0, 1, (4, 16, 16)).astype(np.float32))
    write_cube(cube, tmp_path / "img")
    out = tmp_path / "patches"
    code, msg, _ = run(
        capsys, "patchify", tmp_path / "img.bsq", "--patch", "8", "8",
        "--pattern", "2x2", "-o", out,
    )
    assert code == 0
    assert msg.startswith("4 patches")
    names = sorted(p.name for p in out.glob("*.bsq"))
    assert names == [
        "img_r00000_c00000.bsq",
        "img_r00000_c00008.bsq",
        "img_r00008_c00000.bsq",
        "img_r00008_c00008.bsq",
    ]
    piece = read_cube(out / "img_r00008_c00008")
    assert piece.data.tobytes() == cube.data[:, 8:, 8:].tobytes()


def test_patchify_keeps_a_dotted_source_stem(tmp_path, capsys):
    rng = np.random.default_rng(108)
    cube = SpectralCube(rng.uniform(0, 1, (4, 8, 8)).astype(np.float32))
    write_cube(cube, tmp_path / "src" / "scene.v2.bsq")
    out = tmp_path / "pp"
    code, msg, _ = run(capsys, "patchify", tmp_path / "src" / "scene.v2.bsq",
                       "--patch", "4", "4", "--pattern", "2x2", "-o", out)
    assert code == 0 and msg.startswith("4 patches")
    origins = [(r, c) for r in (0, 4) for c in (0, 4)]
    stems = [f"scene.v2_r{r:05d}_c{c:05d}" for r, c in origins]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        stem + ext for stem in stems for ext in (".bsq", ".json"))
    for (r, c), stem in zip(origins, stems):
        assert read_cube(out / stem).data.tobytes() == cube.data[:, r:r + 4, c:c + 4].tobytes()


def test_patchify_keeps_source_wavelengths(tmp_path, capsys):
    wl = (450.0, 500.0, 550.0, 600.0)
    cube = SpectralCube(np.zeros((4, 16, 16), dtype=np.float32))
    write_cube(cube, tmp_path / "img", wavelengths_nm=wl)
    out = tmp_path / "patches"
    code, _, _ = run(
        capsys, "patchify", tmp_path / "img.bsq", "--patch", "8", "8",
        "--pattern", "2x2", "-o", out,
    )
    assert code == 0
    stems = sorted(out.glob("*.bsq"))
    assert len(stems) == 4
    assert all(read_sidecar(p).wavelengths_nm == wl for p in stems)


def test_patchify_band_check_follows_the_pairs_rule(tmp_path, capsys):
    write_cube(SpectralCube(np.zeros((4, 10, 10), dtype=np.float32)), tmp_path / "img")
    args = ("--patch", "5", "5", "--pattern", "5x5")
    rule = "has 4 bands but pattern period 5 requires 25"
    code, _, err = run(capsys, "patchify", tmp_path / "img.bsq", *args, "-o", tmp_path / "p")
    assert code == 1
    assert err == f"error: cube {tmp_path / 'img.bsq'} {rule}\n"
    assert not (tmp_path / "p").exists()
    code, _, err = run(capsys, "pairs", tmp_path, *args, "-o", tmp_path / "ds")
    assert code == 1
    assert err == f"error: source 0: cube {tmp_path / 'img'} {rule}\n"


def test_patchify_stride_follows_the_pairs_rule(tmp_path, capsys):
    cube = SpectralCube(np.zeros((4, 16, 16), dtype=np.float32))
    write_cube(cube, tmp_path / "img")
    args = ("--patch", "8", "4", "--pattern", "2x2")
    code, _, err = run(capsys, "patchify", tmp_path / "img.bsq", *args, "-o", tmp_path / "p")
    assert code == 1
    assert err == "error: non-square patch 8x4 needs an explicit stride\n"
    assert not (tmp_path / "p").exists()
    code, _, err = run(capsys, "pairs", tmp_path, *args, "-o", tmp_path / "ds")
    assert code == 1
    assert err == "error: non-square patch 8x4 needs an explicit stride\n"
    code, msg, _ = run(
        capsys, "patchify", tmp_path / "img.bsq", *args, "--stride", "4", "-o", tmp_path / "p"
    )
    assert code == 0
    assert msg.startswith("12 patches")  # rows 0, 4, 8 by columns 0, 4, 8, 12


# ------------------------------------------------------- exit conventions


def test_usage_errors_exit_2(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "mosaic")[0] == 2  # missing required arguments


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("specmosaic ")


def test_missing_input_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "mosaic", tmp_path / "ghost.bsq", "--pattern", "2x2",
        "-o", tmp_path / "m",
    )
    assert code == 1
    assert "error:" in err


def test_band_count_mismatch_exits_1(tmp_path, capsys):
    _write_const_cube(tmp_path / "c", [0.5, 0.5], h=8, w=8)  # 2 bands
    code, _, err = run(
        capsys, "mosaic", tmp_path / "c.bsq", "--pattern", "2x2",
        "-o", tmp_path / "m",
    )
    assert code == 1
    assert "error:" in err


def _run_python(*argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)], capture_output=True, text=True, env=env,
    )


def _run_module(*argv):
    return _run_python("-m", "specmosaic.cli", *argv)


def test_module_entry_point_runs():
    proc = _run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("specmosaic ")


def test_stages_fork_workers_with_no_other_thread_alive(tmp_path, monkeypatch):
    # Python 3.12 warns when a process forks while it has other threads; the
    # warning is a DeprecationWarning, which a CLI run hides unless a filter
    # shows it ("error" cannot fail on it: the interpreter clears it).
    src, ds = tmp_path / "src", tmp_path / "ds"
    for i in range(2):
        _write_const_cube(src / f"c{i:02d}", [0.3, 0.5, 0.6, 0.8], sine_band=i)
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    monkeypatch.setenv("PYTHONWARNINGS", "always:This process:DeprecationWarning")
    for argv in (
        ("pairs", src, "--pattern", "2x2", "-o", ds),
        ("select-hard", ds / "manifest.jsonl", "-o", tmp_path / "hard.jsonl"),
        ("metrics", ds / "manifest.jsonl", "-o", tmp_path / "report.json"),
    ):
        proc = _run_module(*argv)
        assert proc.returncode == 0, proc.stderr
        assert "fork()" not in proc.stderr


def test_stages_warn_alike_at_one_and_two_workers(tmp_path, monkeypatch):
    # Development mode shows ResourceWarning, so a file that a forked worker
    # leaves unclosed prints "unclosed file" on stderr. Warning filters in
    # the test process cannot catch it: it comes from the forked child.
    src = tmp_path / "src"
    for i in range(3):
        _write_const_cube(src / f"c{i:02d}", [0.3, 0.5, 0.6, 0.8], sine_band=i % 2)
    stderr = {}
    for n in (1, 2):
        monkeypatch.setenv("SPECMOSAIC_THREADS", str(n))
        out = tmp_path / f"w{n}"
        stderr[n] = []
        for argv in (
            ("pairs", src, "--pattern", "2x2", "-o", out),
            ("select-hard", out / "manifest.jsonl", "-o", out / "hard.jsonl"),
            ("metrics", out / "manifest.jsonl", "-o", out / "report.json"),
        ):
            proc = _run_python("-X", "dev", "-m", "specmosaic.cli", *argv)
            assert proc.returncode == 0, proc.stderr
            stderr[n].append(proc.stderr.replace(str(out), "<out>"))
    assert stderr[2] == stderr[1]


needs_glibc = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds"
)

# Faults taken by 32 rounds of three 4 MiB blocks allocated at once and freed.
_HEAP_ROUNDS = """
import resource, sys
from specmosaic.cli import _keep_freed_heap, cli_dispatch
if sys.argv[1] == "keep":
    _keep_freed_heap()
elif cli_dispatch(sys.argv[2:]) != 0:
    sys.exit("cli_dispatch failed")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(32):
    held = [bytearray(4 << 20) for _ in range(3)]
    del held
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _heap_faults(*argv):
    proc = _run_python("-c", _HEAP_ROUNDS, *argv)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@needs_glibc
def test_kept_heap_is_reused_instead_of_faulted_in_again(tmp_path):
    # glibc's adaptive thresholds follow the largest freed block, 4 MiB here,
    # and trim above twice that, so three blocks at once go back to the
    # kernel every round unless the heap is kept.
    bound = 2 * 3 * (4 << 20) // mmap.PAGESIZE
    assert _heap_faults("keep") < bound
    # Importing the package and running a command in-process keep glibc's
    # defaults: only main() changes the allocator.
    cube = _write_const_cube(tmp_path / "c", [0.2, 0.4, 0.6, 0.8], h=8, w=8)
    assert _heap_faults("dispatch", "mosaic", cube, "--pattern", "2x2",
                        "-o", tmp_path / "m") >= bound


def test_main_keeps_freed_heap_once_before_dispatch(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append("keep"))
    monkeypatch.setattr(cli, "cli_dispatch", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["specmosaic", "--version"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0
    assert calls == ["keep", ["--version"], "freeze"]


# Objects the collector holds frozen when the interpreter exits.
_FREEZE_AT_EXIT = """
import atexit, gc, sys
from specmosaic import cli
atexit.register(lambda: print(gc.get_freeze_count()))
if sys.argv[1] == "main":
    sys.argv[1:] = ["--version"]
    cli.main()
sys.exit(cli.cli_dispatch(["--version"]))
"""


@pytest.mark.parametrize("entry, frozen", [("main", True), ("dispatch", False)])
def test_only_main_freezes_the_collector(entry, frozen):
    # Freezing skips the exit-time full collection; in-process callers, tests
    # and the benchmark's trace among them, keep normal collection.
    proc = _run_python("-c", _FREEZE_AT_EXIT, entry)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("specmosaic ")
    assert (int(proc.stdout.split()[-1]) > 0) is frozen


@pytest.fixture
def thawed_gc():
    """Undo the freeze that an in-process ``cli.main()`` leaves behind."""
    yield
    gc.unfreeze()


def _raises(exc):
    def cdll(name):
        raise exc

    return cdll


@pytest.mark.parametrize(
    "cdll",
    [_raises(OSError("no libc")), _raises(TypeError("no handle for None")), lambda name: object()],
    ids=["cdll-oserror", "cdll-typeerror", "no-mallopt"],
)
def test_main_runs_where_libc_has_no_mallopt(monkeypatch, capsys, thawed_gc, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(sys, "argv", ["specmosaic", "--version"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("specmosaic ")


def test_warning_prints_as_one_line(tmp_path, monkeypatch):
    # A warning reads "warning: {message}", without the file, line number
    # and source line of the code that raised it.
    _write_const_cube(tmp_path / "src" / "wide", [0.3, 0.5, 0.6, 0.8], h=8, w=12)
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    proc = _run_module("pairs", tmp_path / "src", "--pattern", "2x2", "--augment",
                       "-o", tmp_path / "ds")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        f"warning: non-square cube {tmp_path / 'src' / 'wide'} 8x12: "
        "emitting only the 4 shape-preserving variants\n"
    )


def test_non_square_warning_once_per_source_in_source_order(tmp_path, monkeypatch):
    # The parent decides every source's ops before the workers start, so
    # each non-square source warns once, named, whatever the worker count.
    src = tmp_path / "src"
    for name in ("a", "b", "c"):
        _write_const_cube(src / name, [0.3, 0.5, 0.6, 0.8], h=8, w=12)
    monkeypatch.setenv("SPECMOSAIC_THREADS", "2")
    proc = _run_module("pairs", src, "--pattern", "2x2", "--augment", "-o", tmp_path / "ds")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "".join(
        f"warning: non-square cube {src / name} 8x12: "
        "emitting only the 4 shape-preserving variants\n"
        for name in ("a", "b", "c")
    )


def test_pairs_rejects_sources_whose_record_names_collide(tmp_path, capsys):
    # "s" + "anti_transpose" and "s_anti" + "transpose" both name records
    # s_anti_transpose_*, so one record would point at the other's files.
    src = tmp_path / "src"
    for name in ("s", "s_anti"):
        _write_const_cube(src / name, [0.3, 0.5, 0.6, 0.8], h=8, w=8)
    code, _, err = run(capsys, "pairs", src, "--pattern", "2x2", "--augment",
                       "-o", tmp_path / "aug")
    assert code == 1
    assert err == (
        f"error: sources {src / 's'} and {src / 's_anti'} both write records "
        "named s_anti_transpose_*\n"
    )
    assert not (tmp_path / "aug").exists()
    code, _, err = run(capsys, "pairs", src, "--pattern", "2x2", "-o", tmp_path / "ds")
    assert code == 0, err
    assert len(read_manifest(tmp_path / "ds" / "manifest.jsonl")) == 2
    # Non-square sources emit neither transpose, so the same names pass.
    wide = tmp_path / "wide"
    for name in ("s", "s_anti"):
        _write_const_cube(wide / name, [0.3, 0.5, 0.6, 0.8], h=8, w=12)
    code, _, err = run(capsys, "pairs", wide, "--pattern", "2x2", "--augment",
                       "-o", tmp_path / "wide_aug")
    assert code == 0, err
    assert len(read_manifest(tmp_path / "wide_aug" / "manifest.jsonl")) == 8


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("bands, side, error", [
    (9, 6, "patch 12x12 exceeds cube extent 6x6"),
    (4, 24, "cube {a} has 4 bands but pattern period 3 requires 9"),
], ids=["small", "short"])
def test_pairs_source_the_plan_rejects_writes_nothing(
    tmp_path, capsys, monkeypatch, threads, bands, side, error
):
    # Every source's sidecar is checked before any worker starts, so the
    # good source "b" after the rejected "a" writes nothing either.
    src = tmp_path / "src"
    _write_const_cube(src / "a", np.linspace(0.1, 0.9, bands), h=side, w=side)
    _write_const_cube(src / "b", np.linspace(0.1, 0.9, 9), h=24, w=24)
    monkeypatch.setenv("SPECMOSAIC_THREADS", threads)
    code, out, err = run(capsys, "pairs", src, "--pattern", "3x3", "--patch", 12, 12,
                         "-o", tmp_path / "ds")
    assert (code, out, err) == (1, "", f"error: source 0: {error.format(a=src / 'a')}\n")
    assert not (tmp_path / "ds").exists()


def _entries(root):
    """Every entry under ``root`` by relative path: a file's sha256, or
    "dir" for a directory."""
    return {
        str(p.relative_to(root)): "dir" if p.is_dir() else hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
    }


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("out", ["absent", "parents", "previous"])
@pytest.mark.parametrize("bad", ["a", "b"])
@pytest.mark.parametrize("kind", ["truncated", "nan"])
def test_pairs_payload_failure_leaves_the_output_as_it_was(
    tmp_path, capsys, monkeypatch, threads, out, bad, kind
):
    # The plan cannot see a payload fault, so the good source may already be
    # written when the bad one fails; its files must not reach the output.
    src = tmp_path / "src"
    ds = {"absent": tmp_path / "ds", "parents": tmp_path / "x" / "y" / "ds",
          "previous": tmp_path / "ds"}[out]
    argv = ("pairs", src, "--pattern", "3x3", "--patch", 12, 12, "-o", ds)
    if out == "previous":
        for name in ("a", "b"):
            _write_const_cube(src / name, np.linspace(0.2, 0.8, 9), h=24, w=24)
        assert run(capsys, *argv)[0] == 0
        (ds / "notes.txt").write_text("not written by pairs\n")
    for name in ("a", "b"):
        _write_const_cube(src / name, np.linspace(0.1, 0.9, 9), h=24, w=24)
    payload = src / f"{bad}.bsq"
    raw = bytearray(payload.read_bytes())
    if kind == "truncated":
        payload.write_bytes(raw[:-4])
        error = f"payload {payload} holds {len(raw) - 4} bytes, expected {len(raw)} for 9x24x24"
    else:
        at = (2 * 24 * 24 + 5 * 24 + 7) * 4  # band 2, row 5, col 7
        raw[at:at + 4] = np.float32(np.nan).tobytes()
        payload.write_bytes(raw)
        error = f"{payload}: non_finite: 1 sample(s), first at (2, 5, 7)"
    before = _entries(tmp_path)
    monkeypatch.setenv("SPECMOSAIC_THREADS", threads)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (1, "", f"error: source {'ab'.index(bad)}: {error}\n")
    assert _entries(tmp_path) == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pairs_leaves_only_its_files_and_keeps_others(tmp_path, capsys, monkeypatch, threads):
    src, ds = tmp_path / "src", tmp_path / "ds"
    _write_const_cube(src / "a", np.linspace(0.1, 0.9, 9), h=24, w=24)
    _write_const_cube(src / "b", np.linspace(0.2, 0.8, 9), h=24, w=24)
    monkeypatch.setenv("SPECMOSAIC_THREADS", threads)
    argv = ("pairs", src, "--pattern", "3x3", "--patch", 12, 12, "-o", ds)
    assert run(capsys, *argv) == (0, f"8 records -> {ds / 'manifest.jsonl'}\n", "")
    # No staging directory and no temp file is left: only the manifest and
    # each record's four files.
    first = _entries(ds)
    assert sorted(first) == sorted(["manifest.jsonl"] + [
        f"{cube_stem(name)}.{ext}" for rec in read_manifest(ds / "manifest.jsonl")
        for name in (rec.cube, rec.mosaic) for ext in ("bsq", "json")])
    # A second run over a changed "b" replaces b's payloads, and a file
    # pairs did not write stays.
    (ds / "notes.txt").write_text("not written by pairs\n")
    _write_const_cube(src / "b", np.linspace(0.3, 0.7, 9), h=24, w=24)
    assert run(capsys, *argv)[0] == 0
    second = _entries(ds)
    assert second.pop("notes.txt") == hashlib.sha256(b"not written by pairs\n").hexdigest()
    assert sorted(second) == sorted(first)
    changed = sorted(k for k in first if first[k] != second[k])
    assert changed == sorted(k for k in first if k.startswith("b_") and k.endswith(".bsq"))
    rec = read_manifest(ds / "manifest.jsonl")[-1]
    assert read_cube(ds / rec.cube).data[:, 0, 0].tolist() == (
        np.linspace(0.3, 0.7, 9).astype(np.float32).tolist())


_RECORD = {"mosaic": "m.bsq", "cube": "c.bsq", "source": "s", "origin": [0, 0], "aug": "identity"}


@pytest.mark.parametrize(
    "command, name, content, flags",
    [
        ("select-hard", "inf.jsonl",
         json.dumps(_RECORD).replace("[0, 0]", "[1e400, 0]").encode(), ()),
        ("select-hard", "deep.jsonl", b"[" * 100_000, ()),
        ("pairs", "p.json", b'{"period": 1e400, "band_at": [0]}', ()),
        ("metrics", "pairs.txt", b"a.bsq \xff.bsq\n", ()),
        ("select-hard", "empty.jsonl", b"", ("--eps", "inf")),
    ],
    ids=["inf-origin", "deep-nesting", "inf-period", "non-utf8-pair-list", "inf-eps"],
)
def test_malformed_input_exits_1_without_traceback(tmp_path, command, name, content, flags):
    bad = tmp_path / name
    bad.write_bytes(content)
    if command == "pairs":
        argv = ("pairs", tmp_path, "--pattern", bad, "-o", tmp_path / "out")
    else:
        argv = (command, bad, "-o", tmp_path / "out.json")
    proc = _run_module(*argv, *flags)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_pairs_sidecar_check_names_source_and_file(tmp_path):
    side = _write_const_cube(tmp_path / "cubes" / "a", [0.5] * 4, h=8, w=8).with_suffix(".json")
    doc = json.loads(side.read_text())
    doc["dtype"] = "f64le"
    side.write_text(json.dumps(doc))
    proc = _run_module("pairs", tmp_path / "cubes", "--pattern", "2x2", "-o", tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: source 0: ")
    assert f"sidecar {side}: unsupported dtype 'f64le'" in proc.stderr
    assert "Traceback" not in proc.stderr
