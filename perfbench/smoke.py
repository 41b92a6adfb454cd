"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs a miniature version of every workload through run.py, untraced and
traced, and checks that each prints a well-formed result naming exactly the
metrics BENCHMARK.json lists. It then checks that the output checks catch
deliberately damaged pipeline outputs, and that run.py refuses to run
without the program's sources. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
from checks import check_pipeline, tree_digest
from workloads import MINI, generate

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORK = run.ROOT / ".perfbench_work" / "smoke"


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_results() -> None:
    expected = {0: {m["name"] for m in SPEC["end_to_end"]},
                1: {m["name"] for m in SPEC["per_layer"]}}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in MINI:
        for trace in (0, 1):
            proc = _bench(run.ROOT, "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace), "--mini")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[-2])["env"]
            res = json.loads(lines[-1])
            where = f"{workload} --trace {trace}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["correct"] is True and res["failed"] == 0, (where, env["problems"])
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1, where
            assert set(res["metrics"]) == expected[trace], (
                where, set(res["metrics"]) ^ expected[trace])
            for name, m in res["metrics"].items():
                assert m["unit"] == units[name], (where, name)
                assert math.isfinite(m["value"]), (where, name)
            for key in ("cpu_count", "affinity", "l2_bytes", "l3_bytes", "python",
                        "numpy", "blas", "seed", "records", "kept"):
                assert key in env, (where, key)
            print(f"ok  {where}: {len(res['metrics'])} metrics")


def check_checks() -> None:
    """Each output check must flag the damage it exists to catch."""
    w = MINI["large-sparse"]
    src = WORK / "src"
    contaminated = generate(w, 7, src)
    out = WORK / "w1"
    log = WORK / "cli.log"
    pipeline = run.run_pipeline(w, src, out, 0, 1, log)
    assert pipeline.ok, (pipeline.problems, log.read_text())
    rng = np.random.default_rng(0)
    assert check_pipeline(out, w, contaminated, rng) == []

    def damaged(label: str, damage) -> None:
        copy = WORK / label
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        damage(copy)
        assert tree_digest(copy) != tree_digest(out), label
        problems = check_pipeline(copy, w, contaminated, np.random.default_rng(0))
        assert problems, f"check missed: {label}"
        print(f"ok  caught {label}: {problems[0]}")

    def flip_mosaics(root: Path) -> None:
        for p in (root / "ds").glob("*_mosaic.bsq"):
            raw = bytearray(p.read_bytes())
            raw[0] ^= 0x01
            p.write_bytes(bytes(raw))

    def nan_report(root: Path) -> None:
        p = root / "report.json"
        doc = json.loads(p.read_text())
        doc["mean_ssim"] = float("nan")
        p.write_text(json.dumps(doc))

    def drop_kept(root: Path) -> None:
        p = root / "hard.jsonl"
        p.write_text("".join(p.read_text().splitlines(keepends=True)[1:]))

    def wrong_source(root: Path) -> None:
        assert {"s000", "s001"} - contaminated
        other = sorted({"s000", "s001"} - contaminated)[0]
        p = root / "hard.jsonl"
        recs = [json.loads(line) for line in p.read_text().splitlines()]
        recs[0]["source"] = other
        p.write_text("".join(json.dumps(r) + "\n" for r in recs))

    damaged("mosaic bit flip", flip_mosaics)
    damaged("non-finite report", nan_report)
    damaged("dropped hard record", drop_kept)
    damaged("kept a clean source", wrong_source)


def check_refuses_bare_tree() -> None:
    bare = WORK / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(bare, "--workload", "c5", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the program's sources")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_results()
        check_checks()
        check_refuses_bare_tree()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
