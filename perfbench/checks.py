"""Independent output checks that gate every timed run.

Nothing here imports the program under test: files are parsed with plain
NumPy/JSON against the documented formats, and re-sampling is restated from
its definition (pixel (u, v) takes band ``band_at[u % p, v % p]``).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload

SAMPLED_RECORDS = 8


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _read_cube(path: Path) -> tuple[np.ndarray, dict]:
    stem = path.with_suffix("")
    side = json.loads(stem.with_suffix(".json").read_text())
    raw = np.frombuffer(stem.with_suffix(".bsq").read_bytes(), dtype="<f4")
    return raw.reshape(side["bands"], side["height"], side["width"]), side


def _resampled(cube: np.ndarray, pattern: dict) -> np.ndarray:
    p = int(pattern["period"])
    band_at = np.asarray(pattern["band_at"], dtype=np.int64).reshape(p, p)
    _, h, w = cube.shape
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    return cube[band_at[rows % p, cols % p], rows, cols]


def check_pipeline(out: Path, w: Workload, contaminated: set[str],
                   rng: np.random.Generator) -> list[str]:
    """Check one pipeline's output tree (``ds/``, ``hard.jsonl``,
    ``report.json``); returns a list of problems, empty when all hold."""
    problems: list[str] = []
    try:
        records = _read_jsonl(out / "ds" / "manifest.jsonl")
        kept = _read_jsonl(out / "hard.jsonl")
        verdicts = json.loads((out / "hard.jsonl.verdicts.json").read_text())["verdicts"]
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable output: {e}"]

    if len(records) != w.records:
        problems.append(f"manifest has {len(records)} records, expected {w.records}")
    picks = rng.choice(len(records), size=min(SAMPLED_RECORDS, len(records)), replace=False)
    for i in sorted(int(i) for i in picks):
        rec = records[i]
        cube, side = _read_cube(out / "ds" / rec["cube"])
        mos, _ = _read_cube(out / "ds" / rec["mosaic"])
        if "pattern" not in side or mos.shape != (1, *cube.shape[1:]):
            problems.append(f"record {i}: no pattern or mosaic shape {mos.shape}")
        elif _resampled(cube, side["pattern"]).tobytes() != mos[0].tobytes():
            problems.append(f"record {i}: remosaic(cube) != mosaic")

    if len(verdicts) != len(records) or sum(v["hard"] for v in verdicts) != len(kept):
        problems.append("verdicts disagree with the manifests")
    keys = iter((r["source"], r["aug"], tuple(r["origin"])) for r in records)
    if not all((r["source"], r["aug"], tuple(r["origin"])) in keys for r in kept):
        problems.append("hard manifest is not a subsequence of the dataset manifest")

    if len(report.get("per_image", ())) != len(kept):
        problems.append("report scores a different number of records than were kept")
    for key in ("mean_psnr", "mean_ssim", "mean_sam"):
        if not isinstance(report.get(key), (int, float)) or not math.isfinite(report[key]):
            problems.append(f"report {key} = {report.get(key)!r} is not finite")

    if w.contaminated_every:
        expected = len(contaminated) * w.records_per_source
        kept_sources = {r["source"] for r in kept}
        if kept_sources != contaminated or len(kept) != expected:
            problems.append(
                f"kept {len(kept)} records from {sorted(kept_sources)}, expected "
                f"{expected} from {sorted(contaminated)}"
            )
    return problems
