"""specmosaic benchmark: the `pairs -> select-hard -> metrics` pipeline.

    python3 perfbench/run.py --workload c5 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout. The corpus for the workload is
generated from ``--seed`` into ``.perfbench_work/``. The three CLI stages
then run as separate ``python -m specmosaic.cli`` processes, as users run
them, in whole pipelines at ``SPECMOSAIC_THREADS=1`` and ``=N`` (N = usable
CPUs) in turn, for about ``--seconds`` seconds. Every pipeline's outputs are
checked (see checks.py); a pipeline that fails a check counts its records as
failed and is never timed.

``--trace 0`` reports the end-to-end metrics: each stage's records per second
over all of a side's pipelines, and medians of set-up time, pipeline time and
peak memory.
``--trace 1`` additionally replays each stage in-process at one worker with
every layer function wrapped (see spans.py) and reports the per-layer
metrics, plus per-stage CPU, system time and context switches of the
untraced processes.

The last line of stdout is the result object; the line before it records
the environment (CPUs, caches, Python, NumPy, BLAS, seed, record counts).
A traced run also leaves its spans in ``.perfbench_work/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_pipeline, tree_digest
from workloads import MINI, WORKLOADS, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STAGES = ("pairs", "select", "metrics")
EXTRA_COLD_STARTS = 3  # before the first pipeline, beyond one per pipeline


@dataclass
class StageRun:
    wall: float
    returncode: int
    records: int
    user_s: float
    sys_s: float
    ctx_switches: int
    maxrss_mb: float


@dataclass
class PipelineRun:
    side: int  # 0: one worker, 1: N workers
    stages: dict[str, StageRun] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.stages.values())

    @property
    def records(self) -> int:
        return sum(s.records for s in self.stages.values())


def _spawn(cmd: list[str], env: dict, cwd: Path, log: Path) -> StageRun:
    """Run one process to completion; wall time and its own rusage."""
    with open(log, "ab") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=out)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(wall, proc.returncode, 0, ru.ru_utime, ru.ru_stime,
                    ru.ru_nvcsw + ru.ru_nivcsw, ru.ru_maxrss / 1024.0)


def _cli(argv: list[str], workers: int, cwd: Path, log: Path) -> StageRun:
    env = dict(os.environ, SPECMOSAIC_THREADS=str(workers),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return _spawn([sys.executable, "-m", "specmosaic.cli", *argv], env, cwd, log)


def _stage_argv(w: Workload, src: Path, out: Path) -> dict[str, list[str]]:
    return {
        "pairs": ["pairs", str(src), *w.pairs_flags(), "-o", str(out / "ds")],
        "select": ["select-hard", str(out / "ds" / "manifest.jsonl"),
                   "-o", str(out / "hard.jsonl")],
        "metrics": ["metrics", str(out / "hard.jsonl"), "-o", str(out / "report.json")],
    }


def _count_lines(path: Path) -> int:
    try:
        return sum(1 for line in path.read_text().splitlines() if line.strip())
    except OSError:
        return 0


def run_pipeline(w: Workload, src: Path, out: Path, side: int, workers: int,
                 log: Path) -> PipelineRun:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = PipelineRun(side)
    for stage, argv in _stage_argv(w, src, out).items():
        run.stages[stage] = s = _cli(argv, workers, out, log)
        if s.returncode != 0:
            run.problems.append(f"{stage} exited {s.returncode}; see {log}")
    # records each stage was given: generated pairs, then manifest lines
    run.stages["pairs"].records = run.stages["select"].records = w.records
    run.stages["metrics"].records = _count_lines(out / "hard.jsonl")
    return run


def flush_tree(root: Path) -> None:
    """Write the files under ``root`` through to disk, so that their
    write-back does not land inside the next timed stage."""
    for p in root.rglob("*"):
        if p.is_file():
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def cold_start(work: Path, log: Path) -> float:
    """Wall time of one ``specmosaic --version``: interpreter start plus
    ``import specmosaic``, which every stage pays."""
    s = _cli(["--version"], 1, work, log)
    if s.returncode != 0:
        raise RuntimeError(f"specmosaic --version exited {s.returncode}; see {log}")
    return s.wall


def traced_pipeline(w: Workload, src: Path, out: Path):
    """Run the three stages in-process at one worker with tracing on."""
    sys.path.insert(0, str(SRC))
    from specmosaic.cli import cli_dispatch  # noqa: E402  (the program under test)
    from spans import Tracer, installed

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer()
    walls: dict[str, float] = {}
    unattributed = 0.0
    saved = os.environ.get("SPECMOSAIC_THREADS")
    os.environ["SPECMOSAIC_THREADS"] = "1"
    try:
        with installed(tracer), contextlib.redirect_stdout(io.StringIO()):
            for stage, argv in _stage_argv(w, src, out).items():
                first = len(tracer.spans)
                t0 = perf_counter()
                rc = cli_dispatch(argv)
                walls[stage] = perf_counter() - t0
                if rc != 0:
                    raise RuntimeError(f"traced {stage} exited {rc}")
                unattributed += walls[stage] - tracer.root_time(first)
    finally:
        if saved is None:
            del os.environ["SPECMOSAIC_THREADS"]
        else:
            os.environ["SPECMOSAIC_THREADS"] = saved
    return tracer, walls, unattributed


def _median(xs) -> float:
    return float(statistics.median(xs))


def environment(w: Workload, seed: int, n_workers: int, extra: dict) -> dict:
    def getconf(name: str) -> int | None:
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "workers_n": n_workers,
        "l1d_bytes": getconf("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "workload": w.name,
        "seed": seed,
        "records": w.records,
        **extra,
    }


@dataclass
class Measurement:
    runs: list[PipelineRun] = field(default_factory=list)  # in the order they ran
    setup: list[float] = field(default_factory=list)       # cold-start wall times
    problems: list[str] = field(default_factory=list)

    def timed(self, side: int) -> list[PipelineRun]:
        """One side's pipelines whose outputs passed every check (all of
        that side's when none did, so that a failed run still reports
        numbers)."""
        mine = [r for r in self.runs if r.side == side]
        return [r for r in mine if r.ok] or mine

    def stage_median(self, side: int, stage: str, attr: str) -> float:
        return _median(getattr(r.stages[stage], attr) for r in self.timed(side))


def measure(w: Workload, seed: int, seconds: float, n_workers: int, work: Path) -> Measurement:
    """Run pipelines at 1 worker (side 0) and N workers (side 1) in turn,
    so that both sides see the same drift of the shared host, while the
    next one is expected to fit in ``seconds``. A cold start precedes every
    pipeline, so that setup_s samples the whole run. Each pipeline's outputs
    are checked, and compared byte for byte with the latest outputs of the
    other side."""
    log = work / "cli.log"
    src = work / "src"
    contaminated = generate(w, seed, src)
    flush_tree(src)
    check_rng = np.random.default_rng(seed)  # which records get the remosaic check
    cold_start(work, log)  # warm-up: compiles bytecode, fills the page cache
    m = Measurement()
    took: tuple[list[float], list[float]] = ([], [])
    digests: list[dict | None] = [None, None]  # latest output tree of each side
    t_start = perf_counter()
    m.setup += [cold_start(work, log) for _ in range(EXTRA_COLD_STARTS)]
    while True:
        side = len(m.runs) % 2
        elapsed = perf_counter() - t_start
        if all(took) and elapsed + statistics.fmean(took[side]) > seconds:
            break
        t0 = perf_counter()
        m.setup.append(cold_start(work, log))
        out = work / ("w1", "wN")[side]
        run = run_pipeline(w, src, out, side, (1, n_workers)[side], log)
        if run.ok:
            run.problems += check_pipeline(out, w, contaminated, check_rng)
            digests[side] = tree_digest(out)
            if digests[1 - side] is not None and digests[side] != digests[1 - side]:
                run.problems.append(f"w1 and w{n_workers} output trees differ")
        flush_tree(out)
        m.problems += run.problems
        m.runs.append(run)
        took[side].append(perf_counter() - t0)
    return m


def end_to_end_metrics(m: Measurement, ok_frac: float) -> dict[str, tuple[float, str]]:
    """Stage throughput is records over wall time summed across a side's
    pipelines; set-up, pipeline time and memory are medians."""
    metrics = {"setup_s": (_median(m.setup), "s")}
    for side, tag in ((0, "w1"), (1, "wN")):
        for stage in STAGES:
            done = [r.stages[stage] for r in m.timed(side)]
            metrics[f"{stage}_rps.{tag}"] = (
                sum(s.records for s in done) / sum(s.wall for s in done), "1/s")
        metrics[f"pipeline_s.{tag}"] = (_median(r.wall for r in m.timed(side)), "s")
    metrics["peak_rss_mb"] = (_median(
        max(s.maxrss_mb for s in r.stages.values()) for r in m.timed(0) + m.timed(1)), "MB")
    metrics["ok_frac"] = (ok_frac, "ratio")
    return metrics


def worker_metrics(m: Measurement) -> dict[str, tuple[float, str]]:
    """Per-stage speedup, CPU, system time and context switches of the
    untraced stage processes, at 1 and N workers."""
    metrics: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        metrics[f"threads.{stage}.speedup"] = (
            m.stage_median(0, stage, "wall") / m.stage_median(1, stage, "wall"), "ratio")
        for side, tag in ((0, "w1"), (1, "wN")):
            user, sys_s = m.stage_median(side, stage, "user_s"), m.stage_median(side, stage, "sys_s")
            metrics[f"threads.{stage}.cpu_s.{tag}"] = (user + sys_s, "s")
            metrics[f"threads.{stage}.sys_s.{tag}"] = (sys_s, "s")
            metrics[f"threads.{stage}.ctx_switches.{tag}"] = (
                m.stage_median(side, stage, "ctx_switches"), "count")
    return metrics


def _run(args, w: Workload, n_workers: int, work: Path) -> int:
    m = measure(w, args.seed, args.seconds, n_workers, work)
    attempted = sum(r.records for r in m.runs)
    failed = sum(r.records for r in m.runs if not r.ok)
    extra = {"kept": m.timed(0)[-1].stages["metrics"].records,
             "stage_s": {tag: {st: [round(r.stages[st].wall, 4) for r in m.runs if r.side == side]
                               for st in STAGES}
                         for side, tag in ((0, "w1"), (1, "wN"))},
             "setup_samples": [round(x, 4) for x in m.setup],
             "cold_starts": len(m.setup)}

    if args.trace == 0:
        metrics = end_to_end_metrics(m, 1.0 - failed / attempted)
    else:
        traced_out = work / "traced"
        tracer, walls, unattributed = traced_pipeline(w, work / "src", traced_out)
        spans_file = work.parent / f"spans-{w.name}-{args.seed}.jsonl"
        tracer.write(spans_file)
        traced_records = 2 * w.records + _count_lines(traced_out / "hard.jsonl")
        attempted += traced_records
        if tree_digest(traced_out) != tree_digest(work / "w1"):
            m.problems.append("traced output tree differs from the untraced one")
            failed += traced_records
        metrics = layer_metrics(tracer, traced_out)
        metrics["cli.self_s"] = (unattributed, "s")
        untraced = sum(m.stage_median(0, s, "wall") - _median(m.setup) for s in STAGES)
        metrics["trace.overhead_frac"] = (sum(walls.values()) / untraced - 1.0, "ratio")
        metrics.update(worker_metrics(m))
        extra["tail_pct"] = {k: round(v["tail_pct"], 2)
                             for k, v in tracer.layer_stats().items() if "tail_pct" in v}
        extra["traced_stage_s"] = walls
        extra["spans_file"] = str(spans_file.relative_to(ROOT))

    extra["problems"] = m.problems[:10]
    print(json.dumps({"env": environment(w, args.seed, n_workers, extra)}))
    print(json.dumps({
        "correct": not m.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, out: Path) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name, st in tracer.layer_stats().items():
        metrics[f"{name}.self_s"] = (st["self_s"], "s")
        metrics[f"{name}.calls"] = (st["calls"], "count")
        for key in ("p50_ms", "tail_ms"):
            if key in st:
                metrics[f"{name}.{key}"] = (st[key], "ms")
    metrics["fileio.bytes_read"] = (tracer.bytes_read, "B")
    metrics["fileio.bytes_written"] = (tracer.bytes_written, "B")

    verdicts = json.loads((out / "hard.jsonl.verdicts.json").read_text())["verdicts"]
    counts = np.asarray([v["count"] for v in verdicts], dtype=np.float64)
    metrics["freqsel.kept_frac"] = (sum(v["hard"] for v in verdicts) / len(verdicts), "ratio")
    metrics["freqsel.count_min"] = (float(counts.min()), "count")
    metrics["freqsel.count_p50"] = (float(np.percentile(counts, 50)), "count")
    metrics["freqsel.count_max"] = (float(counts.max()), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mini", action="store_true",
                    help="miniature corpus (smoke test), not for measurement")
    args = ap.parse_args(argv)

    if not (SRC / "specmosaic" / "cli.py").is_file():
        print(f"error: no specmosaic sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    w = (MINI if args.mini else WORKLOADS)[args.workload]
    n_workers = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, w, n_workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
