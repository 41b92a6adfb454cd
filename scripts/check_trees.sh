#!/bin/sh
# Check that the working tree writes the same output trees as a base commit.
#
# Builds the c5 and large-sparse `pairs -> select-hard -> metrics` trees
# (perfbench workloads, seed 7, at 1 and 2 workers) once with the base
# commit's code and once with the working tree's, then compares the sha256
# digest of every file in them but `report.json`. That one is compared field
# by field, as README's numeric contract for scores allows: the same keys in
# the same order, every value exact except each `ssim` and `mean_ssim`, which
# may move by at most 16 ulps. For every record of the 1-worker trees it
# also runs `specmosaic demosaic` on the mosaic and compares the digest of
# that `wb_bilinear` reconstruction's `.bsq`, so the reconstruction's bytes
# are checked directly and not only through the records that reach the
# report. It then runs `specmosaic fvmap --pgm` on the record's cube and
# that reconstruction, and compares the digests of the map's `.bsq`, `.json`
# and `.pgm`. Both go through `cli_dispatch`, so the two sides make the same
# calls even where their Python APIs differ. Run from the repository root:
#
#   scripts/check_trees.sh [BASE]
#
# BASE is any git revision and defaults to HEAD~1; use HEAD to check
# uncommitted work. For each workload, then in total, it prints how many
# SSIM values moved and the largest move in ulps (and, per workload, in
# absolute value), then "trees identical (N digests)" when nothing moved or
# "trees within the numeric contract (N digests)" when only SSIM values
# moved within the bound, and exits 0. Otherwise it lists the differing
# digests and values and exits 1. It also exits 1 if either side produced
# no digests, so an empty comparison cannot pass.
set -eu

base=${1:-HEAD~1}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git archive --prefix=base/ "$base" | tar -x -C "$work"

# digests ROOT OUT: build every tree with ROOT's code under OUT and print
# one "<workload>.w<n>/<file>": "<sha256>" entry per output file (the parsed
# report for each report.json) as JSON, plus one
# "<workload>.w1/wb_bilinear/<mosaic>" entry per mosaic and one
# "<workload>.w1/fvmap/<record>.<ext>" entry per map file of each record.
digests() {
    python3 - "$1" "$2" <<'PY'
import hashlib, json, sys
from pathlib import Path
root, work = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from checks import tree_digest
from run import run_pipeline
from workloads import WORKLOADS, generate
import specmosaic
from specmosaic.cli import cli_dispatch
from specmosaic.dataset import read_manifest
assert Path(specmosaic.__file__).resolve().is_relative_to(root), specmosaic.__file__
digests = {}
for name in ("c5", "large-sparse"):
    generate(WORKLOADS[name], 7, work / name / "src")
    for n in (1, 2):
        tree = work / name / f"w{n}"
        assert run_pipeline(WORKLOADS[name], work / name / "src", tree, 0, n,
                            work / "log.txt").ok, f"{name} at {n} workers failed"
        for path, sha in tree_digest(tree).items():
            digests[f"{name}.w{n}/{path}"] = sha
        digests[f"{name}.w{n}/report.json"] = json.loads((tree / "report.json").read_text())
    ds = work / name / "w1" / "ds"
    for rec in read_manifest(ds / "manifest.jsonl"):
        stem = Path(rec.mosaic).stem
        recon, fv = work / name / "recon" / stem, work / name / "fvmap" / stem
        p = WORKLOADS[name].period
        assert cli_dispatch(["demosaic", str(ds / rec.mosaic), "--pattern", f"{p}x{p}",
                             "-o", str(recon)]) == 0, f"demosaic {rec.mosaic} failed"
        sha = hashlib.sha256(Path(f"{recon}.bsq").read_bytes()).hexdigest()
        digests[f"{name}.w1/wb_bilinear/{rec.mosaic}"] = sha
        assert cli_dispatch(["fvmap", str(ds / rec.cube), f"{recon}.bsq", "-o", str(fv),
                             "--pgm", f"{fv}.pgm"]) == 0, f"fvmap {rec.mosaic} failed"
        for ext in ("bsq", "json", "pgm"):
            sha = hashlib.sha256(Path(f"{fv}.{ext}").read_bytes()).hexdigest()
            digests[f"{name}.w1/fvmap/{stem}.{ext}"] = sha
# Unsorted, so that each report keeps its key order.
print(json.dumps(digests))
PY
}

digests "$work/base" "$work/run-base" > "$work/base.json"
digests . "$work/run-change" > "$work/change.json"
python3 - "$work/base.json" "$work/change.json" "$base" <<'PY'
import json, math, struct, sys
base, change = (json.loads(open(p).read()) for p in sys.argv[1:3])
BOUND = 16  # ulps an ssim or mean_ssim value may move
if not base or not change:
    sys.exit(f"no digests to compare (base: {len(base)}, working tree: {len(change)})")


def ordered(x):  # a double's bits as an integer in numeric order, both zeros 0
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(2**63) - i


def same(a, b):  # NaN matches NaN
    return type(a) is type(b) and (a == b or (a != a and b != b))


bad = []
stats = {}  # workload -> [moved, scored, largest ulps, largest absolute move]


def walk(path, a, b, st):
    """Compare one parsed report value: keys in order, ssim within BOUND ulps,
    everything else exact. Count each ssim value into st."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            bad.append(f"{path}: keys {list(a)} != {list(b)}")
        for k in a.keys() & b.keys():
            walk(f"{path}.{k}", a[k], b[k], st)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            walk(f"{path}[{i}]", x, y, st)
    elif path.endswith(("].ssim", ".mean_ssim")) and type(a) is type(b) is float:
        st[1] += 1
        if same(a, b):
            return
        d = math.inf if math.isnan(a) or math.isnan(b) else abs(ordered(a) - ordered(b))
        st[0], st[2] = st[0] + 1, max(st[2], d)
        st[3] = max(st[3], math.inf if d == math.inf else abs(a - b))
        if d > BOUND:
            bad.append(f"{path}: {a!r} != {b!r} ({d} ulps)")
    elif not same(a, b):
        bad.append(f"{path}: {a!r} != {b!r}")


for key in sorted(base.keys() | change.keys()):
    a, b = base.get(key), change.get(key)
    if key.endswith("/report.json") and isinstance(a, dict):
        walk(key, a, b, stats.setdefault(key.split(".w")[0], [0, 0, 0, 0.0]))
    elif a != b:
        bad.append(f"{key}: {a} != {b}")
for name, (n, of, ulps, dist) in stats.items():
    print(f"report.json {name}: {n} of {of} ssim values moved, largest {ulps} ulps, {dist:.3g} absolute")
moved = sum(st[0] for st in stats.values())
scored = sum(st[1] for st in stats.values())
worst = max((st[2] for st in stats.values()), default=0)
print(f"report.json: {moved} of {scored} ssim values moved, largest {worst} ulps (bound {BOUND})")
if bad:
    print(f"trees differ from {sys.argv[3]} (base != working tree):", *bad, sep="\n", file=sys.stderr)
    sys.exit(1)
print(f"trees {'within the numeric contract' if moved else 'identical'} ({len(change)} digests)")
PY
