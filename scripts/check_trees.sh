#!/bin/sh
# Check that the working tree writes the same output trees as a base commit.
#
# Builds the c5 and large-sparse `pairs -> select-hard -> metrics` trees
# (perfbench workloads, seed 7, at 1 and 2 workers) once with the base
# commit's code and once with the working tree's, then compares the sha256
# digest of every file in them. For every record of the 1-worker trees it
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
# uncommitted work. Prints "trees identical (N digests)" and exits 0, or
# lists the differing digests and exits 1. It also exits 1 if either side
# produced no digests, so an empty comparison cannot pass.
set -eu

base=${1:-HEAD~1}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git archive --prefix=base/ "$base" | tar -x -C "$work"

# digests ROOT OUT: build every tree with ROOT's code under OUT and print
# one "<workload>.w<n>/<file>": "<sha256>" line per output file, plus one
# "<workload>.w1/wb_bilinear/<mosaic>" line per mosaic and one
# "<workload>.w1/fvmap/<record>.<ext>" line per map file of each record.
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
print(json.dumps(digests, indent=0, sort_keys=True))
PY
}

digests "$work/base" "$work/run-base" > "$work/base.json"
digests . "$work/run-change" > "$work/change.json"
# json.dumps(indent=0) puts each digest on its own line, starting with '"'.
n_base=$(grep -c '^"' "$work/base.json" || true)
n_change=$(grep -c '^"' "$work/change.json" || true)
if [ "$n_base" -eq 0 ] || [ "$n_change" -eq 0 ]; then
    echo "no digests to compare (base: $n_base, working tree: $n_change)" >&2
    exit 1
fi
if cmp -s "$work/base.json" "$work/change.json"; then
    echo "trees identical ($n_change digests)"
else
    echo "trees differ from $base (< base, > working tree):" >&2
    diff "$work/base.json" "$work/change.json" >&2 || true
    exit 1
fi
