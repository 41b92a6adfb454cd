"""The determinism contract end to end, as a property.

``pairs -> select-hard -> metrics`` runs through ``cli_dispatch`` at
``SPECMOSAIC_THREADS=1`` and ``=2`` over small random corpora: periods 1-4
with a row-major or a JSON ``band_at`` pattern, square and non-square
sources, whole cubes or patches with a drawn stride, ``--augment`` on or
off, source names built from ``s``, ``_anti``, ``_`` and ``s.v2``, so
record stems can meet and a stem can hold dots, and in one corpus of four a
source that ``pairs`` rejects: one band too many, or one row short of the
patch. Both runs must agree on every exit status, on stdout and stderr, and
on the sha256 of every file they write. A corpus whose stems meet or that
holds a rejected source must fail ``pairs`` and write no file at all.
"""

import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import D4_OPS, SfaPattern, SpectralCube, remosaic
from specmosaic.cli import cli_dispatch
from specmosaic.dataset import AUGMENT_OPS_NONSQUARE, read_manifest
from specmosaic.fileio import read_cube, read_mosaic, write_cube


@st.composite
def _corpora(draw):
    """A corpus description: the pattern, the sources as (name, height,
    width, seed), the patch and stride flags, ``--augment`` and the rejected
    source as (index, "bands" or "small"), if any."""
    p = draw(st.integers(1, 4))
    band_at = draw(st.none() | st.permutations(range(p * p)))
    names = draw(st.lists(
        st.lists(st.sampled_from(["s", "_anti", "_", "s.v2"]), min_size=1, max_size=3)
        .map("".join),
        min_size=1, max_size=3, unique=True,
    ))
    sources = []
    for name in names:
        h = draw(st.integers(12, 16))
        w = h if draw(st.booleans()) else draw(st.integers(12, 16))
        sources.append((name, h, w, draw(st.integers(0, 2**32 - 1))))
    patch = stride = None
    if draw(st.booleans()):
        sides = st.sampled_from([n for n in range(4, 17) if n % p == 0])
        patch = (draw(sides.filter(lambda n: n <= min(s[1] for s in sources))),
                 draw(sides.filter(lambda n: n <= min(s[2] for s in sources))))
        if patch[0] != patch[1] or draw(st.booleans()):
            stride = draw(sides)
    reject = None
    if draw(st.integers(0, 3)) == 0:
        kinds = ["bands"] if patch is None else ["bands", "small"]
        reject = (draw(st.integers(0, len(sources) - 1)), draw(st.sampled_from(kinds)))
    return {"period": p, "band_at": band_at, "sources": sources, "patch": patch,
            "stride": stride, "augment": draw(st.booleans()), "reject": reject}


def _emitted_prefixes(corpus) -> list[set[str]]:
    """The ``{source}_{op}`` record-stem prefixes each source writes."""
    out = []
    for name, h, w, _ in corpus["sources"]:
        ops = ("identity",)
        if corpus["augment"]:
            ops = D4_OPS if h == w else AUGMENT_OPS_NONSQUARE
        out.append({f"{name}_{op}" for op in ops})
    return out


def _pipeline(root, src, pattern_arg, corpus, threads: str):
    """Run the three stages into ``root``; returns each stage's (exit status,
    stdout, stderr), stopping after the first failure, and the sha256 of
    every file written."""
    ds = root / "ds"
    pairs = ["pairs", src, "--pattern", pattern_arg, "-o", ds]
    if corpus["augment"]:
        pairs.append("--augment")
    if corpus["patch"] is not None:
        pairs += ["--patch", *corpus["patch"]]
    if corpus["stride"] is not None:
        pairs += ["--stride", corpus["stride"]]
    stages = [
        pairs,
        ["select-hard", ds / "manifest.jsonl", "-o", root / "hard.jsonl"],
        ["metrics", root / "hard.jsonl", "-o", root / "report.json"],
    ]
    root.mkdir()
    results = []
    with mock.patch.dict(os.environ, {"SPECMOSAIC_THREADS": threads}):
        for argv in stages:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_dispatch([str(a) for a in argv])
            results.append((code, out.getvalue(), err.getvalue()))
            if code:
                break
    digests = {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*")) if f.is_file()
    }
    return results, digests


_ANTI = [("s", 12, 12, 1), ("s_anti", 12, 12, 2)]
_WIDE = [("a", 12, 16, 3), ("b", 12, 16, 4), ("s", 12, 16, 5), ("s_anti", 12, 16, 6)]
_DOTTED = [("s", 12, 12, 7), ("s.v2", 12, 12, 8)]
_PAIR = [("a", 12, 12, 9), ("b", 12, 12, 10)]


@settings(max_examples=16, deadline=None)
@given(corpus=_corpora())
@example(corpus={"period": 2, "band_at": None, "sources": _ANTI,
                 "patch": None, "stride": None, "augment": True})
@example(corpus={"period": 2, "band_at": [3, 0, 2, 1], "sources": _WIDE,
                 "patch": (12, 12), "stride": 4, "augment": True})
@example(corpus={"period": 2, "band_at": None, "sources": _DOTTED,
                 "patch": (4, 4), "stride": None, "augment": False})
@example(corpus={"period": 3, "band_at": None, "sources": _PAIR,
                 "patch": (6, 6), "stride": None, "augment": False, "reject": (0, "bands")})
@example(corpus={"period": 3, "band_at": None, "sources": _PAIR,
                 "patch": (6, 6), "stride": None, "augment": True, "reject": (0, "small")})
def test_pipeline_is_the_same_at_one_and_two_workers(tmp_path_factory, corpus):
    base = tmp_path_factory.mktemp("pipe")
    src, p = base / "src", corpus["period"]
    reject = corpus.get("reject")
    for i, (name, h, w, seed) in enumerate(corpus["sources"]):
        bands = p * p + (reject == (i, "bands"))
        if reject == (i, "small"):
            h = corpus["patch"][0] - 1
        rng = np.random.default_rng(seed)
        write_cube(SpectralCube(rng.uniform(0, 1, (bands, h, w)).astype(np.float32)), src / name)
    if corpus["band_at"] is None:
        pattern, pattern_arg = SfaPattern.row_major(p), f"{p}x{p}"
    else:
        pattern = SfaPattern(np.array(corpus["band_at"]).reshape(p, p))
        pattern_arg = base / "pattern.json"
        pattern_arg.write_text(json.dumps({"period": p, "band_at": corpus["band_at"]}))

    root = base / "out"
    one = _pipeline(root, src, pattern_arg, corpus, "1")
    shutil.rmtree(root)
    two = _pipeline(root, src, pattern_arg, corpus, "2")
    assert one == two

    prefixes = _emitted_prefixes(corpus)
    collide = any(a & b for i, a in enumerate(prefixes) for b in prefixes[:i])
    assert one[0][0][0] == (1 if collide or reject else 0), one[0]
    if reject:
        i, kind = reject
        if kind == "bands":
            error = f"has {p * p + 1} bands but pattern period {p} requires {p * p}"
        else:
            ph, pw = corpus["patch"]
            error = f"patch {ph}x{pw} exceeds cube extent {ph - 1}x{corpus['sources'][i][2]}"
        assert one[0][0][2].endswith(f"{error}\n"), one[0]
    if collide or reject:
        assert one[1] == {}
        return
    for rec in read_manifest(root / "ds" / "manifest.jsonl"):
        cube = read_cube(root / "ds" / rec.cube)
        mosaic = read_mosaic(root / "ds" / rec.mosaic)
        assert mosaic.data.tobytes() == remosaic(cube, pattern).data.tobytes()
