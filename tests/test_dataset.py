import json
import warnings
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    D4_OPS,
    AlignmentError,
    BoundsError,
    FormatError,
    SelectionParams,
    SfaPattern,
    ShapeError,
    SpectralCube,
    remosaic,
    transform_d4,
)
from specmosaic import dataset
from specmosaic.dataset import (
    AUGMENT_OPS_NONSQUARE,
    PairRecord,
    augment_cube,
    filter_hard,
    make_pseudo_pairs,
    patchify,
    read_manifest,
    write_manifest,
)
from specmosaic.fileio import read_cube, read_mosaic, read_sidecar, write_cube
from specmosaic.freqsel import PatchVerdict, count_distribution


def _rand_cube(rng, bands, h, w):
    return SpectralCube(rng.uniform(0, 1, (bands, h, w)).astype(np.float32))


# -------------------------------------------------------------- patchify


def test_patchify_counts_and_origins():
    rng = np.random.default_rng(70)
    cube = _rand_cube(rng, 2, 32, 32)
    pieces = patchify(cube, 16, 16, 8, period=4)
    origins = [(o.row, o.col) for o, _ in pieces]
    want = [(r, c) for r in range(0, 17, 8) for c in range(0, 17, 8)]
    assert origins == want  # row-major, 3x3


def test_patchify_content_matches_direct_slice():
    rng = np.random.default_rng(71)
    cube = _rand_cube(rng, 3, 24, 20)
    for origin, patch in patchify(cube, 8, 12, 4, period=2):
        window = cube.data[:, origin.row : origin.row + 8, origin.col : origin.col + 12]
        assert patch.data.tobytes() == window.tobytes()


def test_patchify_count_formula_random_configs():
    rng = np.random.default_rng(72)
    for _ in range(25):
        period = int(rng.integers(2, 5))
        h = period * int(rng.integers(4, 12))
        w = period * int(rng.integers(4, 12))
        ph = period * int(rng.integers(1, h // period + 1))
        pw = period * int(rng.integers(1, w // period + 1))
        stride = period * int(rng.integers(1, 4))
        cube = SpectralCube(np.zeros((1, h, w), dtype=np.float32))
        got = len(patchify(cube, ph, pw, stride, period))
        rows = len(range(0, h - ph + 1, stride))
        cols = len(range(0, w - pw + 1, stride))
        assert got == rows * cols


def test_patchify_rejects_misaligned_and_oversized():
    cube = SpectralCube(np.zeros((1, 16, 16), dtype=np.float32))
    with pytest.raises(AlignmentError):
        patchify(cube, 130, 130, 130, period=4)  # 130 % 4 != 0
    with pytest.raises(AlignmentError):
        patchify(cube, 8, 8, 3, period=2)
    with pytest.raises(BoundsError):
        patchify(cube, 32, 8, 8, period=2)
    with pytest.raises(BoundsError):
        patchify(cube, 0, 8, 8, period=2)


def test_patchify_single_full_patch():
    rng = np.random.default_rng(73)
    cube = _rand_cube(rng, 2, 12, 12)
    pieces = patchify(cube, 12, 12, 12, period=4)
    assert len(pieces) == 1
    assert pieces[0][1].data.tobytes() == cube.data.tobytes()


# ---------------------------------------------------------- augment_cube


def test_augment_square_all_eight():
    rng = np.random.default_rng(74)
    cube = _rand_cube(rng, 2, 8, 8)
    variants = augment_cube(cube)
    assert [name for name, _ in variants] == list(D4_OPS)
    assert variants[0][1].data.tobytes() == cube.data.tobytes()
    for name, var in variants:
        assert var.data.shape == cube.data.shape
        assert np.array_equal(np.sort(var.data.ravel()), np.sort(cube.data.ravel()))
        assert var.data.tobytes() == transform_d4(cube, name).data.tobytes()


def test_augment_nonsquare_warns_and_halves():
    rng = np.random.default_rng(75)
    cube = _rand_cube(rng, 1, 4, 6)
    with pytest.warns(RuntimeWarning):
        variants = augment_cube(cube)
    assert [name for name, _ in variants] == list(AUGMENT_OPS_NONSQUARE)
    for _, var in variants:
        assert (var.height, var.width) == (4, 6)


# ------------------------------------------------------------- manifests


def test_manifest_round_trip(tmp_path):
    records = [
        PairRecord("a_mosaic.bsq", "a_cube.bsq", "a", (0, 0), "identity"),
        PairRecord("b_mosaic.bsq", "b_cube.bsq", "b", (8, 16), "rot180", True, 12),
    ]
    path = tmp_path / "m.jsonl"
    write_manifest(records, path)
    assert read_manifest(path) == records
    # null round-trips to None, keys in fixed order
    first = json.loads(path.read_text().splitlines()[0])
    assert first["hard"] is None and first["count"] is None
    assert list(first) == ["mosaic", "cube", "source", "origin", "aug", "hard", "count"]
    assert records[1].to_json_line() == (
        '{"mosaic": "b_mosaic.bsq", "cube": "b_cube.bsq", "source": "b", '
        '"origin": [8, 16], "aug": "rot180", "hard": true, "count": 12}'
    )


def test_manifest_blank_lines_skipped(tmp_path):
    path = tmp_path / "m.jsonl"
    line = PairRecord("m.bsq", "c.bsq", "s", (0, 0), "identity").to_json_line()
    path.write_text("\n" + line + "\n\n" + line + "\n")
    assert len(read_manifest(path)) == 2


def test_manifest_keeps_raw_unicode_line_separators(tmp_path):
    # JSON allows U+0085, U+2028 and U+2029 raw inside strings, and
    # str.splitlines() would break a line at each of them.
    records = [
        PairRecord("m\u2028a.bsq", "c\u2029a.bsq", "s\u0085a", (0, 0), "identity"),
        PairRecord("m_b.bsq", "c_b.bsq", "\u2028", (4, 8), "flip_h", False, 3),
    ]
    lines = [json.dumps(asdict(r), ensure_ascii=False) for r in records]
    path = tmp_path / "m.jsonl"
    path.write_bytes((lines[0] + "\r\n" + lines[1] + "\n").encode("utf-8"))
    assert read_manifest(path) == records


def test_manifest_bad_line_reports_number(tmp_path):
    path = tmp_path / "m.jsonl"
    good = PairRecord("m.bsq", "c.bsq", "s", (0, 0), "identity").to_json_line()
    path.write_text(good + "\n{not json\n")
    with pytest.raises(FormatError, match="line 2"):
        read_manifest(path)


def test_manifest_missing_file():
    with pytest.raises(FormatError):
        read_manifest("no/such/manifest.jsonl")


def test_record_parse_requires_fields():
    with pytest.raises(FormatError):
        PairRecord.from_json_line('{"mosaic": "m.bsq"}')


_GOOD_LINE = PairRecord("m.bsq", "c.bsq", "s", (0, 0), "identity").to_json_line()


@pytest.mark.parametrize(
    "field, value",
    [("origin", [0.5, 0]), ("origin", [True, 0]), ("origin", [0, 0, 0]), ("count", 1.0),
     ("hard", "no"), ("hard", 1), ("mosaic", 5), ("cube", ["c.bsq"]), ("source", None),
     ("aug", True)],
)
def test_record_fields_are_not_coerced(field, value):
    line = json.dumps({**json.loads(_GOOD_LINE), field: value})
    with pytest.raises(FormatError, match="manifest record"):
        PairRecord.from_json_line(line)


_MANIFEST_KEYS = ("mosaic", "cube", "source", "origin", "aug", "hard", "count")
# JSON values whose objects mostly use manifest keys, so that the fuzz reaches
# the field parsers and not only the missing-key path.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_MANIFEST_KEYS) | st.text(max_size=2), kids, max_size=8),
    max_leaves=24,
)
_INF_ORIGIN = _GOOD_LINE.replace('"origin": [0, 0]', '"origin": [1e400, 0]')
_DEEP = "[" * 100_000


@settings(max_examples=100, deadline=None)
@given(line=st.text(max_size=64) | _JSON.map(json.dumps))
@example(line=_INF_ORIGIN)
@example(line=_DEEP)
def test_fuzz_record_parse(line):
    try:
        PairRecord.from_json_line(line)
    except FormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=64) | _JSON.map(lambda d: json.dumps(d).encode()))
@example(raw=_INF_ORIGIN.encode())
@example(raw=_DEEP.encode())
@example(raw=_GOOD_LINE.encode() + b"\n\xff\n")
def test_fuzz_read_manifest(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("man") / "m.jsonl"
    path.write_bytes(raw)
    try:
        read_manifest(path)
    except FormatError:
        pass


# ------------------------------------------------------ make_pseudo_pairs


def test_pairs_whole_cubes(tmp_path):
    rng = np.random.default_rng(76)
    pattern = SfaPattern.row_major(2)
    paths = []
    for name in ("alpha", "beta", "gamma"):
        cube = _rand_cube(rng, 4, 12, 12)
        paths.append(write_cube(cube, tmp_path / "in" / name))
    out = tmp_path / "ds"
    records = make_pseudo_pairs(paths, pattern, out)
    assert len(records) == 3
    assert [r.source for r in records] == ["alpha", "beta", "gamma"]
    assert all(r.aug == "identity" and r.origin == (0, 0) for r in records)
    assert (out / "manifest.jsonl").exists()
    assert read_manifest(out / "manifest.jsonl") == records


def test_pairs_are_remosaic_consistent(tmp_path):
    rng = np.random.default_rng(77)
    pattern = SfaPattern.row_major(3)
    src = write_cube(_rand_cube(rng, 9, 18, 18), tmp_path / "in" / "cube")
    out = tmp_path / "ds"
    records = make_pseudo_pairs([src], pattern, out, patch=(9, 9))
    assert len(records) == 4
    for rec in records:
        cube = read_cube(out / rec.cube)
        mosaic_img = read_mosaic(out / rec.mosaic)
        side = read_sidecar(out / rec.cube)
        assert side.pattern is not None
        again = remosaic(cube, side.pattern)
        assert again.data.tobytes() == mosaic_img.data.tobytes()


def test_pairs_augment_and_patch_counts(tmp_path):
    rng = np.random.default_rng(78)
    pattern = SfaPattern.row_major(2)
    src = write_cube(_rand_cube(rng, 4, 32, 32), tmp_path / "in" / "img")
    records = make_pseudo_pairs(
        [src], pattern, tmp_path / "ds", patch=(16, 16), augment=True
    )
    # 8 variants x (2x2 non-overlapping tiles)
    assert len(records) == 32
    assert [r.aug for r in records[:4]] == ["identity"] * 4
    assert records[4].aug == "rot90cw"
    assert records[0].cube == "img_identity_r00000_c00000_cube.bsq"
    augs = [r.aug for r in records]
    assert augs == [op for op in D4_OPS for _ in range(4)]


@pytest.mark.parametrize("patch", [None, (8, 8)])
def test_pairs_keep_source_wavelengths(tmp_path, patch):
    rng = np.random.default_rng(87)
    wl = (450.0, 500.0, 550.0, 600.0)
    src = write_cube(_rand_cube(rng, 4, 16, 16), tmp_path / "in" / "img", wavelengths_nm=wl)
    out = tmp_path / "ds"
    records = make_pseudo_pairs([src], SfaPattern.row_major(2), out, patch=patch, augment=True)
    assert len(records) == (32 if patch else 8)
    for rec in records:
        assert read_sidecar(out / rec.cube).wavelengths_nm == wl
        # A mosaic has one band, so no list.
        assert json.loads((out / rec.mosaic).with_suffix(".json").read_text()).get(
            "wavelengths_nm") is None


@pytest.mark.parametrize("patch", [None, (8, 8)])
def test_pairs_hold_one_variant_at_a_time(tmp_path, monkeypatch, patch):
    # Before each variant is made, every earlier one is already freed: it
    # was cut and written, then dropped.
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    made: list[weakref.ref] = []
    alive_before: list[int] = []
    real = dataset.transform_d4

    def spy(cube, op):
        alive_before.append(sum(ref() is not None for ref in made))
        var = real(cube, op)
        made.append(weakref.ref(var))
        return var

    monkeypatch.setattr(dataset, "transform_d4", spy)
    rng = np.random.default_rng(86)
    src = write_cube(_rand_cube(rng, 4, 16, 16), tmp_path / "in" / "img")
    records = make_pseudo_pairs(
        [src], SfaPattern.row_major(2), tmp_path / "ds", patch=patch, augment=True
    )
    assert len(records) == 8 * (1 if patch is None else 4)
    assert alive_before == [0] * 8


def test_pairs_hold_one_patch_at_a_time(tmp_path, monkeypatch):
    # Before each patch is cut, every earlier one is already freed: it was
    # written, then dropped.
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    made: list[weakref.ref] = []
    alive_before: list[int] = []
    real = dataset.crop_aligned

    def spy(cube, origin, period):
        alive_before.append(sum(ref() is not None for ref in made))
        label = real(cube, origin, period)
        made.append(weakref.ref(label))
        return label

    monkeypatch.setattr(dataset, "crop_aligned", spy)
    rng = np.random.default_rng(87)
    src = write_cube(_rand_cube(rng, 4, 16, 16), tmp_path / "in" / "img")
    records = make_pseudo_pairs(
        [src], SfaPattern.row_major(2), tmp_path / "ds", patch=(8, 8), augment=True
    )
    assert len(records) == 8 * 4
    assert alive_before == [0] * 32


@pytest.mark.parametrize("patch, origins", [
    (None, [(0, 0)]),
    ((4, 4), [(0, 0), (0, 4), (0, 8), (4, 0), (4, 4), (4, 8)]),
])
def test_pairs_nonsquare_source_without_augment(tmp_path, monkeypatch, patch, origins):
    # One identity record per patch, and no non-square warning: without
    # augment no symmetry is asked for, so none is dropped.
    monkeypatch.setenv("SPECMOSAIC_THREADS", "1")
    rng = np.random.default_rng(88)
    src = write_cube(_rand_cube(rng, 4, 8, 12), tmp_path / "in" / "wide")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = make_pseudo_pairs([src], SfaPattern.row_major(2), tmp_path / "ds", patch=patch)
    assert [r.aug for r in records] == ["identity"] * len(origins)
    assert [r.origin for r in records] == origins


def test_pairs_nonsquare_patch_needs_stride(tmp_path):
    rng = np.random.default_rng(79)
    pattern = SfaPattern.row_major(2)
    src = write_cube(_rand_cube(rng, 4, 32, 32), tmp_path / "in" / "img")
    with pytest.raises(AlignmentError):
        make_pseudo_pairs([src], pattern, tmp_path / "ds", patch=(16, 32))
    records = make_pseudo_pairs(
        [src], pattern, tmp_path / "ds2", patch=(16, 32), stride=16
    )
    assert len(records) == 2


def test_pairs_stride_without_patch_rejected(tmp_path):
    pattern = SfaPattern.row_major(2)
    with pytest.raises(AlignmentError):
        make_pseudo_pairs([], pattern, tmp_path / "ds", stride=8)


def test_pairs_equal_source_names_collide(tmp_path):
    # Both sources would write same_identity_*, so the stem check names them.
    rng = np.random.default_rng(89)
    a = write_cube(_rand_cube(rng, 4, 8, 8), tmp_path / "one" / "same")
    b = write_cube(_rand_cube(rng, 4, 8, 8), tmp_path / "two" / "same")
    want = (f"sources {tmp_path / 'one' / 'same'} and {tmp_path / 'two' / 'same'} "
            f"both write {tmp_path / 'ds' / 'same_identity_r00000_c00000_cube.bsq'}")
    with pytest.raises(FormatError) as info:
        make_pseudo_pairs([a, b], SfaPattern.row_major(2), tmp_path / "ds")
    assert str(info.value) == want
    assert not (tmp_path / "ds").exists()


def test_pairs_band_mismatch_names_source(tmp_path):
    rng = np.random.default_rng(81)
    pattern = SfaPattern.row_major(3)  # wants 9 bands
    src = write_cube(_rand_cube(rng, 4, 9, 9), tmp_path / "in" / "short")
    with pytest.raises(ShapeError, match="short"):
        make_pseudo_pairs([src], pattern, tmp_path / "ds")


# ------------------------------------------------------------ filter_hard


def _constant_sources(tmp_path, rng, n, bands=4, h=128, w=128, sine_at=None):
    """Write n constant cubes; one may carry a mid-frequency sinusoid in
    band 1 (whose sampling lattice misses it, so its reconstruction stays
    exactly constant)."""
    paths = []
    for i in range(n):
        consts = rng.uniform(0.2, 0.8, size=bands).astype(np.float32)
        data = np.broadcast_to(consts[:, None, None], (bands, h, w)).astype(np.float64)
        data = data.copy()
        if sine_at is not None and i == sine_at:
            u = np.arange(h, dtype=np.float64)
            data[1] += (0.2 * np.sin(2 * np.pi * 0.25 * u))[:, None]
        cube = SpectralCube(data.astype(np.float32))
        paths.append(write_cube(cube, tmp_path / "in" / f"c{i:02d}"))
    return paths


@pytest.mark.parametrize("counts, hard", [
    ([7], True),
    ([9, 3], False),
    ([5, 1, 5], True),
    ([8, 2, 2, 8], True),
    ([10**12, 3 * 10**12 + 1, 2**52, 7], True),
    ([2**52 - 1, 2**52 - 4, 10**15 + 3], False),
], ids=["one", "even", "odd-ties", "even-ties", "large-even", "large-odd"])
def test_keep_none_or_all_warning_reads_as_count_distribution(tmp_path, monkeypatch, counts, hard):
    # The warning's min, p50 and max are printed as count_distribution's.
    recs = [PairRecord(f"m{i}.bsq", f"c{i}.bsq", "s", (0, 0), "identity")
            for i in range(len(counts))]
    write_manifest(recs, tmp_path / "ds.jsonl")
    monkeypatch.setattr(dataset, "select_hard",
                        lambda loaders, *_: [PatchVerdict(c, hard) for c in counts])
    d = count_distribution(counts)
    n, kept = len(counts), len(counts) if hard else 0
    with pytest.warns(RuntimeWarning) as caught:
        filter_hard(tmp_path / "ds.jsonl", out_path=tmp_path / "hard.jsonl")
    assert [str(w.message) for w in caught] == [
        f"kept {kept} of {n} records ({kept / n:.0%}); counts min {d['min']:.12g}, "
        f"p50 {d['p50']:.12g}, max {d['max']:.12g} against t_cnt 5"
    ]


def test_filter_hard_constant_manifest_selects_nothing(tmp_path):
    rng = np.random.default_rng(82)
    paths = _constant_sources(tmp_path, rng, 3, h=32, w=32)
    out = tmp_path / "ds"
    make_pseudo_pairs(paths, SfaPattern.row_major(2), out)
    with pytest.warns(RuntimeWarning, match="kept 0 of 3 records"):
        kept = filter_hard(out / "manifest.jsonl", out_path=tmp_path / "hard.jsonl")
    assert kept == []
    assert read_manifest(tmp_path / "hard.jsonl") == []
    verdicts = json.loads((tmp_path / "hard.jsonl.verdicts.json").read_text())
    assert [v["count"] for v in verdicts["verdicts"]] == [0, 0, 0]
    assert verdicts["params"]["t_cnt"] == SelectionParams().t_cnt
    assert list(verdicts["params"]) == [
        "epsilon", "blur_sigma", "blur_radius", "r_low", "r_high", "t_var", "t_cnt"
    ]


def test_filter_hard_selects_only_contaminated_record(tmp_path):
    rng = np.random.default_rng(83)
    paths = _constant_sources(tmp_path, rng, 6, sine_at=4)
    out = tmp_path / "ds"
    records = make_pseudo_pairs(paths, SfaPattern.row_major(2), out)
    kept = filter_hard(out / "manifest.jsonl", out_path=tmp_path / "sub" / "hard.jsonl")
    assert len(kept) == 1
    assert kept[0].source == records[4].source == "c04"
    assert kept[0].hard is True and kept[0].count > SelectionParams().t_cnt
    # paths are rebased onto the filtered manifest's directory and resolve
    assert kept[0].cube.startswith("..")
    resolved = read_cube(tmp_path / "sub" / kept[0].cube)
    assert resolved.bands == 4
    verdicts = json.loads((tmp_path / "sub" / "hard.jsonl.verdicts.json").read_text())
    hard_flags = [v["hard"] for v in verdicts["verdicts"]]
    assert hard_flags == [False, False, False, False, True, False]


def test_filter_hard_output_is_subsequence(tmp_path):
    rng = np.random.default_rng(84)
    paths = _constant_sources(tmp_path, rng, 4, sine_at=1)
    out = tmp_path / "ds"
    records = make_pseudo_pairs(paths, SfaPattern.row_major(2), out)
    kept = filter_hard(
        out / "manifest.jsonl",
        sparams=SelectionParams(t_var=0.0, t_cnt=0),
        out_path=out / "hard.jsonl",
    )
    # permissive thresholds keep everything that differs at all; survivors
    # must appear in input order with identical provenance fields
    kept_keys = [(r.source, r.origin, r.aug) for r in kept]
    all_keys = [(r.source, r.origin, r.aug) for r in records]
    it = iter(all_keys)
    assert all(k in it for k in kept_keys)


def test_filter_hard_missing_file_names_record(tmp_path):
    out = tmp_path / "ds"
    out.mkdir()
    rec = PairRecord("missing_mosaic.bsq", "missing_cube.bsq", "x", (0, 0), "identity")
    write_manifest([rec], out / "manifest.jsonl")
    with pytest.raises(FormatError, match="record 0"):
        filter_hard(out / "manifest.jsonl", out_path=out / "hard.jsonl")
