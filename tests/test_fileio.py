import json
import os
import re
import stat
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    FormatError,
    MosaicImage,
    SfaPattern,
    ShapeError,
    SpectralCube,
    ValidationError,
)
from specmosaic.fileio import (
    CubeSidecar,
    _atomic_write_bytes,
    cube_stem,
    load_pattern_spec,
    read_cube,
    read_mosaic,
    read_sidecar,
    write_cube,
    write_fvmap,
    write_mosaic,
    write_pgm8,
)

# ------------------------------------------------------------- cube pairs


def test_payload_byte_layout_is_f32le_band_sequential(tmp_path):
    cube = SpectralCube(np.array([[[0.0, 0.5], [1.0, 0.25]]], dtype=np.float32))
    stem = write_cube(cube, tmp_path / "tiny")
    raw = (stem.with_suffix(".bsq")).read_bytes()
    assert raw.hex() == "00000000" "0000003f" "0000803f" "0000803e"


def test_band_sequential_ordering(tmp_path):
    data = np.arange(2 * 2 * 2, dtype=np.float32).reshape(2, 2, 2)
    stem = write_cube(SpectralCube(data), tmp_path / "order")
    raw = stem.with_suffix(".bsq").read_bytes()
    values = struct.unpack("<8f", raw)
    assert values == (0, 1, 2, 3, 4, 5, 6, 7)  # band 0 rows, then band 1


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(90)
    data = rng.uniform(-2, 2, (5, 7, 3)).astype(np.float32)
    data[0, 0, 0] = 0.0
    data[0, 0, 1] = -0.0
    data[0, 0, 2] = np.float32(1e-40)  # subnormal
    cube = SpectralCube(data)
    stem = write_cube(cube, tmp_path / "rt")
    again = read_cube(stem)
    assert again.data.tobytes() == cube.data.tobytes()


def test_sidecar_fields_and_metadata_round_trip(tmp_path):
    cube = SpectralCube(np.zeros((4, 6, 8), dtype=np.float32))
    pattern = SfaPattern.row_major(2)
    wl = (450.0, 500.0, 550.0, 600.0)
    write_cube(cube, tmp_path / "meta", pattern=pattern, wavelengths_nm=wl)
    doc = json.loads((tmp_path / "meta.json").read_text())
    assert doc["height"] == 6 and doc["width"] == 8 and doc["bands"] == 4
    assert doc["dtype"] == "f32le" and doc["interleave"] == "bsq"
    side = read_sidecar(tmp_path / "meta.bsq")
    assert side.wavelengths_nm == wl
    assert side.pattern is not None
    assert np.array_equal(side.pattern.band_at, pattern.band_at)


@pytest.mark.parametrize(
    "pattern, rule",
    [
        ({"period": 2, "band_at": [0, 1, 2]}, "band_at must list period**2 = 4 entries"),
        ({"period": -1, "band_at": [0]}, "period must be >= 1, got -1"),
    ],
    ids=["entry_count", "period"],
)
def test_sidecar_pattern_errors_name_the_sidecar(tmp_path, pattern, rule):
    write_cube(SpectralCube(np.zeros((4, 2, 2), dtype=np.float32)), tmp_path / "c")
    side = tmp_path / "c.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), "pattern": pattern}))
    with pytest.raises(FormatError, match=f"^{re.escape(f'sidecar {side} pattern: {rule}')}$"):
        read_sidecar(tmp_path / "c.bsq")


def test_cube_stem_accepts_any_spelling(tmp_path):
    for ref in ("c", "c.bsq", "c.json"):
        assert cube_stem(tmp_path / ref) == tmp_path / "c"


def test_truncated_payload_reports_byte_counts(tmp_path):
    cube = SpectralCube(np.zeros((1, 4, 4), dtype=np.float32))
    stem = write_cube(cube, tmp_path / "trunc")
    payload = stem.with_suffix(".bsq")
    payload.write_bytes(payload.read_bytes()[:-4])
    with pytest.raises(FormatError, match="60 bytes.*expected 64"):
        read_cube(stem)


def test_missing_sidecar_and_payload(tmp_path):
    with pytest.raises(FormatError, match="sidecar"):
        read_cube(tmp_path / "nothing")
    (tmp_path / "half.json").write_text(
        json.dumps({"height": 2, "width": 2, "bands": 1})
    )
    with pytest.raises(FormatError, match="payload"):
        read_cube(tmp_path / "half")


def test_non_finite_payload_rejected_on_read(tmp_path):
    (tmp_path / "nan.json").write_text(
        json.dumps({"height": 1, "width": 2, "bands": 1})
    )
    (tmp_path / "nan.bsq").write_bytes(struct.pack("<2f", 1.0, float("nan")))
    with pytest.raises(ValidationError):
        read_cube(tmp_path / "nan")


def _write_raw_cube(stem, samples, bands, height, width):
    stem.with_suffix(".json").write_text(
        json.dumps({"height": height, "width": width, "bands": bands})
    )
    stem.with_suffix(".bsq").write_bytes(np.asarray(samples, dtype="<f4").tobytes())


@pytest.mark.parametrize(
    "samples, found",
    [
        ([0.5, 1.0, 0.0, np.nan], "1 sample(s), first at (1, 0, 1)"),
        ([0.5, np.inf, 0.0, 1.0], "1 sample(s), first at (0, 0, 1)"),
        ([0.5, 1.0, -np.inf, 1.0], "1 sample(s), first at (1, 0, 0)"),
        # +Inf and -Inf together sum to NaN, which the check also rejects.
        ([np.inf, 1.0, 0.0, -np.inf], "2 sample(s), first at (0, 0, 0), (1, 0, 1)"),
    ],
)
def test_non_finite_payload_message(tmp_path, samples, found):
    _write_raw_cube(tmp_path / "c", samples, bands=2, height=1, width=2)
    with pytest.raises(ValidationError) as e:
        read_cube(tmp_path / "c")
    assert str(e.value) == f"{tmp_path / 'c.bsq'}: non_finite: {found}"


@pytest.mark.parametrize("signs", ["+", "-", "+-"])
def test_largest_finite_samples_read_back(tmp_path, signs):
    # Every sample at the float32 limit: a large finite sum is not rejected.
    top = np.finfo(np.float32).max
    rng = np.random.default_rng(41)
    sign = rng.choice([1.0 if s == "+" else -1.0 for s in signs], size=(3, 16, 16))
    data = (sign * top).astype(np.float32)
    _write_raw_cube(tmp_path / "c", data, *data.shape)
    assert read_cube(tmp_path / "c").data.tobytes() == data.astype("<f4").tobytes()


def test_no_temp_files_left_behind(tmp_path):
    write_cube(SpectralCube(np.zeros((1, 2, 2), dtype=np.float32)), tmp_path / "a")
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_pgm8(np.ones((2, 2)), tmp_path / "p.pgm")
    assert list(tmp_path.iterdir()) == []


def test_overwrite_cut_before_sidecar_reads_as_missing_sidecar(tmp_path, monkeypatch):
    stem = write_cube(
        SpectralCube(np.zeros((4, 2, 2), dtype=np.float32)),
        tmp_path / "c",
        pattern=SfaPattern.row_major(2),
    )

    def cut_at_sidecar(path, data):
        if path.suffix == ".json":
            raise OSError("cut before sidecar")
        _atomic_write_bytes(path, data)

    monkeypatch.setattr("specmosaic.fileio._atomic_write_bytes", cut_at_sidecar)
    new = np.ones((4, 2, 2), dtype=np.float32)
    with pytest.raises(OSError, match="cut before sidecar"):
        write_cube(SpectralCube(new), stem, pattern=SfaPattern(np.array([[3, 2], [1, 0]])))
    assert (tmp_path / "c.bsq").read_bytes() == new.tobytes()  # new payload landed
    with pytest.raises(FormatError, match="missing sidecar"):
        read_cube(stem)


def test_concurrent_writers_of_one_path(tmp_path):
    path = tmp_path / "out.bin"
    payloads = [bytes([i]) * 1_000_000 for i in (1, 2)]
    errors: list[BaseException] = []
    start = threading.Barrier(len(payloads))

    def writer(data):
        try:
            start.wait(timeout=60)
            for _ in range(20):
                _atomic_write_bytes(path, data)
        except BaseException as e:
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_written_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_pgm8(np.ones((2, 2)), tmp_path / "p.pgm")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "p.pgm").stat().st_mode) == 0o640


def test_sidecar_validation():
    with pytest.raises(FormatError):
        CubeSidecar(height=0, width=2, bands=1)
    with pytest.raises(FormatError, match="unsupported dtype 'f64le' \\(only f32le\\)"):
        CubeSidecar.from_dict({"height": 2, "width": 2, "bands": 1, "dtype": "f64le"})
    with pytest.raises(FormatError, match="unsupported interleave 'bip' \\(only bsq\\)"):
        CubeSidecar.from_dict({"height": 2, "width": 2, "bands": 1, "interleave": "bip"})
    with pytest.raises(FormatError):
        CubeSidecar(height=2, width=2, bands=2, wavelengths_nm=(500.0,))
    with pytest.raises(FormatError):
        CubeSidecar.from_dict({"height": 2, "width": 2})  # bands missing
    with pytest.raises(FormatError):
        CubeSidecar.from_dict([1, 2, 3])


# ---------------------------------------------------------------- mosaics


def test_mosaic_round_trip_is_single_band_cube(tmp_path):
    rng = np.random.default_rng(91)
    m = MosaicImage(rng.uniform(0, 1, (6, 4)).astype(np.float32))
    stem = write_mosaic(m, tmp_path / "m", pattern=SfaPattern.row_major(2))
    side = read_sidecar(stem)
    assert side.bands == 1
    again = read_mosaic(stem)
    assert again.data.tobytes() == m.data.tobytes()


def test_read_mosaic_rejects_multiband(tmp_path):
    write_cube(SpectralCube(np.zeros((3, 2, 2), dtype=np.float32)), tmp_path / "c")
    with pytest.raises(FormatError, match="3 bands"):
        read_mosaic(tmp_path / "c")


# ------------------------------------------------------------------- PGM


def test_pgm8_export_normalizes_by_peak(tmp_path):
    path = tmp_path / "v.pgm"
    write_pgm8(np.array([[0.0, 2.0], [1.0, 4.0]]), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 128, 64, 255]


def test_pgm8_zero_map_is_black(tmp_path):
    path = tmp_path / "z.pgm"
    write_pgm8(np.zeros((2, 3)), path)
    assert path.read_bytes()[-6:] == b"\x00" * 6
    with pytest.raises(FormatError):
        write_pgm8(np.zeros((2, 2, 2)), tmp_path / "bad.pgm")


def test_fvmap_export(tmp_path):
    values = np.array([[0.0, 1.5], [3.0, 0.5]])
    stem = write_fvmap(values, tmp_path / "fv", pgm=tmp_path / "fv.pgm")
    cube = read_cube(stem)
    assert cube.bands == 1
    assert np.array_equal(cube.data[0], values.astype(np.float32))
    assert (tmp_path / "fv.pgm").exists()


@pytest.mark.parametrize("shape", [(2, 2, 2), (4,)])
def test_fvmap_export_rejects_non_2d(tmp_path, shape):
    msg = re.escape(f"map must be 2-dimensional, got shape {shape}")
    with pytest.raises(ShapeError, match=f"^{msg}$"):
        write_fvmap(np.zeros(shape), tmp_path / "fv", pgm=tmp_path / "fv.pgm")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------- pattern specs


def test_pattern_spec_inline():
    p = load_pattern_spec("2x2")
    assert p.period == 2
    assert np.array_equal(p.band_at, [[0, 1], [2, 3]])
    assert load_pattern_spec("4x4").bands == 16


def test_pattern_spec_rejects_bad_strings(tmp_path):
    with pytest.raises(FormatError):
        load_pattern_spec("2x3")
    with pytest.raises(FormatError):
        load_pattern_spec("0x0")
    with pytest.raises(FormatError, match="neither"):
        load_pattern_spec(str(tmp_path / "missing.json"))


def test_pattern_spec_json_round_trip(tmp_path):
    pattern = SfaPattern(np.array([[3, 1], [0, 2]]))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(pattern.to_dict()))
    again = load_pattern_spec(str(path))
    assert np.array_equal(again.band_at, pattern.band_at)


def test_pattern_spec_json_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"period": 2, "band_at": [[0, 1], [1, 0]]}')
    with pytest.raises(FormatError):
        load_pattern_spec(str(path))
    path.write_text("{broken")
    with pytest.raises(FormatError):
        load_pattern_spec(str(path))


# ------------------------------------------------------- the parse boundary

_SIDECAR_KEYS = ("height", "width", "bands", "dtype", "interleave", "pattern",
                 "wavelengths_nm", "period", "band_at")
# JSON values whose objects mostly use sidecar and pattern keys, so that the
# fuzz reaches the field parsers and not only the missing-key path.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.sampled_from(_SIDECAR_KEYS) | st.text(max_size=2), kids, max_size=8),
    max_leaves=24,
)


def _only_format_error(fn, *args):
    try:
        fn(*args)
    except FormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(doc=_JSON)
@example(doc={"height": True, "width": 1, "bands": 1})
@example(doc={"height": 1, "width": 1, "bands": 1, "pattern": {"period": 1e400}})
@example(doc={"height": 1, "width": 1, "bands": 1, "wavelengths_nm": [10**400]})
@example(doc={"height": 1, "width": 1, "bands": 1, "pattern": {"period": 1, "band_at": [2**64]}})
@example(doc={"height": 1, "width": 1, "bands": 2, "wavelengths_nm": [True, "450"]})
@example(doc={"height": 1, "width": 1, "bands": 1, "wavelengths_nm": [float("nan")]})
def test_fuzz_sidecar_from_dict(doc):
    _only_format_error(CubeSidecar.from_dict, doc)


_BAD_FILES = (
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 100_000,  # nested deeper than the JSON decoder recurses
    b'{"period": 1e400, "band_at": [0]}',
    b'{"height": 1e400, "width": 1, "bands": 1}',
)


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=64) | _JSON.map(lambda d: json.dumps(d).encode()))
@example(raw=_BAD_FILES[0])
@example(raw=_BAD_FILES[1])
@example(raw=_BAD_FILES[3])
def test_fuzz_read_sidecar(tmp_path_factory, raw):
    stem = tmp_path_factory.mktemp("side") / "c"
    stem.with_suffix(".json").write_bytes(raw)
    _only_format_error(read_sidecar, stem)


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=64) | _JSON.map(lambda d: json.dumps(d).encode()))
@example(raw=_BAD_FILES[0])
@example(raw=_BAD_FILES[1])
@example(raw=_BAD_FILES[2])
def test_fuzz_load_pattern_spec(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("pat") / "p.json"
    path.write_bytes(raw)
    _only_format_error(load_pattern_spec, str(path))


# Little-endian float32 words for quiet NaN, signalling NaN, +Inf and -Inf.
_NON_FINITE_WORDS = (b"\x00\x00\xc0\x7f", b"\x01\x00\x80\x7f", b"\x00\x00\x80\x7f",
                     b"\x00\x00\x80\xff")


@st.composite
def _cube_payloads(draw):
    """A (bands, height, width) shape and a payload of about that many
    float32 words, some NaN or Inf, cut or padded by up to 3 bytes."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    n = shape[0] * shape[1] * shape[2]
    word = st.binary(min_size=4, max_size=4) | st.sampled_from(_NON_FINITE_WORDS)
    words = draw(st.lists(word, min_size=max(n - 2, 0), max_size=n + 2))
    return shape, b"".join(words) + draw(st.binary(max_size=3))


@settings(max_examples=100, deadline=None)
@given(case=_cube_payloads())
@example(case=((1, 1, 2), b"\x00\x00\x80\x3f" + _NON_FINITE_WORDS[1]))
@example(case=((1, 1, 2), b"\x00\x00\x80\x3f" * 2 + b"\x00"))
@example(case=((2, 1, 1), b"\x00\x00\x00\x80" + b"\x01\x00\x00\x00"))  # -0.0, subnormal
def test_fuzz_read_cube_payload(tmp_path_factory, case):
    (bands, height, width), payload = case
    stem = tmp_path_factory.mktemp("cube") / "c"
    stem.with_suffix(".json").write_text(
        json.dumps({"height": height, "width": width, "bands": bands})
    )
    stem.with_suffix(".bsq").write_bytes(payload)
    valid = (len(payload) == 4 * bands * height * width
             and np.isfinite(np.frombuffer(payload, "<f4")).all())
    try:
        cube = read_cube(stem)
    except (FormatError, ValidationError):
        assert not valid
        return
    assert valid
    assert cube.data.shape == (bands, height, width)
    assert cube.data.astype("<f4").tobytes() == payload


def test_unreadable_inputs_fail_with_format_error(tmp_path):
    (tmp_path / "dir.json").mkdir()
    with pytest.raises(FormatError, match="ill-formed sidecar"):
        read_sidecar(tmp_path / "dir")


@pytest.mark.parametrize(
    "doc",
    [
        {"height": True, "width": 2, "bands": 1},
        {"height": 2.0, "width": 2, "bands": 1},
        {"height": 2, "width": "2", "bands": 1},
        {"height": 2, "width": 2, "bands": 4, "pattern": {"period": 2, "band_at": [0.5, 1, 2, 3]}},
        {"height": 2, "width": 2, "bands": 4, "pattern": {"period": 2.0, "band_at": [0, 1, 2, 3]}},
    ],
)
def test_sidecar_integer_fields_must_be_json_integers(doc):
    with pytest.raises(FormatError, match="expected an integer"):
        CubeSidecar.from_dict(doc)


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("wavelengths_nm", [True], "finite number"),
        ("wavelengths_nm", ["450"], "finite number"),
        ("wavelengths_nm", [float("nan")], "finite number"),
        ("wavelengths_nm", [float("inf")], "finite number"),
        ("dtype", 5, "string"),
        ("interleave", None, "string"),
    ],
)
def test_sidecar_fields_are_not_coerced(field, value, expected):
    with pytest.raises(FormatError, match=f"expected a {expected}, got"):
        CubeSidecar.from_dict({"height": 1, "width": 1, "bands": 1, field: value})


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -np.inf, np.float32("nan"), True, np.True_, "450"],
    ids=["nan", "inf", "-inf", "float32-nan", "true", "numpy-true", "string"],
)
def test_write_cube_rejects_what_read_sidecar_rejects(tmp_path, bad):
    cube = SpectralCube(np.full((2, 2, 2), 0.5, dtype=np.float32))
    stem = write_cube(cube, tmp_path / "c", wavelengths_nm=(450.0, 500.0))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(FormatError, match=r"sidecar .*c\.json: expected a finite number, got"):
        write_cube(SpectralCube(np.zeros((2, 2, 2), dtype=np.float32)), stem,
                   wavelengths_nm=(450.0, bad))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert read_cube(stem).data.tobytes() == cube.data.tobytes()
    assert read_sidecar(stem).wavelengths_nm == (450.0, 500.0)


def test_numpy_and_int_wavelengths_read_back_as_floats(tmp_path):
    wl = (np.float32(450.5), np.int64(500), 550, np.float64(600.25))
    stem = write_cube(SpectralCube(np.zeros((4, 2, 2), dtype=np.float32)), tmp_path / "c",
                      wavelengths_nm=wl)
    back = read_sidecar(stem).wavelengths_nm
    assert back == (450.5, 500.0, 550.0, 600.25)
    assert all(type(x) is float for x in back)
    assert json.loads(stem.with_suffix(".json").read_text())["wavelengths_nm"] == list(back)


def test_pattern_file_band_at_must_be_json_integers(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"period": 2, "band_at": [0.5, 1, 2, 3]}')
    with pytest.raises(FormatError, match="p.json.*expected an integer"):
        load_pattern_spec(str(path))
