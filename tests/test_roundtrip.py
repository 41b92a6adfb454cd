"""Round-trip contracts and the square-symmetry group laws as properties
over random patterns and sizes.

Periods run 1-8 with a random bijective band assignment, and each side runs
from one period to just under four, so most sides are not period multiples.
Samples are random finite float32 bit patterns, with -0.0 and subnormals
mixed in on purpose. The non-finite check runs on the same samples with NaNs
of either sign and any payload, and infinities, mixed in.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    D4_OPS,
    MosaicImage,
    SfaPattern,
    SpectralCube,
    ValidationError,
    mosaic,
    remosaic,
    sparse_expand,
    transform_d4,
    validate_cube,
)
from specmosaic.dataset import AUGMENT_OPS_NONSQUARE
from specmosaic.demosaic import wb_bilinear
from specmosaic.fileio import read_cube, read_sidecar, write_cube

from oracles import D4_INVERSE

_EXP = np.uint32(0x7F800000)  # float32 exponent bits; all set means inf or nan
_SPECIAL = np.array([0x80000000, 0x00000001, 0x807FFFFF, 0x00800000], dtype=np.uint32)


@st.composite
def _patterned(draw, planes: str):
    """(pattern, samples): ``planes`` is "mosaic" for an (H, W) array or
    "cube" for a (period**2, H, W) one, filled by :func:`_samples`."""
    p = draw(st.integers(1, 8))
    order = draw(st.permutations(range(p * p)))
    pattern = SfaPattern(np.array(order).reshape(p, p))
    sides = st.integers(p, 4 * p - 1)
    shape = (draw(sides), draw(sides))
    if planes == "cube":
        shape = (p * p, *shape)
    return pattern, _samples(draw, shape)


def _samples(draw, shape) -> np.ndarray:
    """Random finite float32 bits; one sample in eight is -0.0, a subnormal
    or the smallest normal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**32, shape, dtype=np.uint32)
    bits[bits & _EXP == _EXP] ^= np.uint32(0x00800000)  # exponent 0xFF -> 0xFE
    special = rng.random(shape) < 0.125
    bits[special] = rng.choice(_SPECIAL, int(special.sum()))
    return bits.view(np.float32)


_ONE_PIXEL = (SfaPattern.row_major(1), np.array([[[-0.0]]], dtype=np.float32))


@settings(max_examples=100, deadline=None)
@given(case=_patterned("mosaic"))
@example(case=(_ONE_PIXEL[0], _ONE_PIXEL[1][0]))
def test_mosaic_of_sparse_expand_is_identity(case):
    pattern, samples = case
    m = MosaicImage(samples)
    assert mosaic(sparse_expand(m, pattern), pattern).data.tobytes() == m.data.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_patterned("mosaic"))
@example(case=(_ONE_PIXEL[0], _ONE_PIXEL[1][0]))
def test_remosaic_of_wb_bilinear_is_identity(case):
    pattern, samples = case
    m = MosaicImage(samples)
    assert remosaic(wb_bilinear(m, pattern), pattern).data.tobytes() == m.data.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_patterned("cube"))
@example(case=_ONE_PIXEL)
def test_cube_file_round_trip_is_bit_exact(tmp_path_factory, case):
    pattern, samples = case
    cube = SpectralCube(samples)
    stem = write_cube(cube, tmp_path_factory.mktemp("rt") / "c", pattern=pattern)
    assert read_cube(stem).data.tobytes() == cube.data.tobytes()
    assert np.array_equal(read_sidecar(stem).pattern.band_at, pattern.band_at)


_NAME_PART = st.text("abv2_-", min_size=1, max_size=4).filter(lambda t: t not in ("bsq", "json"))


@settings(max_examples=50, deadline=None)
@given(parts=st.lists(_NAME_PART, min_size=2, max_size=4), seed=st.integers(0, 2**32 - 1))
@example(parts=["scene", "v2"], seed=0)
def test_dotted_stem_keeps_its_own_files(tmp_path_factory, parts, seed):
    d = tmp_path_factory.mktemp("dots")
    rng = np.random.default_rng(seed)
    dotted, plain = ".".join(parts), ".".join(parts[:-1])
    cubes = {dotted: SpectralCube(rng.random((2, 3, 4), dtype=np.float32)),
             plain: SpectralCube(rng.random((3, 3, 4), dtype=np.float32))}
    for stem, cube in cubes.items():
        write_cube(cube, d / stem)
    for stem, cube in cubes.items():
        assert read_cube(d / stem).data.tobytes() == cube.data.tobytes()
        assert read_cube(d / f"{stem}.bsq").data.tobytes() == cube.data.tobytes()
    assert sorted(p.name for p in d.iterdir()) == sorted(
        stem + ext for stem in cubes for ext in (".bsq", ".json"))


# ------------------------------------------------------ square symmetries


@st.composite
def _d4_cubes(draw, min_side=1):
    """A random cube, square half the time, with the ops that keep its shape:
    all 8 when square, the 4 shape-preserving ones otherwise."""
    sides = st.integers(min_side, 12)
    h = draw(sides)
    w = h if draw(st.booleans()) else draw(sides)
    ops = D4_OPS if h == w else AUGMENT_OPS_NONSQUARE
    return SpectralCube(_samples(draw, (draw(st.integers(1, 3)), h, w))), ops


def _d4(cube: SpectralCube, *ops: str) -> SpectralCube:
    for op in ops:
        cube = transform_d4(cube, op)
    return cube


@settings(max_examples=100, deadline=None)
@given(case=_d4_cubes())
def test_d4_inverse_law(case):
    cube, ops = case
    for op in ops:
        back = _d4(cube, op, D4_INVERSE[op])
        assert back.data.shape == cube.data.shape
        assert back.data.tobytes() == cube.data.tobytes(), op


@settings(max_examples=50, deadline=None)
@given(case=_d4_cubes(min_side=2))
def test_d4_closed_under_composition(case):
    cube, ops = case
    # A probe with distinct values tells every op apart once both sides are
    # at least 2, so it names the one op each composition must equal.
    _, h, w = cube.data.shape
    probe = SpectralCube(np.arange(h * w, dtype=np.float32).reshape(1, h, w))
    for a in ops:
        for b in ops:
            composed = _d4(probe, a, b)
            same = [
                op for op in D4_OPS
                if _d4(probe, op).data.shape == composed.data.shape
                and _d4(probe, op).data.tobytes() == composed.data.tobytes()
            ]
            assert len(same) == 1, (a, b, same)
            assert same[0] in ops
            assert _d4(cube, a, b).data.tobytes() == _d4(cube, same[0]).data.tobytes()


# ------------------------------------------------------ non-finite check


@st.composite
def _maybe_non_finite(draw):
    """A (1-3, 1-12, 1-12) array of :func:`_samples`; in half the cases a
    random share of them becomes NaN (any sign and payload) or +-inf."""
    shape = tuple(draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 12), (1, 12)))
    data = _samples(draw, shape)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        hit = rng.random(shape) < draw(st.sampled_from([0.01, 0.1, 0.5, 1.0]))
        sign = rng.integers(0, 2, shape, dtype=np.uint32) << np.uint32(31)
        payload = rng.integers(0, 2**23, shape, dtype=np.uint32)
        payload[rng.random(shape) < 0.25] = 0  # a zero payload is an infinity
        bits = data.view(np.uint32)
        bits[hit] = (sign | _EXP | payload)[hit]
    return data


def _scan_message(data: np.ndarray) -> str | None:
    """The non-finite report built one sample at a time in storage order."""
    bad = [idx for idx in np.ndindex(data.shape) if not math.isfinite(float(data[idx]))]
    if not bad:
        return None
    return f"non_finite: {len(bad)} sample(s), first at " + ", ".join(map(str, bad[:10]))


def _f32_bits(*bits: int) -> np.ndarray:
    return np.array(bits, dtype=np.uint32).view(np.float32).reshape(1, 1, -1)


@settings(max_examples=200, deadline=None)
@given(data=_maybe_non_finite())
@example(data=_f32_bits(0xFFC00001))  # a negative quiet NaN with a payload
@example(data=_f32_bits(0x7F800001, 0x3F800000))  # a signalling NaN
@example(data=_f32_bits(0x3F800000, 0x7F800000))  # a lone +inf: not the minimum
@example(data=_f32_bits(0x7F7FFFFF, 0xFF7FFFFF))  # +-float32 max are finite
@example(data=np.full((2, 3, 4), -np.inf, dtype=np.float32))
def test_non_finite_check_matches_an_elementwise_scan(tmp_path_factory, data):
    want = _scan_message(data)
    bands, height, width = data.shape
    stem = tmp_path_factory.mktemp("nf") / "c"
    stem.with_suffix(".json").write_text(
        json.dumps({"height": height, "width": width, "bands": bands})
    )
    stem.with_suffix(".bsq").write_bytes(data.astype("<f4").tobytes())
    cube = SpectralCube(data)
    if want is None:
        assert validate_cube(cube) is None
        assert read_cube(stem).data.tobytes() == cube.data.tobytes()
        return
    with pytest.raises(ValidationError) as e:
        validate_cube(cube)
    assert str(e.value) == want
    with pytest.raises(ValidationError) as e:
        read_cube(stem)
    assert str(e.value) == f"{stem.with_suffix('.bsq')}: {want}"
