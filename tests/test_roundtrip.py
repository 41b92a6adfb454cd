"""Round-trip contracts and the square-symmetry group laws as properties
over random patterns and sizes.

Periods run 1-8 with a random bijective band assignment, and each side runs
from one period to just under four, so most sides are not period multiples.
Samples are random finite float32 bit patterns, with -0.0 and subnormals
mixed in on purpose.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    D4_OPS,
    MosaicImage,
    SfaPattern,
    SpectralCube,
    mosaic,
    remosaic,
    sparse_expand,
    transform_d4,
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
