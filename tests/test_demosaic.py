import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    DegenerateInputError,
    MosaicImage,
    SfaPattern,
    SpectralCube,
    mosaic,
    remosaic,
    wb_bilinear,
)

from oracles import lattice_offsets, same_bytes_and_nans, wb_gather_recipe


def wb_oracle(mosaic_img, pattern):
    """Per-pixel 4-neighbor bilinear interpolation with clamped lattice
    indices (replicate padding), evaluated one output sample at a time."""
    h, w = mosaic_img.height, mosaic_img.width
    p = pattern.period
    m = mosaic_img.data.astype(np.float64)
    out = np.empty((pattern.bands, h, w), dtype=np.float32)

    def lerp(a, b, t):
        return a + t * (b - a)

    for band in range(pattern.bands):
        row0, col0 = lattice_offsets(pattern, band)
        grid = m[row0::p, col0::p]
        nr, nc = grid.shape
        for u in range(h):
            qu, ru = divmod(u - row0, p)
            ia = min(max(qu, 0), nr - 1)
            ib = min(max(qu + 1, 0), nr - 1)
            tu = ru / p
            for v in range(w):
                qv, rv = divmod(v - col0, p)
                ja = min(max(qv, 0), nc - 1)
                jb = min(max(qv + 1, 0), nc - 1)
                tv = rv / p
                r0 = lerp(grid[ia, ja], grid[ia, jb], tv)
                r1 = lerp(grid[ib, ja], grid[ib, jb], tv)
                out[band, u, v] = np.float32(lerp(r0, r1, tu))
    return out


def test_constant_mosaic_gives_constant_bands():
    """Every lerp between equal sites gives the site value, so a flat label
    reconstructs to equal bands, and the map and SSIM skip them. Checked on
    every period, with sides past a whole number of periods, for a signed
    zero, a subnormal and the largest float32."""
    tiny = np.finfo(np.float32).smallest_subnormal
    for value in (-0.0, tiny, 0.7, 1.0, np.finfo(np.float32).max):
        for period in range(1, 6):
            h, w = 2 * period + 1, 3 * period + 2
            m = MosaicImage(np.full((h, w), value, dtype=np.float32))
            cube = wb_bilinear(m, SfaPattern.row_major(period))
            want = np.full((h, w), value, dtype=np.float32)
            for k, band in enumerate(cube.data):
                assert np.array_equal(band, want), (value, period, k)


def test_affine_field_reproduced_on_interior():
    # mosaic sampled from a single affine field: every band's lattice sees
    # the same plane, so bilinear interpolation must reproduce it exactly
    # (up to storage rounding) away from the replicated border
    h = w = 24
    p = 2
    u = np.arange(h, dtype=np.float64)[:, None]
    v = np.arange(w, dtype=np.float64)[None, :]
    field = 0.001 * u + 0.002 * v
    m = MosaicImage(field.astype(np.float32))
    cube = wb_bilinear(m, SfaPattern.row_major(p))
    for band in range(4):
        interior = cube.data[band, p : h - p, p : w - p].astype(np.float64)
        want = field[p : h - p, p : w - p]
        assert np.max(np.abs(interior - want)) < 1e-6


def test_affine_interior_within_1e5_random_patterns():
    rng = np.random.default_rng(31)
    for p in (2, 3, 4, 5):
        pattern = SfaPattern(rng.permutation(p * p).reshape(p, p))
        h = w = 8 * p
        u = np.arange(h, dtype=np.float64)[:, None]
        v = np.arange(w, dtype=np.float64)[None, :]
        field = 0.003 * u + 0.001 * v + 0.05
        cube = wb_bilinear(MosaicImage(field.astype(np.float32)), pattern)
        lo, hi = p, h - p
        want = field[lo:hi, lo:hi]
        for band in range(p * p):
            got = cube.data[band, lo:hi, lo:hi].astype(np.float64)
            assert np.max(np.abs(got - want)) < 1e-5


def test_sample_preservation_bit_exact():
    rng = np.random.default_rng(32)
    for p in (2, 3, 5):
        pattern = SfaPattern(rng.permutation(p * p).reshape(p, p))
        m = MosaicImage(rng.uniform(0, 1, (4 * p + 1, 3 * p + 2)).astype(np.float32))
        back = remosaic(wb_bilinear(m, pattern), pattern)
        assert back.data.tobytes() == m.data.tobytes()


def test_output_range_is_convex_hull_of_mosaic():
    rng = np.random.default_rng(33)
    m = MosaicImage(rng.uniform(0.2, 0.9, (14, 17)).astype(np.float32))
    cube = wb_bilinear(m, SfaPattern.row_major(3))
    assert cube.data.min() >= m.data.min()
    assert cube.data.max() <= m.data.max()


def test_matches_per_pixel_oracle_on_20x20():
    rng = np.random.default_rng(34)
    for p in (2, 3, 4, 5):
        pattern = SfaPattern(rng.permutation(p * p).reshape(p, p))
        m = MosaicImage(rng.uniform(0, 1, (20, 20)).astype(np.float32))
        got = wb_bilinear(m, pattern).data.astype(np.float64)
        want = wb_oracle(m, pattern).astype(np.float64)
        assert np.max(np.abs(got - want)) < 1e-9


def test_mosaic_smaller_than_offsets_rejected():
    # a 1x1 mosaic with period 2 has no lattice site for three of the bands
    m = MosaicImage(np.full((1, 1), 0.5, dtype=np.float32))
    with pytest.raises(DegenerateInputError):
        wb_bilinear(m, SfaPattern.row_major(2))


def test_demosaic_then_mosaic_of_wb_is_idempotent_anchor():
    # remosaic of the reconstruction equals the source mosaic, so a second
    # reconstruction from it is identical to the first
    rng = np.random.default_rng(35)
    pattern = SfaPattern.row_major(2)
    m = MosaicImage(rng.uniform(0, 1, (10, 12)).astype(np.float32))
    first = wb_bilinear(m, pattern)
    second = wb_bilinear(mosaic(first, pattern), pattern)
    assert first.data.tobytes() == second.data.tobytes()


_F32 = np.finfo(np.float32)
_SPECIALS = np.array(
    [-0.0, 0.0, _F32.smallest_subnormal, -_F32.smallest_subnormal, _F32.max, -_F32.max],
    dtype=np.float32,
)


def _mosaic_case(period, h, w, seed, nonfinite):
    """A bijective ``band_at`` and an h x w float32 mosaic of random bit
    patterns (subnormals included), with a third of the samples in [0, 1)
    and a tenth from ``_SPECIALS``; ``nonfinite`` mixes in NaN and +-inf."""
    rng = np.random.default_rng(seed)
    band_at = rng.permutation(period * period).reshape(period, period)
    bits = rng.integers(0, 2**32, (h, w), dtype=np.uint32)
    bits[(bits & 0x7F800000) == 0x7F800000] &= ~np.uint32(0x00800000)  # finite
    data = bits.view(np.float32)
    unit = rng.uniform(size=(h, w)) < 1 / 3
    data[unit] = rng.uniform(0, 1, unit.sum()).astype(np.float32)
    special = rng.uniform(size=(h, w)) < 0.1
    data[special] = rng.choice(_SPECIALS, special.sum())
    if nonfinite:
        bad = rng.uniform(size=(h, w)) < 0.05
        bad.flat[seed % bad.size] = True
        data[bad] = rng.choice(np.array([np.nan, np.inf, -np.inf], np.float32), bad.sum())
    return band_at, data


@st.composite
def _mosaic_cases(draw):
    period = draw(st.integers(1, 8))
    side = st.integers(period, 4 * period + 19)
    return _mosaic_case(period, draw(side), draw(side), draw(st.integers(0, 2**32 - 1)),
                        draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(case=_mosaic_cases())
@example(case=(np.zeros((1, 1), dtype=int), np.full((1, 1), -0.0, dtype=np.float32)))
@example(case=_mosaic_case(4, 4, 4, seed=1, nonfinite=False))  # one site per band
@example(case=_mosaic_case(4, 17, 23, seed=2, nonfinite=False))
@example(case=_mosaic_case(4, 17, 23, seed=3, nonfinite=True))
def test_wb_bilinear_equals_gather_recipe_bytewise(case):
    """The phase form gives the per-pixel gather recipe's bytes on finite
    mosaics, and NaN in the same places (of either sign) on the others."""
    band_at, data = case
    m, pattern = MosaicImage(data), SfaPattern(band_at)
    with np.errstate(invalid="ignore"):  # inf - inf
        got = wb_bilinear(m, pattern).data
        want = wb_gather_recipe(m, pattern)
    if np.isfinite(data).all():
        assert got.tobytes() == want.tobytes()
    else:
        assert same_bytes_and_nans(got, want)
