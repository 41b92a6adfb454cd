import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    MosaicImage,
    SfaPattern,
    ShapeError,
    SpectralCube,
    mosaic,
    remosaic,
    sparse_expand,
)

from oracles import lattice_offsets, mosaic_bits_oracle, sparse_expand_bits_oracle

#: float32 bit patterns mixed into the random ones: -0.0, the smallest and
#: largest subnormals of each sign, quiet and signalling NaNs with payloads,
#: and the infinities.
_SPECIAL_BITS = np.array(
    [0x80000000, 0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF,
     0x7FC00000, 0x7F800001, 0xFFC00123, 0x7F800000, 0xFF800000],
    dtype=np.uint32,
)


def mosaic_oracle(cube, pattern):
    """Explicit mask-sum evaluation: every band contributes through its
    indicator mask, and the masks must make the sum collapse to one term."""
    p = pattern.period
    h, w = cube.height, cube.width
    out = np.zeros((h, w), dtype=np.float64)
    for u in range(h):
        for v in range(w):
            total = 0.0
            hits = 0
            for k in range(cube.bands):
                mask = 1.0 if (u % p, v % p) == lattice_offsets(pattern, k) else 0.0
                hits += int(mask)
                total += float(cube.data[k, u, v]) * mask
            assert hits == 1
            out[u, v] = total
    return out


def test_band_at_pixel_mod_arithmetic():
    p2 = SfaPattern.row_major(2).index_map(4, 3)
    assert p2[0, 0] == 0
    assert p2[3, 2] == 2  # i=1, j=0
    p5 = SfaPattern.row_major(5).index_map(6, 8)
    assert p5[5, 7] == 2  # i=0, j=2


def test_mosaic_single_period_block():
    data = np.stack([np.full((2, 2), k / 10, dtype=np.float32) for k in range(4)])
    m = mosaic(SpectralCube(data), SfaPattern.row_major(2))
    assert np.array_equal(
        m.data, np.array([[0.0, 0.1], [0.2, 0.3]], dtype=np.float32)
    )


def test_mosaic_of_constant_cube_is_constant():
    c = SpectralCube(np.full((4, 6, 6), 0.25, dtype=np.float32))
    m = mosaic(c, SfaPattern.row_major(2))
    assert np.all(m.data == np.float32(0.25))


def test_mosaic_matches_mask_sum_oracle():
    rng = np.random.default_rng(20)
    cube = SpectralCube(rng.uniform(0, 1, (25, 10, 10)).astype(np.float32))
    pattern = SfaPattern(rng.permutation(25).reshape(5, 5))
    got = mosaic(cube, pattern)
    want = mosaic_oracle(cube, pattern)
    assert np.array_equal(got.data.astype(np.float64), want)


def test_mosaic_band_count_mismatch():
    cube = SpectralCube(np.zeros((3, 4, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        mosaic(cube, SfaPattern.row_major(2))


def test_mosaic_accepts_non_period_multiple_dims():
    rng = np.random.default_rng(21)
    cube = SpectralCube(rng.uniform(0, 1, (4, 5, 7)).astype(np.float32))
    m = mosaic(cube, SfaPattern.row_major(2))
    assert (m.height, m.width) == (5, 7)


def test_remosaic_is_mosaic():
    rng = np.random.default_rng(22)
    cube = SpectralCube(rng.uniform(0, 1, (9, 9, 9)).astype(np.float32))
    pat = SfaPattern.row_major(3)
    assert remosaic is mosaic
    assert np.array_equal(remosaic(cube, pat).data, mosaic(cube, pat).data)


def test_mask_partition_exhaustive_periods_2_to_8():
    # over one full period block, every pixel is claimed by exactly one band
    rng = np.random.default_rng(23)
    for p in range(2, 9):
        pattern = SfaPattern(rng.permutation(p * p).reshape(p, p))
        idx = pattern.index_map(p, p)
        assert sorted(idx.ravel().tolist()) == list(range(p * p))


def test_sparse_expand_structure():
    m = MosaicImage(np.full((4, 4), 0.5, dtype=np.float32))
    cube = sparse_expand(m, SfaPattern.row_major(2))
    assert cube.bands == 4
    for k in range(4):
        band = cube.data[k]
        nonzero = band != 0
        assert nonzero.sum() == 4  # 25% of a 4x4 band
        assert np.all(band[nonzero] == np.float32(0.5))


def test_sparse_expand_zero_mosaic():
    m = MosaicImage(np.zeros((6, 6), dtype=np.float32))
    assert not sparse_expand(m, SfaPattern.row_major(3)).data.any()


def test_sparse_expand_roundtrip_bit_exact():
    rng = np.random.default_rng(24)
    for p in (2, 3, 5):
        m = MosaicImage(rng.uniform(0, 1, (11, 13)).astype(np.float32))
        pattern = SfaPattern(rng.permutation(p * p).reshape(p, p))
        back = mosaic(sparse_expand(m, pattern), pattern)
        assert back.data.tobytes() == m.data.tobytes()


def test_mosaic_linearity():
    rng = np.random.default_rng(25)
    pat = SfaPattern.row_major(2)
    x = rng.uniform(0, 1, (4, 8, 8))
    y = rng.uniform(0, 1, (4, 8, 8))
    alpha, beta = 0.3, 0.6
    lhs = mosaic(SpectralCube((alpha * x + beta * y).astype(np.float32)), pat).data
    rhs = alpha * mosaic(SpectralCube(x.astype(np.float32)), pat).data + beta * mosaic(
        SpectralCube(y.astype(np.float32)), pat
    ).data
    assert np.max(np.abs(lhs.astype(np.float64) - rhs.astype(np.float64))) < 1e-7


def _float32_bits(rng, shape):
    """Random float32 bit patterns, about a third of them from _SPECIAL_BITS."""
    bits = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
    special = rng.uniform(size=shape) < 0.3
    bits[special] = rng.choice(_SPECIAL_BITS, size=int(special.sum()))
    return bits


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 8),
    h=st.integers(1, 27),
    w=st.integers(1, 27),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=8, h=9, w=17, seed=0)
@example(p=3, h=2, w=5, seed=1)
@example(p=5, h=1, w=1, seed=2)
@example(p=1, h=3, w=4, seed=3)
def test_mosaic_and_sparse_expand_match_per_pixel_oracle_bytewise(p, h, w, seed):
    """Sampling and scattering along the band axis is the per-pixel rule,
    bit for bit: NaN payloads, -0.0 and subnormals are moved, never computed
    with, and sides need not be period multiples."""
    rng = np.random.default_rng(seed)
    pattern = SfaPattern(rng.permutation(p * p).reshape(p, p))
    band_at = pattern.band_at.tolist()
    cube_bits = _float32_bits(rng, (p * p, h, w))
    got = mosaic(SpectralCube(cube_bits.view(np.float32)), pattern)
    assert got.data.tobytes() == mosaic_bits_oracle(cube_bits.view(np.float32), band_at).tobytes()
    mosaic_bits = _float32_bits(rng, (h, w))
    sparse = sparse_expand(MosaicImage(mosaic_bits.view(np.float32)), pattern)
    want = sparse_expand_bits_oracle(mosaic_bits.view(np.float32), band_at)
    assert sparse.data.tobytes() == want.tobytes()
