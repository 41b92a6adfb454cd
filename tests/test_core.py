import numpy as np
import pytest

from specmosaic import (
    AlignmentError,
    BoundsError,
    D4_OPS,
    FormatError,
    PatchOrigin,
    SfaPattern,
    ShapeError,
    SpectralCube,
    ValidationError,
    crop_aligned,
    transform_d4,
    validate_cube,
)

from oracles import D4_INVERSE


def _cube(rng, bands=3, h=8, w=8):
    return SpectralCube(rng.uniform(0, 1, (bands, h, w)).astype(np.float32))


class TestSpectralCube:
    def test_shape_accessors(self):
        c = SpectralCube(np.zeros((3, 4, 5), dtype=np.float32))
        assert (c.bands, c.height, c.width) == (3, 4, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            SpectralCube(np.zeros((4, 5), dtype=np.float32))

    def test_rejects_empty_dims(self):
        with pytest.raises(ShapeError):
            SpectralCube(np.zeros((0, 4, 5), dtype=np.float32))

    def test_data_is_read_only(self):
        c = SpectralCube(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            c.data[0, 0, 0] = 1.0

    def test_converts_float64_input(self):
        c = SpectralCube(np.full((1, 2, 2), 0.5))
        assert c.data.dtype == np.float32


class TestValidateCube:
    def test_all_zeros_clean(self):
        assert validate_cube(SpectralCube(np.zeros((4, 4, 4), dtype=np.float32))) is None

    def test_single_nan_reported_fatal(self):
        data = np.zeros((2, 3, 3), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValidationError) as e:
            validate_cube(SpectralCube(data))
        assert str(e.value) == "non_finite: 1 sample(s), first at (0, 0, 0)"

    def test_first_indices_capped_at_ten(self):
        data = np.full((1, 5, 5), np.inf, dtype=np.float32)
        with pytest.raises(ValidationError) as e:
            validate_cube(SpectralCube(data))
        first = ", ".join(f"(0, {i // 5}, {i % 5})" for i in range(10))
        assert str(e.value) == f"non_finite: 25 sample(s), first at {first}"

    def test_matches_elementwise_scan(self):
        # Finite samples outside [0, 1] pass: only non-finite ones are counted.
        rng = np.random.default_rng(11)
        data = rng.uniform(-0.5, 1.5, (3, 6, 6)).astype(np.float32)
        assert validate_cube(SpectralCube(data.copy())) is None
        data[1, 2, 3] = np.nan
        data[2, 0, 5] = -np.inf
        bad = [
            (b, r, c) for b in range(3) for r in range(6) for c in range(6)
            if not np.isfinite(data[b, r, c])
        ]
        with pytest.raises(ValidationError) as e:
            validate_cube(SpectralCube(data))
        first = ", ".join(str(t) for t in bad)
        assert str(e.value) == f"non_finite: {len(bad)} sample(s), first at {first}"


class TestSfaPattern:
    def test_row_major_layout(self):
        p = SfaPattern.row_major(3)
        assert int(p.band_at[0, 0]) == 0
        assert int(p.band_at[1, 0]) == 3
        assert int(p.band_at[2, 2]) == 8

    def test_rejects_non_bijection(self):
        with pytest.raises(ValidationError):
            SfaPattern(np.array([[0, 0], [1, 2]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            SfaPattern(np.arange(6).reshape(2, 3))

    def test_rejects_empty_grid(self):
        with pytest.raises(ShapeError, match=r"^pattern period must be >= 1$"):
            SfaPattern(np.zeros((0, 0), dtype=np.int64))

    def test_row_major_rejects_a_negative_period(self):
        # -2 would otherwise reach reshape; 0 fails in __post_init__ as well.
        with pytest.raises(ShapeError, match=r"^pattern period must be >= 1$"):
            SfaPattern.row_major(-2)

    @pytest.mark.parametrize("period, band_at", [(-1, [0]), (0, [])])
    def test_from_dict_names_the_period_rule(self, period, band_at):
        # The entry count matches period**2 here, so only the period is wrong.
        with pytest.raises(FormatError, match=rf"^p\.json: period must be >= 1, got {period}$"):
            SfaPattern.from_dict({"period": period, "band_at": band_at}, what="p.json")

    def test_dict_roundtrip(self):
        p = SfaPattern(np.array([[3, 1], [0, 2]]))
        q = SfaPattern.from_dict(p.to_dict())
        assert np.array_equal(p.band_at, q.band_at)


class TestCropAligned:
    def test_quadrant(self):
        rng = np.random.default_rng(0)
        c = _cube(rng, bands=2, h=8, w=8)
        out = crop_aligned(c, PatchOrigin(4, 4, 4, 4), period=4)
        assert np.array_equal(out.data, c.data[:, 4:, 4:])

    def test_misaligned_origin(self):
        c = SpectralCube(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(AlignmentError):
            crop_aligned(c, PatchOrigin(3, 0, 4, 4), period=4)

    def test_rejects_period_zero(self):
        c = SpectralCube(np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(AlignmentError, match=r"^period must be >= 1$"):
            crop_aligned(c, PatchOrigin(0, 0, 2, 2), period=0)

    def test_out_of_bounds(self):
        c = SpectralCube(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(BoundsError):
            crop_aligned(c, PatchOrigin(4, 4, 8, 4), period=4)

    def test_parent_unchanged_and_detached(self):
        rng = np.random.default_rng(1)
        c = _cube(rng)
        before = c.data.copy()
        out = crop_aligned(c, PatchOrigin(0, 0, 4, 4), period=2)
        assert out.data.base is None or out.data.base is not c.data
        assert np.array_equal(c.data, before)

    def test_random_windows_match_direct_lookup(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = int(rng.integers(1, 5))
            h = int(rng.integers(p, 16))
            w = int(rng.integers(p, 16))
            c = _cube(rng, bands=2, h=h, w=w)
            max_r = (h - 1) // p
            max_c = (w - 1) // p
            r = int(rng.integers(0, max_r + 1)) * p
            cc = int(rng.integers(0, max_c + 1)) * p
            sh = int(rng.integers(1, h - r + 1))
            sw = int(rng.integers(1, w - cc + 1))
            out = crop_aligned(c, PatchOrigin(r, cc, sh, sw), p)
            for _ in range(5):
                b = int(rng.integers(0, 2))
                u = int(rng.integers(0, sh))
                v = int(rng.integers(0, sw))
                assert out.data[b, u, v] == c.data[b, r + u, cc + v]


class TestTransformD4:
    def test_rot90cw_definition(self):
        c = SpectralCube(np.array([[[1, 2], [3, 4]]], dtype=np.float32))
        out = transform_d4(c, "rot90cw")
        assert np.array_equal(out.data[0], np.array([[3, 1], [4, 2]], dtype=np.float32))

    def test_rot90cw_matches_index_formula(self):
        rng = np.random.default_rng(3)
        c = _cube(rng, bands=2, h=5, w=7)
        out = transform_d4(c, "rot90cw")
        h = c.height
        for u in range(out.height):
            for v in range(out.width):
                assert out.data[0, u, v] == c.data[0, h - 1 - v, u]

    def test_identity_bit_identical(self):
        rng = np.random.default_rng(4)
        c = _cube(rng)
        assert transform_d4(c, "identity").data.tobytes() == c.data.tobytes()

    def test_flip_h_involution(self):
        rng = np.random.default_rng(5)
        c = _cube(rng)
        twice = transform_d4(transform_d4(c, "flip_h"), "flip_h")
        assert np.array_equal(twice.data, c.data)

    def test_all_inverses_bit_exact(self):
        rng = np.random.default_rng(6)
        for op in D4_OPS:
            c = _cube(rng, bands=2, h=6, w=6)
            back = transform_d4(transform_d4(c, op), D4_INVERSE[op])
            assert back.data.tobytes() == c.data.tobytes(), op

    def test_inverses_on_non_square(self):
        rng = np.random.default_rng(7)
        for op in D4_OPS:
            c = _cube(rng, bands=1, h=3, w=5)
            back = transform_d4(transform_d4(c, op), D4_INVERSE[op])
            assert back.data.tobytes() == c.data.tobytes(), op

    def test_value_multiset_preserved(self):
        rng = np.random.default_rng(8)
        c = _cube(rng, bands=2, h=4, w=6)
        for op in D4_OPS:
            out = transform_d4(c, op)
            for b in range(c.bands):
                assert sorted(out.data[b].ravel()) == sorted(c.data[b].ravel())

    def test_unknown_op(self):
        c = SpectralCube(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            transform_d4(c, "rot45")


class TestPatchOrigin:
    @pytest.mark.parametrize("row, col", [(-1, 0), (0, -4)])
    def test_rejects_negative_origin(self, row, col):
        with pytest.raises(BoundsError, match=rf"^origin \({row}, {col}\) must be non-negative$"):
            PatchOrigin(row, col, 2, 2)

    @pytest.mark.parametrize("size_h, size_w", [(0, 2), (2, 0)])
    def test_rejects_zero_size(self, size_h, size_w):
        rule = rf"^patch size {size_h}x{size_w} must be at least 1x1$"
        with pytest.raises(BoundsError, match=rule):
            PatchOrigin(0, 0, size_h, size_w)
