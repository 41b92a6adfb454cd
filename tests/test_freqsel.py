import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from specmosaic import (
    FreqParams,
    FrequencyVariationMap,
    SelectionParams,
    ShapeError,
    SpectralCube,
    centered_spectrum,
    classify_patch,
    count_distribution,
    frequency_variation_map,
    gaussian_blur,
    log_magnitude,
    psnr,
    select_hard,
)
from specmosaic.freqsel import _corr_valid

from oracles import dft_oracle_centered, gauss_taps, two_axis_taps

# ---------------------------------------------------------------- oracles


def blur_oracle(img, sigma, radius):
    """Dense 2D convolution with the outer-product Gaussian kernel and
    replicate padding, one output pixel at a time."""
    k1 = np.exp(-0.5 * (np.arange(-radius, radius + 1, dtype=np.float64) / sigma) ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(np.asarray(img, dtype=np.float64), radius, mode="edge")
    out = np.empty(img.shape, dtype=np.float64)
    size = 2 * radius + 1
    for i in range(img.shape[0]):
        for j in range(img.shape[1]):
            out[i, j] = np.sum(k2 * padded[i : i + size, j : j + size])
    return out


def _const_cube(consts, h, w):
    c = np.asarray(consts, dtype=np.float32)
    return SpectralCube(np.broadcast_to(c[:, None, None], (len(consts), h, w)).copy())


def _annulus_mask(h, w, r_low, r_high):
    uu = np.arange(h, dtype=np.float64)[:, None] - h // 2
    vv = np.arange(w, dtype=np.float64)[None, :] - w // 2
    d = np.sqrt(uu * uu + vv * vv)
    r_max = min(h, w) / 2.0
    return (d >= r_low * r_max) & (d <= r_high * r_max)


# ---------------------------------------------------- centered_spectrum


def test_constant_input_single_dc_bin():
    for h, w in ((4, 4), (5, 5), (4, 7)):
        s = centered_spectrum(np.full((h, w), 1.0))
        assert abs(s[h // 2, w // 2] - h * w) < 1e-9
        masked = s.copy()
        masked[h // 2, w // 2] = 0
        assert np.max(np.abs(masked)) < 1e-9


def test_zero_input_zero_spectrum():
    assert not centered_spectrum(np.zeros((6, 3))).any()


def test_cosine_two_conjugate_bins():
    u = np.arange(4, dtype=np.float64)
    x = np.cos(2 * np.pi * u / 4)[:, None] * np.ones((1, 4))
    s = centered_spectrum(x)
    mags = np.abs(s)
    # energy only at vertical frequency +-1/4, i.e. one bin above and one
    # below the centered DC row, in the DC column
    hot = np.argwhere(mags > 1e-9)
    assert sorted(map(tuple, hot)) == [(1, 2), (3, 2)]
    assert abs(mags[1, 2] - mags[3, 2]) < 1e-9


def test_matches_brute_force_dft_all_small_sizes():
    rng = np.random.default_rng(40)
    for h in range(1, 9):
        for w in range(1, 9):
            x = rng.uniform(-1, 1, (h, w))
            got = centered_spectrum(x)
            want = dft_oracle_centered(x)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale < 1e-9


def test_centered_spectrum_rejects_non_2d():
    with pytest.raises(ShapeError):
        centered_spectrum(np.zeros((2, 2, 2)))


# -------------------------------------------------------- log_magnitude


def test_log_magnitude_zero_spectrum_floor():
    out = log_magnitude(np.zeros((3, 3), dtype=complex), 1e-8)
    assert np.allclose(out, np.log(1e-8), atol=1e-12)


def test_log_magnitude_unit_bin():
    out = log_magnitude(np.array([[1.0 + 0j]]), 1e-8)
    assert abs(out[0, 0] - np.log1p(1e-8)) < 1e-15


def test_log_magnitude_elementwise_oracle():
    rng = np.random.default_rng(41)
    s = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    got = log_magnitude(s, 1e-6)
    want = np.array(
        [[np.log(abs(s[i, j]) + 1e-6) for j in range(7)] for i in range(5)]
    )
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize(
    "spectrum",
    [
        np.array([[0, -3], [7, 2]]),  # integer: |S| stays an integer array
        np.array([True, False]),
        np.array([1.5, -2.0], dtype=np.float32),
        np.array(-4.0),  # 0-d
        -4,
        2.5 - 1j,
    ],
)
def test_log_magnitude_keeps_plain_formula_for_any_input(spectrum):
    got = log_magnitude(spectrum, 1e-6)
    want = np.log(np.abs(spectrum) + 1e-6)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_log_magnitude_requires_positive_epsilon():
    with pytest.raises(ValueError):
        log_magnitude(np.zeros((2, 2), dtype=complex), 0.0)


@pytest.mark.parametrize("bad", [True, float("inf"), float("nan"), 0])
@pytest.mark.parametrize(
    "name, call",
    [
        ("epsilon", lambda v: log_magnitude(np.ones((2, 2), dtype=complex), v)),
        ("sigma", lambda v: gaussian_blur(np.ones((4, 4)), v, 2)),
        ("peak", lambda v: psnr(np.zeros((1, 2, 2)), np.ones((1, 2, 2)), peak=v)),
    ],
    ids=["log_magnitude", "gaussian_blur", "psnr"],
)
def test_kernel_widths_must_be_finite_and_positive(name, call, bad):
    # The rule FreqParams applies to epsilon and blur_sigma.
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad!r}$"):
        call(bad)


# -------------------------------------------------------- gaussian_blur


def test_blur_preserves_constant():
    out = gaussian_blur(np.full((9, 9), 3.7), sigma=1.5, radius=5)
    assert np.max(np.abs(out - 3.7)) < 1e-9


def test_blur_impulse_center_weight():
    img = np.zeros((11, 11))
    img[5, 5] = 1.0
    k1 = np.exp(-0.5 * (np.arange(-5, 6, dtype=np.float64) / 1.5) ** 2)
    k1 /= k1.sum()
    out = gaussian_blur(img, sigma=1.5, radius=5)
    assert abs(out[5, 5] - k1[5] * k1[5]) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    sigma=st.floats(0.3, 4.0),
    radius=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=12, w=13, sigma=2.0, radius=3, seed=42)
@example(h=2, w=3, sigma=1.0, radius=8, seed=0)  # radius > both sides
def test_blur_matches_dense_convolution_oracle(h, w, sigma, radius, seed):
    img = np.random.default_rng(seed).uniform(0, 10, (h, w))
    got = gaussian_blur(img, sigma=sigma, radius=radius)
    want = blur_oracle(img, sigma=sigma, radius=radius)
    assert np.max(np.abs(got - want)) < 1e-9


def test_blur_radius_larger_than_map():
    img = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = gaussian_blur(img, sigma=1.0, radius=5)
    assert out.shape == img.shape and np.isfinite(out).all()


@pytest.mark.parametrize("radius", [2.0, 2.5, True, "2", None])
def test_blur_radius_must_be_an_int(radius):
    with pytest.raises(ValueError, match="radius must be an integer >= 1"):
        gaussian_blur(np.zeros((4, 4)), 1.5, radius)
    with pytest.raises(ValueError, match="blur_radius must be an integer >= 1"):
        FreqParams(blur_radius=radius)


def test_integer_fields_accept_numpy_integers():
    assert FreqParams(blur_radius=np.int64(2)).blur_radius == 2
    assert SelectionParams(t_cnt=np.int32(3)).t_cnt == 3
    assert gaussian_blur(np.ones((3, 3)), 1.0, np.int64(1)).shape == (3, 3)


# Samples that stress the sums: signed zeros, subnormals, the smallest normal.
_SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308])


def _stressed_map(h, w, taps, seed):
    rng = np.random.default_rng(seed)
    img = rng.uniform(-2.0, 2.0, (h, w))
    mask = rng.uniform(size=(h, w)) < 0.25
    img[mask] = rng.choice(_SPECIAL, size=int(mask.sum()))
    # One window of -0.0 only: a sum started at +0.0 would come out +0.0.
    img[:taps, w - taps :] = -0.0
    return img


@settings(max_examples=100, deadline=None)
@given(
    radius=st.integers(1, 8),
    extra_h=st.integers(0, 40),
    extra_w=st.integers(0, 40),
    sigma=st.floats(0.3, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(radius=1, extra_h=0, extra_w=0, sigma=1.0, seed=0)  # one output bin
@example(radius=5, extra_h=28, extra_w=29, sigma=1.5, seed=1)  # 39x40: both parities
@example(radius=8, extra_h=23, extra_w=1, sigma=2.0, seed=2)  # 40x18
def test_corr_valid_equals_two_axis_tap_loop_bytewise(radius, extra_h, extra_w, sigma, seed):
    taps = 2 * radius + 1
    h, w = min(taps + extra_h, 40), min(taps + extra_w, 40)
    img = _stressed_map(h, w, taps, seed)
    kernel = gauss_taps(sigma, radius)
    got = _corr_valid(img, kernel)
    want = two_axis_taps(img, kernel)
    assert got.shape == want.shape == (h - taps + 1, w - taps + 1)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_corr_valid_and_blur_return_strided_views_of_fresh_buffers():
    img = np.random.default_rng(7).uniform(0, 1, (20, 30))
    before = img.copy()
    kernel = gauss_taps(1.5, 3)
    out = _corr_valid(img, kernel)
    # Rows sit a full input row apart, so the result is not C-contiguous.
    assert out.shape == (14, 24) and out.strides == (30 * 8, 8)
    assert not out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, img)
    out[...] = -1.0  # writing through the view reaches nothing else
    assert img.tobytes() == before.tobytes()

    blurred = gaussian_blur(img, 1.5, 3)
    assert blurred.shape == img.shape and blurred.dtype == np.float64
    assert blurred.strides == ((30 + 2 * 3) * 8, 8) and not blurred.flags.c_contiguous
    assert not np.shares_memory(blurred, img)
    want = two_axis_taps(np.pad(img, 3, mode="edge"), gauss_taps(1.5, 3))
    assert blurred.tobytes() == want.tobytes()


# ---------------------------------------------- frequency_variation_map


_fv_cases = dict(
    bands=st.integers(1, 4),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)


def _cube_pair(bands, h, w, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 1, (2, bands, h, w)).astype(np.float32)
    return SpectralCube(a), SpectralCube(b)


@settings(max_examples=50, deadline=None)
@given(**_fv_cases)
@example(bands=3, h=16, w=16, seed=43)
@example(bands=2, h=5, w=6, seed=0)  # sides at and just above the blur radius
@example(bands=1, h=11, w=12, seed=1)  # one blur kernel across
def test_zero_law_identical_cubes(bands, h, w, seed):
    a, _ = _cube_pair(bands, h, w, seed)
    fv = frequency_variation_map(a, SpectralCube(a.data.copy()))
    assert fv.values.tobytes() == np.zeros((h, w)).tobytes()


@settings(max_examples=50, deadline=None)
@given(**_fv_cases)
@example(bands=2, h=12, w=12, seed=44)
@example(bands=2, h=5, w=6, seed=0)
@example(bands=1, h=11, w=12, seed=1)
def test_symmetry_bit_exact(bands, h, w, seed):
    a, b = _cube_pair(bands, h, w, seed)
    ab = frequency_variation_map(a, b).values
    assert ab.tobytes() == frequency_variation_map(b, a).values.tobytes()


@settings(max_examples=40, deadline=None)
@given(**_fv_cases, g=st.sampled_from([0.25, 0.5, 2.0, 4.0]), t_var=st.floats(0.0, 2.0))
@example(bands=2, h=64, w=64, seed=1, g=0.5, t_var=1.0)
@example(bands=2, h=64, w=64, seed=1, g=2.0, t_var=1.0)
def test_global_gain_bounds_map_by_log_gain(bands, h, w, seed, g, t_var):
    """A power-of-two gain scales the float32 samples and every FFT bin
    exactly, and |ln(g*a + eps) - ln(a + eps)| <= |ln g| for a >= 0; the blur
    (a convex combination) and the channel max keep that bound."""
    a, _ = _cube_pair(bands, h, w, seed)
    scaled = SpectralCube(a.data * np.float32(g))
    assert (scaled.data / np.float32(g)).tobytes() == a.data.tobytes()
    fv = frequency_variation_map(a, scaled)
    bound = abs(np.log(g))
    slack = bound + 8 * np.spacing(bound)  # rounding of the logs and the blur
    assert fv.values.max() <= slack
    if t_var >= slack:  # no gain flags a bin it cannot reach
        assert classify_patch(fv, SelectionParams(t_var=t_var, t_cnt=0)).count == 0


@settings(max_examples=60, deadline=None)
@given(
    bands=st.integers(1, 3),
    h=st.integers(4, 79),
    w=st.integers(4, 79),
    seed=st.integers(0, 2**32 - 1),
    offsets=st.lists(st.integers(-1024, 1024), min_size=3, max_size=3),
    radius=st.integers(1, 6),
    sigma=st.floats(0.5, 3.0),
    frac=st.floats(1e-6, 0.999),
)
@example(bands=3, h=64, w=64, seed=7, offsets=[307, -410, 1024], radius=5, sigma=1.5,
         frac=1e-6)
@example(bands=1, h=18, w=79, seed=0, offsets=[-1024, 0, 0], radius=6, sigma=3.0,
         frac=1e-6)
def test_per_band_offset_stays_out_of_an_annulus_beyond_the_blur(
    bands, h, w, seed, offsets, radius, sigma, frac
):
    """A per-band offset moves only the DC bin, and the blur spreads that bin
    over a (2*radius + 1)^2 square whose corners sit radius*sqrt(2) from DC.
    An annulus that starts beyond them keeps only FFT roundoff."""
    r_max = min(h, w) / 2.0
    reach = radius * np.sqrt(2.0) / r_max  # the blurred spike's reach over R
    assume(reach < 1.0)
    rng = np.random.default_rng(seed)
    # Samples and offsets on a 2^-10 grid, so each float32 sum is exact.
    a = (rng.integers(0, 1025, (bands, h, w)) / 1024).astype(np.float32)
    shift = (np.asarray(offsets[:bands]) / 1024).astype(np.float32)[:, None, None]
    b = a + shift
    assert (b.astype(np.float64) - a == shift).all()  # the sums are exact
    params = FreqParams(
        blur_sigma=sigma, blur_radius=radius, r_low=reach + (1.0 - reach) * frac, r_high=1.0
    )
    fv = frequency_variation_map(SpectralCube(a), SpectralCube(b), params)
    assert classify_patch(fv).count == 0
    assert fv.values.max() <= 1e-3


def _parent_recipe_map(c1, c2, params):
    """The map as first written: per band, centered spectrum, log magnitude,
    absolute difference and blur (the tap loop on the edge-padded map); then
    the channel max and the annulus."""
    h, w = c1.height, c1.width
    kernel = gauss_taps(params.blur_sigma, params.blur_radius)
    acc = None
    for k in range(c1.bands):
        s1 = np.fft.fftshift(np.fft.fft2(np.asarray(c1.data[k], dtype=np.float64)))
        s2 = np.fft.fftshift(np.fft.fft2(np.asarray(c2.data[k], dtype=np.float64)))
        m1 = np.log(np.abs(s1) + params.epsilon)
        m2 = np.log(np.abs(s2) + params.epsilon)
        padded = np.pad(np.abs(m1 - m2), params.blur_radius, mode="edge")
        r = two_axis_taps(padded, kernel)
        acc = r if acc is None else np.maximum(acc, r)
    keep = _annulus_mask(h, w, params.r_low, params.r_high)
    return np.where(keep, acc, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    **{**_fv_cases, "h": st.integers(1, 47), "w": st.integers(1, 47)},
    radius=st.integers(1, 6),
    sigma=st.floats(0.5, 3.0),
    epsilon=st.sampled_from([1e-8, 1e-3]),
    r_low=st.floats(0.0, 0.5),
    r_high=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    identical_band=st.booleans(),
)
@example(bands=2, h=16, w=17, seed=3, radius=5, sigma=1.5, epsilon=1e-8, r_low=0.08,
         r_high=0.5, identical_band=True)
@example(bands=1, h=1, w=1, seed=0, radius=1, sigma=1.5, epsilon=1e-8, r_low=0.08,
         r_high=0.5, identical_band=False)
# The whole map is the box, and the blur's gather clamps on every edge.
@example(bands=2, h=3, w=11, seed=5, radius=6, sigma=2.0, epsilon=1e-8, r_low=0.0,
         r_high=1.0, identical_band=False)
@example(bands=3, h=23, w=37, seed=6, radius=4, sigma=0.7, epsilon=1e-3, r_low=0.2,
         r_high=0.75, identical_band=False)  # odd, unequal sides
def test_map_equals_parent_per_band_recipe_bytewise(
    bands, h, w, seed, radius, sigma, epsilon, r_low, r_high, identical_band
):
    assume(r_low < r_high)
    a, b = _cube_pair(bands, h, w, seed)
    if identical_band:  # one band with an exactly zero difference
        data = b.data.copy()
        data[0] = a.data[0]
        b = SpectralCube(data)
    params = FreqParams(
        epsilon=epsilon, blur_sigma=sigma, blur_radius=radius, r_low=r_low, r_high=r_high
    )
    got = frequency_variation_map(a, b, params).values
    assert got.tobytes() == _parent_recipe_map(a, b, params).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    h=st.one_of(st.integers(1, 64), st.sampled_from([2, 3, 5, 7, 31, 61])),
    w=st.one_of(st.integers(1, 64), st.sampled_from([2, 3, 5, 7, 31, 61])),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=61, w=64, seed=0)
@example(h=64, w=1, seed=1)
def test_row_then_column_fft_is_fft2_bytewise(h, w, seed):
    """The map runs fft2's two passes itself, the column pass on some columns
    only. A NumPy whose fft2 is not these passes must fail here, not move
    verdicts."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (h, w)).astype(np.float32).astype(np.complex128)
    want = np.fft.fft2(x)
    rows = np.fft.fft(x, axis=1)
    assert np.fft.fft(rows, axis=0).tobytes() == want.tobytes()
    cols = np.unique(rng.integers(0, w, rng.integers(1, w + 1)))
    assert np.fft.fft(rows[:, cols], axis=0).tobytes() == want[:, cols].tobytes()
    # The same passes in place, as the map runs them.
    np.fft.fft(x, axis=1, out=x)
    part = x[:, cols]
    np.fft.fft(part, axis=0, out=part)
    assert part.tobytes() == want[:, cols].tobytes()


def test_bandpass_support():
    rng = np.random.default_rng(45)
    a = SpectralCube(rng.uniform(0, 1, (2, 13, 17)).astype(np.float32))
    b = SpectralCube(rng.uniform(0, 1, (2, 13, 17)).astype(np.float32))
    params = FreqParams()
    fv = frequency_variation_map(a, b, params)
    keep = _annulus_mask(13, 17, params.r_low, params.r_high)
    assert not fv.values[~keep].any()
    assert fv.values[keep].any()  # random cubes do differ in-band


def test_channel_max_dominance():
    rng = np.random.default_rng(46)
    a = SpectralCube(rng.uniform(0, 1, (3, 10, 10)).astype(np.float32))
    b = SpectralCube(rng.uniform(0, 1, (3, 10, 10)).astype(np.float32))
    params = FreqParams()
    fv = frequency_variation_map(a, b, params)
    keep = _annulus_mask(10, 10, params.r_low, params.r_high)
    for k in range(3):
        m1 = log_magnitude(centered_spectrum(a.data[k]), params.epsilon)
        m2 = log_magnitude(centered_spectrum(b.data[k]), params.epsilon)
        r = gaussian_blur(np.abs(m1 - m2), params.blur_sigma, params.blur_radius)
        assert np.all(fv.values[keep] >= r[keep])


def test_global_brightness_shift_removed_by_bandpass():
    c1 = _const_cube([0.4, 0.6], 128, 128)
    c2 = SpectralCube((c1.data.astype(np.float64) + 0.1).astype(np.float32))
    fv = frequency_variation_map(c1, c2)
    assert fv.values.max() < 1e-3


def test_sinusoid_peaks_at_quarter_frequency():
    h = w = 64
    c1 = _const_cube([0.5, 0.5], h, w)
    u = np.arange(h, dtype=np.float64)
    contaminated = c1.data.astype(np.float64).copy()
    contaminated[1] += (0.2 * np.sin(2 * np.pi * 0.25 * u))[:, None]
    c2 = SpectralCube(contaminated.astype(np.float32))
    fv = frequency_variation_map(c1, c2)
    # normalized frequency 0.25 along rows -> bins 16 above/below center
    peak = np.unravel_index(np.argmax(fv.values), fv.values.shape)
    assert peak in ((16, 32), (48, 32))
    assert abs(fv.values[16, 32] - fv.values[48, 32]) < 1e-12


def test_shape_mismatch_rejected():
    a = SpectralCube(np.zeros((1, 8, 8), dtype=np.float32))
    b = SpectralCube(np.zeros((1, 8, 9), dtype=np.float32))
    with pytest.raises(ShapeError):
        frequency_variation_map(a, b)


def test_map_type_rejects_non_2d():
    with pytest.raises(ShapeError):
        FrequencyVariationMap(np.zeros((2, 2, 2)))


# ------------------------------------------------------- classification


def test_all_zero_map_not_hard():
    fv = FrequencyVariationMap(np.zeros((8, 8)))
    v = classify_patch(fv, SelectionParams(t_var=0.5, t_cnt=0))
    assert v.count == 0 and not v.is_hard


def test_strict_count_and_threshold():
    values = np.zeros((10, 10))
    values.ravel()[:60] = 2.0
    fv = FrequencyVariationMap(values)
    assert classify_patch(fv, SelectionParams(1.0, 50)).is_hard
    assert not classify_patch(fv, SelectionParams(1.0, 60)).is_hard  # 60 > 60 fails
    # bins exactly at t_var do not count (strict >)
    at_threshold = FrequencyVariationMap(np.full((4, 4), 1.0))
    assert classify_patch(at_threshold, SelectionParams(1.0, 0)).count == 0


# Map values and t_var share one grid, and t_cnt spans every count a 4x4 map
# can reach, so bins equal to t_var and counts equal to t_cnt both occur.
_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    values=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=4),
                  elements=st.sampled_from(_GRID)),
    t_vars=st.lists(st.sampled_from(_GRID), min_size=2, max_size=2).map(sorted),
    t_cnts=st.lists(st.integers(0, 16), min_size=2, max_size=2).map(sorted),
)
@example(values=np.array([[1.0, 1.0], [2.0, 0.0]]), t_vars=[1.0, 1.0], t_cnts=[1, 1])
@example(values=np.array([[1.0, 2.0]]), t_vars=[0.5, 1.0], t_cnts=[1, 1])
def test_selection_is_monotone_in_both_thresholds(values, t_vars, t_cnts):
    fv = FrequencyVariationMap(values)
    low, high = (SelectionParams(tv, tc) for tv, tc in zip(t_vars, t_cnts))
    v_low, v_high = classify_patch(fv, low), classify_patch(fv, high)
    assert v_high.count <= v_low.count
    assert v_low.is_hard or not v_high.is_hard
    # each threshold raised on its own
    for one in (SelectionParams(t_vars[1], t_cnts[0]), SelectionParams(t_vars[0], t_cnts[1])):
        v = classify_patch(fv, one)
        assert v_high.count <= v.count <= v_low.count
        assert v_low.is_hard or not v.is_hard
        assert v.is_hard or not v_high.is_hard


def test_selection_params_validation():
    with pytest.raises(ValueError):
        SelectionParams(t_var=-0.1)
    with pytest.raises(ValueError):
        SelectionParams(t_cnt=-1)
    for t_cnt in (True, 5.0, 2.5):  # not taken as 1 or 5
        with pytest.raises(ValueError, match="t_cnt must be an integer >= 0"):
            SelectionParams(t_cnt=t_cnt)
    with pytest.raises(ValueError):
        FreqParams(r_low=0.6, r_high=0.5)
    # A bool is a slip, not 1.0 or 0.0, in every float field.
    for field in ("epsilon", "blur_sigma", "r_low", "r_high"):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                FreqParams(**{field: flag})
    for flag in (True, False):
        with pytest.raises(ValueError, match="^t_var must be"):
            SelectionParams(t_var=flag)
    # An infinite or NaN guard or width gives NaN bins, not a map.
    for field in ("epsilon", "blur_sigma"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
                FreqParams(**{field: value})


# ---------------------------------------------------------- select_hard


def _sinusoid_fixture(n_pairs=20, h=128, w=128, bands=4, contaminated_index=7):
    """n identical constant pairs except one whose comparison cube carries an
    additive mid-frequency sinusoid in a single band."""
    rng = np.random.default_rng(47)
    consts = rng.uniform(0.2, 0.8, size=bands)
    clean = _const_cube(consts, h, w)
    u = np.arange(h, dtype=np.float64)
    bad = clean.data.astype(np.float64).copy()
    bad[1] += (0.2 * np.sin(2 * np.pi * 0.25 * u))[:, None]
    contaminated = SpectralCube(bad.astype(np.float32))
    pairs = []
    for i in range(n_pairs):
        pairs.append((clean, contaminated if i == contaminated_index else clean))
    return pairs


def test_identical_pairs_select_nothing():
    rng = np.random.default_rng(48)
    c = SpectralCube(rng.uniform(0, 1, (2, 32, 32)).astype(np.float32))
    verdicts = select_hard([(c, c)] * 20)
    assert len(verdicts) == 20
    assert not any(v.is_hard for v in verdicts)
    assert all(v.count == 0 for v in verdicts)


def test_single_contaminated_pair_selected():
    verdicts = select_hard(_sinusoid_fixture())
    assert [i for i, v in enumerate(verdicts) if v.is_hard] == [7]
    assert verdicts[7].count > SelectionParams().t_cnt
    assert all(v.count == 0 for i, v in enumerate(verdicts) if i != 7)


def test_raising_t_cnt_never_grows_hard_set():
    pairs = _sinusoid_fixture(n_pairs=4, h=32, w=32, contaminated_index=2)
    previous = None
    for t_cnt in (0, 2, 5, 8, 50):
        verdicts = select_hard(pairs, sparams=SelectionParams(1.0, t_cnt))
        hard = {i for i, v in enumerate(verdicts) if v.is_hard}
        if previous is not None:
            assert hard <= previous
        previous = hard


def test_malformed_pair_reports_index():
    good = SpectralCube(np.zeros((1, 16, 16), dtype=np.float32))
    bad = SpectralCube(np.zeros((1, 16, 17), dtype=np.float32))
    with pytest.raises(ShapeError, match="pair 2"):
        select_hard([(good, good), (good, good), (good, bad)])


def test_count_distribution_summary():
    d = count_distribution([0, 0, 0, 0, 0, 0, 0, 0, 0, 100])
    assert d["n"] == 10 and d["max"] == 100 and d["min"] == 0
    assert d["p50"] == 0.0 and d["mean"] == 10.0
    with pytest.raises(ValueError):
        count_distribution([])
