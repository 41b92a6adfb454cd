import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmosaic import (
    DegenerateInputError,
    ImageMetrics,
    MetricReport,
    ShapeError,
    SpectralCube,
    evaluate_dataset,
    metrics,
    psnr,
    sam,
    ssim,
)

from oracles import (
    BAND_MODES,
    gauss_taps,
    psnr_oracle,
    sam_oracle,
    same_bytes_and_nans,
    ssim_oracle,
    two_axis_taps,
    with_band_mode,
)

def _rand_pair(rng, shape=(4, 16, 16)):
    a = rng.uniform(0, 1, shape)
    b = rng.uniform(0, 1, shape)
    return a, b


# ------------------------------------------------------------------ psnr


def test_psnr_matches_oracle():
    rng = np.random.default_rng(50)
    for _ in range(20):
        a, b = _rand_pair(rng, (3, 8, 8))
        assert abs(psnr(a, b) - psnr_oracle(a, b)) < 1e-9


def test_psnr_identity_is_positive_infinity():
    a = np.random.default_rng(51).uniform(0, 1, (2, 6, 6))
    assert psnr(a, a) == math.inf


def test_psnr_uniform_offset_closed_form():
    rng = np.random.default_rng(52)
    a = rng.uniform(0, 0.5, (4, 8, 8))
    assert abs(psnr(a + 0.1, a) - 20.0) < 1e-9
    assert abs(psnr(a + 0.01, a) - 40.0) < 1e-9


def test_psnr_peak_shift():
    rng = np.random.default_rng(53)
    a, b = _rand_pair(rng, (2, 5, 5))
    delta = psnr(a, b, peak=2.0) - psnr(a, b, peak=1.0)
    assert abs(delta - 10 * math.log10(4.0)) < 1e-12


def test_psnr_symmetry_bitwise():
    rng = np.random.default_rng(54)
    a, b = _rand_pair(rng)
    assert psnr(a, b) == psnr(b, a)


def test_psnr_rejects_bad_inputs():
    a = np.zeros((2, 4, 4))
    with pytest.raises(ShapeError):
        psnr(a, np.zeros((2, 4, 5)))
    with pytest.raises(ValueError):
        psnr(a, a, peak=0.0)


def test_psnr_accepts_cubes():
    c = SpectralCube(np.full((1, 4, 4), 0.25, dtype=np.float32))
    assert psnr(c, c) == math.inf


# ------------------------------------------------------------------ ssim


def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(55)
    a = rng.uniform(0, 1, (3, 16, 16))
    assert ssim(a, a) == 1.0
    c = SpectralCube(rng.uniform(0, 1, (2, 11, 11)).astype(np.float32))
    assert ssim(c, c) == 1.0


@settings(max_examples=50, deadline=None)
@given(
    bands=st.integers(1, 4),
    h=st.integers(11, 40),
    w=st.integers(11, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_ssim_identity_property(bands, h, w, seed):
    a = np.random.default_rng(seed).uniform(0, 1, (bands, h, w)).astype(np.float32)
    assert ssim(a, a) == 1.0


@settings(max_examples=50, deadline=None)
@given(
    bands=st.integers(1, 4),
    h=st.integers(11, 40),
    w=st.integers(11, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_ssim_symmetry_property(bands, h, w, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 1, (2, bands, h, w)).astype(np.float32)
    assert ssim(a, b) == ssim(b, a)
    assert ssim(a, a.copy()) == 1.0  # equal values, not only the same object


def test_ssim_matches_windowed_oracle():
    rng = np.random.default_rng(56)
    for _ in range(5):
        a, b = _rand_pair(rng, (4, 16, 16))
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-7


def test_ssim_constant_pair_closed_form():
    x = np.full((1, 12, 12), 0.3)
    y = np.full((1, 12, 12), 0.5)
    c1 = 0.01**2
    want = (2 * 0.3 * 0.5 + c1) / (0.3**2 + 0.5**2 + c1)
    assert abs(ssim(x, y) - want) < 1e-12


# Rows and columns of this pair span several product blocks and chunks, and
# end in a short block.
_SSIM_300 = (
    "import numpy as np\n"
    "from specmosaic import ssim\n"
    "a, b = np.random.default_rng(71).uniform(0, 1, (2, 3, 300, 300)).astype(np.float32)\n"
    "score = np.float64(ssim(a, b)).tobytes()\n"
)


def test_ssim_bits_do_not_depend_on_blas_threads_or_fork():
    scope = {}
    exec(_SSIM_300, scope)
    want = scope["score"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _SSIM_300 + "print(score.hex())"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert bytes.fromhex(proc.stdout) == want, threads
    if hasattr(os, "fork"):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child scores the pair again and leaves at once
            code = 1
            try:
                os.close(r)
                exec(_SSIM_300, scope)
                os.write(w, scope["score"])
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r, "rb") as pipe:
            got = pipe.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert got == want


def test_ssim_products_stay_on_the_calling_blas_thread():
    # OpenBLAS (0.3.31) runs a gemm on the calling thread while m*n*k is at
    # most 65536 * GEMM_MULTITHREAD_THRESHOLD (4), that is 2**18. Above it a
    # second thread doubles the CPU time for no wall time, and forked workers
    # would each run two threads.
    assert metrics._KB.shape == (metrics._BLOCK, metrics._BLOCK + 10)
    assert metrics._BLOCK * (metrics._BLOCK + 10) * metrics._CHUNK <= 2**18


def test_ssim_below_one_for_distinct_inputs():
    rng = np.random.default_rng(57)
    a, b = _rand_pair(rng)
    assert ssim(a, b) < 1.0


@pytest.mark.parametrize("score", [psnr, ssim, sam], ids=["psnr", "ssim", "sam"])
def test_scores_reject_a_2d_array(score):
    flat = np.zeros((16, 16))
    with pytest.raises(ShapeError, match=r"^a must be a cube \(bands, height, width\), "
                                         r"got shape \(16, 16\)$"):
        score(flat, flat)


def test_ssim_requires_window_sized_images():
    a = np.zeros((1, 10, 16))
    with pytest.raises(ShapeError):
        ssim(a, a)


# ------------------------------------------------------------------- sam


def test_sam_matches_oracle():
    rng = np.random.default_rng(58)
    for _ in range(20):
        a, b = _rand_pair(rng, (6, 5, 5))
        assert abs(sam(a, b) - sam_oracle(a, b)) < 1e-9


def test_sam_identity_and_positive_scaling_exact_zero():
    rng = np.random.default_rng(59)
    a = rng.uniform(0.1, 1, (4, 7, 7))
    assert sam(a, a) == 0.0
    assert sam(a, 2.0 * a) == 0.0
    assert sam(a, 0.5 * a) == 0.0


def test_sam_right_angle_and_opposite():
    up = np.zeros((2, 3, 3))
    up[0] = 1.0
    right = np.zeros((2, 3, 3))
    right[1] = 1.0
    assert abs(sam(up, right) - 90.0) < 1e-12
    assert abs(sam(up, -up) - 180.0) < 1e-12


def test_sam_symmetry_bitwise():
    rng = np.random.default_rng(60)
    a, b = _rand_pair(rng, (5, 6, 6))
    assert sam(a, b) == sam(b, a)


def test_sam_skips_zero_norm_pixels():
    rng = np.random.default_rng(61)
    a = rng.uniform(0.1, 1, (3, 4, 4))
    b = rng.uniform(0.1, 1, (3, 4, 4))
    a[:, 0, 0] = 0.0  # excluded from the mean
    assert abs(sam(a, b) - sam_oracle(a, b)) < 1e-9


def test_sam_all_zero_degenerate():
    z = np.zeros((3, 4, 4))
    with pytest.raises(DegenerateInputError):
        sam(z, z)


# ------------------------------------------- band-by-band scores keep bits


# The cube-wide float64 formulas the band-by-band kernels replaced, with
# SSIM's filter as the tap loop over strided views and its quotient built in
# fresh temporaries.
def _cube_psnr(a, b):
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else float(10.0 * np.log10(1.0 / mse))


def _cube_ssim(a, b):
    af, bf = a.astype(np.float64), b.astype(np.float64)
    kernel = gauss_taps(1.5, 5)
    c1, c2 = 0.01**2, 0.03**2
    per_band = np.empty(af.shape[0])
    for k in range(af.shape[0]):
        x, y = af[k], bf[k]
        mx, my = two_axis_taps(x, kernel), two_axis_taps(y, kernel)
        mxy = mx * my
        mm = mx * mx + my * my
        sxy = two_axis_taps(x * y, kernel) - mxy
        ss = two_axis_taps(x * x + y * y, kernel) - mm
        per_band[k] = np.mean((2.0 * mxy + c1) * (2.0 * sxy + c2) / ((mm + c1) * (ss + c2)))
    return float(np.mean(per_band))


def _cube_sam(a, b):
    af, bf = a.astype(np.float64), b.astype(np.float64)
    daa, dbb = np.sum(af * af, axis=0), np.sum(bf * bf, axis=0)
    dab = np.sum(af * bf, axis=0)
    valid = (np.sqrt(daa) >= 1e-12) & (np.sqrt(dbb) >= 1e-12)
    if not valid.any():
        raise DegenerateInputError("no pixel has both spectra above the norm guard")
    cos = dab[valid] / np.sqrt(daa[valid] * dbb[valid])
    return float(np.mean(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))))


@settings(max_examples=60, deadline=None)
@given(
    bands=st.integers(1, 6),
    h=st.integers(11, 24),
    w=st.integers(11, 24),
    dtype=st.sampled_from([np.float32, np.float64]),
    kind=st.sampled_from([*BAND_MODES, "zero_pixels", "all_zero"]),
    seed=st.integers(0, 2**32 - 1),
)
# Over 8192 valid windows, a mean over a strided view would sum in buffered
# chunks rather than pairwise over the whole band.
@example(bands=1, h=120, w=121, dtype=np.float64, kind="none", seed=0)
@example(bands=3, h=16, w=17, dtype=np.float32, kind="signed_zeros", seed=1)
@example(bands=2, h=16, w=16, dtype=np.float64, kind="nan_band", seed=2)
@example(bands=2, h=16, w=16, dtype=np.float32, kind="inf_band", seed=3)
def test_scores_equal_cube_wide_formulas_bitwise(bands, h, w, dtype, kind, seed):
    """PSNR and SAM bit for bit, SSIM within 1e-14, and NaN exactly where the
    formula is NaN.

    SSIM filters as banded matrix products, whose fused multiply-adds round
    differently from the tap loop: the largest move seen over 3000 random
    draws was 1.6e-16. Ulps are the wrong measure there, since a mean near 0
    moved by thousands of them."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-0.2, 1.2, (2, bands, h, w)).astype(dtype)
    if kind == "zero_pixels":  # some pixels fall below SAM's norm guard
        a[:, rng.uniform(size=(h, w)) < 0.5] = 0
    elif kind == "all_zero":
        a[...] = 0
    else:
        a, b = with_band_mode(a, b, kind, seed)
    for new, old in ((psnr, _cube_psnr), (ssim, _cube_ssim), (sam, _cube_sam)):
        with np.errstate(invalid="ignore"):  # inf - inf and NaN moments
            try:
                want = old(a, b)
            except DegenerateInputError:
                with pytest.raises(DegenerateInputError):
                    new(a, b)
                continue
            got = new(a, b)
        if new is ssim:
            assert math.isnan(got) == math.isnan(want)
            assert math.isnan(want) or abs(got - want) <= 1e-14
        else:
            assert same_bytes_and_nans(np.float64(got), np.float64(want)), new.__name__


# ------------------------------------------------------- dataset reports


def test_evaluate_dataset_means():
    rng = np.random.default_rng(62)
    base = rng.uniform(0, 0.5, (4, 16, 16))
    report = evaluate_dataset([(base + 0.1, base), (base + 0.01, base)])
    assert abs(report.mean_psnr - 30.0) < 1e-9
    assert len(report.per_image) == 2
    assert report.per_image[0].index == 0
    assert abs(report.per_image[0].psnr - 20.0) < 1e-9
    assert abs(report.per_image[1].psnr - 40.0) < 1e-9
    assert report.peak == 1.0


def test_evaluate_dataset_identity_pair_sentinels():
    rng = np.random.default_rng(63)
    a = rng.uniform(0, 1, (2, 16, 16))
    report = evaluate_dataset([(a, a)])
    m = report.per_image[0]
    assert m.psnr == math.inf and m.ssim == 1.0 and m.sam == 0.0
    assert report.mean_psnr == math.inf


def test_evaluate_dataset_error_names_pair_index():
    a = np.zeros((2, 16, 16)) + 0.5
    bad = np.zeros((2, 16, 17)) + 0.5
    with pytest.raises(ShapeError, match="record 1"):
        evaluate_dataset([(a, a), (a, bad)])


def test_empty_report_rejected():
    with pytest.raises(DegenerateInputError):
        evaluate_dataset([])


def test_report_json_round_trip_with_infinity():
    report = MetricReport(
        per_image=(ImageMetrics(index=0, psnr=math.inf, ssim=1.0, sam=0.0),),
        mean_psnr=math.inf,
        mean_ssim=1.0,
        mean_sam=0.0,
        peak=1.0,
        tool_version="specmosaic test",
    )
    text = report.to_json()
    parsed = json.loads(text)
    assert parsed["mean_psnr"] == math.inf
    assert parsed["per_image"][0]["psnr"] == math.inf
    assert list(parsed) == [
        "per_image",
        "mean_psnr",
        "mean_ssim",
        "mean_sam",
        "peak",
        "tool_version",
    ]
    assert list(parsed["per_image"][0]) == ["index", "psnr", "ssim", "sam"]
