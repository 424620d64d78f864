import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtv.adapt import _EPS_FLOOR, _alpha_from_norms, update_mu
from hwtv.linops import gradient, pointwise_norm

from half_laplacian import sample_half_laplacian


class TestEstimateAlpha:
    """The weights of an image u: _alpha_from_norms(pointwise_norm(gradient(u), p), ...)."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("r", [1, 3, 7])
    def test_weights_within_floor_cap(self, p, r):
        # 0 < alpha <= 1 / _EPS_FLOOR, from smooth through rough images
        rng = np.random.default_rng(50 + 10 * p + r)
        for scale in (0.0, 1e-3, 1e-2, 1.0, 1e3):
            u = 0.5 + scale * rng.standard_normal((20, 24))
            alpha = _alpha_from_norms(pointwise_norm(gradient(u), p), r)
            assert alpha.shape == u.shape
            assert np.all(alpha > 0.0)
            assert np.all(alpha <= 1.0 / _EPS_FLOOR)

    @pytest.mark.parametrize("shape", [(37, 45), (15, 9), (12, 16)])
    def test_out_gives_allocating_bits(self, shape):
        # written over the mean in out, the bits of the allocating form; the
        # buffers start as NaN, so no stale value may reach the weights. out
        # may also be the norms themselves, as the weight refresh gives it,
        # also for a constant raster, whose transforms round off it. The
        # scratch is the complex rfft2 half spectrum.
        norms = np.abs(np.random.default_rng(47).standard_normal(shape))
        half = (shape[0], shape[1] // 2 + 1)
        for r in range(1, (min(shape) - 1) // 2 + 1):
            out, scratch = np.full(shape, np.nan), np.full(half, np.nan, complex)
            assert _alpha_from_norms(norms, r, out=out, scratch=scratch) is out
            assert np.array_equal(out, _alpha_from_norms(norms, r))
            for arr in (norms, np.full(shape, 0.1)):
                inplace, scratch = arr.copy(), np.full(half, np.nan, complex)
                assert _alpha_from_norms(inplace, r, out=inplace, scratch=scratch) is inplace
                assert np.array_equal(inplace, _alpha_from_norms(arr, r))

    def test_constant_norm_raster_gives_reciprocal(self):
        c = 0.25
        norms = np.full((16, 16), c)
        alpha = _alpha_from_norms(norms, r=3)
        assert np.allclose(alpha, 1.0 / c, atol=1e-12)

    def test_checkerboard_constant_gradient_norm(self):
        # even-sized checkerboard: |h| = |v| = c at every pixel, wrap included
        c = 0.2
        rows = np.arange(16)[:, None]
        cols = np.arange(16)[None, :]
        board = c * ((rows + cols) % 2).astype(np.float64)
        alpha = _alpha_from_norms(pointwise_norm(gradient(board), 1), 2)
        assert np.allclose(alpha, 1.0 / (2.0 * c), atol=1e-10)

    def test_constant_image_hits_clamp(self):
        # the weight floor is a constant, 1e-4, so no weight exceeds 1e4
        assert _EPS_FLOOR == 1e-4
        flat = np.full((16, 16), 0.6)
        alpha = _alpha_from_norms(pointwise_norm(gradient(flat), 2), 3)
        assert np.all(alpha == 1e4)

    def test_pooled_rate_estimate_within_two_percent(self):
        rate = 2.5
        samples = sample_half_laplacian(rate, 320 * 320, seed=2024)
        norms = samples.reshape(320, 320)
        pooled = 1.0 / norms.mean()
        assert abs(pooled - rate) / rate <= 0.02

    def test_intensity_scale_covariance(self):
        rng = np.random.default_rng(51)
        u = rng.uniform(0.2, 0.8, (20, 20))
        a1 = _alpha_from_norms(pointwise_norm(gradient(u), 2), 2)
        a2 = _alpha_from_norms(pointwise_norm(gradient(3.0 * u), 2), 2)
        # the floor binds nowhere, so the weights are plain reciprocal means
        assert max(a1.max(), a2.max()) < 1.0 / _EPS_FLOOR
        assert np.allclose(a2, a1 / 3.0, rtol=1e-10)

    def test_p_selects_norm_flavor(self):
        rng = np.random.default_rng(52)
        u = rng.uniform(0, 1, (12, 12))
        a1 = _alpha_from_norms(pointwise_norm(gradient(u), 1), 2)
        a2 = _alpha_from_norms(pointwise_norm(gradient(u), 2), 2)
        assert max(a1.max(), a2.max()) < 1.0 / _EPS_FLOOR
        # the 1-norm dominates the 2-norm, so its weights are smaller
        assert np.all(a1 <= a2 + 1e-15)


class TestUpdateMu:
    DELTA = 1.0 * 0.1 * math.sqrt(64 * 64)

    def test_zero_at_delta(self):
        assert update_mu(self.DELTA, self.DELTA, beta_w=100.0) == 0.0

    def test_double_delta(self):
        assert update_mu(2.0 * self.DELTA, self.DELTA, beta_w=100.0) == pytest.approx(100.0)

    def test_continuity_at_threshold(self):
        eps = 1e-9 * self.DELTA
        assert update_mu(self.DELTA + eps, self.DELTA, beta_w=100.0) <= 1e-6 * 100.0

    def test_zero_on_interval_below_delta(self):
        for frac in (0.0, 0.3, 0.9999, 1.0):
            assert update_mu(frac * self.DELTA, self.DELTA, beta_w=50.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        z1=st.floats(min_value=0.0, max_value=1e6),
        z2=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_nondecreasing_in_z(self, z1, z2):
        lo, hi = sorted((z1, z2))
        assert update_mu(lo, self.DELTA, 100.0) <= update_mu(hi, self.DELTA, 100.0)

    @settings(max_examples=200, deadline=None)
    @given(
        tau1=st.floats(min_value=0.1, max_value=5.0),
        tau2=st.floats(min_value=0.1, max_value=5.0),
        z=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_nonincreasing_in_delta(self, tau1, tau2, z):
        lo, hi = sorted((tau1, tau2))
        d1, d2 = lo * 0.1 * math.sqrt(1024), hi * 0.1 * math.sqrt(1024)
        assert update_mu(z, d1, 100.0) >= update_mu(z, d2, 100.0)

    @settings(max_examples=200, deadline=None)
    @given(
        delta=st.floats(min_value=1e-100, max_value=1e100),
        beta_w=st.floats(min_value=1e-100, max_value=1e100),
        ratio=st.floats(min_value=0.0, max_value=1e30),
    )
    def test_multiplier_of_the_ball(self, delta, beta_w, ratio):
        # mu is the penalty weight whose w step scale equals the projection's
        # onto ||w|| <= delta, the scale restore hands the sweep.
        z = ratio * delta
        penalty = beta_w / (update_mu(z, delta, beta_w) + beta_w)
        ball = 1.0 if z <= delta else delta / z
        assert abs(penalty - ball) <= 4 * np.finfo(np.float64).eps * ball
        if z <= delta:
            assert penalty == 1.0


class TestHalfLaplacianSampler:
    def test_mean_close_to_reciprocal_rate(self):
        samples = sample_half_laplacian(1.0, 10**6, seed=7)
        assert 0.997 <= samples.mean() <= 1.003

    def test_support_nonnegative(self):
        samples = sample_half_laplacian(3.0, 10**4, seed=8)
        assert np.all(samples >= 0.0)

    def test_deterministic_per_seed(self):
        a = sample_half_laplacian(2.0, 1000, seed=9)
        b = sample_half_laplacian(2.0, 1000, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = sample_half_laplacian(2.0, 1000, seed=9)
        b = sample_half_laplacian(2.0, 1000, seed=10)
        assert not np.array_equal(a, b)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_half_laplacian(0.0, 10, seed=1)
        with pytest.raises(ValueError):
            sample_half_laplacian(1.0, 0, seed=1)
