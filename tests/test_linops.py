import numpy as np
import pytest

from hwtv.linops import (
    BlurSpec,
    blur_via_plan,
    box_mean,
    build_plan,
    divergence,
    gradient,
    half_spectrum_norm,
    make_kernel,
    pointwise_norm,
    spectral_step,
    step_factors,
)

from spatial_blur import circular_convolve, circular_correlate


def _img(arr):
    return np.asarray(arr, dtype=np.float64)


def _rand_img(rng, h, w):
    return rng.standard_normal((h, w))


def _rand_field(rng, h, w):
    return rng.standard_normal((h, w)), rng.standard_normal((h, w))


def _inner_field(t1, t2):
    return float(np.sum(t1[0] * t2[0]) + np.sum(t1[1] * t2[1]))


def _plan_for(u, spec):
    return build_plan(u.shape[1], u.shape[0], spec)


def _blur_from_step(plan, spectrum, shape):
    # Ku read from the solution spectrum U that spectral_step returns: K U.
    return np.fft.irfft2(spectrum * plan.eigen_K, s=shape)


class TestGradient:
    def test_constant_image_zero_field(self):
        h, v = gradient(_img(np.full((6, 7), 0.3)))
        assert np.all(h == 0.0)
        assert np.all(v == 0.0)

    def test_periodic_wrap_row(self):
        a, b, c = 0.1, 0.5, 0.4
        h, v = gradient(_img([[a, b, c]]))
        assert np.allclose(h, [[b - a, c - b, a - c]])
        assert np.all(v == 0.0)

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(21)
        u = _rand_img(rng, 5, 5)
        h, v = gradient(u)
        for y in range(5):
            for x in range(5):
                assert h[y, x] == u[y, (x + 1) % 5] - u[y, x]
                assert v[y, x] == u[(y + 1) % 5, x] - u[y, x]


class TestDivergence:
    def test_zero_field(self):
        out = divergence((np.zeros((4, 4)), np.zeros((4, 4))))
        assert np.all(out == 0.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            u = _rand_img(rng, 7, 7)
            t = _rand_field(rng, 7, 7)
            lhs = _inner_field(gradient(u), t)
            rhs = float(np.sum(u * divergence(t)))
            scale = np.linalg.norm(u) * np.hypot(np.linalg.norm(t[0]), np.linalg.norm(t[1]))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_divergence_of_constant_gradient_is_zero(self):
        out = divergence(gradient(_img(np.full((5, 8), 1.7))))
        assert np.allclose(out, 0.0, atol=1e-15)


SHAPES = [(37, 45), (15, 9), (1, 16), (16, 1)]


def _roll_gradient(u):
    return np.roll(u, -1, axis=1) - u, np.roll(u, -1, axis=0) - u


def _roll_divergence(t):
    h, v = t
    return (np.roll(h, 1, axis=1) - h) + (np.roll(v, 1, axis=0) - v)


def _reference_norm(t, p):
    h, v = t
    if p == 1:
        return np.abs(h) + np.abs(v)
    out = h * h
    out += v * v
    return np.sqrt(out)


@pytest.mark.parametrize("shape", SHAPES)
class TestOutPrimitives:
    # Written into out=, each primitive gives the bits of its allocating form
    # and of the np.roll reference it replaced.
    def test_gradient(self, shape):
        u = _rand_img(np.random.default_rng(40), *shape)
        out = np.empty(shape), np.empty(shape)
        assert gradient(u, out=out) is out
        for got, alloc, ref in zip(out, gradient(u), _roll_gradient(u)):
            assert np.array_equal(got, alloc)
            assert np.array_equal(got, ref)

    def test_divergence(self, shape):
        t = _rand_field(np.random.default_rng(41), *shape)
        out = np.empty(shape)
        assert divergence(t, out=out) is out
        assert np.array_equal(out, divergence(t))
        assert np.array_equal(out, _roll_divergence(t))
        # the separately rounded term in caller-supplied scratch
        out = np.full(shape, np.nan)
        assert divergence(t, out=out, scratch=np.empty(shape)) is out
        assert np.array_equal(out, _roll_divergence(t))

    @pytest.mark.parametrize("p", [1, 2])
    def test_pointwise_norm(self, shape, p):
        t = _rand_field(np.random.default_rng(42), *shape)
        out = np.empty(shape)
        assert pointwise_norm(t, p, out=out) is out
        assert np.array_equal(out, pointwise_norm(t, p))
        assert np.array_equal(out, _reference_norm(t, p))
        out = np.full(shape, np.nan)
        assert pointwise_norm(t, p, out=out, scratch=np.empty(shape)) is out
        assert np.array_equal(out, _reference_norm(t, p))


# Odd and even widths, with room for a window wider than 3.
BOX_SHAPES = [(37, 45), (15, 9), (12, 16), (9, 8)]


@pytest.mark.parametrize("shape", BOX_SHAPES)
class TestOutWorkspace:
    # The per-restore workspace forms: written through out=, the same bits
    # as the allocating form, into the given buffers.
    def test_box_mean(self, shape):
        height, width = shape
        norms = np.abs(_rand_img(np.random.default_rng(45), *shape))
        for r in range(1, (min(shape) - 1) // 2 + 1):
            out = (np.empty(shape), np.empty(shape),
                   np.empty(height * width + 2 * r * max(shape)))
            assert box_mean(norms, r, out=out) is out[0]
            assert np.array_equal(out[0], box_mean(norms, r))

    @pytest.mark.parametrize("spec", [BlurSpec(band=1), BlurSpec(band=5, sigma=1.0)])
    def test_spectral_step(self, shape, spec):
        rng = np.random.default_rng(46)
        plan = build_plan(shape[1], shape[0], spec)
        d, v = _rand_img(rng, *shape), _rand_img(rng, *shape)
        factors = step_factors(plan, 5.0)
        out = np.empty(shape), np.empty((shape[0], shape[1] // 2 + 1), complex)
        assert spectral_step(d, np.fft.rfft2(v), factors, out=out) is out
        for got, alloc in zip(out, spectral_step(d, np.fft.rfft2(v), factors)):
            assert np.array_equal(got, alloc)


class TestKernel:
    def test_identity_spec(self):
        # Band 1 is K = I whatever the sigma.
        for sigma in (1e-3, 1.0, 1e6):
            assert np.array_equal(make_kernel(BlurSpec(band=1, sigma=sigma)), [[1.0]])

    def test_flat_limit(self):
        kernel = make_kernel(BlurSpec(band=3, sigma=1e6))
        assert np.allclose(kernel, 1.0 / 9.0, atol=1e-9)

    def test_center_entry_against_scalar_oracle(self):
        band, sigma = 5, 1.0
        total = 0.0
        for i in range(-2, 3):
            for j in range(-2, 3):
                total += np.exp(-(i * i + j * j) / (2.0 * sigma * sigma))
        kernel = make_kernel(BlurSpec(band=band, sigma=sigma))
        assert kernel[2, 2] == pytest.approx(1.0 / total, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_sigma_rejected(self, bad):
        # a NaN or infinite width would give a NaN or box kernel; band 1 is
        # checked as well
        for band in (5, 1):
            with pytest.raises(ValueError, match="sigma"):
                BlurSpec(band=band, sigma=bad)

    def test_even_band_rejected(self):
        # an even, fractional, float-typed, non-finite or bool band is not a
        # kernel size
        for band in (4, 4.5, 3.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="odd positive integer"):
                BlurSpec(band=band, sigma=1.0)

    def test_normalized(self):
        kernel = make_kernel(BlurSpec(band=7, sigma=2.0))
        assert kernel.min() >= 0.0
        assert kernel.sum() == pytest.approx(1.0, abs=1e-14)


class TestBlur:
    def test_identity_returns_input(self):
        rng = np.random.default_rng(23)
        u = _rand_img(rng, 6, 6)
        out = blur_via_plan(_plan_for(u, BlurSpec(band=1)), u)
        assert np.allclose(out, u, atol=1e-13)

    def test_constant_preserved(self):
        u = _img(np.full((8, 8), 0.42))
        out = blur_via_plan(_plan_for(u, BlurSpec(band=5, sigma=1.0)), u)
        assert np.allclose(out, 0.42, atol=1e-13)

    def test_matches_spatial_oracle(self):
        rng = np.random.default_rng(24)
        u = _rand_img(rng, 8, 8)
        spec = BlurSpec(band=3, sigma=0.8)
        expected = circular_convolve(u, make_kernel(spec))
        assert np.allclose(blur_via_plan(_plan_for(u, spec), u), expected, atol=1e-10)

    def test_linear(self):
        rng = np.random.default_rng(25)
        u, v = _rand_img(rng, 8, 8), _rand_img(rng, 8, 8)
        plan = _plan_for(u, BlurSpec(band=5, sigma=1.0))
        lhs = blur_via_plan(plan, 2.0 * u - 3.0 * v)
        rhs = 2.0 * blur_via_plan(plan, u) - 3.0 * blur_via_plan(plan, v)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ValueError):
            _plan_for(_img(np.zeros((3, 3))), BlurSpec(band=5, sigma=1.0))

    def test_adjoint_equals_forward_for_symmetric_kernel(self):
        rng = np.random.default_rng(26)
        u = _rand_img(rng, 8, 8)
        spec = BlurSpec(band=5, sigma=1.0)
        adjoint = circular_correlate(u, make_kernel(spec))
        assert np.allclose(adjoint, blur_via_plan(_plan_for(u, spec), u), atol=1e-13)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(27)
        spec = BlurSpec(band=3, sigma=0.7)
        plan = build_plan(6, 6, spec)
        for _ in range(50):
            u, w = _rand_img(rng, 6, 6), _rand_img(rng, 6, 6)
            lhs = float(np.sum(blur_via_plan(plan, u) * w))
            rhs = float(np.sum(u * circular_correlate(w, make_kernel(spec))))
            scale = np.linalg.norm(u) * np.linalg.norm(w)
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestSpectralPlan:
    def test_dtd_symbol_zero_at_dc(self):
        plan = build_plan(8, 6, BlurSpec(band=1))
        assert plan.eigen_DtD[0, 0] == 0.0
        assert np.all(plan.eigen_DtD.ravel()[1:] > 0.0)

    def test_identity_eigenvalues_are_one(self):
        # Exactly, at odd and even sizes: restore treats band 1 as K = I to
        # the bit.
        for width, height in ((5, 5), (8, 8), (45, 37), (9, 15), (16, 1), (256, 256)):
            plan = build_plan(width, height, BlurSpec(band=1))
            assert plan.eigen_K.shape == (height, width // 2 + 1)
            assert np.all(plan.eigen_K.real == 1.0)
            assert np.all(plan.eigen_K.imag == 0.0)

    def test_otf_magnitude_at_most_one(self):
        plan = build_plan(16, 16, BlurSpec(band=5, sigma=1.0))
        assert np.max(np.abs(plan.eigen_K)) <= 1.0 + 1e-12

    def test_plan_blur_matches_spatial_oracle(self):
        rng = np.random.default_rng(29)
        u = _rand_img(rng, 16, 16)
        spec = BlurSpec(band=5, sigma=1.0)
        plan = build_plan(16, 16, spec)
        expected = circular_convolve(u, make_kernel(spec))
        assert np.allclose(blur_via_plan(plan, u), expected, atol=1e-10)

    @pytest.mark.parametrize(
        "spec", [BlurSpec(band=1), BlurSpec(band=3, sigma=0.5), BlurSpec(band=9, sigma=3.0)]
    )
    @pytest.mark.parametrize("ratio", [1e-6, 1.0, 5.0, 1e6])
    def test_solve_denominator_strictly_positive(self, spec, ratio):
        plan = build_plan(12, 10, spec)
        denom = plan.eigen_DtD + ratio * np.abs(plan.eigen_K) ** 2
        assert denom.min() > 0.0


class TestSpectralStep:
    def test_recovers_forward_operator_input(self):
        rng = np.random.default_rng(30)
        spec = BlurSpec(band=3, sigma=1.0)
        plan = build_plan(8, 8, spec)
        ratio = 5.0
        u0 = _rand_img(rng, 8, 8)
        solved, spectrum = spectral_step(
            divergence(gradient(u0)),
            np.fft.rfft2(blur_via_plan(plan, u0)),
            step_factors(plan, ratio),
        )
        assert np.allclose(solved, u0, atol=1e-9)
        blurred = _blur_from_step(plan, spectrum, u0.shape)
        assert np.allclose(blurred, blur_via_plan(plan, u0), atol=1e-9)

    def test_dc_algebra_identity_blur(self):
        plan = build_plan(6, 6, BlurSpec(band=1))
        u, spectrum = spectral_step(
            _img(np.full((6, 6), 0.7)),
            np.zeros((6, 4), dtype=complex),
            step_factors(plan, 1.0),
        )
        assert np.allclose(u, 0.7, atol=1e-13)
        assert np.allclose(_blur_from_step(plan, spectrum, u.shape), 0.7, atol=1e-13)

    def test_residual_bound(self):
        rng = np.random.default_rng(31)
        spec = BlurSpec(band=5, sigma=1.0)
        kernel = make_kernel(spec)
        plan = build_plan(16, 16, spec)
        ratio = 100.0 / 20.0
        for _ in range(50):
            d, v = _rand_img(rng, 16, 16), _rand_img(rng, 16, 16)
            rhs = d + ratio * circular_correlate(v, kernel)
            u, _ = spectral_step(d, np.fft.rfft2(v), step_factors(plan, ratio))
            applied = divergence(gradient(u)) + ratio * circular_correlate(
                blur_via_plan(plan, u), kernel
            )
            residual = np.linalg.norm(applied - rhs)
            assert residual <= 1e-10 * np.linalg.norm(rhs)

    def test_zero_rhs_gives_zero(self):
        plan = build_plan(4, 4, BlurSpec(band=1))
        u, spectrum = spectral_step(
            _img(np.zeros((4, 4))),
            np.zeros((4, 3), dtype=complex),
            step_factors(plan, 2.0),
        )
        assert np.all(u == 0.0)
        assert np.all(spectrum == 0.0)

def _three_solve_reference(spec, d, v, ratio):
    # The u-step as three full-spectrum complex fft2/ifft2 pairs: K^T v,
    # then the division, then K u.
    h, w = d.shape
    kernel = make_kernel(spec)
    kh, kw = kernel.shape
    padded = np.zeros((h, w))
    padded[:kh, :kw] = kernel
    eigen_k = np.fft.fft2(np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1)))
    sym_x = 4.0 * np.sin(np.pi * np.arange(w) / w) ** 2
    sym_y = 4.0 * np.sin(np.pi * np.arange(h) / h) ** 2
    denom = sym_y[:, None] + sym_x[None, :] + ratio * np.abs(eigen_k) ** 2
    rhs = d + ratio * np.fft.ifft2(np.fft.fft2(v) * np.conj(eigen_k)).real
    u = np.fft.ifft2(np.fft.fft2(rhs) / denom).real
    return u, np.fft.ifft2(np.fft.fft2(u) * eigen_k).real


@pytest.mark.parametrize("spec", [BlurSpec(band=1), BlurSpec(band=5, sigma=1.0)])
@pytest.mark.parametrize("height,width", [(37, 45), (15, 9)])
class TestHalfSpectrum:
    # Odd widths are the sizes an irfft2 without its output shape gets wrong.
    def test_blur_matches_spatial_oracle(self, spec, height, width):
        u = _rand_img(np.random.default_rng(34), height, width)
        plan = build_plan(width, height, spec)
        assert plan.eigen_K.shape == plan.eigen_DtD.shape == (height, width // 2 + 1)
        out = blur_via_plan(plan, u)
        assert out.shape == u.shape
        assert np.allclose(out, circular_convolve(u, make_kernel(spec)), rtol=0, atol=1e-12)

    def test_step_blur_matches_blur_via_plan(self, spec, height, width):
        rng = np.random.default_rng(35)
        d, v = _rand_img(rng, height, width), _rand_img(rng, height, width)
        plan = build_plan(width, height, spec)
        u, spectrum = spectral_step(d, np.fft.rfft2(v), step_factors(plan, 5.0))
        blurred = _blur_from_step(plan, spectrum, d.shape)
        assert u.shape == blurred.shape == d.shape
        expected = blur_via_plan(plan, u)
        assert np.linalg.norm(blurred - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_step_matches_three_solve_reference(self, spec, height, width):
        # Same solve, different transforms: agreement to 1e-12 relative.
        rng = np.random.default_rng(36)
        plan = build_plan(width, height, spec)
        for ratio in (1e-3, 5.0, 1e3):
            d, v = _rand_img(rng, height, width), _rand_img(rng, height, width)
            u, spectrum = spectral_step(d, np.fft.rfft2(v), step_factors(plan, ratio))
            blurred = _blur_from_step(plan, spectrum, d.shape)
            ref_u, ref_blurred = _three_solve_reference(spec, d, v, ratio)
            assert u.shape == blurred.shape == d.shape
            assert np.linalg.norm(u - ref_u) <= 1e-12 * np.linalg.norm(ref_u)
            assert np.linalg.norm(blurred - ref_blurred) <= 1e-12 * np.linalg.norm(ref_blurred)


@pytest.mark.parametrize("height,width", [(16, 16), (37, 45), (15, 9)])
def test_half_spectrum_norm_matches_real_norm(height, width):
    # Even widths have a Nyquist column with no mirror, odd widths none: a
    # helper that counts it twice, or drops the last column of an odd width,
    # is off by percents here.
    rng = np.random.default_rng(37)
    plan = build_plan(width, height, BlurSpec(band=1))
    for scale in (1e-3, 1.0, 1e3):
        spectrum = np.fft.rfft2(scale * _rand_img(rng, height, width))
        expected = np.linalg.norm(np.fft.irfft2(spectrum, s=(height, width)))
        assert half_spectrum_norm(plan, spectrum) == pytest.approx(expected, rel=1e-13, abs=0)


def _box_mean_reference(field_norms, r):
    # box_mean as it was written with moveaxis and a prepended zero row; the
    # running sums it forms are the ones box_mean must reproduce bit for bit.
    def window_sum(arr, axis):
        moved = np.moveaxis(arr, axis, 0)
        length = moved.shape[0]
        padded = np.concatenate((moved[length - r :], moved, moved[:r]), axis=0)
        csum = np.cumsum(padded, axis=0)
        csum = np.concatenate((np.zeros((1,) + csum.shape[1:]), csum), axis=0)
        return np.moveaxis(csum[2 * r + 1 :] - csum[:length], 0, axis)

    window = 2 * r + 1
    out = window_sum(window_sum(field_norms, 0), 1) / float(window * window)
    np.clip(out, field_norms.min(), field_norms.max(), out=out)
    return out


class TestBoxMean:
    def test_constant_preserved_exactly(self):
        out = box_mean(_img(np.full((9, 9), 0.1)), 2)
        assert np.all(out == 0.1)

    def test_impulse_spreads_over_window(self):
        arr = np.zeros((6, 6))
        arr[2, 3] = 1.0
        out = box_mean(_img(arr), 1)
        expected = np.zeros((6, 6))
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                expected[(2 + dy) % 6, (3 + dx) % 6] = 1.0 / 9.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(32)
        img = rng.uniform(0, 1, (9, 9))
        r = 2
        out = box_mean(img, r)
        for y in range(9):
            for x in range(9):
                acc = 0.0
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        acc += img[(y + dy) % 9, (x + dx) % 9]
                assert abs(out[y, x] - acc / 25.0) <= 1e-12

    def test_output_within_input_range(self):
        rng = np.random.default_rng(33)
        img = rng.uniform(-3, 7, (12, 15))
        out = box_mean(img, 3)
        assert out.min() >= img.min()
        assert out.max() <= img.max()

    @pytest.mark.parametrize("height,width", [(3, 3), (9, 9), (37, 45), (64, 33), (128, 128)])
    def test_bit_identical_to_reference(self, height, width):
        rng = np.random.default_rng(38)
        img = np.abs(_rand_img(rng, height, width)) * rng.uniform(0.1, 10.0, (height, width))
        for r in range(1, (min(height, width) - 1) // 2 + 1, 3):
            assert np.array_equal(box_mean(img, r), _box_mean_reference(img, r))


class TestPointwiseNorm:
    def test_p1_and_p2(self):
        field = (np.array([[3.0, -1.0]]), np.array([[4.0, 1.0]]))
        assert np.allclose(pointwise_norm(field, 1), [[7.0, 2.0]])
        assert np.allclose(pointwise_norm(field, 2), [[5.0, np.sqrt(2.0)]])

    def test_p2_within_two_ulp_of_hypot(self):
        rng = np.random.default_rng(39)
        for scale in (1e-100, 1e-8, 1.0, 1e8, 1e100):
            h, v = _rand_field(rng, 40, 40)
            h[rng.random((40, 40)) < 0.2] = 0.0
            v[rng.random((40, 40)) < 0.2] = 0.0
            h[:2], v[:2] = 0.0, 0.0
            norms = pointwise_norm((scale * h, scale * v), 2)
            exact = np.hypot(scale * h, scale * v)
            assert np.all(norms[:2] == 0.0)
            np.testing.assert_array_max_ulp(norms, exact, maxulp=2)