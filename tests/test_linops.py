import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtv import linops
from hwtv.linops import (
    BlurSpec,
    _axis_symbol,
    _dtd_symbol,
    _gaussian_profile,
    _half_spectrum_norm,
    _spectral_step,
    _step_factors,
    blur_via_plan,
    box_mean,
    build_plan,
    divergence,
    gradient,
    pointwise_norm,
)

from spatial_blur import circular_convolve, circular_correlate, gaussian_window


def _img(arr):
    return np.asarray(arr, dtype=np.float64)


def _rand_img(rng, h, w):
    return rng.standard_normal((h, w))


def _rand_field(rng, h, w):
    return rng.standard_normal((2, h, w))


def _plan_for(u, spec):
    return build_plan(u.shape[1], u.shape[0], spec)


def _blur_from_step(eigen_k, spectrum, shape):
    # Ku read from the solution spectrum U that _spectral_step returns: K U.
    return np.fft.irfft2(spectrum * eigen_k, s=shape)


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
            lhs = float(np.sum(gradient(u) * t))
            rhs = float(np.sum(u * divergence(t)))
            scale = np.linalg.norm(u) * np.hypot(np.linalg.norm(t[0]), np.linalg.norm(t[1]))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_divergence_of_constant_gradient_is_zero(self):
        out = divergence(gradient(_img(np.full((5, 8), 1.7))))
        assert np.allclose(out, 0.0, atol=1e-15)


SHAPES = [(37, 45), (15, 9), (1, 16), (16, 1)]


def _roll_gradient(u):
    return np.stack((np.roll(u, -1, axis=1) - u, np.roll(u, -1, axis=0) - u))


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
        out = np.empty((2, *shape))
        assert gradient(u, out=out) is out
        alloc = gradient(u)
        assert alloc.shape == (2, *shape) and alloc.flags.c_contiguous
        assert np.array_equal(out, alloc)
        assert np.array_equal(out, _roll_gradient(u))

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


def _nan_half_spectrum(shape):
    # box_mean's scratch: the complex rfft2 half spectrum of a shape image.
    return np.full((shape[0], shape[1] // 2 + 1), np.nan, complex)


@pytest.mark.parametrize("shape", BOX_SHAPES)
class TestOutWorkspace:
    # The per-restore workspace forms: written through out=, the same bits
    # as the allocating form, into the given buffers.
    def test_box_mean(self, shape):
        norms = np.abs(_rand_img(np.random.default_rng(45), *shape))
        for r in range(1, (min(shape) - 1) // 2 + 1):
            # NaN-filled buffers: no stale value may reach the result.
            out, scratch = np.full(shape, np.nan), _nan_half_spectrum(shape)
            assert box_mean(norms, r, out=out, scratch=scratch) is out
            assert np.array_equal(out, box_mean(norms, r))
            # and over the input itself, as the weight refresh gives it. A
            # constant raster's transforms round off it, so the clip to the
            # input's range must read that range before out overwrites it.
            for arr in (norms, np.full(shape, 0.1)):
                inplace, scratch = arr.copy(), _nan_half_spectrum(shape)
                assert box_mean(inplace, r, out=inplace, scratch=scratch) is inplace
                assert np.array_equal(inplace, box_mean(arr, r))

    @pytest.mark.parametrize("spec", [BlurSpec(band=1), BlurSpec(band=5, sigma=1.0)])
    def test_spectral_step(self, shape, spec):
        rng = np.random.default_rng(46)
        eigen_k = build_plan(shape[1], shape[0], spec)
        d, v = _rand_img(rng, *shape), _rand_img(rng, *shape)
        factors = _step_factors(eigen_k, shape[1], 5.0)
        out = np.empty(shape), np.empty((shape[0], shape[1] // 2 + 1), complex)
        assert _spectral_step(d, np.fft.rfft2(v), factors, out=out) is out
        for got, alloc in zip(out, _spectral_step(d, np.fft.rfft2(v), factors)):
            assert np.array_equal(got, alloc)


@pytest.mark.parametrize(
    "shape", [(128, 128), (97, 130), (64, 33), (15, 9), (1, 8), (1, 9), (8, 1), (9, 1)]
)
def test_step_inverse_bits_of_irfftn(shape):
    # _spectral_step inverts axis by axis through V's buffer; u has the bits
    # np.fft.irfftn gives for the U it returns, at odd and even widths and
    # on single rows and columns.
    rng = np.random.default_rng(47)
    eigen_k = build_plan(shape[1], shape[0], BlurSpec(band=1))
    d, v = _rand_img(rng, *shape), _rand_img(rng, *shape)
    u, spectrum = _spectral_step(d, np.fft.rfft2(v), _step_factors(eigen_k, shape[1], 5.0))
    expected = np.fft.irfftn(spectrum, s=shape, axes=(-2, -1))
    assert u.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "shape", [(512, 512), (1, 9), (9, 1), (2, 7), (7, 2), (1, 1), (3, 4), (33, 64), (100, 3)]
)
def test_blur_bits_of_irfft2(shape):
    # blur_via_plan inverts through linops._irfft2; its result is a
    # C-contiguous float64 image with the bits np.fft.irfft2 gives for the
    # same product, for every band that fits, at odd and even widths and on
    # single rows and columns.
    u = _rand_img(np.random.default_rng(49), *shape)
    for band in (band for band in (1, 3, 5, 11) if band <= min(shape)):
        eigen_k = build_plan(shape[1], shape[0], BlurSpec(band=band, sigma=1.0))
        out = blur_via_plan(eigen_k, u)
        expected = np.fft.irfft2(np.fft.rfft2(u) * eigen_k, s=shape)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()


def test_step_allocates_only_the_cast_buffer():
    # Into given buffers, the u step allocates only numpy's cast buffer of
    # 8192 complex128 values for its real x complex products, whatever the
    # size: no half spectrum between the two inverse axes (516 KiB here).
    import tracemalloc

    rng = np.random.default_rng(48)
    shape = (256, 256)
    eigen_k = build_plan(shape[1], shape[0], BlurSpec(band=5, sigma=1.0))
    factors = _step_factors(eigen_k, shape[1], 5.0)
    d, v_spectrum = _rand_img(rng, *shape), np.fft.rfft2(_rand_img(rng, *shape))
    out = np.empty(shape), np.empty_like(v_spectrum)
    _spectral_step(d, v_spectrum.copy(), factors, out=out)
    tracemalloc.start()
    try:
        _spectral_step(d, v_spectrum, factors, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8192 * 16 + 4096


class TestKernel:
    def test_identity_spec(self):
        # Band 1 is K = I whatever the sigma.
        for sigma in (1e-3, 1.0, 1e6):
            assert np.array_equal(_gaussian_profile(1, sigma), [1.0])

    def test_flat_limit(self):
        profile = _gaussian_profile(3, 1e6)
        assert np.allclose(profile, 1.0 / 3.0, atol=1e-9)

    def test_center_entry_against_scalar_oracle(self):
        band, sigma = 5, 1.0
        total = 0.0
        for i in range(-2, 3):
            total += np.exp(-(i * i) / (2.0 * sigma * sigma))
        profile = _gaussian_profile(band, sigma)
        assert profile[2] == pytest.approx(1.0 / total, abs=1e-15)

    def test_normalized(self):
        for band, sigma in ((7, 2.0), (9, 0.3), (63, 50.0)):
            profile = _gaussian_profile(band, sigma)
            assert profile.min() >= 0.0
            assert np.array_equal(profile, profile[::-1])
            assert abs(profile.sum() - 1.0) <= 1e-15


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

    def test_linear(self):
        rng = np.random.default_rng(25)
        u, v = _rand_img(rng, 8, 8), _rand_img(rng, 8, 8)
        eigen_k = _plan_for(u, BlurSpec(band=5, sigma=1.0))
        lhs = blur_via_plan(eigen_k, 2.0 * u - 3.0 * v)
        rhs = 2.0 * blur_via_plan(eigen_k, u) - 3.0 * blur_via_plan(eigen_k, v)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_equals_forward_for_symmetric_kernel(self):
        rng = np.random.default_rng(26)
        u = _rand_img(rng, 8, 8)
        spec = BlurSpec(band=5, sigma=1.0)
        adjoint = circular_correlate(u, gaussian_window(spec.band, spec.sigma))
        assert np.allclose(adjoint, blur_via_plan(_plan_for(u, spec), u), atol=1e-13)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(27)
        spec = BlurSpec(band=3, sigma=0.7)
        eigen_k = build_plan(6, 6, spec)
        kernel = gaussian_window(spec.band, spec.sigma)
        for _ in range(50):
            u, w = _rand_img(rng, 6, 6), _rand_img(rng, 6, 6)
            lhs = float(np.sum(blur_via_plan(eigen_k, u) * w))
            rhs = float(np.sum(u * circular_correlate(w, kernel)))
            scale = np.linalg.norm(u) * np.linalg.norm(w)
            assert abs(lhs - rhs) <= 1e-12 * scale


def _padded_kernel_symbol(height, width, spec):
    # The blur symbol as the real part of the rfft2 of the band x band window,
    # zero-padded to the image and rolled to the origin.
    padded = np.zeros((height, width))
    padded[:spec.band, :spec.band] = gaussian_window(spec.band, spec.sigma)
    shift = -(spec.band // 2)
    return np.fft.rfft2(np.roll(padded, (shift, shift), axis=(0, 1)))


# How far build_plan may lie from the padded kernel's rfft2, which rounds in
# another order: 20,000 random plans up to 64 x 64, with the bands and sigmas
# of the property below, read at most 1.1e-15.
PLAN_BOUND = 2e-15


class TestSpectralPlan:
    def test_dtd_symbol_zero_at_dc(self):
        symbol = _dtd_symbol(8, 6)
        assert symbol.shape == (6, 8 // 2 + 1)
        assert symbol[0, 0] == 0.0
        assert np.all(symbol.ravel()[1:] > 0.0)

    def test_plan_holds_the_blur_and_step_factors_keep_their_bits(self):
        # build_plan returns the blur symbol alone, one C-contiguous float64
        # half spectrum within rounding of the padded kernel's rfft2;
        # _step_factors forms the gradient symbol itself and keeps the bits
        # of 1 / (DtD + ratio eigen_K^2) with DtD = sym_y + sym_x summed first.
        for height, width in ((6, 8), (37, 45), (15, 9), (256, 256)):
            sym_x = 4.0 * np.sin(np.pi * np.arange(width // 2 + 1) / width) ** 2
            sym_y = 4.0 * np.sin(np.pi * np.arange(height) / height) ** 2
            eigen_dtd = sym_y[:, None] + sym_x[None, :]
            for spec in (BlurSpec(band=1), BlurSpec(band=5, sigma=1.0)):
                eigen_k = _padded_kernel_symbol(height, width, spec).real
                symbol = build_plan(width, height, spec)
                assert type(symbol) is np.ndarray and symbol.dtype == np.float64
                assert symbol.flags.c_contiguous and symbol.shape == (height, width // 2 + 1)
                assert np.abs(symbol - eigen_k).max() <= PLAN_BOUND
                for ratio in (1e-6, 5.0, 1e6):
                    k_adjoint, inv_denom = _step_factors(symbol, width, ratio)
                    assert k_adjoint.tobytes() == (ratio * symbol).tobytes()
                    expected = 1.0 / (eigen_dtd + ratio * symbol**2)
                    assert inv_denom.tobytes() == expected.tobytes()

    def test_identity_eigenvalues_are_one(self):
        # Exactly, at odd and even sizes: restore treats band 1 as K = I to
        # the bit.
        for width, height in ((5, 5), (8, 8), (45, 37), (9, 15), (16, 1), (256, 256)):
            eigen_k = build_plan(width, height, BlurSpec(band=1))
            assert eigen_k.shape == (height, width // 2 + 1)
            assert np.all(eigen_k == 1.0)

    def test_blur_symbol_is_the_real_part_of_the_kernel_dft(self):
        # The DFT of the symmetric, origin-centered kernel is real up to
        # rounding; build_plan's product of per-axis symbols is its real
        # part within rounding, as a float64 array.
        for band in (3, 5, 7, 9):
            for sigma in (0.3, 0.7, 1.0, 1.6, 2.5):
                spec = BlurSpec(band=band, sigma=sigma)
                for height, width in ((37, 45), (16, 16), (15, 9)):
                    full = _padded_kernel_symbol(height, width, spec)
                    eigen_k = build_plan(width, height, spec)
                    assert eigen_k.dtype == np.float64 and eigen_k.flags.c_contiguous
                    assert np.abs(eigen_k - full.real).max() <= PLAN_BOUND
                    assert np.abs(full.imag).max() <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        height=st.integers(1, 64),
        width=st.integers(1, 64),
        band_rank=st.floats(0.0, 1.0),
        sigma=st.floats(0.05, 50.0),
    )
    def test_symbol_within_bound_of_the_padded_transform(self, height, width, band_rank, sigma):
        # Every odd band that fits, the widest included, at odd, even and
        # prime sizes and from a near-delta to a near-flat kernel.
        widest = (min(height, width) - 1) // 2
        spec = BlurSpec(band=2 * round(band_rank * widest) + 1, sigma=sigma)
        symbol = build_plan(width, height, spec)
        assert type(symbol) is np.ndarray and symbol.dtype == np.float64
        assert symbol.flags.c_contiguous and symbol.shape == (height, width // 2 + 1)
        oracle = _padded_kernel_symbol(height, width, spec).real
        assert np.abs(symbol - oracle).max() <= PLAN_BOUND

    def test_symbol_magnitude_at_most_one(self):
        eigen_k = build_plan(16, 16, BlurSpec(band=5, sigma=1.0))
        assert np.max(np.abs(eigen_k)) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "spec", [BlurSpec(band=1), BlurSpec(band=3, sigma=0.5), BlurSpec(band=9, sigma=3.0)]
    )
    @pytest.mark.parametrize("ratio", [1e-6, 1.0, 5.0, 1e6])
    def test_solve_denominator_strictly_positive(self, spec, ratio):
        eigen_k = build_plan(12, 10, spec)
        denom = _dtd_symbol(12, 10) + ratio * np.abs(eigen_k) ** 2
        assert denom.min() > 0.0
        inv_denom = _step_factors(eigen_k, 12, ratio)[1]
        assert np.all(np.isfinite(inv_denom)) and inv_denom.min() > 0.0


def _reference_box_factor(length, r):
    # The reference box factor, from the window's weights alone: the DFT of
    # the periodic (2r+1)-wide window of weights 1 / (2r+1), centered at
    # entry 0 along an axis of ``length``.
    window = np.zeros(length)
    window[: r + 1] = window[length - r :] = 1.0 / (2 * r + 1)
    return np.fft.fft(window).real


def _box_mean_of_box_factors(x, r):
    # box_mean's product on the half spectrum, with the reference factors.
    height, width = x.shape
    spectrum = np.fft.rfft2(x)
    spectrum *= _reference_box_factor(width, r)[: width // 2 + 1]
    spectrum *= _reference_box_factor(height, r)[:, None]
    mean = np.fft.irfft(np.fft.ifft(spectrum, axis=0), n=width, axis=1)
    return np.clip(mean, x.min(), x.max())


@pytest.mark.parametrize("length", range(3, 131))
def test_box_factors_keep_their_bits(length):
    # On a length x (length + 1) image, so both widths' parities are run.
    x = np.random.default_rng(length).random((length, length + 1))
    for r in range(1, (length - 1) // 2 + 1):
        taps = np.full(2 * r + 1, 1.0 / (2 * r + 1))
        assert _axis_symbol(taps, length).tobytes() == _reference_box_factor(length, r).tobytes()
        assert box_mean(x, r).tobytes() == _box_mean_of_box_factors(x, r).tobytes()


class TestSpectralStep:
    def test_recovers_forward_operator_input(self):
        rng = np.random.default_rng(30)
        spec = BlurSpec(band=3, sigma=1.0)
        eigen_k = build_plan(8, 8, spec)
        ratio = 5.0
        u0 = _rand_img(rng, 8, 8)
        solved, spectrum = _spectral_step(
            divergence(gradient(u0)),
            np.fft.rfft2(blur_via_plan(eigen_k, u0)),
            _step_factors(eigen_k, 8, ratio),
        )
        assert np.allclose(solved, u0, atol=1e-9)
        blurred = _blur_from_step(eigen_k, spectrum, u0.shape)
        assert np.allclose(blurred, blur_via_plan(eigen_k, u0), atol=1e-9)

    def test_dc_algebra_identity_blur(self):
        eigen_k = build_plan(6, 6, BlurSpec(band=1))
        u, spectrum = _spectral_step(
            _img(np.full((6, 6), 0.7)),
            np.zeros((6, 4), dtype=complex),
            _step_factors(eigen_k, 6, 1.0),
        )
        assert np.allclose(u, 0.7, atol=1e-13)
        assert np.allclose(_blur_from_step(eigen_k, spectrum, u.shape), 0.7, atol=1e-13)

    def test_zero_rhs_gives_zero(self):
        eigen_k = build_plan(4, 4, BlurSpec(band=1))
        u, spectrum = _spectral_step(
            _img(np.zeros((4, 4))),
            np.zeros((4, 3), dtype=complex),
            _step_factors(eigen_k, 4, 2.0),
        )
        assert np.all(u == 0.0)
        assert np.all(spectrum == 0.0)


def _three_solve_reference(spec, d, v, ratio):
    # The u-step as three full-spectrum complex fft2/ifft2 pairs: K^T v,
    # then the division, then K u.
    h, w = d.shape
    kernel = gaussian_window(spec.band, spec.sigma)
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


_HALF_SPECTRUM_CASES = [
    pytest.param(height, width, spec, id=f"{height}-{width}-spec{i}")
    for height, width in ((37, 45), (15, 9))
    for i, spec in enumerate((BlurSpec(band=1), BlurSpec(band=5, sigma=1.0)))
]


class TestHalfSpectrum:
    # Odd widths are the sizes an irfft2 without its output shape gets wrong.
    @pytest.mark.parametrize(
        "seed, height, width, spec",
        [pytest.param(34, *case.values, id=case.id) for case in _HALF_SPECTRUM_CASES]
        + [pytest.param(24, 8, 8, BlurSpec(band=3, sigma=0.8), id="8-8-band3"),
           pytest.param(29, 16, 16, BlurSpec(band=5, sigma=1.0), id="16-16-band5")],
    )
    def test_blur_matches_spatial_oracle(self, seed, height, width, spec):
        u = _rand_img(np.random.default_rng(seed), height, width)
        eigen_k = build_plan(width, height, spec)
        assert eigen_k.shape == (height, width // 2 + 1)
        out = blur_via_plan(eigen_k, u)
        assert out.shape == u.shape
        kernel = gaussian_window(spec.band, spec.sigma)
        assert np.allclose(out, circular_convolve(u, kernel), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("height, width, spec", _HALF_SPECTRUM_CASES)
    def test_step_blur_matches_blur_via_plan(self, spec, height, width):
        rng = np.random.default_rng(35)
        d, v = _rand_img(rng, height, width), _rand_img(rng, height, width)
        eigen_k = build_plan(width, height, spec)
        u, spectrum = _spectral_step(d, np.fft.rfft2(v), _step_factors(eigen_k, width, 5.0))
        blurred = _blur_from_step(eigen_k, spectrum, d.shape)
        assert u.shape == blurred.shape == d.shape
        expected = blur_via_plan(eigen_k, u)
        assert np.linalg.norm(blurred - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("height, width, spec", _HALF_SPECTRUM_CASES)
    def test_step_matches_three_solve_reference(self, spec, height, width):
        # Same solve, different transforms: agreement to 1e-12 relative.
        rng = np.random.default_rng(36)
        eigen_k = build_plan(width, height, spec)
        for ratio in (1e-3, 5.0, 1e3):
            d, v = _rand_img(rng, height, width), _rand_img(rng, height, width)
            u, spectrum = _spectral_step(d, np.fft.rfft2(v), _step_factors(eigen_k, width, ratio))
            blurred = _blur_from_step(eigen_k, spectrum, d.shape)
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
    for scale in (1e-3, 1.0, 1e3):
        spectrum = np.fft.rfft2(scale * _rand_img(rng, height, width))
        expected = np.linalg.norm(np.fft.irfft2(spectrum, s=(height, width)))
        assert _half_spectrum_norm(spectrum, width) == pytest.approx(expected, rel=1e-13, abs=0)


def _box_mean_reference(field_norms, r):
    # The spatial oracle: window sums read off a running sum of the input
    # wrapped by r on each side, one axis at a time.
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
    def test_matches_running_sum_reference(self, height, width):
        rng = np.random.default_rng(38)
        img = np.abs(_rand_img(rng, height, width)) * rng.uniform(0.1, 10.0, (height, width))
        # Every third radius and the largest, whose window wraps the most.
        # The spectral product rounds apart from the running sums, by at
        # most 1.4e-15 x max|input| up to 128x128.
        largest = (min(height, width) - 1) // 2
        for r in {*range(1, largest + 1, 3), largest}:
            diff = np.abs(box_mean(img, r) - _box_mean_reference(img, r)).max()
            assert diff <= 1e-13 * np.abs(img).max()

    def test_same_bytes_on_cold_and_warm_cache(self):
        # The first call builds both axes' factors, the second reads them back.
        img = np.abs(_rand_img(np.random.default_rng(39), 37, 45))
        linops._box_factor.cache_clear()
        cold = box_mean(img, 4)
        assert linops._box_factor.cache_info()[:2] == (0, 2)  # (hits, misses)
        warm = box_mean(img, 4)
        assert linops._box_factor.cache_info()[:2] == (2, 2)
        assert cold.tobytes() == warm.tobytes()

    def test_cached_factor_refuses_writes(self):
        # Every refresh at one size shares the factor, so no caller may change it.
        factor = linops._box_factor(2, 9)
        with pytest.raises(ValueError, match="read-only"):
            factor[0] = 0.0


class TestPointwiseNorm:
    def test_p1_and_p2(self):
        field = (np.array([[3.0, -1.0]]), np.array([[4.0, 1.0]]))
        assert np.allclose(pointwise_norm(field, 1), [[7.0, 2.0]])
        assert np.allclose(pointwise_norm(field, 2), [[5.0, np.sqrt(2.0)]])

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e150])
    def test_p2_bits_of_multiply_add(self, scale):
        # The einsum sum of squares has the bits of h * h + v * v at every
        # magnitude, with zeros and -0.0 among the components.
        rng = np.random.default_rng(43)
        for shape in (*SHAPES, (128, 128)):
            t = scale * _rand_field(rng, *shape)
            t[rng.random(t.shape) < 0.1] = 0.0
            t[rng.random(t.shape) < 0.1] = -0.0
            expected = _reference_norm(t, 2)
            out = np.full(shape, np.nan)
            assert pointwise_norm(t, 2, out=out).tobytes() == expected.tobytes()

    def test_p2_within_two_ulp_of_hypot(self):
        rng = np.random.default_rng(39)
        for scale in (1e-100, 1e-8, 1.0, 1e8, 1e100):
            t = _rand_field(rng, 40, 40)
            t[rng.random((2, 40, 40)) < 0.2] = 0.0
            t[:, :2] = 0.0
            norms = pointwise_norm(scale * t, 2)
            exact = np.hypot(scale * t[0], scale * t[1])
            assert np.all(norms[:2] == 0.0)
            np.testing.assert_array_max_ulp(norms, exact, maxulp=2)