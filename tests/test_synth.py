import numpy as np

from hwtv.imgcore import ImageBuffer
from hwtv.linops import BlurSpec, blur_via_plan, build_plan, gradient, pointwise_norm
from hwtv.synth import DegradationSpec, PhantomSpec, degrade, make_phantom


class TestPhantoms:
    def test_cartoon_has_exactly_three_levels(self):
        img = make_phantom(PhantomSpec(width=64, height=64, kind="cartoon"))
        assert len(np.unique(img.data)) == 3

    def test_samples_in_unit_interval(self):
        for kind in ("cartoon", "texture", "mixed"):
            img = make_phantom(PhantomSpec(width=48, height=40, kind=kind))
            assert img.data.min() >= 0.0
            assert img.data.max() <= 1.0

    def test_texture_columnwise_dft_peak(self):
        img = make_phantom(PhantomSpec(width=64, height=64, kind="texture", texture_freq=8.0))
        spectrum = np.abs(np.fft.fft(img.data, axis=0))[1:32, :]
        peaks = np.argmax(spectrum, axis=0) + 1
        assert np.all(peaks == 8)

    def test_mixed_halves_differ_in_gradient_content(self):
        img = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
        norms = pointwise_norm(gradient(img.data), 2)
        left = norms[:, :31]  # exclude the split column seam
        right = norms[:, 32:]
        assert np.mean(left == 0.0) > 0.8
        assert np.mean(right != 0.0) > 0.5


def _add_noise(u, sigma, seed):
    # The noise alone: degrade with the band-1 identity blur.
    return degrade(u, DegradationSpec(BlurSpec(), sigma, seed))


class TestDegradeNoise:
    def test_sample_std_near_sigma(self):
        base = ImageBuffer(np.zeros((256, 256)))
        sigma = 0.07
        noisy = _add_noise(base, sigma, seed=123)
        assert 0.99 * sigma <= noisy.data.std() <= 1.01 * sigma

    def test_sample_mean_within_clt_bound(self):
        base = ImageBuffer(np.zeros((256, 256)))
        sigma = 0.07
        noisy = _add_noise(base, sigma, seed=123)
        assert abs(noisy.data.mean()) <= 3.0 * sigma / 256.0

    def test_deterministic(self):
        base = ImageBuffer(np.full((32, 32), 0.5))
        a = _add_noise(base, 0.1, seed=4)
        b = _add_noise(base, 0.1, seed=4)
        assert np.array_equal(a.data, b.data)

    def test_no_clipping(self):
        base = ImageBuffer(np.zeros((64, 64)))
        noisy = _add_noise(base, 0.5, seed=5)
        assert noisy.data.min() < 0.0


class TestDegrade:
    def test_identity_blur_noise_std(self):
        u = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
        spec = DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=6)
        g = degrade(u, spec)
        residual = g.data - u.data
        assert 0.9 * 0.1 <= residual.std() <= 1.1 * 0.1

    def test_identity_blur_adds_noise_only(self):
        # no spectral round trip for the band-1 identity: g is exactly u + noise
        u = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=6))
        noise = _add_noise(ImageBuffer(np.zeros_like(u.data)), 0.1, seed=6)
        assert np.array_equal(g.data, u.data + noise.data)

    def test_tiny_noise_limit(self):
        u = make_phantom(PhantomSpec(width=64, height=64, kind="cartoon"))
        blur = BlurSpec(band=5, sigma=1.0)
        g = degrade(u, DegradationSpec(blur=blur, sigma=1e-9, seed=7))
        blurred = blur_via_plan(build_plan(64, 64, blur), u.data)
        assert np.max(np.abs(g.data - blurred)) <= 1e-8

    def test_deterministic_per_spec(self):
        u = make_phantom(PhantomSpec(width=64, height=64, kind="texture"))
        spec = DegradationSpec(blur=BlurSpec(band=3, sigma=1.0), sigma=0.05, seed=8)
        assert np.array_equal(degrade(u, spec).data, degrade(u, spec).data)

    def test_noise_energy_matches_discrepancy_target(self):
        # E || g - K u ||^2 == n sigma^2, the quantity delta targets
        u = make_phantom(PhantomSpec(width=256, height=256, kind="mixed"))
        blur = BlurSpec(band=5, sigma=1.0)
        blurred = blur_via_plan(build_plan(256, 256, blur), u.data)
        sigma = 0.05
        n = u.pixel_count
        energies = []
        for seed in range(20):
            g = degrade(u, DegradationSpec(blur=blur, sigma=sigma, seed=seed))
            energies.append(np.sum((g.data - blurred) ** 2))
        assert abs(np.mean(energies) / (n * sigma**2) - 1.0) <= 0.03
