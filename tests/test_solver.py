import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hwtv import linops, solver
from hwtv.adapt import _alpha_from_norms, update_mu
from hwtv.imgcore import ImageBuffer
from hwtv.linops import BlurSpec, _gaussian_window
from hwtv.solver import (
    DivergenceError,
    SolverConfig,
    prox_t,
    restore,
)
from hwtv.synth import DegradationSpec, PhantomSpec, degrade, make_phantom

from objectives import (
    frozen_nonincrease_share,
    objective,
    prox1_bisection_oracle,
    prox2_grid_oracle,
    real_image,
)
from spatial_blur import circular_correlate


def _prox_id(p):
    # A case id names p and its prox map, which is the exact one for both.
    return f"{p}-exact"


def _field(h, v):
    return np.array([h, v], dtype=np.float64)


class TestProxT:
    def test_zero_input_gives_zero(self):
        q = _field(np.zeros((3, 3)), np.zeros((3, 3)))
        weights = np.full((3, 3), 2.0)
        for p in (1, 2):
            out_h, out_v = prox_t(q, weights, beta_t=20.0, p=p)
            assert np.all(out_h == 0.0) and np.all(out_v == 0.0)

    def test_zero_weight_passes_through(self):
        rng = np.random.default_rng(60)
        q = _field(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        weights = np.zeros((4, 4))
        for p in (1, 2):
            out_h, out_v = prox_t(q, weights, beta_t=20.0, p=p)
            assert np.allclose(out_h, q[0]) and np.allclose(out_v, q[1])

    def test_isotropic_matches_grid_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            qx, qy = rng.uniform(-2, 2, 2)
            alpha = rng.uniform(0.0, 3.0)
            beta = rng.uniform(5.0, 50.0)
            out_h, out_v = prox_t(
                _field([[qx]], [[qy]]), np.array([[alpha]]), beta_t=beta, p=2
            )
            ex, ey = prox2_grid_oracle(qx, qy, alpha, beta)
            assert abs(out_h[0, 0] - ex) <= 1e-6
            assert abs(out_v[0, 0] - ey) <= 1e-6

    def test_anisotropic_exact_matches_bisection(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            qx, qy = rng.uniform(-2, 2, 2)
            alpha = rng.uniform(0.0, 3.0)
            beta = rng.uniform(5.0, 50.0)
            out_h, out_v = prox_t(
                _field([[qx]], [[qy]]), np.array([[alpha]]), beta_t=beta, p=1
            )
            assert abs(out_h[0, 0] - prox1_bisection_oracle(qx, alpha, beta)) <= 1e-10
            assert abs(out_v[0, 0] - prox1_bisection_oracle(qy, alpha, beta)) <= 1e-10

    @pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
    def test_prox_optimality_under_perturbation(self, p):
        rng = np.random.default_rng(64)
        q = _field(rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8)))
        weights = rng.uniform(0.0, 5.0, (8, 8))
        beta = 20.0
        out_h, out_v = prox_t(q, weights, beta_t=beta, p=p)

        def split_objective(th, tv):
            norm = np.abs(th) + np.abs(tv) if p == 1 else np.hypot(th, tv)
            return weights * norm + 0.5 * beta * ((th - q[0]) ** 2 + (tv - q[1]) ** 2)

        base = split_objective(out_h, out_v)
        for dh, dv in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
            perturbed = split_objective(out_h + dh, out_v + dv)
            assert np.all(perturbed >= base - 1e-9)


def _reference_prox(q, alpha, beta_t, p):
    # prox_t as it was written before it took out=: np.where guards the
    # zero-norm pixels.
    if p == 1:
        return np.sign(q) * np.maximum(np.abs(q) - alpha / beta_t, 0.0)
    norms = np.sqrt(q[0] * q[0] + q[1] * q[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, 1.0 - alpha / (beta_t * norms), 0.0)
    scale = np.maximum(scale, 0.0)
    return q * scale


PROX_SHAPES = [(37, 45), (15, 9), (1, 16), (16, 1)]


@pytest.mark.parametrize("shape", PROX_SHAPES)
@pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
def test_prox_out_matches_allocating_and_reference(shape, p):
    rng = np.random.default_rng(68)
    q = _field(rng.standard_normal(shape), rng.standard_normal(shape))
    alpha = rng.uniform(0.0, 40.0, shape)
    # zero-norm pixels, one of them with a zero weight as well, and -0.0
    for arr in q:
        arr.flat[::3] = 0.0
        arr.flat[1::5] = -0.0
    alpha.flat[::6] = 0.0
    out = np.empty((2, *shape))
    assert prox_t(q, alpha, 20.0, p, out=out, scratch=np.empty(shape)) is out
    for got, alloc, ref in zip(out, prox_t(q, alpha, 20.0, p),
                               _reference_prox(q, alpha, 20.0, p)):
        assert got.tobytes() == alloc.tobytes()
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("weights", ["array", "zero", "scalar"])
@pytest.mark.parametrize("shape", PROX_SHAPES)
@pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
def test_prox_over_its_input_matches_out_of_place(shape, p, weights):
    # t written over q has the bits of t written elsewhere, with -0.0
    # components, zero-norm pixels and zero weights in q; the scalar weight
    # 1.0 has the bits of an all-ones array.
    rng = np.random.default_rng(69)
    q = _field(rng.standard_normal(shape), rng.standard_normal(shape))
    for arr in q:
        arr.flat[::3] = 0.0
        arr.flat[1::5] = -0.0
    q[:, :1] = -0.0
    alpha = {"array": rng.uniform(0.0, 40.0, shape), "zero": np.zeros(shape),
             "scalar": 1.0}[weights]
    if weights == "array":
        alpha.flat[::6] = 0.0
    expected = prox_t(q, np.ones(shape) if weights == "scalar" else alpha, 20.0, p)
    t = q.copy()
    assert prox_t(t, alpha, 20.0, p, out=t, scratch=np.full(shape, np.nan)) is t
    assert t.tobytes() == expected.tobytes()
    assert prox_t(q, alpha, 20.0, p).tobytes() == expected.tobytes()


class TestObjective:
    def test_u_equals_g_identity_blur_is_pure_wtv(self):
        rng = np.random.default_rng(65)
        g = rng.uniform(0, 1, (8, 8))
        weights = rng.uniform(0.5, 2.0, (8, 8))
        eigen_k = linops.build_plan(8, 8, BlurSpec(band=1))
        val = objective(g, g, eigen_k, weights, mu=7.0, p=2)
        norms = linops.pointwise_norm(linops.gradient(g), 2)
        assert val == pytest.approx(float(np.sum(weights * norms)), rel=1e-14)

    def test_constant_u_identity_blur_is_pure_fidelity(self):
        rng = np.random.default_rng(66)
        g = rng.uniform(0, 1, (8, 8))
        u = np.full((8, 8), 0.4)
        mu = 3.0
        eigen_k = linops.build_plan(8, 8, BlurSpec(band=1))
        val = objective(u, g, eigen_k, np.ones((8, 8)), mu=mu, p=2)
        assert val == pytest.approx(0.5 * mu * float(np.sum((u - g) ** 2)), rel=1e-14)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(67)
        u = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6))
        weights = rng.uniform(0.1, 3.0, (6, 6))
        eigen_k = linops.build_plan(6, 6, BlurSpec(band=3, sigma=1.0))
        mu, p = 2.5, 1
        expected = 0.0
        grad_h, grad_v = linops.gradient(u)
        for y in range(6):
            for x in range(6):
                expected += weights[y, x] * (abs(grad_h[y, x]) + abs(grad_v[y, x]))
        residual = linops.blur_via_plan(eigen_k, u) - g
        for y in range(6):
            for x in range(6):
                expected += 0.5 * mu * residual[y, x] ** 2
        assert objective(u, g, eigen_k, weights, mu, p) == pytest.approx(expected, abs=1e-12)


class TestRestore:
    def test_constant_image_identity_blur_fixed_point(self):
        g = ImageBuffer(np.full((32, 32), 0.5))
        cfg = SolverConfig(p=2, tau=1.0, r=3, mode="hwtv")
        result = restore(g, BlurSpec(band=1), 0.1, cfg)
        assert result.iterations <= 3
        assert np.max(np.abs(result.u_star.data - g.data)) <= 1e-12

    def test_denoising_discrepancy_self_check(self):
        u = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
        sigma = 0.1
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=sigma, seed=2))
        cfg = SolverConfig(p=2, tau=1.0, r=4, mode="tv_scalar")
        result = restore(g, BlurSpec(band=1), sigma, cfg)
        delta = sigma * np.sqrt(u.pixel_count)
        assert result.final_discrepancy <= 1.05 * delta

    def test_scalar_mode_fixes_alpha_at_one(self):
        u = make_phantom(PhantomSpec(width=32, height=32, kind="texture"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.05, seed=3))
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode="tv_scalar", max_iter=5)
        result = restore(g, BlurSpec(band=1), 0.05, cfg)
        assert np.all(result.alpha_final == 1.0)

    def test_builds_the_blur_symbol_once(self, monkeypatch):
        # the input checks test the kernel's size and build nothing; the
        # loop's one symbol is built after them
        calls = []
        real_build = solver.build_plan

        def counting_build(width, height, spec):
            calls.append((width, height, spec))
            return real_build(width, height, spec)

        monkeypatch.setattr(solver, "build_plan", counting_build)
        blur = BlurSpec(band=3, sigma=1.0)
        g = ImageBuffer(np.random.default_rng(5).random((16, 12)))
        restore(g, blur, 0.05, SolverConfig(p=2, tau=1.0, r=2, max_iter=3))
        assert calls == [(12, 16, blur)]

    @pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
    @pytest.mark.parametrize("mode", ["hwtv", "tv_scalar"])
    def test_orchestration_matches_manual_loop(self, mode, p):
        # drive the primitives by hand and compare iterates bit-for-bit; this is
        # the one written-out copy of the splitting outside solver.py. Like the
        # solver, it carries the scaled duals y_t = rho_t / beta_t and
        # y_w = rho_w / beta_w, and keeps w, y_w, Ku - g and z on the rfft2
        # half spectrum.
        u_true = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        sigma = 0.08
        blur = BlurSpec(band=3, sigma=1.0)
        g = degrade(u_true, DegradationSpec(blur=blur, sigma=sigma, seed=4))
        steps = 6
        cfg = SolverConfig(p=p, tau=1.0, r=2, mode=mode, max_iter=steps, tol=1e-300)
        result = restore(g, blur, sigma, cfg)

        bt, bw = cfg.beta_t, cfg.beta_w
        eigen_k = linops.build_plan(32, 32, blur)
        factors = linops._step_factors(eigen_k, 32, bw / bt)
        delta = cfg.tau * sigma * math.sqrt(g.pixel_count)
        alpha = np.ones((32, 32))
        g = g.data
        u = g.copy()
        g_hat = np.fft.rfft2(g)
        z = g_hat * eigen_k - g_hat
        y_w = np.zeros_like(g_hat)
        y_t = np.zeros((2, 32, 32))
        for _ in range(steps):
            if mode == "hwtv":
                norms = linops.pointwise_norm(linops.gradient(u), p)
                alpha = _alpha_from_norms(norms, cfg.r)
            mu = update_mu(linops._half_spectrum_norm(z, 32), delta, bw)
            t = prox_t(linops.gradient(u) + y_t, alpha, bt, p)
            w = z * (bw / (mu + bw))
            d, v = linops.divergence(t - y_t), w - y_w + g_hat
            u, spectrum = linops._spectral_step(d, v, factors)
            residual = spectrum * eigen_k - g_hat
            y_w = residual - (w - y_w)
            z = residual + y_w
            y_t = linops.gradient(u) - (t - y_t)
        assert np.array_equal(result.u_star.data, u)
        assert np.array_equal(result.alpha_final, alpha)
        assert result.final_mu == mu
        assert result.final_discrepancy == linops._half_spectrum_norm(residual, 32)

    def test_bit_identical_traces(self):
        u = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=5))
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode="hwtv", max_iter=20)
        r1 = restore(g, BlurSpec(band=1), 0.1, cfg)
        r2 = restore(g, BlurSpec(band=1), 0.1, cfg)
        assert np.array_equal(r1.u_star.data, r2.u_star.data)
        numeric = lambda res: [(t.k, t.mu, t.discrepancy, t.rel_change) for t in res.trace]
        assert numeric(r1) == numeric(r2)

    @pytest.mark.parametrize("mode", ["hwtv", "tv_scalar"])
    def test_caller_image_left_unmodified(self, mode):
        u = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        blur = BlurSpec(band=3, sigma=1.0)
        g = degrade(u, DegradationSpec(blur=blur, sigma=0.08, seed=4))
        before = g.data.copy()
        restore(g, blur, 0.08, SolverConfig(p=2, tau=1.0, r=2, mode=mode, max_iter=4))
        assert np.array_equal(g.data, before)

    def test_divergence_reported_with_iteration_index(self, monkeypatch):
        u = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=6))

        calls = {"n": 0}
        real_step = linops._spectral_step

        def poisoned(d, v, factors, out):
            calls["n"] += 1
            if calls["n"] >= 3:
                for arr in out:
                    arr.fill(np.nan)
                return out
            return real_step(d, v, factors, out=out)

        monkeypatch.setattr(solver, "_spectral_step", poisoned)
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode="hwtv", max_iter=50)
        with pytest.raises(DivergenceError) as err:
            restore(g, BlurSpec(band=1), 0.1, cfg)
        assert err.value.iteration == 2

    @pytest.mark.parametrize("mode", ["hwtv", "tv_scalar"])
    @pytest.mark.parametrize("scale", [1e200, 1e155])
    def test_overflowing_iterate_diverges_at_zero_in_both_modes(self, mode, scale):
        # A finite image whose norm overflows: ||z|| is tested before the
        # weight refresh, whose norms would otherwise warn first.
        rng = np.random.default_rng(0)
        g = ImageBuffer(scale * rng.random((32, 32)))
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode=mode, max_iter=5)
        with pytest.raises(DivergenceError) as err:
            restore(g, BlurSpec(band=3, sigma=1.0), 0.1, cfg)
        assert err.value.iteration == 0

    def test_value_error_is_not_reported_as_divergence(self, monkeypatch):
        # a failing primitive is a bug, not a diverged run
        u = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=6))

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(solver, "prox_t", broken)
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode="hwtv", max_iter=5)
        with pytest.raises(ValueError, match="boom"):
            restore(g, BlurSpec(band=1), 0.1, cfg)

    def test_iterations_bounded_by_max_iter(self):
        u = make_phantom(PhantomSpec(width=32, height=32, kind="texture"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=7))
        cfg = SolverConfig(p=1, tau=1.0, r=2, mode="hwtv", max_iter=7)
        result = restore(g, BlurSpec(band=1), 0.1, cfg)
        assert result.iterations <= 7
        assert len(result.trace) == result.iterations

    def test_numpy_integer_counts_accepted(self):
        cfg = SolverConfig(p=2, tau=1.0, r=np.int64(2), max_iter=np.int32(5))
        assert (cfg.r, cfg.max_iter) == (2, 5)


@pytest.mark.parametrize("spec", [BlurSpec(band=1), BlurSpec(band=5, sigma=1.0)])
def test_spectral_state_matches_real_space(spec):
    # The half-spectrum residual chain read back in real space: after every
    # sweep, the discrepancy is ||Ku - g|| and z is (Ku - g) + y_w.
    rng = np.random.default_rng(78)
    height, width = 37, 45
    g = rng.random((height, width))
    weights = rng.uniform(0.5, 2.0, (height, width))
    mu, bt, bw = 30.0, 20.0, 100.0
    eigen_k = linops.build_plan(width, height, spec)
    x, fixed = solver._start(g, eigen_k, bt, bw)
    for _ in range(3):
        x, discrepancy = solver._sweep(x, fixed, weights, mu, 2)
        residual = linops.blur_via_plan(eigen_k, x.u) - g
        expected = np.linalg.norm(residual)
        assert abs(discrepancy - expected) <= 1e-12 * expected
        z = real_image(x.z, g.shape)
        expected = residual + real_image(x.y_w, g.shape)
        assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
def test_loop_allocates_no_image(monkeypatch, p):
    # After warm-up sweeps of a 128x128 "hwtv" restore, the transient
    # tracemalloc peak of each sweep and of the work between two sweeps (the
    # weight refresh, the mu update and the step norm), in 128x128 float64
    # images: 4.73 and 3.05 when a sweep allocated its u, U and temporaries
    # and the refresh its box sums, 1.01 and 1.50 now. What remains is
    # numpy's own, a constant size whatever the image size:
    # - between sweeps: the buffers of the ufunc iterator (3 x 8192 float64)
    #   in box_mean's window difference along the second axis, whose
    #   strided operands numpy iterates buffered;
    # - in a sweep: the cast buffer (8192 complex128) of the real x complex
    #   products of the u step and the residual. The half spectrum irfftn
    #   allocated between its two axes (1.02 images here) is gone: the
    #   inverse runs axis by axis through V's consumed buffer.
    # The exact p = 1 prox, which read 2.00 in a sweep when it allocated its
    # threshold and signs, writes its threshold into work and applies the
    # signs by copysign.
    import tracemalloc

    size, warmup = 128, 3
    image = size * size * 8
    blur = BlurSpec(band=5, sigma=1.0)
    truth = make_phantom(PhantomSpec(width=size, height=size, kind="mixed"))
    g = degrade(truth, DegradationSpec(blur=blur, sigma=0.05, seed=1))
    real_sweep = solver._sweep
    peaks = {"between": [], "sweep": []}
    calls, base = [0], [0]

    def transient(key):
        peaks[key].append((tracemalloc.get_traced_memory()[1] - base[0]) / image)

    def measured(*args):
        calls[0] += 1
        if calls[0] <= warmup:
            return real_sweep(*args)
        if tracemalloc.is_tracing():
            transient("between")
        else:
            tracemalloc.start()
        base[0] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_sweep(*args)
        transient("sweep")
        base[0] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(solver, "_sweep", measured)
    cfg = SolverConfig(p=p, tau=0.94, r=14, mode="hwtv", max_iter=warmup + 6, tol=1e-14)
    try:
        restore(g, blur, 0.05, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks["sweep"]) == 6 and len(peaks["between"]) == 5
    assert max(peaks["between"]) <= 1.6
    assert max(peaks["sweep"]) <= 1.1


@pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
@pytest.mark.parametrize("mode, bound", [("tv_scalar", 14.0), ("hwtv", 15.5)])
def test_restore_workspace_images(mode, bound, p):
    # The tracemalloc peak of a warmed 5-sweep 128x128 restore, in 128x128
    # float64 images: its blur symbol, state, scratch and result. It reads 13.63
    # (tv_scalar) and 15.12 (hwtv, whose weight image and box_mean's
    # iterator buffers are the extra 1.5) for p = 1 and 2: 12.5 images of
    # buffers and numpy's one-image cast buffer. A third gradient field,
    # the irfftn half spectrum, a complex blur symbol or an all-ones
    # tv_scalar weight image would each add about one image, and a kept
    # gradient symbol half an image.
    import tracemalloc

    size = 128
    blur = BlurSpec(band=5, sigma=1.0)
    truth = make_phantom(PhantomSpec(width=size, height=size, kind="mixed"))
    g = degrade(truth, DegradationSpec(blur=blur, sigma=0.05, seed=1))
    cfg = SolverConfig(p=p, tau=0.94, r=14, mode=mode, max_iter=5, tol=1e-300)
    restore(g, blur, 0.05, cfg)
    tracemalloc.start()
    try:
        restore(g, blur, 0.05, cfg)
        peak = tracemalloc.get_traced_memory()[1] / (size * size * 8)
    finally:
        tracemalloc.stop()
    assert peak <= bound


class TestFrozenProblemAgainstGenericMinimizer:
    def test_admm_reaches_the_frozen_optimum(self):
        # cross-validate the whole splitting against L-BFGS on a smoothed
        # version of the same objective; two unrelated solution paths
        from scipy.optimize import minimize

        rng = np.random.default_rng(77)
        n = 12
        g = rng.random((n, n))
        blur = BlurSpec(band=3, sigma=1.0)
        weights = rng.uniform(0.5, 2.0, (n, n))
        mu, bt, bw, p = 40.0, 20.0, 100.0, 2
        eigen_k = linops.build_plan(n, n, blur)
        kernel = _gaussian_window(blur.band, blur.sigma)

        x, fixed = solver._start(g, eigen_k, bt, bw)
        for _ in range(4000):
            x, _ = solver._sweep(x, fixed, weights, mu, p)
        admm_value = objective(x.u, g, eigen_k, weights, mu, p)

        smoothing = 1e-12

        def func_and_grad(x):
            img = x.reshape(n, n)
            gr = linops.gradient(img)
            mag = np.sqrt(gr[0]**2 + gr[1]**2 + smoothing)
            resid = linops.blur_via_plan(eigen_k, img) - g
            value = float(np.sum(weights * mag) + 0.5 * mu * np.sum(resid**2))
            grad = linops.divergence(weights * gr / mag) + mu * circular_correlate(resid, kernel)
            return value, grad.ravel()

        res = minimize(
            func_and_grad,
            g.ravel().copy(),
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=20000, ftol=1e-18, gtol=1e-12),
        )
        reference_value = objective(res.x.reshape(n, n), g, eigen_k, weights, mu, p)
        assert admm_value == pytest.approx(reference_value, rel=1e-6)


class TestFrozenParameterStability:
    def test_augmented_lagrangian_mostly_nonincreasing(self):
        assert frozen_nonincrease_share(trials=3, n=24, sweeps=120) >= 0.95


_THREAD_PROBE = """
import hashlib
import hwtv
blur = hwtv.BlurSpec(band=5, sigma=1.0)
truth = hwtv.make_phantom(hwtv.PhantomSpec(width=256, height=256, kind="mixed"))
g = hwtv.degrade(truth, hwtv.DegradationSpec(blur=blur, sigma=0.05, seed=1))
cfg = hwtv.SolverConfig(p=2, tau=0.94, r=14, mode="tv_scalar", max_iter=30, tol=1e-300)
print(hashlib.sha256(hwtv.restore(g, blur, 0.05, cfg).u_star.data.tobytes()).hexdigest())
"""


def test_result_independent_of_blas_thread_count():
    # restore promises bit-identical iterates for identical inputs; a norm
    # summed by a threaded BLAS depends on the thread count. 128x128 is too
    # small to show it.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    base["PYTHONPATH"] = os.path.abspath(src)
    digests = [
        subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                       capture_output=True, text=True).stdout.strip()
        for env in (dict(base, OPENBLAS_NUM_THREADS="1"), base)
    ]
    assert digests[0] == digests[1]

