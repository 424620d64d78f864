import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hwtv import linops, solver
from hwtv.adapt import alpha_from_norms, update_mu
from hwtv.imgcore import ImageBuffer
from hwtv.linops import BlurSpec
from hwtv.solver import (
    DivergenceError,
    SolverConfig,
    prox_t,
    restore,
    write_trace_csv,
)
from hwtv.synth import DegradationSpec, PhantomSpec, degrade, make_phantom

from objectives import augmented_lagrangian, objective
from spatial_blur import circular_correlate


def _prox_id(p):
    # A case id names p and its prox map, which is the exact one for both.
    return f"{p}-exact"


def _real(spectrum, shape):
    """The real image behind an rfft2 half spectrum."""
    return np.fft.irfft2(spectrum, s=shape)


def _field(h, v):
    return np.asarray(h, dtype=np.float64), np.asarray(v, dtype=np.float64)


def _prox2_grid_oracle(qx, qy, alpha, beta):
    """Dense 2-D grid search plus iterative zoom for the isotropic prox."""

    def value(tx, ty):
        return alpha * np.hypot(tx, ty) + 0.5 * beta * ((tx - qx) ** 2 + (ty - qy) ** 2)

    lo_x, hi_x = min(0.0, qx) - 0.5, max(0.0, qx) + 0.5
    lo_y, hi_y = min(0.0, qy) - 0.5, max(0.0, qy) + 0.5
    cx, cy = 0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y)
    span_x, span_y = hi_x - lo_x, hi_y - lo_y
    npts = 25
    best = (cx, cy)
    for _ in range(16):
        xs = np.linspace(best[0] - span_x / 2, best[0] + span_x / 2, npts)
        ys = np.linspace(best[1] - span_y / 2, best[1] + span_y / 2, npts)
        grid_x, grid_y = np.meshgrid(xs, ys)
        vals = value(grid_x, grid_y)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = (float(grid_x[idx]), float(grid_y[idx]))
        span_x *= 0.25
        span_y *= 0.25
    return best


def _prox1_bisection_oracle(q, alpha, beta):
    """Scalar prox of alpha |t| + (beta/2)(t - q)^2 via subgradient bisection."""

    def right_derivative(t):
        return beta * (t - q) + (alpha if t >= 0.0 else -alpha)

    lo, hi = min(0.0, q) - 1.0, max(0.0, q) + 1.0
    assert right_derivative(lo) < 0.0 <= right_derivative(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if right_derivative(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
            ex, ey = _prox2_grid_oracle(qx, qy, alpha, beta)
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
            assert abs(out_h[0, 0] - _prox1_bisection_oracle(qx, alpha, beta)) <= 1e-10
            assert abs(out_v[0, 0] - _prox1_bisection_oracle(qy, alpha, beta)) <= 1e-10

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
    q_h, q_v = q
    if p == 1:
        threshold = alpha / beta_t
        return (np.sign(q_h) * np.maximum(np.abs(q_h) - threshold, 0.0),
                np.sign(q_v) * np.maximum(np.abs(q_v) - threshold, 0.0))
    norms = np.sqrt(q_h * q_h + q_v * q_v)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, 1.0 - alpha / (beta_t * norms), 0.0)
    scale = np.maximum(scale, 0.0)
    return q_h * scale, q_v * scale


@pytest.mark.parametrize("shape", [(37, 45), (15, 9), (1, 16), (16, 1)])
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
    out = np.empty(shape), np.empty(shape)
    scratch = np.empty(shape), np.empty(shape)
    assert prox_t(q, alpha, 20.0, p, out=out, scratch=scratch) is out
    for got, alloc, ref in zip(out, prox_t(q, alpha, 20.0, p),
                               _reference_prox(q, alpha, 20.0, p)):
        assert got.tobytes() == alloc.tobytes()
        assert np.array_equal(got, ref)


class TestObjective:
    def test_u_equals_g_identity_blur_is_pure_wtv(self):
        rng = np.random.default_rng(65)
        g = rng.uniform(0, 1, (8, 8))
        weights = rng.uniform(0.5, 2.0, (8, 8))
        plan = linops.build_plan(8, 8, BlurSpec(band=1))
        val = objective(g, g, plan, weights, mu=7.0, p=2)
        norms = linops.pointwise_norm(linops.gradient(g), 2)
        assert val == pytest.approx(float(np.sum(weights * norms)), rel=1e-14)

    def test_constant_u_identity_blur_is_pure_fidelity(self):
        rng = np.random.default_rng(66)
        g = rng.uniform(0, 1, (8, 8))
        u = np.full((8, 8), 0.4)
        mu = 3.0
        plan = linops.build_plan(8, 8, BlurSpec(band=1))
        val = objective(u, g, plan, np.ones((8, 8)), mu=mu, p=2)
        assert val == pytest.approx(0.5 * mu * float(np.sum((u - g) ** 2)), rel=1e-14)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(67)
        u = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6))
        weights = rng.uniform(0.1, 3.0, (6, 6))
        plan = linops.build_plan(6, 6, BlurSpec(band=3, sigma=1.0))
        mu, p = 2.5, 1
        expected = 0.0
        grad_h, grad_v = linops.gradient(u)
        for y in range(6):
            for x in range(6):
                expected += weights[y, x] * (abs(grad_h[y, x]) + abs(grad_v[y, x]))
        residual = linops.blur_via_plan(plan, u) - g
        for y in range(6):
            for x in range(6):
                expected += 0.5 * mu * residual[y, x] ** 2
        assert objective(u, g, plan, weights, mu, p) == pytest.approx(expected, abs=1e-12)


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
        plan = linops.build_plan(32, 32, blur)
        factors = linops.step_factors(plan, bw / bt)
        delta = cfg.tau * sigma * math.sqrt(g.pixel_count)
        alpha = np.ones((32, 32))
        g = g.data
        u = g.copy()
        g_hat = np.fft.rfft2(g)
        z = g_hat * plan.eigen_K - g_hat
        y_w = np.zeros_like(g_hat)
        y_h, y_v = np.zeros((32, 32)), np.zeros((32, 32))
        for _ in range(steps):
            if mode == "hwtv":
                norms = linops.pointwise_norm(linops.gradient(u), p)
                alpha = alpha_from_norms(norms, cfg.r, solver.EPS_FLOOR)
            mu = update_mu(linops.half_spectrum_norm(plan, z), delta, bw)
            grad_h, grad_v = linops.gradient(u)
            t_h, t_v = prox_t((grad_h + y_h, grad_v + y_v), alpha, bt, p)
            w = z * (bw / (mu + bw))
            u, spectrum = linops.spectral_step(
                linops.divergence((t_h - y_h, t_v - y_v)),
                w - y_w + g_hat,
                factors,
            )
            residual = spectrum * plan.eigen_K - g_hat
            grad_h, grad_v = linops.gradient(u)
            y_w = y_w + (residual - w)
            z = residual + y_w
            y_h = y_h + (grad_h - t_h)
            y_v = y_v + (grad_v - t_v)
        assert np.array_equal(result.u_star.data, u)
        assert np.array_equal(result.alpha_final, alpha)
        assert result.final_mu == mu
        assert result.final_discrepancy == linops.half_spectrum_norm(plan, residual)

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
        real_step = linops.spectral_step

        def poisoned(d, v, factors, out):
            calls["n"] += 1
            if calls["n"] >= 3:
                for arr in out:
                    arr.fill(np.nan)
                return out
            return real_step(d, v, factors, out=out)

        monkeypatch.setattr(solver, "spectral_step", poisoned)
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode="hwtv", max_iter=50)
        with pytest.raises(DivergenceError) as err:
            restore(g, BlurSpec(band=1), 0.1, cfg)
        assert err.value.iteration == 2

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

    def test_oversized_window_rejected_up_front(self):
        g = ImageBuffer(np.random.default_rng(9).random((32, 32)))
        cfg = SolverConfig(p=2, tau=1.0, r=16, mode="hwtv")
        with pytest.raises(ValueError, match="window"):
            restore(g, BlurSpec(band=1), 0.1, cfg)

    def test_nonpositive_sigma_rejected(self):
        g = ImageBuffer(np.full((8, 8), 0.5))
        cfg = SolverConfig(p=2, tau=1.0, r=2)
        with pytest.raises(ValueError, match="sigma"):
            restore(g, BlurSpec(band=1), 0.0, cfg)

    def test_underflowing_discrepancy_target_rejected_up_front(self, monkeypatch):
        # tau and sigma each pass their checks, but tau * sigma * sqrt(n)
        # underflows to 0; restore rejects it before the first sweep.
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(solver, "_sweep", no_sweep)
        g = ImageBuffer(np.full((8, 8), 0.5))
        cfg = SolverConfig(p=2, tau=1e-200, r=2)
        with pytest.raises(ValueError, match="positive"):
            restore(g, BlurSpec(band=1), 1e-200, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(p=3, tau=1.0, r=2)
        with pytest.raises(ValueError):
            SolverConfig(p=2, tau=1.0, r=2, mode="other")
        with pytest.raises(ValueError):
            SolverConfig(p=2, tau=-1.0, r=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_tunables_rejected(self, bad):
        # NaN passes a "<= 0" test; each tunable must be finite and positive
        for name in ("tau", "beta_t", "beta_w", "tol"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{"p": 2, "tau": 1.0, "r": 2, name: bad})

    @pytest.mark.parametrize(
        "beta_t, beta_w", [(1e-300, 1e300), (1e300, 1e-300)], ids=["overflow", "underflow"]
    )
    def test_beta_ratio_must_be_finite_and_positive(self, beta_t, beta_w):
        # each penalty is finite and positive, but the u step's beta_w / beta_t
        # is not: rejected when the config is built, not inside restore
        with pytest.raises(ValueError, match="beta_w / beta_t"):
            SolverConfig(p=2, tau=1.0, r=2, beta_t=beta_t, beta_w=beta_w)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, bad):
        g = ImageBuffer(np.full((8, 8), 0.5))
        with pytest.raises(ValueError, match="sigma"):
            restore(g, BlurSpec(band=1), bad, SolverConfig(p=2, tau=1.0, r=2))

    def test_non_integer_counts_rejected(self):
        # a fractional radius or sweep cap, or a non-integer or bool norm
        # order, is rejected here, not deep in the loop; True would pass
        # as 1
        bad_counts = ({"r": 2.5}, {"max_iter": 2.5}, {"r": 2.0}, {"p": 2.0},
                      {"p": True}, {"r": True}, {"max_iter": True})
        for bad in bad_counts:
            with pytest.raises(ValueError, match="integer"):
                SolverConfig(**{"p": 2, "tau": 1.0, "r": 2, **bad})
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
    plan = linops.build_plan(width, height, spec)
    x, fixed = solver._start(g, plan, bt, bw)
    for _ in range(3):
        x, discrepancy = solver._sweep(x, fixed, weights, mu, 2)
        residual = linops.blur_via_plan(plan, x.u) - g
        expected = np.linalg.norm(residual)
        assert abs(discrepancy - expected) <= 1e-12 * expected
        z = _real(x.z, g.shape)
        expected = residual + _real(x.y_w, g.shape)
        assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("p", [2, 1], ids=_prox_id)
def test_loop_allocates_no_image(monkeypatch, p):
    # After warm-up sweeps of a 128x128 "hwtv" restore, the transient
    # tracemalloc peak of each sweep and of the work between two sweeps (the
    # weight refresh, the mu update and the step norm), in 128x128 float64
    # images: 4.73 and 3.05 when a sweep allocated its u, U and temporaries
    # and the refresh its box sums, 1.51 and 1.03 now. What remains is
    # numpy's own:
    # - between sweeps: the buffers of the ufunc iterator (3 x 8192 float64,
    #   whatever the image size) in box_mean's window difference along the
    #   second axis, whose strided operands numpy iterates buffered;
    # - in a sweep: the complex half spectrum that irfftn's first-axis
    #   inverse transform returns, before the last-axis one writes into out.
    # The exact p = 1 prox, which read 2.00 in a sweep when it allocated its
    # threshold and signs, now writes them into the sweep's work pair.
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
        plan = linops.build_plan(n, n, blur)
        kernel = linops.make_kernel(blur)

        x, fixed = solver._start(g, plan, bt, bw)
        for _ in range(4000):
            x, _ = solver._sweep(x, fixed, weights, mu, p)
        admm_value = objective(x.u, g, plan, weights, mu, p)

        smoothing = 1e-12

        def func_and_grad(x):
            img = x.reshape(n, n)
            gr_h, gr_v = linops.gradient(img)
            mag = np.sqrt(gr_h**2 + gr_v**2 + smoothing)
            resid = linops.blur_via_plan(plan, img) - g
            value = float(np.sum(weights * mag) + 0.5 * mu * np.sum(resid**2))
            grad = linops.divergence(
                (weights * gr_h / mag, weights * gr_v / mag)
            ) + mu * circular_correlate(resid, kernel)
            return value, grad.ravel()

        res = minimize(
            func_and_grad,
            g.ravel().copy(),
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=20000, ftol=1e-18, gtol=1e-12),
        )
        reference_value = objective(res.x.reshape(n, n), g, plan, weights, mu, p)
        assert admm_value == pytest.approx(reference_value, rel=1e-6)


class TestFrozenParameterStability:
    def test_augmented_lagrangian_mostly_nonincreasing(self):
        rng = np.random.Generator(np.random.Philox(99))
        total, good = 0, 0
        for trial in range(3):
            n = 24
            g = rng.random((n, n))
            blur = BlurSpec(band=3, sigma=1.0) if trial % 2 == 0 else BlurSpec(band=1)
            weights = rng.uniform(0.5, 2.0, (n, n))
            mu, bt, bw, p = 30.0, 20.0, 100.0, 2
            plan = linops.build_plan(n, n, blur)
            x, fixed = solver._start(g, plan, bt, bw)
            values = []
            for _ in range(120):
                # the textbook Lagrangian takes the unscaled duals rho = beta y,
                # formed before the sweep updates y in place
                rho_w, rho_t = bw * _real(x.y_w, g.shape), tuple(bt * c for c in x.y_t)
                x, _ = solver._sweep(x, fixed, weights, mu, p)
                values.append(augmented_lagrangian(
                    x.u, _real(x.w, g.shape), x.t, rho_w, rho_t,
                    g, plan, weights, mu, bt, bw, p,
                ))
            diffs = np.diff(values)
            tol = 1e-10 * (1.0 + np.abs(np.asarray(values[:-1])))
            good += int(np.sum(diffs <= tol))
            total += diffs.size
        assert good / total >= 0.95


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


class TestTraceExport:
    def test_trace_csv_schema(self, tmp_path):
        u = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        g = degrade(u, DegradationSpec(blur=BlurSpec(band=1), sigma=0.1, seed=8))
        cfg = SolverConfig(p=2, tau=1.0, r=2, mode="hwtv", max_iter=5)
        result = restore(g, BlurSpec(band=1), 0.1, cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "mu", "discrepancy", "rel_change", "wall_ms"]
        assert len(rows) == 1 + result.iterations
