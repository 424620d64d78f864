"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.
The full suite is sized to finish in about a minute on commodity hardware.
"""

import functools
import time

import numpy as np

from hwtv import linops
from hwtv.adapt import _alpha_from_norms
from hwtv.imgcore import isnr, ssim
from hwtv.linops import BlurSpec, _gaussian_window
from hwtv.solver import SolverConfig, prox_t, restore
from hwtv.synth import DegradationSpec, PhantomSpec, degrade, make_phantom

from half_laplacian import sample_half_laplacian
from objectives import frozen_nonincrease_share, prox1_bisection_oracle, prox2_grid_oracle
from spatial_blur import circular_correlate

# Shared deblurring benchmark: half piecewise-constant, half fine sinusoidal
# texture that plain TV oversmooths while the adaptive weights protect it.
BENCH_PHANTOM = PhantomSpec(width=128, height=128, kind="mixed", texture_freq=20.0)
BENCH_BLUR = BlurSpec(band=5, sigma=1.0)
BENCH_SEED = 11
# Penalty parameters for the ordering benchmark. The adaptive loop does not
# settle within the iteration budget on this phantom, so its result depends
# on the penalties, not only its speed: at sigma 0.02, r 14 and 1200 sweeps,
# hwtv reaches 1.27 dB ISNR with the defaults (20, 100) but 4.49 dB with both
# penalties raised five-fold, which is what the benchmark runs with.
BENCH_BETA_T = 100.0
BENCH_BETA_W = 500.0


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_operator_correctness():
    tick = time.perf_counter()
    rng = np.random.default_rng(101)
    spec = BlurSpec(band=5, sigma=1.0)
    kernel = _gaussian_window(spec.band, spec.sigma)
    eigen_k = linops.build_plan(16, 16, spec)
    worst_d = worst_k = 0.0
    for _ in range(50):
        u = rng.standard_normal((16, 16))
        t = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        w = rng.standard_normal((16, 16))
        grad_h, grad_v = linops.gradient(u)
        lhs = float(np.sum(grad_h * t[0]) + np.sum(grad_v * t[1]))
        rhs = float(np.sum(u * linops.divergence(t)))
        scale = np.linalg.norm(u) * np.hypot(np.linalg.norm(t[0]), np.linalg.norm(t[1]))
        worst_d = max(worst_d, abs(lhs - rhs) / scale)
        lhs_k = float(np.sum(linops.blur_via_plan(eigen_k, u) * w))
        rhs_k = float(np.sum(u * circular_correlate(w, kernel)))
        scale_k = np.linalg.norm(u) * np.linalg.norm(w)
        worst_k = max(worst_k, abs(lhs_k - rhs_k) / scale_k)
    ratio = 5.0
    factors = linops._step_factors(eigen_k, 16, ratio)
    worst_res = 0.0
    for _ in range(50):
        d, v = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        rhs_img = d + ratio * circular_correlate(v, kernel)
        u, _ = linops._spectral_step(d, np.fft.rfft2(v), factors)
        applied = linops.divergence(linops.gradient(u)) + ratio * circular_correlate(
            linops.blur_via_plan(eigen_k, u), kernel
        )
        worst_res = max(worst_res, np.linalg.norm(applied - rhs_img) / np.linalg.norm(rhs_img))
    elapsed = time.perf_counter() - tick
    ok = worst_d <= 1e-12 and worst_k <= 1e-12 and worst_res <= 1e-10 and elapsed < 5.0
    _report(
        1,
        ok,
        f"adjoint(D)={worst_d:.2e} adjoint(K)={worst_k:.2e} "
        f"solve residual={worst_res:.2e} in {elapsed:.2f}s",
    )


def test_criterion_2_prox_oracles():
    tick = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_iso = 0.0
    for _ in range(1000):
        qx, qy = rng.uniform(-2, 2, 2)
        alpha = rng.uniform(0.0, 3.0)
        beta = rng.uniform(5.0, 50.0)
        out_h, out_v = prox_t(np.array([[[qx]], [[qy]]]), np.array([[alpha]]), beta_t=beta, p=2)
        ex, ey = prox2_grid_oracle(qx, qy, alpha, beta)
        worst_iso = max(worst_iso, abs(out_h[0, 0] - ex), abs(out_v[0, 0] - ey))
    worst_aniso = 0.0
    for _ in range(1000):
        q = rng.uniform(-2, 2)
        alpha = rng.uniform(0.0, 3.0)
        beta = rng.uniform(5.0, 50.0)
        out_h, _ = prox_t(np.array([[[q]], [[0.0]]]), np.array([[alpha]]), beta_t=beta, p=1)
        worst_aniso = max(worst_aniso, abs(out_h[0, 0] - prox1_bisection_oracle(q, alpha, beta)))
    elapsed = time.perf_counter() - tick
    ok = worst_iso <= 1e-6 and worst_aniso <= 1e-10 and elapsed < 30.0
    _report(
        2,
        ok,
        f"isotropic vs grid={worst_iso:.2e} anisotropic vs bisection={worst_aniso:.2e} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_ml_estimator_consistency():
    tick = time.perf_counter()
    rate = 2.5
    side = 256
    samples = sample_half_laplacian(rate, side * side, seed=303)
    alpha = _alpha_from_norms(samples.reshape(side, side), r=40)
    rel_err = np.abs(alpha - rate) / rate
    fraction = float(np.mean(rel_err <= 0.05))
    elapsed = time.perf_counter() - tick
    ok = fraction >= 0.95 and elapsed < 10.0
    _report(3, ok, f"{100 * fraction:.2f}% of pixel estimates within 5% in {elapsed:.2f}s")


def test_criterion_4_discrepancy_principle_denoising():
    tick = time.perf_counter()
    truth = make_phantom(BENCH_PHANTOM)
    identity = BlurSpec(band=1)
    details = []
    ok = True
    for sigma in (0.05, 0.1):
        g = degrade(truth, DegradationSpec(blur=identity, sigma=sigma, seed=3))
        delta = sigma * np.sqrt(truth.pixel_count)
        for mode in ("hwtv", "tv_scalar"):
            cfg = SolverConfig(p=2, tau=1.0, r=6, mode=mode)
            result = restore(g, identity, sigma, cfg)
            gain = isnr(g, truth, result.u_star)
            ratio = result.final_discrepancy / delta
            ok = ok and ratio <= 1.05 and gain > 0.0
            details.append(f"{mode}@{sigma}: disc/delta={ratio:.4f} isnr={gain:+.2f}")
    elapsed = time.perf_counter() - tick
    ok = ok and elapsed < 60.0
    _report(4, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def _bench_problem(sigma):
    truth = make_phantom(BENCH_PHANTOM)
    return truth, degrade(truth, DegradationSpec(blur=BENCH_BLUR, sigma=sigma, seed=BENCH_SEED))


@functools.cache
def _bench_cell(sigma, tau, r, mode):
    # One restore of the benchmark grid, run once per session and shared, so
    # callers only read it: criterion 6 reads a cell criterion 5 has run.
    _, g = _bench_problem(sigma)
    cfg = SolverConfig(
        p=2, tau=tau, r=r, mode=mode,
        beta_t=BENCH_BETA_T, beta_w=BENCH_BETA_W, max_iter=1200, tol=1e-6,
    )
    return restore(g, BENCH_BLUR, sigma, cfg)


def _bench_best_over_grid(g, truth, sigma):
    taus = (0.90, 0.94, 0.98)
    radii = (6, 14)
    best = {"hwtv_isnr": -np.inf, "hwtv_ssim": -np.inf, "tv_isnr": -np.inf, "tv_ssim": -np.inf}
    for tau in taus:
        for r in radii:
            result = _bench_cell(sigma, tau, r, "hwtv")
            best["hwtv_isnr"] = max(best["hwtv_isnr"], isnr(g, truth, result.u_star))
            best["hwtv_ssim"] = max(best["hwtv_ssim"], ssim(result.u_star, truth))
        result = _bench_cell(sigma, tau, 6, "tv_scalar")
        best["tv_isnr"] = max(best["tv_isnr"], isnr(g, truth, result.u_star))
        best["tv_ssim"] = max(best["tv_ssim"], ssim(result.u_star, truth))
    return best


def test_criterion_5_adaptive_beats_scalar_over_grid():
    tick = time.perf_counter()
    details = []
    ok = True
    for sigma in (0.02, 0.05):
        truth, g = _bench_problem(sigma)
        best = _bench_best_over_grid(g, truth, sigma)
        isnr_margin = best["hwtv_isnr"] - best["tv_isnr"]
        ssim_margin = best["hwtv_ssim"] - best["tv_ssim"]
        ok = ok and isnr_margin >= 0.05 and ssim_margin > 0.0
        details.append(
            f"sigma={sigma}: ISNR {best['hwtv_isnr']:.3f} vs {best['tv_isnr']:.3f} "
            f"(+{isnr_margin:.3f} dB), SSIM {best['hwtv_ssim']:.4f} vs {best['tv_ssim']:.4f}"
        )
    elapsed = time.perf_counter() - tick
    ok = ok and elapsed < 600.0
    _report(5, ok, "; ".join(details) + f" in {elapsed:.0f}s")


def test_criterion_6_alpha_map_separates_halves():
    result = _bench_cell(0.05, 0.90, 6, "hwtv")
    split = BENCH_PHANTOM.width // 2
    flat_mean = float(result.alpha_final[:, :split].mean())
    texture_mean = float(result.alpha_final[:, split:].mean())
    factor = flat_mean / texture_mean
    _report(
        6,
        factor >= 2.0,
        f"mean alpha flat={flat_mean:.1f} texture={texture_mean:.2f} factor={factor:.1f}",
    )


def test_criterion_7_efficiency_256():
    truth = make_phantom(
        PhantomSpec(width=256, height=256, kind="mixed", texture_freq=20.0)
    )
    sigma = 0.05
    g = degrade(truth, DegradationSpec(blur=BENCH_BLUR, sigma=sigma, seed=1))
    cfg = SolverConfig(p=2, tau=0.94, r=14, mode="hwtv", max_iter=500, tol=1e-14)
    tick = time.perf_counter()
    result = restore(g, BENCH_BLUR, sigma, cfg)
    elapsed = time.perf_counter() - tick
    ok = elapsed <= 60.0 and result.iterations == 500
    _report(7, ok, f"{result.iterations} iterations on 256x256 in {elapsed:.1f}s")


def test_criterion_8_frozen_parameter_stability():
    fraction = frozen_nonincrease_share(trials=10, n=32, sweeps=150)
    _report(8, fraction >= 0.95, f"{100 * fraction:.2f}% of primal sweeps non-increasing")
