"""ADMM engine for space-variant TV restoration with automatic parameters.

The restoration objective sum_i alpha_i |(Du)_i|_p + (mu/2) ||Ku - g||^2 is
split with an auxiliary gradient field t = Du and residual image w = Ku - g.
Each iteration refreshes the parameters (per-pixel weights alpha from the
current iterate, global weight mu from the discrepancy principle), runs the
closed-form primal updates (shrinkage for t, pointwise scaling for w, one
spectral solve for u) and then the dual ascent steps. The scalar-TV baseline
is the same loop with alpha frozen at one everywhere.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .adapt import estimate_alpha, update_mu
from .imgcore import ImageBuffer
from .linops import (
    BlurSpec,
    SpectralPlan,
    blur_via_plan,
    build_plan,
    divergence,
    gradient,
    half_spectrum_norm,
    pointwise_norm,
    spectral_step,
)

MODES = ("hwtv", "tv_scalar")
PROX_VARIANTS = ("exact", "paper_verbatim")


class DivergenceError(RuntimeError):
    """The iterate went non-finite; ``iteration`` is the failing sweep index."""

    def __init__(self, iteration: int):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


def _require_finite_positive(name: str, value: float) -> None:
    # NaN fails every comparison, so "value <= 0" alone would let it through.
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of one restoration run.

    ``p`` selects anisotropic (1) or isotropic (2) TV; ``tau`` and ``r`` feed
    the parameter updates; ``mode`` chooses adaptive weights ("hwtv") or the
    scalar baseline ("tv_scalar"). ``aniso_prox`` picks the exact
    soft-thresholding proximal map for p = 1 or the verbatim shrinkage
    formula ("paper_verbatim").
    """

    p: int
    tau: float
    r: int
    mode: str = "hwtv"
    beta_t: float = 20.0
    beta_w: float = 100.0
    eps_floor: float = 1e-4
    max_iter: int = 500
    tol: float = 1e-5
    aniso_prox: str = "exact"

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")
        for name in ("tau", "beta_t", "beta_w", "eps_floor", "tol"):
            _require_finite_positive(name, getattr(self, name))
        if not isinstance(self.r, numbers.Integral) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.aniso_prox not in PROX_VARIANTS:
            raise ValueError(
                f"aniso_prox must be one of {PROX_VARIANTS}, got {self.aniso_prox!r}"
            )


@dataclass(frozen=True)
class TraceRow:
    """Per-iteration diagnostics."""

    k: int
    mu: float
    discrepancy: float
    rel_change: float
    wall_ms: float


TRACE_FIELDS = ("k", "mu", "discrepancy", "rel_change", "wall_ms")


@dataclass(eq=False)
class RestoreResult:
    """Output of :func:`restore`: the restored image plus run diagnostics."""

    u_star: ImageBuffer
    iterations: int
    final_mu: float
    final_discrepancy: float
    alpha_final: np.ndarray
    trace: list[TraceRow] = field(default_factory=list)


def write_trace_csv(path, rows: list[TraceRow]) -> None:
    """Export trace rows as CSV with the stable column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for row in rows:
            writer.writerow([row.k, row.mu, row.discrepancy, row.rel_change, row.wall_ms])


def prox_t(
    q: tuple[np.ndarray, np.ndarray],
    alpha: np.ndarray,
    beta_t: float,
    p: int,
    variant: str = "exact",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel minimizer of alpha_i ||t_i||_p + (beta_t/2) ||t_i - q_i||_2^2.

    ``q`` and the result are (h, v) gradient-field pairs; ``alpha`` is the
    weight array of the same shape. For p = 2 (and for the "paper_verbatim"
    variant at p = 1) this is the shrinkage
    t_i = q_i max(1 - alpha_i / (beta_t ||q_i||_p), 0), with t_i = 0 when
    q_i = 0. The "exact" variant at p = 1 soft-thresholds each component,
    which is the true proximal map of the anisotropic penalty.
    """
    if beta_t <= 0:
        raise ValueError(f"beta_t must be positive, got {beta_t}")
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    if variant not in PROX_VARIANTS:
        raise ValueError(f"variant must be one of {PROX_VARIANTS}, got {variant!r}")
    q_h, q_v = q
    if alpha.shape != q_h.shape:
        raise ValueError("alpha and q shapes differ")
    if p == 1 and variant == "exact":
        threshold = alpha / beta_t
        out_h = np.sign(q_h) * np.maximum(np.abs(q_h) - threshold, 0.0)
        out_v = np.sign(q_v) * np.maximum(np.abs(q_v) - threshold, 0.0)
        return out_h, out_v
    norms = pointwise_norm(q, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, 1.0 - alpha / (beta_t * norms), 0.0)
    scale = np.maximum(scale, 0.0)
    return q_h * scale, q_v * scale


def update_w(z: np.ndarray, mu: float, beta_w: float) -> np.ndarray:
    """Closed-form residual update: pointwise scaling by beta_w / (mu + beta_w)."""
    if beta_w <= 0:
        raise ValueError(f"beta_w must be positive, got {beta_w}")
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    return z * (beta_w / (mu + beta_w))


def objective(
    u: np.ndarray,
    g: np.ndarray,
    plan: SpectralPlan,
    alpha: np.ndarray,
    mu: float,
    p: int,
) -> float:
    """Diagnostic value sum_i alpha_i ||(Du)_i||_p + (mu/2) ||Ku - g||^2.

    ``plan`` carries the blur K. Not monotone across restore() iterations
    since alpha and mu change there.
    """
    norms = pointwise_norm(gradient(u), p)
    residual = blur_via_plan(plan, u) - g
    return float(np.sum(alpha * norms) + 0.5 * mu * np.sum(residual**2))


def augmented_lagrangian(
    u: np.ndarray,
    w: np.ndarray,
    t: tuple[np.ndarray, np.ndarray],
    rho_w: np.ndarray,
    rho_t: tuple[np.ndarray, np.ndarray],
    g: np.ndarray,
    plan: SpectralPlan,
    alpha: np.ndarray,
    mu: float,
    beta_t: float,
    beta_w: float,
    p: int,
) -> float:
    """Value of the augmented Lagrangian at the given primal/dual point."""
    grad_h, grad_v = gradient(u)
    res_h = t[0] - grad_h
    res_v = t[1] - grad_v
    res_w = w - (blur_via_plan(plan, u) - g)
    value = float(np.sum(alpha * pointwise_norm(t, p)))
    value += 0.5 * mu * float(np.sum(w**2))
    value -= float(np.sum(rho_t[0] * res_h) + np.sum(rho_t[1] * res_v))
    value += 0.5 * beta_t * float(np.sum(res_h**2) + np.sum(res_v**2))
    value -= float(np.sum(rho_w * res_w))
    value += 0.5 * beta_w * float(np.sum(res_w**2))
    return value


class _Iterate(NamedTuple):
    """ADMM state between sweeps, unvalidated.

    ``u``, ``grad`` (Du) and ``rho_t`` are real. The linear chain is kept on
    the ``rfft2`` half spectrum: ``residual`` is the spectrum of Ku - g,
    ``rho_w`` that of the residual dual, and ``z`` that of residual +
    rho_w / beta_w, the point the next sweep's mu is chosen at. ``w`` (a
    spectrum) and ``t`` (real) are the primal values of the sweep that
    produced this state, None at start. :func:`restore` keeps
    ``residual``, ``w`` and ``t`` as None between sweeps, since a sweep reads
    none of them.
    """

    u: np.ndarray
    residual: np.ndarray
    grad: tuple[np.ndarray, np.ndarray]
    rho_w: np.ndarray
    rho_t: tuple[np.ndarray, np.ndarray]
    z: np.ndarray
    w: np.ndarray | None
    t: tuple[np.ndarray, np.ndarray] | None


def _start(g: np.ndarray, plan: SpectralPlan, beta_w: float) -> tuple[_Iterate, np.ndarray]:
    """State at u = g with zero duals, and G = rfft2(g), which every sweep takes."""
    g_spectrum = np.fft.rfft2(g)
    residual = g_spectrum * plan.eigen_K - g_spectrum
    rho_w = np.zeros_like(g_spectrum)
    rho_h, rho_v = np.zeros_like(g), np.zeros_like(g)
    state = _Iterate(g, residual, gradient(g), rho_w, (rho_h, rho_v),
                     residual + rho_w / beta_w, None, None)
    return state, g_spectrum


def _sweep(
    x: _Iterate,
    g_spectrum: np.ndarray,
    plan: SpectralPlan,
    alpha: np.ndarray,
    mu: float,
    beta_t: float,
    beta_w: float,
    p: int,
    variant: str,
) -> _Iterate:
    """One pass of the splitting at fixed alpha and mu: t, w, u, then dual ascent.

    The w step, the right-hand side of the u step, the residual and its dual
    are all formed on the half spectrum, so the only transforms are the two
    inside ``spectral_step``. The residual K U - G is formed in the buffer of
    the solution spectrum U; the arrays of ``x`` are left as they are.
    """
    ratio = beta_w / beta_t
    (grad_h, grad_v), (rho_h, rho_v) = x.grad, x.rho_t
    t_h, t_v = prox_t(
        (grad_h + rho_h / beta_t, grad_v + rho_v / beta_t), alpha, beta_t, p, variant
    )
    w = update_w(x.z, mu, beta_w)
    u, residual = spectral_step(
        plan,
        divergence((t_h - rho_h / beta_t, t_v - rho_v / beta_t)),
        w - x.rho_w / beta_w + g_spectrum,
        ratio,
    )
    residual *= plan.eigen_K
    residual -= g_spectrum
    grad_h, grad_v = gradient(u)
    rho_w = x.rho_w - beta_w * (w - residual)
    z = residual + rho_w / beta_w
    rho_h = rho_h - beta_t * (t_h - grad_h)
    rho_v = rho_v - beta_t * (t_v - grad_v)
    return _Iterate(u, residual, (grad_h, grad_v), rho_w, (rho_h, rho_v), z, w, (t_h, t_v))


def restore(
    g: ImageBuffer, blur: BlurSpec, sigma: float, cfg: SolverConfig
) -> RestoreResult:
    """Run the full adaptive ADMM restoration of a degraded image.

    Parameters
    ----------
    g : ImageBuffer
        Observed image (blurred and noisy).
    blur : BlurSpec
        The known blur operator; identity for pure denoising.
    sigma : float
        Known noise standard deviation, used only through the discrepancy
        target tau * sigma * sqrt(n).
    cfg : SolverConfig
        Solver mode and tunables.

    Returns
    -------
    RestoreResult
        Restored image, iteration count, final fidelity weight and residual
        norm, the last weight map used, and the per-iteration trace.

    Raises
    ------
    DivergenceError
        An iterate went non-finite; the exception carries the sweep index.
        Each sweep tests two scalars it computes anyway: the norm of the
        residual that sets mu, and the norm of the step in u.

    Notes
    -----
    Each iteration performs, in order: parameter refresh (weight map from the
    current iterate in "hwtv" mode or the all-ones map in "tv_scalar" mode,
    then the discrepancy update of mu), primal updates t, w, u, then dual
    ascent on rho_w and rho_t. The linear terms w, rho_w, Ku - g and z stay
    on the real-FFT half spectrum, and their norms come from Parseval, so a
    sweep runs two real transforms. Starts from u = g with zero duals; stops
    when the relative change of u falls to ``cfg.tol`` or after
    ``cfg.max_iter`` sweeps. Deterministic: identical inputs give
    bit-identical iterates.
    """
    _require_finite_positive("sigma", sigma)
    if cfg.mode == "hwtv" and 2 * cfg.r + 1 > min(g.height, g.width):
        raise ValueError(
            f"estimation window {2 * cfg.r + 1} exceeds image "
            f"{g.height}x{g.width}"
        )
    plan = build_plan(g.width, g.height, blur)
    delta = cfg.tau * sigma * math.sqrt(g.pixel_count)
    g_arr = g.data
    alpha = np.ones_like(g_arr)
    x, g_spectrum = _start(g_arr, plan, cfg.beta_w)
    trace: list[TraceRow] = []

    for k in range(cfg.max_iter):
        tick = time.perf_counter()
        if cfg.mode == "hwtv":
            alpha = estimate_alpha(x.u, cfg.p, cfg.r, cfg.eps_floor)
        z_norm = half_spectrum_norm(plan, x.z)
        if not math.isfinite(z_norm):
            raise DivergenceError(k)
        mu = update_mu(z_norm, delta, cfg.beta_w)
        u_prev = x.u
        x = _sweep(
            x, g_spectrum, plan, alpha, mu, cfg.beta_t, cfg.beta_w, cfg.p, cfg.aniso_prox
        )
        discrepancy = half_spectrum_norm(plan, x.residual)
        # Only the next sweep's inputs are kept: holding the residual, w and
        # t as well would keep four more arrays alive through it.
        x = x._replace(residual=None, w=None, t=None)
        step = float(np.linalg.norm(x.u - u_prev))
        if not math.isfinite(step):
            raise DivergenceError(k)
        rel_change = step / max(float(np.linalg.norm(u_prev)), np.finfo(np.float64).tiny)
        trace.append(
            TraceRow(
                k=k,
                mu=mu,
                discrepancy=discrepancy,
                rel_change=rel_change,
                wall_ms=(time.perf_counter() - tick) * 1e3,
            )
        )
        if rel_change <= cfg.tol:
            break

    return RestoreResult(
        u_star=ImageBuffer(x.u),
        iterations=len(trace),
        final_mu=mu,
        final_discrepancy=trace[-1].discrepancy,
        alpha_final=alpha,
        trace=trace,
    )
