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
import time
from dataclasses import astuple, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .adapt import alpha_from_norms, update_mu
from .imgcore import ImageBuffer, _is_integer, _require_finite_positive
from .linops import (
    BlurSpec,
    SpectralPlan,
    _sum_squares,
    build_plan,
    divergence,
    gradient,
    half_spectrum_norm,
    pointwise_norm,
    spectral_step,
    step_factors,
)

MODES = ("hwtv", "tv_scalar")
# Window means of the gradient norms are clamped here, so no weight exceeds 1e4.
EPS_FLOOR = 1e-4


class DivergenceError(RuntimeError):
    """The iterate went non-finite; ``iteration`` is the failing sweep index."""

    def __init__(self, iteration: int):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of one restoration run.

    ``p`` selects anisotropic (1) TV, whose t-step soft-thresholds each
    gradient component (see :func:`prox_t`), or isotropic (2) TV; ``tau``
    and ``r`` feed the parameter updates; ``mode`` chooses adaptive weights
    ("hwtv") or the scalar baseline ("tv_scalar").
    """

    p: int
    tau: float
    r: int
    mode: str = "hwtv"
    beta_t: float = 20.0
    beta_w: float = 100.0
    max_iter: int = 500
    tol: float = 1e-5

    def __post_init__(self):
        if not _is_integer(self.p) or self.p not in (1, 2):
            raise ValueError(f"p must be the integer 1 or 2, got {self.p!r}")
        for name in ("tau", "beta_t", "beta_w", "tol"):
            _require_finite_positive(name, getattr(self, name))
        # Each penalty can be finite and positive while the ratio the u step
        # takes overflows or underflows.
        _require_finite_positive("beta_w / beta_t", self.beta_w / self.beta_t)
        if not _is_integer(self.r) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not _is_integer(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class TraceRow:
    """Per-iteration diagnostics."""

    k: int
    mu: float
    discrepancy: float
    rel_change: float
    wall_ms: float


TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


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
        writer.writerows(map(astuple, rows))


def prox_t(
    q: tuple[np.ndarray, np.ndarray],
    alpha: np.ndarray,
    beta_t: float,
    p: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel minimizer of alpha_i ||t_i||_p + (beta_t/2) ||t_i - q_i||_2^2.

    ``q`` and the result are (h, v) gradient-field pairs; ``alpha`` is the
    nonnegative weight array of the same shape. For p = 1 it soft-thresholds
    each component by alpha_i / beta_t, the proximal map of the anisotropic
    penalty. For p = 2 it is the shrinkage
    t_i = q_i max(1 - alpha_i / (beta_t ||q_i||_2), 0), with t_i = 0 when
    q_i = 0. ``out``, if given, is a pair of arrays of q's shape, not
    overlapping ``q``, that receives t and is returned. ``scratch``, if
    given, is a pair of arrays of q's shape overlapping neither, which the
    p = 1 map overwrites with its threshold and signs. The caller ensures
    beta_t > 0 and p in {1, 2}, as ``SolverConfig`` does.
    """
    q_h, q_v = q
    if out is None:
        out = np.empty(q_h.shape), np.empty(q_v.shape)
    out_h, out_v = out
    if p == 1:
        if scratch is None:
            scratch = np.empty(q_h.shape), np.empty(q_h.shape)
        threshold, sign = scratch
        np.divide(alpha, beta_t, out=threshold)
        for comp, dest in ((q_h, out_h), (q_v, out_v)):
            np.abs(comp, out=dest)
            dest -= threshold
            np.maximum(dest, 0.0, out=dest)
            dest *= np.sign(comp, out=sign)
        return out
    # The scale is built in out_h, out_v being scratch. Where the norm is
    # zero it reads -inf, or NaN if alpha is zero as well, and fmax clamps
    # both to the 0 that makes t_i = 0 there.
    scale = pointwise_norm(q, 2, out=out_h, scratch=out_v)
    np.multiply(beta_t, scale, out=scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(alpha, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    np.fmax(scale, 0.0, out=scale)
    np.multiply(q_v, scale, out=out_v)
    np.multiply(q_h, scale, out=out_h)
    return out


class _Iterate(NamedTuple):
    """ADMM state between sweeps, unvalidated.

    ``u``, ``grad`` (Du) and the scaled gradient dual ``y_t`` = rho_t /
    beta_t are real. The linear chain is kept on the ``rfft2`` half
    spectrum: ``y_w`` is the scaled residual dual rho_w / beta_w, and ``z``
    is the spectrum of (Ku - g) + y_w, the point the next sweep's mu is
    chosen at. ``w`` (a spectrum) and ``t`` (real) are the primal values of
    the sweep that produced this state; ``work`` is a pair of real images,
    and the next sweep writes u into ``u_next`` and U = rfft2(u) into
    ``spectrum``. Those five are scratch that the next sweep overwrites, as
    it does ``grad``, ``y_w``, ``y_t`` and ``z``. :func:`_start` allocates
    every array; a sweep trades ``u`` with ``u_next`` and ``z`` with ``w``.
    """

    u: np.ndarray
    grad: tuple[np.ndarray, np.ndarray]
    y_w: np.ndarray
    y_t: tuple[np.ndarray, np.ndarray]
    z: np.ndarray
    w: np.ndarray
    t: tuple[np.ndarray, np.ndarray]
    work: tuple[np.ndarray, np.ndarray]
    u_next: np.ndarray
    spectrum: np.ndarray


class _Fixed(NamedTuple):
    """What every sweep of one restore reads and none writes.

    ``g_spectrum`` is G = rfft2(g) and ``factors`` is
    ``step_factors(plan, beta_w / beta_t)``.
    """

    plan: SpectralPlan
    g_spectrum: np.ndarray
    factors: tuple[np.ndarray, np.ndarray]
    beta_t: float
    beta_w: float


def _start(
    g: np.ndarray, plan: SpectralPlan, beta_t: float, beta_w: float
) -> tuple[_Iterate, _Fixed]:
    """State at u = g (a copy) with zero duals, its scratch, and the constants."""
    g_spectrum = np.fft.rfft2(g)
    state = _Iterate(
        u=g.copy(),
        grad=gradient(g),
        y_w=np.zeros_like(g_spectrum),
        y_t=(np.zeros_like(g), np.zeros_like(g)),
        z=g_spectrum * plan.eigen_K - g_spectrum,
        w=np.empty_like(g_spectrum),
        t=(np.empty_like(g), np.empty_like(g)),
        work=(np.empty_like(g), np.empty_like(g)),
        u_next=np.empty_like(g),
        spectrum=np.empty_like(g_spectrum),
    )
    fixed = _Fixed(plan, g_spectrum, step_factors(plan, beta_w / beta_t), beta_t, beta_w)
    return state, fixed


def _sweep(
    x: _Iterate, f: _Fixed, alpha: np.ndarray, mu: float, p: int
) -> tuple[_Iterate, float]:
    """One pass of the splitting at fixed alpha and mu: t, w, u, then dual ascent.

    Returns the new state and the discrepancy ||Ku - g|| of the new u. Works
    in place, with no image-sized array of its own: ``grad``, ``y_t``,
    ``y_w`` and the scratch of ``x`` are overwritten, and ``u``/``u_next``
    and ``z``/``w`` swap buffers, so the old u stays readable. The w step, the right-hand side of the u
    step, the residual and its dual are all formed on the half spectrum, so
    the only transforms are the two inside ``spectral_step``. The duals are
    scaled (Boyd et al. 2011, section 3.1.1), so beta_t enters only the t
    step and beta_w only the w step.
    """
    grad, y_t, t, work = x.grad, x.y_t, x.t, x.work
    y_w, spare = x.y_w, x.w
    # q = Du + y_t, formed in the buffers of Du, whose value the sweep
    # recomputes from the new u; then t = prox(q), with work as the prox's
    # scratch, and work = t - y_t.
    for y_c, grad_c in zip(y_t, grad):
        grad_c += y_c
    prox_t(grad, alpha, f.beta_t, p, out=t, scratch=work)
    for t_c, y_c, work_c in zip(t, y_t, work):
        np.subtract(t_c, y_c, out=work_c)
    # w = z beta_w / (mu + beta_w), written over z; mu >= 0 and beta_w > 0.
    w = np.multiply(x.z, f.beta_w / (mu + f.beta_w), out=x.z)
    # spare = w - y_w + G, which the u step then overwrites.
    np.subtract(w, y_w, out=spare)
    spare += f.g_spectrum
    # d = div(work) in grad[0], grad[1] as scratch: prox_t has read q, and
    # the gradient of the new u is written over both below.
    d = divergence(work, out=grad[0], scratch=grad[1])
    u, residual = spectral_step(d, spare, f.factors, out=(x.u_next, x.spectrum))
    residual *= f.plan.eigen_K
    residual -= f.g_spectrum
    gradient(u, out=grad)
    # y_w += (Ku - g) - w; z = (Ku - g) + y_w.
    y_w += np.subtract(residual, w, out=spare)
    z = np.add(residual, y_w, out=spare)
    # y_t += Du - t.
    for y_c, t_c, grad_c, work_c in zip(y_t, t, grad, work):
        y_c += np.subtract(grad_c, t_c, out=work_c)
    return x._replace(u=u, u_next=x.u, z=z, w=w), half_spectrum_norm(f.plan, residual)


def _require_window_fits(cfg: SolverConfig, g: ImageBuffer) -> None:
    """Reject an "hwtv" weight-estimation window wider than ``g``."""
    if cfg.mode == "hwtv" and 2 * cfg.r + 1 > min(g.height, g.width):
        raise ValueError(
            f"estimation window {2 * cfg.r + 1} exceeds image "
            f"{g.height}x{g.width}"
        )


def restore(
    g: ImageBuffer, blur: BlurSpec, sigma: float, cfg: SolverConfig
) -> RestoreResult:
    """Run the full adaptive ADMM restoration of a degraded image.

    Parameters
    ----------
    g : ImageBuffer
        Observed image (blurred and noisy).
    blur : BlurSpec
        The known blur operator; band 1, the identity, for pure denoising.
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
    ascent on the scaled duals y_w and y_t. The linear terms w, y_w, Ku - g
    and z stay on the real-FFT half spectrum, and their norms come from
    Parseval, so a sweep runs two real transforms. The state is updated in
    place, in buffers allocated once per call before the first sweep, so a
    sweep (see :func:`_sweep`) and a weight refresh allocate no image-sized
    array of their own; ``g`` is not modified, and ``u_star`` and
    ``alpha_final`` are buffers, not copies.
    Starts from u = g with zero duals; stops when the relative change of u
    falls to ``cfg.tol`` or after ``cfg.max_iter`` sweeps. Deterministic:
    identical inputs give bit-identical iterates, whatever the BLAS thread
    count, since no norm is summed by BLAS.
    """
    _require_finite_positive("sigma", sigma)
    _require_window_fits(cfg, g)
    plan = build_plan(g.width, g.height, blur)
    delta = cfg.tau * sigma * math.sqrt(g.pixel_count)
    if delta <= 0:
        raise ValueError(f"tau * sigma * sqrt(n) must be positive, got {delta}")
    g_arr = g.data
    alpha = np.ones_like(g_arr)
    x, fixed = _start(g_arr, plan, cfg.beta_t, cfg.beta_w)
    if cfg.mode == "hwtv":
        # The weights go over alpha, box_mean's first-axis sums in t, which
        # the next prox_t overwrites, and its running sums in a new buffer.
        box = alpha, x.t[0], np.empty(g.pixel_count + 2 * cfg.r * max(g_arr.shape))
    trace: list[TraceRow] = []

    for k in range(cfg.max_iter):
        tick = time.perf_counter()
        if cfg.mode == "hwtv":
            # The weights of u, from the Du the last sweep formed for its
            # dual update.
            norms = pointwise_norm(x.grad, cfg.p, out=x.work[0], scratch=x.work[1])
            alpha_from_norms(norms, cfg.r, EPS_FLOOR, out=box)
        z_norm = half_spectrum_norm(plan, x.z)
        if not math.isfinite(z_norm):
            raise DivergenceError(k)
        mu = update_mu(z_norm, delta, cfg.beta_w)
        u_prev = x.u
        x, discrepancy = _sweep(x, fixed, alpha, mu, cfg.p)
        step = math.sqrt(_sum_squares(np.subtract(x.u, u_prev, out=x.work[0])))
        if not math.isfinite(step):
            raise DivergenceError(k)
        u_norm = math.sqrt(_sum_squares(u_prev))
        rel_change = step / max(u_norm, np.finfo(np.float64).tiny)
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
