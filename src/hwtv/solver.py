"""ADMM engine for space-variant TV restoration with automatic parameters.

The restoration problem min sum_i alpha_i |(Du)_i|_p s.t. ||Ku - g|| <= delta,
the discrepancy principle's bound, is split with an auxiliary gradient field
t = Du and residual image w = Ku - g. Each iteration refreshes the per-pixel
weights alpha from the current iterate, runs the closed-form primal updates
(shrinkage for t, the projection onto the ball ||w|| <= delta for w, one
spectral solve for u) and then the dual ascent steps. The scalar-TV baseline
is the same loop with alpha frozen at one everywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adapt import _alpha_from_norms, update_mu
from .imgcore import ImageBuffer
from .linops import (
    BlurSpec, _half_spectrum_norm, _is_integer, _require_choice, _require_count,
    _require_finite_positive, _require_instance, _require_window_fits, _spectral_step,
    _step_factors, _sum_squares, build_plan, divergence, gradient, pointwise_norm,
)

MODES = ("hwtv", "tv_scalar")


class DivergenceError(RuntimeError):
    """The iterate went non-finite; ``iteration`` is the failing sweep index."""

    def __init__(self, iteration: int):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of one restoration run.

    ``p`` selects anisotropic (1) TV, whose t-step is the p = 2 shrinkage
    on each gradient component, the soft threshold to within eps |q| (see
    :func:`prox_t`), or isotropic (2) TV; ``tau`` sets the ball radius
    delta and ``r`` the weights' window; ``mode`` chooses adaptive weights
    ("hwtv") or the scalar baseline ("tv_scalar"). ``beta_t`` sets the t
    step's threshold alpha / beta_t; ``beta_w`` enters only the u step, as
    beta_w / beta_t, and scales the recorded multiplier mu.
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
        _require_count("r", self.r, 1)
        _require_choice("mode", self.mode, MODES)
        _require_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class TraceRow:
    """Per-iteration diagnostics."""

    k: int
    mu: float
    discrepancy: float
    rel_change: float
    wall_ms: float


@dataclass(eq=False)
class RestoreResult:
    """Output of :func:`restore`: the restored image, the last weight map and
    one ``TraceRow`` per sweep, the last holding the final mu and discrepancy."""

    u_star: ImageBuffer
    alpha_final: np.ndarray
    trace: list[TraceRow]

    @property
    def iterations(self) -> int:
        """The sweeps run, one trace row each."""
        return len(self.trace)


def prox_t(
    q: np.ndarray,
    alpha: np.ndarray | float,
    beta_t: float,
    p: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pixel minimizer of alpha_i ||t_i||_p + (beta_t/2) ||t_i - q_i||_2^2.

    ``q`` and the result are (2, h, w) gradient fields; ``alpha`` is the
    nonnegative (h, w) weight array, or one weight for every pixel as a
    float. For p = 2 it is the shrinkage
    t_i = q_i max(1 - alpha_i / (beta_t ||q_i||_2), 0), with t_i = 0 when
    q_i = 0. For p = 1 it is the same shrinkage on each component, with |q|
    for the norm: the soft threshold by alpha_i / beta_t, the proximal map
    of the anisotropic penalty, to within eps |q| rather than to the bit
    (a subnormal q whose beta_t |q| underflows maps to zero, as a q whose
    norm underflows does for p = 2). Either way t is q times a scale >= 0,
    so a zero in t keeps q's sign. ``out`` receives t and may be ``q``
    itself, with the same bits; the (h, w) ``scratch`` receives the norm
    and then the scale. The caller ensures beta_t > 0 and p in {1, 2}, as
    ``SolverConfig`` does.
    """
    if out is None:
        out = np.empty(q.shape)
    if scratch is None:
        scratch = np.empty(q.shape[1:])
    # Where the norm is zero the scale reads -inf, or NaN if alpha is zero
    # as well, and fmax clamps both to the 0 that makes t_i = 0 there; an
    # overflow to inf makes it 1 or 0, as the exact map rounds.
    for qc, tc in zip(q, out) if p == 1 else [(q, out)]:
        scale = np.abs(qc, out=scratch) if p == 1 else pointwise_norm(q, 2, out=scratch)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.multiply(beta_t, scale, out=scale)
            np.divide(alpha, scale, out=scale)
        np.subtract(1.0, scale, out=scale)
        np.fmax(scale, 0.0, out=scale)
        np.multiply(qc, scale, out=tc)
    return out


class _Iterate(NamedTuple):
    """ADMM state between sweeps, unvalidated.

    ``u``, ``grad`` (Du) and the scaled gradient dual ``y_t`` = rho_t /
    beta_t are real; the fields ``grad`` and ``y_t`` are each one (2, h, w)
    array. The linear chain is kept on the ``rfft2`` half spectrum: ``y_w``
    is the scaled residual dual rho_w / beta_w, and ``z`` is the spectrum of
    (Ku - g) + y_w, the point the next w step projects. No primal t
    or w is kept: the next sweep reads neither. The next sweep writes u
    into ``u_next`` and U = rfft2(u) into ``spectrum``, and overwrites
    ``grad``, ``y_w``, ``y_t`` and ``z``. Until then ``u_next`` holds an
    old u, so it is the one scratch image, of the p = 1 norms and the
    prox, and ``spectrum`` holds the last residual's spectrum, which the
    weight refresh takes as the half spectrum of its box filter.
    :func:`_start` allocates every array; a sweep trades ``u`` with
    ``u_next`` and ``grad`` with ``y_t``.
    """

    u: np.ndarray
    grad: np.ndarray
    y_w: np.ndarray
    y_t: np.ndarray
    z: np.ndarray
    u_next: np.ndarray
    spectrum: np.ndarray


class _Fixed(NamedTuple):
    """What every sweep of one restore reads and none writes.

    ``eigen_K`` is the blur's symbol from ``build_plan``, ``g_spectrum`` is
    G = rfft2(g) and ``factors`` is ``_step_factors(eigen_K, width,
    beta_w / beta_t)``, the only place a sweep reads beta_w.
    """

    eigen_K: np.ndarray
    g_spectrum: np.ndarray
    factors: tuple[np.ndarray, np.ndarray]
    beta_t: float


def _start(
    g: np.ndarray, eigen_K: np.ndarray, beta_t: float, beta_w: float
) -> tuple[_Iterate, _Fixed]:
    """State at u = g (a copy) with zero duals, and the constants."""
    g_spectrum = np.fft.rfft2(g)
    state = _Iterate(
        u=g.copy(),
        grad=gradient(g),
        y_w=np.zeros_like(g_spectrum),
        y_t=np.zeros((2, *g.shape)),
        z=g_spectrum * eigen_K - g_spectrum,
        u_next=np.empty_like(g),
        spectrum=np.empty_like(g_spectrum),
    )
    factors = _step_factors(eigen_K, g.shape[1], beta_w / beta_t)
    fixed = _Fixed(eigen_K, g_spectrum, factors, beta_t)
    return state, fixed


def _sweep(
    x: _Iterate, f: _Fixed, alpha: np.ndarray | float, scale: float, p: int
) -> tuple[_Iterate, float]:
    """One pass of the splitting at fixed alpha: t, w, u, then dual ascent.

    The w step is w = ``scale`` z: ``restore`` passes min(1, delta / ||z||),
    the projection of z onto the ball ||w|| <= delta, and beta_w / (mu +
    beta_w) gives the penalty (mu/2) ||Ku - g||^2 at a fixed mu instead.
    Returns the new state and the discrepancy ||Ku - g|| of the new u. Works
    in place, with no image-sized array of its own, in two rotating fields:
    q = Du + y_t, then t, then t - y_t are written over Du in ``grad``'s
    buffer, which frees ``y_t``'s; the divergence is formed in that freed
    buffer, then the new Du, and the new y_t is written over t - y_t. So
    the returned state has ``grad`` and ``y_t`` swapped, as it has ``u``
    and ``u_next``, and the old u stays readable in ``u_next``. The given
    ``u_next`` is the prox's scratch until the u step writes u into it. w
    lives only in z's buffer until then; each scaled dual (Boyd et al.
    2011, section 3.1.1) then becomes y' = Ax - (t - y), which rounds
    differently from y + (Ax - t). The linear chain stays on the half
    spectrum, so the only transforms are the two inside ``_spectral_step``.
    """
    field, y_t, y_w = x.grad, x.y_t, x.y_w
    # q = Du + y_t, t = prox(q) and t - y_t, each over the last; y_t is
    # then dead, and its buffer takes the divergence and the new Du.
    field += y_t
    prox_t(field, alpha, f.beta_t, p, out=field, scratch=x.u_next)
    field -= y_t
    # w = scale z, written over z; the scale lies in (0, 1].
    # y_w = w - y_w, and v = y_w + G over w, which the u step then consumes.
    w = np.multiply(x.z, scale, out=x.z)
    np.subtract(w, y_w, out=y_w)
    v = np.add(y_w, f.g_spectrum, out=w)
    d = divergence(field, out=y_t[0], scratch=y_t[1])
    u, residual = _spectral_step(d, v, f.factors, out=(x.u_next, x.spectrum))
    residual *= f.eigen_K
    residual -= f.g_spectrum
    grad = gradient(u, out=y_t)
    # y_w = (Ku - g) - (w - y_w); z = (Ku - g) + y_w, over v.
    np.subtract(residual, y_w, out=y_w)
    np.add(residual, y_w, out=v)
    # y_t = Du - (t - y_t), over t - y_t.
    y_t = np.subtract(grad, field, out=field)
    state = x._replace(u=u, u_next=x.u, grad=grad, y_t=y_t)
    return state, _half_spectrum_norm(residual, u.shape[1])


def _prepare(g: ImageBuffer, blur: BlurSpec, sigma: float, cfg: SolverConfig) -> float:
    """Check every input of :func:`restore`; return its target delta.

    In order: the types of ``g``, ``blur`` and ``cfg``, ``sigma``, the "hwtv"
    window and the kernel against ``g``, and delta = tau * sigma * sqrt(n),
    which can underflow to 0 or overflow.
    """
    _require_instance("g", g, ImageBuffer)
    _require_instance("blur", blur, BlurSpec)
    _require_instance("cfg", cfg, SolverConfig)
    _require_finite_positive("sigma", sigma)
    if cfg.mode == "hwtv":
        _require_window_fits("estimation window", 2 * cfg.r + 1, g.height, g.width)
    _require_window_fits("kernel", blur.band, g.height, g.width)
    delta = float(cfg.tau) * sigma * math.sqrt(g.pixel_count)
    _require_finite_positive("tau * sigma * sqrt(n)", delta)
    return delta


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
        Restored image, the last weight map used, and one ``TraceRow`` per
        iteration; the last row holds the final mu and residual norm.

    Raises
    ------
    DivergenceError
        An iterate went non-finite; the exception carries the sweep index.
        Each sweep tests the norms it computes anyway, of z and of the step in u.

    Notes
    -----
    Each iteration performs, in order: the finiteness test of ||z||, which
    precedes the weights so an overflow raises in both modes; the weight
    refresh, from the current iterate ("hwtv") or all ones ("tv_scalar");
    primal updates t, w, u; dual ascent on the scaled duals y_w and y_t.
    The fit is the constraint ||Ku - g|| <= delta: w = min(1, delta /
    ||z||) z projects z onto that ball, and the trace's mu, from
    ``update_mu``, is its multiplier, as beta_w / (mu + beta_w) is that
    scale. The linear terms w, y_w, Ku - g and z stay on the real-FFT half
    spectrum, and their norms come from Parseval, so a sweep runs two real
    transforms. The state is updated in place, in buffers allocated once
    per call before the first sweep: two images u and u_next, two gradient
    fields that trade the roles Du and y_t every sweep, and the half
    spectra y_w, z and U; "hwtv" adds the weight image. A sweep and a
    weight refresh allocate no image-sized array of their own; the
    :class:`_Iterate` buffers they borrow are free at that point, and
    ``u_next`` takes the step in u once the old u's norm is read. The
    "tv_scalar" weights are the float 1.0, and its ``alpha_final`` is
    ``u_next`` filled with ones after the last sweep. ``g`` is not
    modified, and ``u_star`` and ``alpha_final`` are buffers, not copies.
    Starts from u = g with zero duals; stops when the relative change of u
    falls to ``cfg.tol`` or after ``cfg.max_iter`` sweeps. Deterministic:
    identical inputs give bit-identical iterates, whatever the BLAS thread
    count, since no norm is summed by BLAS.
    """
    delta = _prepare(g, blur, sigma, cfg)
    g_arr = g.data
    # 1.0 / x has the bits of ones / x, so the scalar weights need no image.
    alpha = np.empty_like(g_arr) if cfg.mode == "hwtv" else 1.0
    x, fixed = _start(g_arr, build_plan(g.width, g.height, blur), cfg.beta_t, cfg.beta_w)
    trace: list[TraceRow] = []

    for k in range(cfg.max_iter):
        tick = time.perf_counter()
        # Tested before the refresh, so an overflow raises here in both modes.
        z_norm = _half_spectrum_norm(x.z, g.width)
        if not math.isfinite(z_norm):
            raise DivergenceError(k)
        if cfg.mode == "hwtv":
            # The weights of u, from the Du the last sweep formed for its
            # dual update, over the last weights; u_next and the last
            # residual's spectrum are free.
            pointwise_norm(x.grad, cfg.p, out=alpha, scratch=x.u_next)
            _alpha_from_norms(alpha, cfg.r, out=alpha, scratch=x.spectrum)
        mu = update_mu(z_norm, delta, cfg.beta_w)
        scale = delta / max(z_norm, delta)
        x, discrepancy = _sweep(x, fixed, alpha, scale, cfg.p)
        # The old u is in u_next; its norm first, then the step over it.
        u_norm = math.sqrt(_sum_squares(x.u_next))
        step = math.sqrt(_sum_squares(np.subtract(x.u, x.u_next, out=x.u_next)))
        if not math.isfinite(step):
            raise DivergenceError(k)
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

    if cfg.mode == "tv_scalar":
        alpha = x.u_next
        alpha.fill(1.0)
    return RestoreResult(u_star=ImageBuffer(x.u), alpha_final=alpha, trace=trace)
