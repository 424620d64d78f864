"""Test oracles for the restoration problem.

The objective and its augmented Lagrangian, the exact prox maps of the TV
term by search, the real image of a half spectrum, and the descent of the
shipped sweep at frozen (alpha, mu).
"""

import numpy as np

from hwtv import solver
from hwtv.linops import (
    BlurSpec,
    blur_via_plan,
    build_plan,
    gradient,
    pointwise_norm,
)


def objective(
    u: np.ndarray,
    g: np.ndarray,
    eigen_K: np.ndarray,
    alpha: np.ndarray,
    mu: float,
    p: int,
) -> float:
    """Diagnostic value sum_i alpha_i ||(Du)_i||_p + (mu/2) ||Ku - g||^2.

    ``eigen_K`` is the symbol of the blur K, from ``build_plan``. Not
    monotone across restore() iterations since alpha and mu change there.
    """
    norms = pointwise_norm(gradient(u), p)
    residual = blur_via_plan(eigen_K, u) - g
    return float(np.sum(alpha * norms) + 0.5 * mu * np.sum(residual**2))


def augmented_lagrangian(
    u: np.ndarray,
    w: np.ndarray,
    t: np.ndarray,
    rho_w: np.ndarray,
    rho_t: np.ndarray,
    g: np.ndarray,
    eigen_K: np.ndarray,
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
    res_w = w - (blur_via_plan(eigen_K, u) - g)
    value = float(np.sum(alpha * pointwise_norm(t, p)))
    value += 0.5 * mu * float(np.sum(w**2))
    value -= float(np.sum(rho_t[0] * res_h) + np.sum(rho_t[1] * res_v))
    value += 0.5 * beta_t * float(np.sum(res_h**2) + np.sum(res_v**2))
    value -= float(np.sum(rho_w * res_w))
    value += 0.5 * beta_w * float(np.sum(res_w**2))
    return value


def real_image(spectrum: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The real image behind an rfft2 half spectrum."""
    return np.fft.irfft2(spectrum, s=shape)


def prox2_grid_oracle(qx: float, qy: float, alpha: float, beta: float) -> tuple[float, float]:
    """Isotropic prox of alpha ||t|| + (beta/2) ||t - q||^2 by zooming grid search."""

    def value(tx, ty):
        return alpha * np.hypot(tx, ty) + 0.5 * beta * ((tx - qx) ** 2 + (ty - qy) ** 2)

    span = max(abs(qx), abs(qy)) + 1.0
    best = (0.5 * qx, 0.5 * qy)
    npts = 25
    for _ in range(16):
        xs = np.linspace(best[0] - span, best[0] + span, npts)
        ys = np.linspace(best[1] - span, best[1] + span, npts)
        gx, gy = np.meshgrid(xs, ys)
        vals = value(gx, gy)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = (float(gx[idx]), float(gy[idx]))
        span *= 0.25
    return best


def prox1_bisection_oracle(q: float, alpha: float, beta: float) -> float:
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


def frozen_nonincrease_share(trials: int, n: int, sweeps: int) -> float:
    """Share of sweeps at frozen (alpha, mu) that do not raise the Lagrangian.

    Each trial draws, from one Philox(99) stream, an n x n image g and
    weights in [0.5, 2], alternating the band-3 blur and the identity, and
    runs ``sweeps`` shipped sweeps with mu 30, beta_t 20 (so the residual
    penalty is 100) and p = 2. A step counts when the augmented Lagrangian rises by at most
    1e-10 (1 + |value|).
    """
    rng = np.random.Generator(np.random.Philox(99))
    total = good = 0
    for trial in range(trials):
        g = rng.random((n, n))
        blur = BlurSpec(band=3, sigma=1.0) if trial % 2 == 0 else BlurSpec(band=1)
        weights = rng.uniform(0.5, 2.0, (n, n))
        mu, bt, p = 30.0, 20.0, 2
        bw = solver._BETA_RATIO * bt
        eigen_k = build_plan(n, n, blur)
        x, fixed = solver._start(g, eigen_k, bt)
        values = []
        for _ in range(sweeps):
            # The Lagrangian takes the new primals and the old duals, as the
            # unscaled rho = beta y formed before the sweep updates y in
            # place. The sweep keeps neither primal: w is the scaled z it
            # reads, and t = Du' - y_t' + y_t, from its dual update.
            rho_w, rho_t = bw * real_image(x.y_w, g.shape), bt * x.y_t
            w = real_image(x.z, g.shape) * (bw / (mu + bw))
            y_t = x.y_t.copy()
            x, _ = solver._sweep(x, fixed, weights, bw / (mu + bw), p)
            t = x.grad - x.y_t + y_t
            values.append(augmented_lagrangian(
                x.u, w, t, rho_w, rho_t,
                g, eigen_k, weights, mu, bt, bw, p,
            ))
        diffs = np.diff(values)
        tol = 1e-10 * (1.0 + np.abs(np.asarray(values[:-1])))
        good += int(np.sum(diffs <= tol))
        total += diffs.size
    return good / total
