"""The restoration objective and its augmented Lagrangian, as test oracles."""

import numpy as np

from hwtv.linops import SpectralPlan, blur_via_plan, gradient, pointwise_norm


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
