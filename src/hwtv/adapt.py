"""Automatic parameter selection for space-variant TV restoration.

Two independent mechanisms: per-pixel regularization weights from a local
maximum-likelihood fit of gradient-norm scales, and a single global fidelity
weight driven by the discrepancy principle for a known noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import box_mean, gradient, pointwise_norm


@dataclass(frozen=True)
class DiscrepancySpec:
    """Target residual norm for a known additive-noise level.

    ``delta`` is tau * sigma * sqrt(n): the expected noise norm scaled by the
    discrepancy factor tau ~ 1.
    """

    sigma: float
    tau: float
    n: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n < 1:
            raise ValueError(f"pixel count must be positive, got {self.n}")

    @property
    def delta(self) -> float:
        return self.tau * self.sigma * math.sqrt(self.n)


def alpha_from_norms(norms: np.ndarray, r: int, eps_floor: float) -> np.ndarray:
    """Reciprocal windowed means of a gradient-norm raster.

    Each pixel's weight is the maximum-likelihood scale of a half-Laplacian
    fitted to the (2r+1)^2 norms around it: one over their mean. Means below
    ``eps_floor`` (flat neighborhoods) are clamped, so for finite norms every
    weight lies in (0, 1 / eps_floor].
    """
    if eps_floor <= 0:
        raise ValueError(f"eps_floor must be positive, got {eps_floor}")
    return 1.0 / np.maximum(box_mean(norms, r), eps_floor)


def estimate_alpha(u: np.ndarray, p: int, r: int, eps_floor: float) -> np.ndarray:
    """Estimate the per-pixel regularization weights from an image iterate.

    Parameters
    ----------
    u : ndarray
        Current image estimate, 2-D.
    p : {1, 2}
        Gradient-norm flavor: anisotropic (|h| + |v|) or isotropic
        (sqrt(h^2 + v^2)).
    r : int
        Window radius; each estimate pools the (2r+1)^2 surrounding norms,
        center pixel included.
    eps_floor : float
        Lower clamp on the windowed means; caps weights at 1 / eps_floor.
    """
    return alpha_from_norms(pointwise_norm(gradient(u), p), r, eps_floor)


def update_mu(z_norm: float, disc: DiscrepancySpec, beta_w: float) -> float:
    """Discrepancy-principle fidelity weight for the next sweep.

    Zero while the splitting residual norm is within ``disc.delta``; above it,
    grows as beta_w * (z_norm / delta - 1) to pull the data fit back toward
    the noise level.
    """
    if beta_w <= 0:
        raise ValueError(f"beta_w must be positive, got {beta_w}")
    if z_norm < 0 or not math.isfinite(z_norm):
        raise ValueError(f"z_norm must be finite and nonnegative, got {z_norm}")
    delta = disc.delta
    if z_norm <= delta:
        return 0.0
    return beta_w * (z_norm / delta - 1.0)


def sample_half_laplacian(alpha: float, count: int, seed: int) -> np.ndarray:
    """Deterministic draws from density alpha * exp(-alpha x) on x >= 0.

    Inverse-transform sampling, x = -ln(U) / alpha with U uniform in (0, 1]
    from a counter-based Philox stream, so a seed fully determines the output.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    gen = np.random.Generator(np.random.Philox(seed))
    uniform = 1.0 - gen.random(count)  # in (0, 1]
    return -np.log(uniform) / alpha
