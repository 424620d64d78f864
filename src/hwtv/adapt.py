"""Automatic parameter selection for space-variant TV restoration.

Two independent mechanisms: per-pixel regularization weights from a local
maximum-likelihood fit of gradient-norm scales, and the multiplier mu of the
discrepancy-principle constraint for a known noise level.
"""

from __future__ import annotations

import numpy as np

from .linops import box_mean

# Window means of the gradient norms are clamped here, so no weight exceeds 1e4.
_EPS_FLOOR = 1e-4


def _alpha_from_norms(norms: np.ndarray, r: int, out=None, scratch=None) -> np.ndarray:
    """Reciprocal windowed means of a gradient-norm raster.

    Each pixel's weight is the maximum-likelihood scale of a half-Laplacian
    fitted to the (2r+1)^2 norms around it: one over their mean. Means below
    ``_EPS_FLOOR`` (flat neighborhoods) are clamped, so for finite norms every
    weight lies in (0, 1 / _EPS_FLOOR]; the caller ensures the window bounds
    of :func:`box_mean`. The weights of an image u are
    ``_alpha_from_norms(pointwise_norm(gradient(u), p), r)``.
    ``out`` and ``scratch`` are as for :func:`box_mean`: ``out`` may be
    ``norms``, and ``scratch`` is the complex (height, width // 2 + 1) half
    spectrum the mean is formed in; the weights overwrite the mean in
    ``out``.
    """
    alpha = box_mean(norms, r, out=out, scratch=scratch)
    np.maximum(alpha, _EPS_FLOOR, out=alpha)
    return np.divide(1.0, alpha, out=alpha)


def update_mu(z_norm: float, delta: float, beta_w: float) -> float:
    """Multiplier of the discrepancy constraint ||Ku - g|| <= delta.

    ``delta`` is the target residual norm, tau * sigma * sqrt(n) for noise
    level sigma over n pixels. Zero while the splitting residual norm is
    within ``delta``; above it, beta_w * (z_norm / delta - 1), so that
    beta_w / (mu + beta_w) = delta / z_norm, the w step's projection scale.
    ``restore`` records it; no sweep reads it. The caller ensures delta > 0,
    beta_w > 0 and a finite z_norm >= 0.
    """
    return beta_w * max(0.0, z_norm / delta - 1.0)
