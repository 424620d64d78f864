"""Seeded half-Laplacian draws for checking the weight-map estimator."""

import numpy as np


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
