"""Space-variant total-variation image restoration with automatic parameters.

Restores images degraded by known blur and Gaussian noise by minimizing a
weighted-TV objective whose per-pixel regularization weights are re-estimated
from the iterate (maximum likelihood on local gradient-norm scales) while a
single global fidelity weight tracks the discrepancy principle. The solver is
an ADMM scheme whose linear step diagonalizes under periodic boundaries.
"""

from .adapt import alpha_from_norms, estimate_alpha, update_mu
from .imgcore import (
    DimensionMismatchError,
    FormatError,
    ImageBuffer,
    InfiniteIsnrError,
    detect_format,
    isnr,
    read_image,
    ssim,
    write_image,
)
from .linops import (
    BlurSpec,
    SpectralPlan,
    box_mean,
    build_plan,
    divergence,
    gradient,
    make_kernel,
    pointwise_norm,
)
from .solver import (
    DivergenceError,
    RestoreResult,
    SolverConfig,
    TraceRow,
    prox_t,
    restore,
    update_w,
    write_trace_csv,
)
from .synth import DegradationSpec, PhantomSpec, add_awgn, degrade, make_phantom

__version__ = "0.1.0"

__all__ = [
    "BlurSpec",
    "DegradationSpec",
    "DimensionMismatchError",
    "DivergenceError",
    "FormatError",
    "ImageBuffer",
    "InfiniteIsnrError",
    "PhantomSpec",
    "RestoreResult",
    "SolverConfig",
    "SpectralPlan",
    "TraceRow",
    "add_awgn",
    "alpha_from_norms",
    "box_mean",
    "build_plan",
    "degrade",
    "detect_format",
    "divergence",
    "estimate_alpha",
    "gradient",
    "isnr",
    "make_kernel",
    "make_phantom",
    "pointwise_norm",
    "prox_t",
    "read_image",
    "restore",
    "ssim",
    "update_mu",
    "update_w",
    "write_image",
    "write_trace_csv",
]
