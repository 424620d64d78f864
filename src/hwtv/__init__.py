"""Space-variant total-variation image restoration with automatic parameters.

Restores images degraded by known blur and Gaussian noise by minimizing a
weighted-TV objective whose per-pixel regularization weights are re-estimated
from the iterate (maximum likelihood on local gradient-norm scales), subject
to the discrepancy principle's bound on the residual norm. The solver is
an ADMM scheme whose linear step diagonalizes under periodic boundaries.

The package exports the library boundary. The loop's primitives stay in
``linops``, ``adapt`` and ``solver``, private but for those the benchmark
traces by name. The modules import one way: ``linops``, ``imgcore``,
``adapt``, ``solver``, ``synth``, ``cli``.
"""

from .imgcore import (
    FormatError,
    ImageBuffer,
    isnr,
    read_image,
    ssim,
    write_image,
)
from .linops import BlurSpec
from .solver import (
    DivergenceError,
    RestoreResult,
    SolverConfig,
    TraceRow,
    restore,
)
from .synth import DegradationSpec, PhantomSpec, degrade, make_phantom

__version__ = "0.1.0"

__all__ = [
    "BlurSpec",
    "DegradationSpec",
    "DivergenceError",
    "FormatError",
    "ImageBuffer",
    "PhantomSpec",
    "RestoreResult",
    "SolverConfig",
    "TraceRow",
    "degrade",
    "isnr",
    "make_phantom",
    "read_image",
    "restore",
    "ssim",
    "write_image",
]
