"""Discrete differential and convolution operators with periodic boundaries.

Forward differences, their exact adjoint, truncated Gaussian blur and the
local box mean all wrap periodically, which diagonalizes the restoration
normal equations in the 2-D DFT basis and keeps every operator pair
(operator, adjoint) exact to rounding. Operators take and return plain
float64 arrays, a gradient field being an (h, v) pair of them. They check
shapes and scalar arguments but not finiteness: samples are checked where
they enter the library, as ``ImageBuffer``, and once per sweep in ``restore``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgcore import DimensionMismatchError


@dataclass(frozen=True)
class BlurSpec:
    """Truncated Gaussian blur kernel: ``band`` x ``band`` support, std ``sigma``.

    ``identity=True`` selects K = I (pure denoising); band and sigma are then
    ignored.
    """

    band: int = 1
    sigma: float = 1.0
    identity: bool = False

    def __post_init__(self):
        if self.identity:
            return
        if self.band < 1 or self.band % 2 == 0:
            raise ValueError(f"band must be an odd positive integer, got {self.band}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SpectralPlan:
    """Frequency-domain factors for one image size and blur kernel.

    Both factors are on the real-FFT half spectrum, shape
    (height, width // 2 + 1), the layout of ``np.fft.rfft2``: eigen_K is the
    real 2-D DFT of the origin-centered kernel; eigen_DtD is the symbol of
    the periodic forward-difference normal operator,
    4 sin^2(pi w1 / W) + 4 sin^2(pi w2 / H). Immutable and shareable.
    """

    width: int
    height: int
    eigen_K: np.ndarray
    eigen_DtD: np.ndarray


def _require_plan_match(plan: SpectralPlan, arr: np.ndarray) -> None:
    if arr.shape != (plan.height, plan.width):
        raise DimensionMismatchError(
            f"image is {'x'.join(map(str, arr.shape))}, plan is {plan.height}x{plan.width}"
        )


def gradient(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences (h, v) with periodic wrap in both directions."""
    return np.roll(u, -1, axis=1) - u, np.roll(u, -1, axis=0) - u


def divergence(t: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact adjoint of :func:`gradient`: <gradient(u), t> == <u, divergence(t)>."""
    h, v = t
    return (np.roll(h, 1, axis=1) - h) + (np.roll(v, 1, axis=0) - v)


def pointwise_norm(t: tuple[np.ndarray, np.ndarray], p: int) -> np.ndarray:
    """Per-pixel p-norm of the two gradient channels, p in {1, 2}."""
    h, v = t
    if p == 1:
        return np.abs(h) + np.abs(v)
    if p == 2:
        return np.hypot(h, v)
    raise ValueError(f"p must be 1 or 2, got {p}")


def make_kernel(spec: BlurSpec) -> np.ndarray:
    """Sampled Gaussian kernel on the band x band grid, normalized to sum 1."""
    if spec.identity:
        return np.ones((1, 1))
    half = (spec.band - 1) // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    profile = np.exp(-(offsets**2) / (2.0 * spec.sigma**2))
    kernel = np.outer(profile, profile)
    return kernel / kernel.sum()


def _otf(kernel: np.ndarray, height: int, width: int) -> np.ndarray:
    # Zero-pad the kernel and roll its center to the origin before the DFT.
    kh, kw = kernel.shape
    if kh > height or kw > width:
        raise ValueError(
            f"kernel {kh}x{kw} larger than image {height}x{width}"
        )
    padded = np.zeros((height, width))
    padded[:kh, :kw] = kernel
    padded = np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return np.fft.rfft2(padded)


def build_plan(width: int, height: int, spec: BlurSpec) -> SpectralPlan:
    """Precompute the DFT factors used by :func:`spectral_step` and the blur."""
    if width < 1 or height < 1:
        raise ValueError("plan dimensions must be positive")
    if spec.identity:
        eigen_k = np.ones((height, width // 2 + 1), dtype=np.complex128)
    else:
        eigen_k = _otf(make_kernel(spec), height, width)
    sym_x = 4.0 * np.sin(np.pi * np.arange(width // 2 + 1) / width) ** 2
    sym_y = 4.0 * np.sin(np.pi * np.arange(height) / height) ** 2
    eigen_dtd = sym_y[:, None] + sym_x[None, :]
    return SpectralPlan(width=width, height=height, eigen_K=eigen_k, eigen_DtD=eigen_dtd)


def blur_via_plan(plan: SpectralPlan, u: np.ndarray) -> np.ndarray:
    """Circular convolution with the planned kernel via its eigenvalues."""
    _require_plan_match(plan, u)
    return np.fft.irfft2(np.fft.rfft2(u) * plan.eigen_K, s=u.shape)


def spectral_step(
    plan: SpectralPlan, d: np.ndarray, v: np.ndarray, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (DtD + ratio KtK) u = d + ratio Kt v; return ``(u, Ku)``.

    One per-frequency division gives the spectrum U of the solution, and u
    and Ku are both read back from it. The denominator
    eigen_DtD + ratio |eigen_K|^2 is strictly positive for a normalized
    kernel and ratio > 0 (eigen_K equals 1 at the zero frequency), so the
    solve is exact to rounding.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    _require_plan_match(plan, d)
    _require_plan_match(plan, v)
    eigen_k = plan.eigen_K
    denom = plan.eigen_DtD + ratio * np.abs(eigen_k) ** 2
    spectrum = (np.fft.rfft2(d) + ratio * np.conj(eigen_k) * np.fft.rfft2(v)) / denom
    return np.fft.irfft2(spectrum, s=d.shape), np.fft.irfft2(spectrum * eigen_k, s=d.shape)


def _periodic_window_sum(arr: np.ndarray, r: int, axis: int) -> np.ndarray:
    # Running sum over a (2r+1)-wide periodic window along one axis.
    moved = np.moveaxis(arr, axis, 0)
    length = moved.shape[0]
    padded = np.concatenate((moved[length - r :], moved, moved[:r]), axis=0)
    csum = np.cumsum(padded, axis=0)
    csum = np.concatenate((np.zeros((1,) + csum.shape[1:]), csum), axis=0)
    window = 2 * r + 1
    sums = csum[window:] - csum[: length]
    return np.moveaxis(sums, 0, axis)


def box_mean(field_norms: np.ndarray, r: int) -> np.ndarray:
    """Mean over the periodic (2r+1) x (2r+1) window centered at each pixel."""
    if r < 1:
        raise ValueError(f"window radius must be a positive integer, got {r}")
    window = 2 * r + 1
    height, width = field_norms.shape
    if window > min(height, width):
        raise ValueError(
            f"window {window}x{window} larger than image {height}x{width}"
        )
    sums = _periodic_window_sum(_periodic_window_sum(field_norms, r, axis=0), r, axis=1)
    out = sums / float(window * window)
    # The exact mean lies in [min, max]; clip the <=1 ulp summation excursions.
    np.clip(out, field_norms.min(), field_norms.max(), out=out)
    return out
