"""Discrete differential and convolution operators with periodic boundaries.

Forward differences, their exact adjoint, truncated Gaussian blur and the
local box mean all wrap periodically, which diagonalizes the restoration
normal equations in the 2-D DFT basis and keeps every operator pair
(operator, adjoint) exact to rounding. Operators take and return plain
float64 arrays, a gradient field being an (h, v) pair of them. The loop
operators check no argument: the caller passes matching shapes and scalars
in the documented ranges, as ``restore`` does once it has checked its
inputs, and tests the iterate for finiteness once per sweep.
An ``out=`` argument must be C-contiguous arrays (a pair for a field) of the
result's shape, not overlapping the input; the result is written there and
returned, with the same bits as without ``out=``; ``box_mean`` and ``spectral_step``
take scratch there too, ``divergence`` and ``pointwise_norm`` in ``scratch=``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgcore import _is_integer, _require_finite_positive


@dataclass(frozen=True)
class BlurSpec:
    """Truncated Gaussian blur kernel: ``band`` x ``band`` support, std ``sigma``.

    ``band = 1``, the default, is the one-tap kernel [[1]], that is K = I
    (pure denoising), whatever the sigma.
    """

    band: int = 1
    sigma: float = 1.0

    def __post_init__(self):
        band = self.band
        if not _is_integer(band) or band < 1 or band % 2 == 0:
            raise ValueError(f"band must be an odd positive integer, got {band!r}")
        _require_finite_positive("sigma", self.sigma)


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


def gradient(
    u: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences (h, v) with periodic wrap in both directions."""
    if out is None:
        out = np.empty(u.shape, u.dtype), np.empty(u.shape, u.dtype)
    h, v = out
    # Along a row, the difference is taken on the flattened raster and the
    # wrap column is then fixed: a strided slice per row is slower.
    flat = u.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=h.reshape(-1)[:-1])
    np.subtract(u[:, 0], u[:, -1], out=h[:, -1])
    np.subtract(u[1:], u[:-1], out=v[:-1])
    np.subtract(u[0], u[-1], out=v[-1])
    return out


def divergence(
    t: tuple[np.ndarray, np.ndarray], out: np.ndarray | None = None, scratch=None
) -> np.ndarray:
    """Exact adjoint of :func:`gradient`: <gradient(u), t> == <u, divergence(t)>."""
    h, v = t
    if out is None:
        out = np.empty(h.shape, np.result_type(h, v))
    flat = h.reshape(-1)
    np.subtract(flat[:-1], flat[1:], out=out.reshape(-1)[1:])
    np.subtract(h[:, -1], h[:, 0], out=out[:, 0])
    # The two differences are rounded separately before they are summed, so
    # the second one needs an array of its own.
    v_diff = np.empty_like(out) if scratch is None else scratch
    np.subtract(v[:-1], v[1:], out=v_diff[1:])
    np.subtract(v[-1], v[0], out=v_diff[0])
    out += v_diff
    return out


def pointwise_norm(
    t: tuple[np.ndarray, np.ndarray], p: int, out: np.ndarray | None = None, scratch=None
) -> np.ndarray:
    """Per-pixel p-norm of the two gradient channels, p in {1, 2}.

    The p = 2 norm is sqrt(h^2 + v^2), within 2 ulp of ``np.hypot`` (and
    several times faster) wherever the squares neither overflow nor
    underflow. They overflow only for entries above about 1.3e154, where the
    norms ``restore`` tests for finiteness overflow as well, so such an
    iterate is reported as diverged either way. They underflow only below
    about 1e-154, where the norm reads as zero: ``prox_t`` then maps the
    pixel to zero, as it would for the exact norm, and ``eps_floor`` clamps
    the weights ``alpha_from_norms`` derives from it.
    """
    h, v = t
    if out is None:
        out = np.empty(h.shape, np.result_type(h, v, np.float64))
    if p == 1:
        np.abs(h, out=out)
        out += np.abs(v, out=scratch)
        return out
    np.multiply(h, h, out=out)
    out += np.multiply(v, v, out=scratch)
    return np.sqrt(out, out=out)


def make_kernel(spec: BlurSpec) -> np.ndarray:
    """Sampled Gaussian kernel on the band x band grid, normalized to sum 1."""
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
    """Precompute the DFT factors used by :func:`step_factors` and the blur."""
    if width < 1 or height < 1:
        raise ValueError("plan dimensions must be positive")
    eigen_k = _otf(make_kernel(spec), height, width)
    sym_x = 4.0 * np.sin(np.pi * np.arange(width // 2 + 1) / width) ** 2
    sym_y = 4.0 * np.sin(np.pi * np.arange(height) / height) ** 2
    eigen_dtd = sym_y[:, None] + sym_x[None, :]
    return SpectralPlan(width=width, height=height, eigen_K=eigen_k, eigen_DtD=eigen_dtd)


def blur_via_plan(plan: SpectralPlan, u: np.ndarray) -> np.ndarray:
    """Circular convolution with the planned kernel via its eigenvalues."""
    return np.fft.irfft2(np.fft.rfft2(u) * plan.eigen_K, s=u.shape)


def step_factors(plan: SpectralPlan, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """The factors :func:`spectral_step` takes for one ``ratio``.

    Returns ``(ratio conj(eigen_K), 1 / denom)`` on the half spectrum, with
    denom = eigen_DtD + ratio |eigen_K|^2. The denominator is strictly
    positive for a normalized kernel and ratio > 0 (eigen_K equals 1 at the
    zero frequency), so the solve is exact to rounding. The caller ensures a
    finite ratio > 0, as ``SolverConfig`` does for beta_w / beta_t.
    """
    eigen_k = plan.eigen_K
    # |eigen_K|^2 as re^2 + im^2: np.abs of a complex array calls hypot.
    denom = plan.eigen_DtD + ratio * (eigen_k.real**2 + eigen_k.imag**2)
    return ratio * np.conj(eigen_k), 1.0 / denom


def spectral_step(
    d: np.ndarray,
    v_spectrum: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray],
    out=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (DtD + ratio KtK) u = d + ratio Kt v; return ``(u, U)``.

    ``factors`` is ``step_factors(plan, ratio)``. The caller ensures that
    ``d`` is a real image of the plan's size and that ``v_spectrum``, V =
    rfft2(v), is on its half spectrum; the solve overwrites V. The returned
    U = rfft2(u) is on the same half spectrum, so a caller that keeps its
    linear terms there reads Ku as K U without another transform; ``out`` is
    the pair (u, U). One ``rfft2`` and one inverse in all. Multiplying by the
    reciprocal of the real denominator gives the same bits as dividing by
    it, since numpy divides complex numbers that way.
    """
    k_adjoint, inv_denom = factors
    if out is None:
        out = np.empty(d.shape), np.empty(v_spectrum.shape, np.complex128)
    u, spectrum = out
    np.fft.rfft2(d, out=spectrum)
    # k_adjoint first: numpy's complex product is not symmetric in rounding.
    spectrum += np.multiply(k_adjoint, v_spectrum, out=v_spectrum)
    spectrum *= inv_denom
    # irfftn: numpy's irfft2 drops its out argument and allocates.
    np.fft.irfftn(spectrum, s=d.shape, axes=(-2, -1), out=u)
    return out


def half_spectrum_norm(plan: SpectralPlan, spectrum: np.ndarray) -> float:
    """Euclidean norm of the real image whose ``rfft2`` is ``spectrum``.

    By Parseval, ||x||^2 = sum |X|^2 / (height width) over the full
    spectrum. The half spectrum holds each column pair k, width - k once, so
    every column counts twice except the zero-frequency column and, for an
    even width, the Nyquist column, which have no mirror. The sum of squares
    overflows for images whose norm exceeds about 1e154 / sqrt(2 height
    width), which ``restore`` reports as divergence.
    """
    total = 2.0 * _sum_squares(spectrum) - _sum_squares(spectrum[:, :1])
    if plan.width % 2 == 0:
        total -= _sum_squares(spectrum[:, -1:])
    return math.sqrt(total / (plan.height * plan.width))


def _sum_squares(arr: np.ndarray) -> float:
    # Sum of |X|^2 = re^2 + im^2 over a 2-D real or complex array's float64
    # view. einsum sums without BLAS, whose threads would spin after the call
    # and whose sum order depends on their count.
    parts = arr.view(np.float64)
    return float(np.einsum("ij,ij->", parts, parts))


def _periodic_window_sum(arr, r: int, axis: int, sums, running) -> None:
    # Sums over a (2r+1)-wide periodic window along one axis, written to
    # ``sums`` and read off one running sum of the wrapped array, formed at
    # the head of the flat ``running``: entry i is csum[i + 2r] - csum[i - 1]
    # and entry 0 is csum[2r]. The axis is moved in views only, so every
    # array keeps the input's layout and nothing is copied transposed.
    length = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] += 2 * r
    csum = running[: math.prod(shape)].reshape(shape)
    src, wrapped = np.moveaxis(arr, axis, 0), np.moveaxis(csum, axis, 0)
    wrapped[:r] = src[length - r :]
    wrapped[r : length + r] = src
    wrapped[length + r :] = src[:r]
    np.cumsum(csum, axis=axis, out=csum)
    moved = np.moveaxis(sums, axis, 0)
    moved[0] = wrapped[2 * r]
    np.subtract(wrapped[2 * r + 1 :], wrapped[: length - 1], out=moved[1:])


def box_mean(field_norms: np.ndarray, r: int, out=None) -> np.ndarray:
    """Mean over the periodic (2r+1) x (2r+1) window centered at each pixel.

    The caller ensures 1 <= r and 2r + 1 <= min(height, width). ``out`` is
    ``(mean, sums, running)``: the result, an image-sized scratch and a flat
    float64 scratch of at least height width + 2r max(height, width).
    """
    if out is None:
        size = field_norms.size + 2 * r * max(field_norms.shape)
        out = np.empty_like(field_norms), np.empty_like(field_norms), np.empty(size)
    mean, sums, running = out
    window = 2 * r + 1
    _periodic_window_sum(field_norms, r, 0, sums, running)
    _periodic_window_sum(sums, r, 1, mean, running)
    mean /= float(window * window)
    # The exact mean lies in [min, max]; clip the <=1 ulp summation excursions.
    np.clip(mean, field_norms.min(), field_norms.max(), out=mean)
    return mean
