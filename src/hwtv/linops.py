"""Discrete differential and convolution operators with periodic boundaries.

Forward differences, their exact adjoint, truncated Gaussian blur and the local
box mean all wrap periodically, which diagonalizes the restoration normal
equations in the 2-D DFT basis and keeps every adjoint exact to rounding. The
blur and the box are separable, so each symbol is the outer product of two 1-D
ones, which ``_axis_symbol`` builds. Operators take and return plain float64
arrays; a gradient field is one C-contiguous (2, h, w) array whose channel 0 is
h and channel 1 is v. The loop operators check no argument: the caller passes
matching shapes and scalars in the documented ranges, as ``restore`` does once
it has checked its inputs, and tests the iterate for finiteness once per sweep.
Every loop primitive takes its buffers by one rule: ``out=`` is the result
array and ``scratch=`` the workspace, one (h, w) image, or for :func:`box_mean`
the complex (h, w // 2 + 1) half spectrum, both C-contiguous and not
overlapping the input. The result is written into ``out`` and returned, with
the same bits as the allocating form. Only ``_spectral_step``'s ``out`` is the
pair ``(u, U)`` it returns. Only ``solver.prox_t`` and :func:`box_mean` may be
given their input as ``out``. Every inverse transform is ``_irfft2(spectrum,
out, via)``, no such primitive: its ``via``, the half spectrum between the two
axes, may be ``spectrum`` itself. The boundary's rules for counts, choices, reals,
window fits and record types live here too, as ``BlurSpec`` and ``build_plan`` use them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


def _is_integer(value) -> bool:
    # bool is an Integral, but True is no count, size or norm order.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_finite_positive(name: str, value: float) -> None:
    # NaN and inf fail the bounds, and Python compares an int with the largest
    # float exactly, so an int above the float range fails them too, where
    # math.isfinite would raise OverflowError converting it.
    # bool is a Real, but True is no real, as it is no count; numpy's bool, a
    # string, None and a complex are no Real at all.
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_count(name: str, value, least: int) -> None:
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _require_window_fits(name: str, size: int, height: int, width: int) -> None:
    if size > min(height, width):
        raise ValueError(f"{name} {size}x{size} larger than image {height}x{width}")


def _require_instance(name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")


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
        if not 0.0 < _twice_variance(self.sigma) < math.inf:
            raise ValueError(f"sigma must keep 2 sigma**2 finite and nonzero, got {self.sigma!r}")


def _twice_variance(sigma: float) -> float:
    # 2 sigma^2, the Gaussian's exponent scale, or inf where it overflows,
    # whether as Python's OverflowError or as numpy's inf.
    try:
        with np.errstate(over="ignore"):
            return 2.0 * sigma**2
    except OverflowError:
        return math.inf


def gradient(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences (h, v), stacked, with periodic wrap in both directions."""
    if out is None:
        out = np.empty((2, *u.shape), u.dtype)
    h, v = out
    # Along a row, the difference is taken on the flattened raster and the
    # wrap column is then fixed: a strided slice per row is slower.
    flat = u.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=h.reshape(-1)[:-1])
    np.subtract(u[:, 0], u[:, -1], out=h[:, -1])
    np.subtract(u[1:], u[:-1], out=v[:-1])
    np.subtract(u[0], u[-1], out=v[-1])
    return out


def divergence(t: np.ndarray, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
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
    t: np.ndarray, p: int, out: np.ndarray | None = None, scratch=None
) -> np.ndarray:
    """Per-pixel p-norm of the two gradient channels, p in {1, 2}.

    The p = 2 norm is sqrt(h^2 + v^2), the sum of squares formed in ``out``
    by one ``np.einsum`` pass with the bits of h * h + v * v; only p = 1
    uses ``scratch``. It is within 2 ulp of ``np.hypot`` (and several times
    faster) wherever the squares neither overflow nor
    underflow. They overflow only for entries above about 1.3e154, where the
    norms ``restore`` tests for finiteness overflow as well, so such an
    iterate is reported as diverged either way. They underflow only below
    about 1e-154, where the norm reads as zero: ``prox_t`` then maps the
    pixel to zero, as it would for the exact norm, and ``adapt._EPS_FLOOR``
    clamps the weights ``adapt._alpha_from_norms`` derives from it.
    """
    h, v = t
    if out is None:
        out = np.empty(h.shape, np.result_type(h, v, np.float64))
    if p == 1:
        np.abs(h, out=out)
        out += np.abs(v, out=scratch)
        return out
    np.einsum("kij,kij->ij", t, t, out=out)
    return np.sqrt(out, out=out)


def _gaussian_profile(band: int, sigma: float) -> np.ndarray:
    coords = np.arange(band, dtype=np.float64) - (band - 1) / 2.0
    profile = np.exp(-(coords**2) / _twice_variance(sigma))
    return profile / profile.sum()


def _axis_symbol(taps: np.ndarray, length: int) -> np.ndarray:
    # The DFT along an axis of ``length`` >= len(taps) of the odd, symmetric
    # kernel ``taps``, centered at entry 0 and wrapped: real, by its symmetry.
    r = len(taps) // 2
    line = np.zeros(length)
    line[: r + 1] = taps[r:]
    line[length - r :] = taps[:r]
    return np.fft.fft(line).real


def build_plan(width: int, height: int, spec: BlurSpec) -> np.ndarray:
    """The blur's symbol eigen_K at one image size, on the ``np.fft.rfft2`` half spectrum.

    The kernel is the spec's band x band Gaussian window, the outer product of one 1-D
    profile normalized to sum 1, so its DFT is the outer product of the profile's real DFT
    along each axis: a C-contiguous float64 array of shape (height, width // 2 + 1).
    """
    _require_window_fits("kernel", spec.band, height, width)
    profile = _gaussian_profile(spec.band, spec.sigma)
    row = _axis_symbol(profile, width)[: width // 2 + 1]
    return np.multiply.outer(_axis_symbol(profile, height), row)


def _irfft2(spectrum: np.ndarray, out: np.ndarray, via: np.ndarray) -> np.ndarray:
    # rfft2's inverse axis by axis, as irfftn runs it, with its bits: irfftn
    # allocates a half spectrum between the axes, and numpy's irfft2 drops out.
    np.fft.ifft(spectrum, axis=0, out=via)
    return np.fft.irfft(via, n=out.shape[1], axis=1, out=out)


def blur_via_plan(eigen_K: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Circular convolution of ``u`` with the kernel whose symbol is ``eigen_K``."""
    spectrum = np.fft.rfft2(u)
    spectrum *= eigen_K
    return _irfft2(spectrum, np.empty(u.shape), via=spectrum)


def _step_factors(
    eigen_K: np.ndarray, width: int, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """The factors :func:`_spectral_step` takes for one ``ratio``.

    Returns ``(ratio eigen_K, 1 / denom)`` on the half spectrum of a
    ``width``-wide image, both real, with denom = DtD + ratio eigen_K^2,
    where DtD is the symbol of the periodic forward-difference normal
    operator, formed here. eigen_K is real, so it is its own conjugate and
    Kt has the symbol of K. The denominator is strictly positive for a
    normalized kernel and ratio > 0 (eigen_K equals 1 at the zero
    frequency, where DtD alone is 0), so the solve is exact to rounding.
    The caller ensures a finite ratio > 0, as ``SolverConfig`` does for
    beta_w / beta_t.
    """
    denom = _dtd_symbol(width, len(eigen_K)) + ratio * eigen_K**2
    return ratio * eigen_K, 1.0 / denom


def _dtd_symbol(width: int, height: int) -> np.ndarray:
    # 4 sin^2(pi k / W) + 4 sin^2(pi l / H) at column k and row l of the half
    # spectrum: each circular difference is diagonal in the DFT basis.
    sym_x = 4.0 * np.sin(np.pi * np.arange(width // 2 + 1) / width) ** 2
    sym_y = 4.0 * np.sin(np.pi * np.arange(height) / height) ** 2
    return sym_y[:, None] + sym_x[None, :]


def _spectral_step(
    d: np.ndarray,
    v_spectrum: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray],
    out=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (DtD + ratio KtK) u = d + ratio Kt v; return ``(u, U)``.

    ``factors`` is ``_step_factors(eigen_K, width, ratio)``. The caller ensures
    that ``d`` is a real image of the factors' size and that ``v_spectrum``,
    V = rfft2(v), is on its half spectrum. The returned U = rfft2(u) is on the
    same half spectrum, so a caller that keeps its linear terms there reads Ku
    as K U without another transform; ``out`` is the pair (u, U). One
    ``rfft2`` and one ``_irfft2`` in all; the inverse goes through V's buffer,
    so the solve overwrites V and U survives. The two factors are real, and a
    real times a complex factor rounds as the complex product with a zero
    imaginary part. Multiplying by the reciprocal of the real denominator
    gives the same bits as dividing by it, as numpy divides complex numbers.
    """
    k_adjoint, inv_denom = factors
    if out is None:
        out = np.empty(d.shape), np.empty(v_spectrum.shape, np.complex128)
    u, spectrum = out
    np.fft.rfft2(d, out=spectrum)
    spectrum += np.multiply(k_adjoint, v_spectrum, out=v_spectrum)
    spectrum *= inv_denom
    _irfft2(spectrum, u, via=v_spectrum)
    return out


def _half_spectrum_norm(spectrum: np.ndarray, width: int) -> float:
    """Euclidean norm of the ``width``-wide real image whose ``rfft2`` is ``spectrum``.

    By Parseval, ||x||^2 = sum |X|^2 / (height width) over the full
    spectrum. The half spectrum holds each column pair k, width - k once, so
    every column counts twice except the zero-frequency column and, for an
    even width, the Nyquist column, which have no mirror. The sum of squares
    overflows for images whose norm exceeds about 1e154 / sqrt(2 height
    width), which ``restore`` reports as divergence.
    """
    total = 2.0 * _sum_squares(spectrum) - _sum_squares(spectrum[:, :1])
    if width % 2 == 0:
        total -= _sum_squares(spectrum[:, -1:])
    return math.sqrt(total / (len(spectrum) * width))


def _sum_squares(arr: np.ndarray) -> float:
    # Sum of |X|^2 = re^2 + im^2 over a 2-D real or complex array's float64
    # view. einsum sums without BLAS, whose threads would spin after the call
    # and whose sum order depends on their count.
    parts = arr.view(np.float64)
    return float(np.einsum("ij,ij->", parts, parts))


def box_mean(field_norms: np.ndarray, r: int, out=None, scratch=None) -> np.ndarray:
    """Mean over the periodic (2r+1) x (2r+1) window centered at each pixel.

    A product on the ``rfft2`` half spectrum: the window is separable, so its
    symbol is one real factor per axis. ``scratch`` is that complex (height,
    width // 2 + 1) spectrum, which ``_irfft2`` takes back in place; ``out``
    may be ``field_norms``. The caller ensures 1 <= r and 2r + 1 <= min(h, w).
    """
    height, width = field_norms.shape
    mean = np.empty_like(field_norms) if out is None else out
    # The exact mean lies in [min, max], read before out may take the input;
    # the clip below removes the excursions the transforms round to.
    low, high = field_norms.min(), field_norms.max()
    spectrum = np.fft.rfft2(field_norms, out=scratch)
    taps = np.full(2 * r + 1, 1.0 / (2 * r + 1))
    spectrum *= _axis_symbol(taps, width)[: width // 2 + 1]
    spectrum *= _axis_symbol(taps, height)[:, None]
    _irfft2(spectrum, mean, via=spectrum)
    np.clip(mean, low, high, out=mean)
    return mean
