"""Spatial oracles for the periodic blur K and its adjoint, free of any FFT."""

import numpy as np


def gaussian_window(size: int, sigma: float) -> np.ndarray:
    """The blur's size x size Gaussian kernel of std ``sigma``, normalized to sum 1."""
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    profile = np.exp(-(coords**2) / (2.0 * sigma**2))
    window = np.outer(profile, profile)
    return window / window.sum()


def circular_convolve(u: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """K u: periodic convolution with the centered kernel, one tap at a time."""
    h, w = u.shape
    kh, kw = kernel.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros_like(u)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += kernel[i, j] * u[(y - (i - cy)) % h, (x - (j - cx)) % w]
            out[y, x] = acc
    return out


def circular_correlate(u: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """K^T u: periodic correlation with the centered kernel.

    out[y, x] = sum_ij kernel[i, j] u[(y + i - cy) % h, (x + j - cx) % w],
    summed over shifted copies so it is fast enough inside an optimizer.
    """
    kh, kw = kernel.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros_like(u)
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * np.roll(u, (cy - i, cx - j), axis=(0, 1))
    return out
