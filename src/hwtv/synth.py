"""Reproducible test problems: phantoms, seeded noise, blur degradation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgcore import ImageBuffer
from .linops import (
    BlurSpec, _is_integer, _require_finite_positive, _require_instance, blur_via_plan, build_plan,
)

_PHANTOM_KINDS = ("cartoon", "texture", "mixed")


@dataclass(frozen=True)
class DegradationSpec:
    """Blur-then-noise forward model parameters with a fixed RNG seed."""

    blur: BlurSpec
    sigma: float
    seed: int = 0

    def __post_init__(self):
        _require_instance("blur", self.blur, BlurSpec)
        _require_finite_positive("sigma", self.sigma)
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class PhantomSpec:
    """Synthetic ground-truth layout: piecewise-constant, sinusoidal, or both."""

    width: int
    height: int
    kind: str
    texture_freq: float = 8.0

    def __post_init__(self):
        if not (_is_integer(self.width) and _is_integer(self.height)):
            raise ValueError(
                f"phantom dimensions must be integers, got {self.width!r}x{self.height!r}"
            )
        if self.width < 32 or self.height < 32:
            raise ValueError("phantom dimensions must be at least 32")
        if self.kind not in _PHANTOM_KINDS:
            raise ValueError(f"kind must be one of {_PHANTOM_KINDS}, got {self.kind!r}")
        _require_finite_positive("texture_freq", self.texture_freq)


def _cartoon(width: int, height: int) -> np.ndarray:
    # Disk plus rectangle on a flat background: exactly three intensities.
    base = 0.15
    canvas = np.full((height, width), base)
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    radius = 0.16 * min(width, height)
    disk = (rows - 0.30 * height) ** 2 + (cols - 0.50 * width) ** 2 <= radius**2
    canvas[disk] = base + 0.70
    top, bottom = int(0.60 * height), int(0.85 * height)
    left, right = int(0.25 * width), int(0.75 * width)
    canvas[top:bottom, left:right] = base + 0.35
    return canvas


def _texture(width: int, height: int, freq: float) -> np.ndarray:
    # Sinusoidal grid; each column carries a vertical tone at ``freq``
    # cycles per canvas, so its DFT peaks at that bin.
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    return (
        0.5
        + 0.25 * np.sin(2.0 * np.pi * freq * cols / width)
        + 0.25 * np.sin(2.0 * np.pi * freq * rows / height)
    )


def make_phantom(spec: PhantomSpec) -> ImageBuffer:
    """Build the requested phantom; mixed places cartoon left, texture right."""
    if spec.kind == "cartoon":
        data = _cartoon(spec.width, spec.height)
    elif spec.kind == "texture":
        data = _texture(spec.width, spec.height, spec.texture_freq)
    else:
        split = spec.width // 2
        data = np.empty((spec.height, spec.width))
        data[:, :split] = _cartoon(split, spec.height)
        data[:, split:] = _texture(spec.width - split, spec.height, spec.texture_freq)
    return ImageBuffer(data)


def _standard_normal(gen: np.random.Generator, count: int) -> np.ndarray:
    # Box-Muller on Philox uniforms keeps the stream reproducible by name.
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)  # in (0, 1]
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    draws = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    return draws[:count]


def degrade(u: ImageBuffer, spec: DegradationSpec) -> ImageBuffer:
    """Forward model: blur first, then i.i.d. Gaussian noise of std ``spec.sigma``.

    The noise is deterministic per ``spec.seed`` and nothing is clipped. The
    band-1 blur is the identity and passes ``u`` through untouched, so
    denoising problems see exactly u + noise.
    """
    _require_instance("u", u, ImageBuffer)
    _require_instance("spec", spec, DegradationSpec)
    data = u.data
    if spec.blur.band != 1:
        data = blur_via_plan(build_plan(u.width, u.height, spec.blur), data)
    gen = np.random.Generator(np.random.Philox(spec.seed))
    noise = _standard_normal(gen, u.pixel_count).reshape(data.shape)
    return ImageBuffer(data + spec.sigma * noise)
