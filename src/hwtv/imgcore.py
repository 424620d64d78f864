"""Image containers, bit-exact file I/O and restoration quality metrics."""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

PGM8 = "pgm8"
RAW_F32 = "raw-f32"
FORMATS = (PGM8, RAW_F32)

_RAW_MAGIC = b"TVF1"
_MAX_PIXELS = 2**31  # guard against absurd header-declared sizes

# SSIM constants: 11x11 Gaussian window with std 1.5, stabilizers from the
# usual (K1, K2) = (0.01, 0.03) on dynamic range L = 1.
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = (0.01 * 1.0) ** 2
_SSIM_C2 = (0.03 * 1.0) ** 2


class FormatError(ValueError):
    """Malformed or truncated image file; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class ImageBuffer:
    """Real-valued raster stored row-major as a (height, width) float64 array.

    Samples are nominally in [0, 1]; intermediates may leave that range and
    only finiteness is enforced. Public operations never mutate their inputs.
    """

    data: np.ndarray

    def __post_init__(self):
        # The float64 cast would drop an imaginary part with only a warning.
        if np.iscomplexobj(self.data):
            raise ValueError("image samples must be real")
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image data must be a non-empty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image samples must be finite")
        self.data = arr

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.data.size


def _is_integer(value) -> bool:
    # bool is an Integral, but True is no count, size or norm order.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_finite_positive(name: str, value: float) -> None:
    # NaN fails every comparison, so "value <= 0" alone would let it through.
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _require_same_shape(*images: ImageBuffer) -> None:
    shapes = {img.data.shape for img in images}
    if len(shapes) > 1:
        raise ValueError(f"images differ in shape: {sorted(shapes)}")


def _require_ssim_pair(a: ImageBuffer, b: ImageBuffer) -> None:
    _require_same_shape(a, b)
    if a.height < _SSIM_WINDOW or a.width < _SSIM_WINDOW:
        raise ValueError(
            f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for SSIM"
        )


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _next_pgm_int(buf: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """Scan the next header integer, skipping whitespace and '#' comments.

    Returns (value, token_start, position_after_token).
    """
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in b" \t\r\n\x0b\x0c":
            pos += 1
        elif c == ord("#"):
            while pos < n and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of file while reading {what}", pos)
    start = pos
    while pos < n and ord("0") <= buf[pos] <= ord("9"):
        pos += 1
    if pos == start:
        raise FormatError(f"expected unsigned integer for {what}", start)
    return int(buf[start:pos]), start, pos


def _read_pgm8(buf: bytes) -> ImageBuffer:
    width, w_off, pos = _next_pgm_int(buf, 2, "width")
    height, h_off, pos = _next_pgm_int(buf, pos, "height")
    maxval, m_off, pos = _next_pgm_int(buf, pos, "maxval")
    if width < 1:
        raise FormatError("width must be positive", w_off)
    if height < 1:
        raise FormatError("height must be positive", h_off)
    if width * height > _MAX_PIXELS:
        raise FormatError("dimension overflow", w_off)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (need 255)", m_off)
    if pos >= len(buf) or buf[pos] not in b" \t\r\n":
        raise FormatError("expected single whitespace after maxval", pos)
    pos += 1
    expected = width * height
    payload = buf[pos:]
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            len(buf),
        )
    if len(payload) > expected:
        raise FormatError("payload exceeds declared dimensions", pos + expected)
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return ImageBuffer(data.reshape(height, width))


def _read_raw_f32(buf: bytes) -> ImageBuffer:
    if len(buf) < 12:
        raise FormatError("truncated header", len(buf))
    width, height = struct.unpack_from("<II", buf, 4)
    if width < 1 or height < 1:
        raise FormatError("dimensions must be positive", 4)
    if width * height > _MAX_PIXELS:
        raise FormatError("dimension overflow", 4)
    expected = 12 + 4 * width * height
    if len(buf) < expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(buf)}",
            len(buf),
        )
    if len(buf) > expected:
        raise FormatError("payload exceeds declared dimensions", expected)
    samples = np.frombuffer(buf, dtype="<f4", count=width * height, offset=12)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise FormatError("non-finite sample", 12 + 4 * int(bad[0]))
    return ImageBuffer(samples.astype(np.float64).reshape(height, width))


def read_image(path) -> ImageBuffer:
    """Load an image from ``path``, in the format its leading magic bytes name.

    ``P5`` is 8-bit binary PGM (maxval 255), mapped to [0, 1] by v / 255.
    ``TVF1`` is the raw-f32 container: the magic, width and height as
    little-endian uint32, then row-major little-endian float32 samples
    loaded verbatim.

    Raises
    ------
    FormatError
        Unrecognized magic, malformed header, truncated payload or dimension
        overflow; the exception carries the failing byte offset.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"P5":
        return _read_pgm8(buf)
    if buf[:4] == _RAW_MAGIC:
        return _read_raw_f32(buf)
    raise FormatError("unrecognized image file magic", 0)


def write_image(img: ImageBuffer, path, format: str) -> None:
    """Write ``img`` to ``path``.

    pgm8 clamps samples to [0, 1] and quantizes with round-half-up to one
    byte; raw-f32 stores single-precision samples losslessly.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if not np.all(np.isfinite(img.data)):
        raise ValueError("image samples must be finite")
    if format == PGM8:
        quantized = np.floor(np.clip(img.data, 0.0, 1.0) * 255.0 + 0.5)
        payload = quantized.astype(np.uint8).tobytes()
        header = b"P5\n%d %d\n255\n" % (img.width, img.height)
        blob = header + payload
    else:
        blob = (
            _RAW_MAGIC
            + struct.pack("<II", img.width, img.height)
            + np.ascontiguousarray(img.data, dtype="<f4").tobytes()
        )
    with open(path, "wb") as fh:
        fh.write(blob)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def isnr(g: ImageBuffer, u_true: ImageBuffer, u_rec: ImageBuffer) -> float:
    """Improvement in signal-to-noise ratio of ``u_rec`` over ``g``, in dB.

    isnr = 10 log10(||g - u_true||^2 / ||u_rec - u_true||^2); positive iff
    the reconstruction is closer to the truth than the observation. It is
    +inf when ``u_rec`` equals ``u_true`` exactly, and -inf when ``g`` does.

    Raises
    ------
    ValueError
        The three images do not share dimensions.
    """
    _require_same_shape(g, u_true, u_rec)
    num = float(np.sum((g.data - u_true.data) ** 2))
    den = float(np.sum((u_rec.data - u_true.data) ** 2))
    if den == 0.0:
        return float("inf")
    if num == 0.0:
        return float("-inf")
    return 10.0 * math.log10(num / den)


def _gaussian_window(size: int = _SSIM_WINDOW, sigma: float = _SSIM_SIGMA) -> np.ndarray:
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    profile = np.exp(-(coords**2) / (2.0 * sigma**2))
    window = np.outer(profile, profile)
    return window / window.sum()


def _windowed_mean(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Valid-mode weighted local mean; windows stay fully inside the image.
    size = weights.shape[0]
    out_h = arr.shape[0] - size + 1
    out_w = arr.shape[1] - size + 1
    acc = np.zeros((out_h, out_w))
    for dy in range(size):
        for dx in range(size):
            acc += weights[dy, dx] * arr[dy : dy + out_h, dx : dx + out_w]
    return acc


def ssim(a: ImageBuffer, b: ImageBuffer) -> float:
    """Mean structural similarity between two images.

    Uses the standard Gaussian-weighted local statistics (11x11 window,
    std 1.5, C1 = 1e-4, C2 = 9e-4 on unit dynamic range) averaged over all
    window positions fully inside the images. Symmetric; ssim(a, a) == 1.
    """
    _require_ssim_pair(a, b)
    window = _gaussian_window()
    x, y = a.data, b.data
    mean_x = _windowed_mean(x, window)
    mean_y = _windowed_mean(y, window)
    var_x = _windowed_mean(x * x, window) - mean_x * mean_x
    var_y = _windowed_mean(y * y, window) - mean_y * mean_y
    cov = _windowed_mean(x * y, window) - mean_x * mean_y
    numerator = (2.0 * mean_x * mean_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    denominator = (mean_x**2 + mean_y**2 + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
    return float(np.mean(numerator / denominator))
