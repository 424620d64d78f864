"""Image containers, bit-exact file I/O and restoration quality metrics."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .linops import BlurSpec, blur_via_plan, build_plan

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
        # Only bools, integers and reals cast to float64 as numbers: the cast
        # would drop an imaginary part, parse strings and count dates.
        arr = np.asarray(self.data)
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"image samples must be real numbers, got dtype {arr.dtype}")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
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


def _require_dims(width: int, height: int, w_off: int, h_off: int) -> None:
    if width < 1:
        raise FormatError("width must be positive", w_off)
    if height < 1:
        raise FormatError("height must be positive", h_off)
    if width * height > _MAX_PIXELS:
        raise FormatError("dimension overflow", w_off)


def _require_length(buf: bytes, end: int) -> None:
    if len(buf) < end:
        raise FormatError(
            f"truncated payload: expected {end} bytes, got {len(buf)}", len(buf)
        )
    if len(buf) > end:
        raise FormatError("payload exceeds declared dimensions", end)


def _read_pgm8(buf: bytes) -> ImageBuffer:
    width, w_off, pos = _next_pgm_int(buf, 2, "width")
    height, h_off, pos = _next_pgm_int(buf, pos, "height")
    maxval, m_off, pos = _next_pgm_int(buf, pos, "maxval")
    _require_dims(width, height, w_off, h_off)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (need 255)", m_off)
    if pos >= len(buf) or buf[pos] not in b" \t\r\n":
        raise FormatError("expected single whitespace after maxval", pos)
    pos += 1
    _require_length(buf, pos + width * height)
    data = np.frombuffer(buf, dtype=np.uint8, offset=pos).astype(np.float64) / 255.0
    return ImageBuffer(data.reshape(height, width))


def _read_raw_f32(buf: bytes) -> ImageBuffer:
    if len(buf) < 12:
        raise FormatError("truncated header", len(buf))
    width, height = struct.unpack_from("<II", buf, 4)
    _require_dims(width, height, 4, 8)
    _require_length(buf, 12 + 4 * width * height)
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
        Unrecognized magic, malformed header, zero width or height, dimension
        overflow, or a file length other than the header declares; the
        exception carries the failing byte offset. Both formats share these
        checks, and a truncated file reports the file bytes expected and read.
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
    byte; raw-f32 stores float32 samples losslessly and refuses, before it
    creates the file, a sample that would round to infinity.
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
        with np.errstate(over="ignore"):
            samples = np.ascontiguousarray(img.data, dtype="<f4")
        if not np.all(np.isfinite(samples)):
            raise ValueError("image samples must lie within float32 range for raw-f32")
        blob = _RAW_MAGIC + struct.pack("<II", img.width, img.height) + samples.tobytes()
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


def ssim(a: ImageBuffer, b: ImageBuffer) -> float:
    """Mean structural similarity between two images.

    Uses the standard Gaussian-weighted local statistics (11x11 window,
    std 1.5, C1 = 1e-4, C2 = 9e-4 on unit dynamic range) averaged over all
    window positions fully inside the images. Symmetric; ssim(a, a) == 1.
    """
    _require_ssim_pair(a, b)
    # A window inside the image never wraps, so its weighted mean is the
    # periodic blur by the window, cropped to the windows inside the image.
    eigen_K = build_plan(a.width, a.height, BlurSpec(_SSIM_WINDOW, _SSIM_SIGMA))
    r = _SSIM_WINDOW // 2

    def local_mean(arr: np.ndarray) -> np.ndarray:
        return blur_via_plan(eigen_K, arr)[r:-r, r:-r]

    x, y = a.data, b.data
    mean_x = local_mean(x)
    mean_y = local_mean(y)
    var_x = local_mean(x * x) - mean_x * mean_x
    var_y = local_mean(y * y) - mean_y * mean_y
    cov = local_mean(x * y) - mean_x * mean_y
    numerator = (2.0 * mean_x * mean_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    denominator = (mean_x**2 + mean_y**2 + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
    return float(np.mean(numerator / denominator))
