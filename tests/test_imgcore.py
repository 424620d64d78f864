import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwtv.imgcore import (
    PGM8,
    RAW_F32,
    FormatError,
    ImageBuffer,
    isnr,
    read_image,
    ssim,
    write_image,
)


def _img(arr):
    return ImageBuffer(np.asarray(arr, dtype=np.float64))


def _rand_img(rng, h, w, lo=0.0, hi=1.0):
    return ImageBuffer(rng.uniform(lo, hi, (h, w)))


class TestImageBuffer:
    def test_shape_accessors(self):
        img = _img(np.zeros((3, 5)))
        assert (img.width, img.height, img.pixel_count) == (5, 3, 15)


class TestPgmIO:
    def test_read_2x2(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_image(path)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        assert np.array_equal(img.data, expected)

    def test_read_handles_comments(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1 # inline\n255\n" + bytes([7, 9]))
        img = read_image(path)
        assert np.array_equal(img.data, np.array([[7 / 255, 9 / 255]]))

    def test_write_quantizes_round_half_up(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_image(_img([[0.5]]), path, PGM8)
        assert path.read_bytes().endswith(bytes([128]))

    def test_write_clamps(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_image(_img([[1.3, -0.2]]), path, PGM8)
        assert path.read_bytes().endswith(bytes([255, 0]))

    def test_roundtrip_idempotent_after_first_quantization(self, tmp_path):
        rng = np.random.default_rng(5)
        img = _rand_img(rng, 7, 9)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(img, p1, PGM8)
        once = read_image(p1)
        write_image(once, p2, PGM8)
        twice = read_image(p2)
        assert np.array_equal(once.data, twice.data)


class TestRawF32IO:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        # float32-representable samples roundtrip exactly
        samples = rng.uniform(-2, 2, (6, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.raw"
        write_image(ImageBuffer(samples), path, RAW_F32)
        back = read_image(path)
        assert np.array_equal(back.data, samples)

    def test_read_image_dispatches_on_magic(self, tmp_path):
        # the leading bytes alone pick the reader, whatever the file is called
        p1, p2 = tmp_path / "a.raw", tmp_path / "b.pgm"
        write_image(_img([[0.2, 0.6]]), p1, PGM8)
        write_image(_img([[0.2, 0.6]]), p2, RAW_F32)
        assert np.array_equal(read_image(p1).data, [[51 / 255, 153 / 255]])
        assert np.array_equal(read_image(p2).data, np.float32([[0.2, 0.6]]))
        for head in (b"", b"P", b"P6", b"TVF", b"TVF2", b"XXXX", b"\x00P5"):
            p3 = tmp_path / "c.img"
            p3.write_bytes(head + bytes(16))
            with pytest.raises(FormatError, match="unrecognized image file magic") as err:
                read_image(p3)
            assert err.value.offset == 0

    def test_write_rejects_unknown_format_and_creates_no_file(self, tmp_path):
        path = tmp_path / "t.png"
        with pytest.raises(ValueError, match="format must be one of"):
            write_image(_img([[0.5]]), path, "png")
        assert not path.exists()

    def test_write_rejects_sample_beyond_float32_and_creates_no_file(self, tmp_path):
        # finite in float64, it would round to +inf in the file
        path = tmp_path / "big.raw"
        with pytest.raises(ValueError, match="float32 range"):
            write_image(ImageBuffer(np.full((3, 3), 1e39)), path, RAW_F32)
        assert not path.exists()

    def test_write_validates_finiteness(self, tmp_path):
        # a buffer whose data was mutated behind the constructor still fails
        img = _img([[0.5, 0.5]])
        img.data[0, 0] = np.nan
        with pytest.raises(ValueError):
            write_image(img, tmp_path / "bad.raw", RAW_F32)


def _tvf1(width, height, payload=b""):
    return b"TVF1" + struct.pack("<II", width, height) + payload


# Each malformed file with the byte offset its FormatError reports and a
# fragment of the message.
MALFORMED = [
    (b"P5\n4", 4, "end of file while reading height"),
    (b"P5\nx 4\n255\n", 3, "expected unsigned integer for width"),
    (b"P5\n0 4\n255\n", 3, "width must be positive"),
    (b"P5\n4 0\n255\n", 5, "height must be positive"),
    (b"P5\n1 1\n255x\x00", 10, "expected single whitespace after maxval"),
    (b"P5\n1 1\n255\n\x00\x00", 12, "payload exceeds declared dimensions"),
    (b"P5\n4 4\n255\n" + bytes(8), 19, "truncated payload: expected 27 bytes, got 19"),
    (b"TVF1" + bytes(4), 8, "truncated header"),
    (_tvf1(0, 4), 4, "width must be positive"),
    (_tvf1(4, 0), 8, "height must be positive"),
    (_tvf1(70000, 70000), 4, "dimension overflow"),
    (_tvf1(1, 1, bytes(8)), 16, "payload exceeds declared dimensions"),
    (_tvf1(2, 2, bytes(8)), 20, "truncated payload: expected 28 bytes, got 20"),
    (b"P5\n1 1\n65535\n\x00\x00", 7, "unsupported maxval"),
    (b"P5\n70000 70000\n255\n", 3, "dimension overflow"),
    (_tvf1(4, 4, bytes(8)), 20, "truncated payload: expected 76 bytes, got 20"),
    (_tvf1(2, 1, np.array([1.0, np.nan], dtype="<f4").tobytes()), 16, "non-finite sample"),
]


@pytest.mark.parametrize("blob,offset,message", MALFORMED)
def test_malformed_file_reports_offset(tmp_path, blob, offset, message):
    path = tmp_path / "bad.img"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=message) as err:
        read_image(path)
    assert err.value.offset == offset


class TestIsnr:
    def test_rec_equals_observation_is_zero(self):
        rng = np.random.default_rng(0)
        g = _rand_img(rng, 8, 8)
        truth = _rand_img(rng, 8, 8)
        assert isnr(g, truth, g) == 0.0

    def test_factor_two_ratio(self):
        truth = _img(np.zeros((4, 4)))
        g = _img(np.full((4, 4), 0.2))
        rec = _img(np.full((4, 4), 0.1))
        assert isnr(g, truth, rec) == pytest.approx(10 * math.log10(4), abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        g, truth, rec = (_rand_img(rng, 8, 8) for _ in range(3))
        num = 0.0
        for y in range(8):
            for x in range(8):
                num += (g.data[y, x] - truth.data[y, x]) ** 2
        den = 0.0
        for y in range(8):
            for x in range(8):
                den += (rec.data[y, x] - truth.data[y, x]) ** 2
        expected = 10 * math.log10(num / den)
        assert isnr(g, truth, rec) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        g, truth, rec = (_rand_img(rng, 6, 6) for _ in range(3))
        perm = rng.permutation(36)
        shuffled = [
            ImageBuffer(img.data.ravel()[perm].reshape(6, 6)) for img in (g, truth, rec)
        ]
        assert isnr(*shuffled) == pytest.approx(isnr(g, truth, rec), rel=1e-12)

    def test_identical_rec_is_infinite(self):
        rng = np.random.default_rng(1)
        g = _rand_img(rng, 8, 8)
        truth = _rand_img(rng, 8, 8)
        assert isnr(g, truth, ImageBuffer(truth.data.copy())) == math.inf

    def test_observation_equal_to_truth_is_minus_infinite(self):
        rng = np.random.default_rng(2)
        truth = _rand_img(rng, 8, 8)
        rec = _rand_img(rng, 8, 8)
        assert isnr(ImageBuffer(truth.data.copy()), truth, rec) == -math.inf


def _ssim_oracle(a, b):
    # Independent per-window scalar evaluation of the standard formula.
    size, sigma = 11, 1.5
    coords = np.arange(size) - 5.0
    prof = np.exp(-(coords**2) / (2 * sigma**2))
    win = np.outer(prof, prof)
    win /= win.sum()
    c1, c2 = 1e-4, 9e-4
    h, w = a.shape
    values = []
    for y in range(h - size + 1):
        for x in range(w - size + 1):
            pa = a[y : y + size, x : x + size]
            pb = b[y : y + size, x : x + size]
            mx = float((win * pa).sum())
            my = float((win * pb).sum())
            vx = float((win * pa * pa).sum()) - mx * mx
            vy = float((win * pb * pb).sum()) - my * my
            cov = float((win * pa * pb).sum()) - mx * my
            values.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(values))


class TestSsim:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(3)
        img = _rand_img(rng, 16, 16)
        assert ssim(img, ImageBuffer(img.data.copy())) == 1.0

    def test_inverted_checkerboard_negative(self):
        rows = np.arange(16)[:, None]
        cols = np.arange(16)[None, :]
        board = ((rows + cols) % 2).astype(np.float64)
        assert ssim(_img(board), _img(1.0 - board)) < 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        a, b = _rand_img(rng, 32, 32), _rand_img(rng, 32, 32)
        assert ssim(a, b) == pytest.approx(_ssim_oracle(a.data, b.data), abs=1e-9)

    def test_matches_scalar_oracle_at_the_edges(self):
        # The 11x11 pair holds one window. In the others a window cropped by
        # the wrong amount would wrap round onto the bright corner pixel.
        rng = np.random.default_rng(15)
        pairs = [(_rand_img(rng, 11, 11), _rand_img(rng, 11, 11))]
        for h, w in ((12, 17), (17, 12)):
            dim = rng.uniform(0.0, 0.1, (h, w))
            dim[-1, -1] = 1.0
            pairs.append((_img(dim), _rand_img(rng, h, w)))
        for a, b in pairs:
            assert ssim(a, b) == pytest.approx(_ssim_oracle(a.data, b.data), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a, b = _rand_img(rng, 20, 20), _rand_img(rng, 20, 20)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-14)

    def test_value_at_most_one(self):
        rng = np.random.default_rng(14)
        a, b = _rand_img(rng, 15, 15), _rand_img(rng, 15, 15)
        assert ssim(a, b) <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_pgm_quantization_preserves_bytes(tmp_path_factory, byte_value):
    # read(write(x)) is a fixed point on the 8-bit lattice
    path = tmp_path_factory.mktemp("pgm") / "q.pgm"
    img = _img([[byte_value / 255.0]])
    write_image(img, path, PGM8)
    back = read_image(path)
    assert back.data[0, 0] == byte_value / 255.0
