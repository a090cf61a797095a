import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg.raster import (
    BinaryMask,
    ClipTooLarge,
    FormatError,
    MultiSpectralImage,
    ScalarImage,
    _bilinear,
    clip_center,
    magnify,
    read_mask,
    read_raster,
    translate,
    write_raster,
)
from oracles import bilinear_at, naive_magnify


def gradient_image(w, h, dtype=np.uint8):
    data = (np.arange(w * h).reshape(h, w) % 256).astype(dtype)
    return ScalarImage(data, 1.0)


class TestTypes:
    def test_scalar_invariants(self):
        img = gradient_image(4, 3)
        assert (img.width, img.height) == (4, 3)
        with pytest.raises(ValueError):
            ScalarImage(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            ScalarImage(np.zeros((3, 4)), resolution=0.0)

    def test_images_are_locked(self):
        img = gradient_image(4, 3)
        with pytest.raises(ValueError):
            img.data[0, 0] = 9

    def test_multispectral_requires_matching_channels(self):
        a = gradient_image(4, 3)
        b = gradient_image(4, 3)
        with pytest.raises(ValueError):
            MultiSpectralImage(a, b, gradient_image(5, 3))
        ms = MultiSpectralImage(a, b, gradient_image(4, 3))
        assert ms.resolution == 1.0

    def test_mask_count(self):
        m = BinaryMask(np.eye(4, dtype=bool))
        assert m.count == 4 and not m.is_empty()


class TestClipCenter:
    def test_identity(self):
        img = gradient_image(8, 8)
        out = clip_center(img, 8, 8)
        assert np.array_equal(out.data, img.data)

    def test_even_margin(self):
        img = gradient_image(8, 8)
        out = clip_center(img, 4, 4)
        assert np.array_equal(out.data, img.data[2:6, 2:6])

    def test_odd_margin_goes_right_bottom(self):
        # both placements enumerated; the declared rule keeps rows/cols 1..4
        img = gradient_image(5, 5)
        out = clip_center(img, 4, 4)
        low = img.data[0:4, 0:4]
        high = img.data[1:5, 1:5]
        assert np.array_equal(out.data, high)
        assert not np.array_equal(out.data, low)

    def test_idempotent(self):
        img = gradient_image(9, 7)
        once = clip_center(img, 5, 4)
        twice = clip_center(once, 5, 4)
        assert np.array_equal(once.data, twice.data)

    def test_too_large(self):
        with pytest.raises(ClipTooLarge):
            clip_center(gradient_image(4, 4), 5, 4)

    def test_multispectral_clip(self):
        ms = MultiSpectralImage(*(gradient_image(6, 6) for _ in range(3)))
        out = clip_center(ms, 2, 2)
        assert out.width == 2 and out.height == 2


class TestMagnify:
    def test_constant(self):
        img = ScalarImage(np.full((3, 3), 7.0))
        out = magnify(img, 4)
        assert out.data.shape == (12, 12)
        assert np.allclose(out.data, 7.0)

    def test_factor_one_identity(self):
        img = gradient_image(5, 4)
        out = magnify(img, 1)
        assert np.array_equal(out.data, img.data)

    def test_bilinear_against_formula(self):
        src = np.array([[0.0, 4.0], [8.0, 12.0]])
        out = magnify(ScalarImage(src), 4)
        expected = naive_magnify(src, 4)
        assert np.array_equal(out.data, expected)
        assert out.data.min() == 0.0 and out.data.max() == 12.0
        assert (np.diff(out.data, axis=0) >= 0).all()
        assert (np.diff(out.data, axis=1) >= 0).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bilinear_equals_four_term_formula(self, data):
        """At any in-range positions every sample has the bits of the
        four-term formula of `oracles.bilinear_at`, edges included."""
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        src = data.draw(arrays(np.float64, (h, w), elements=st.floats(-1e3, 1e3)))
        sy = np.array(data.draw(st.lists(st.floats(0, h - 1), min_size=1, max_size=5)))
        sx = np.array(data.draw(st.lists(st.floats(0, w - 1), min_size=1, max_size=5)))
        want = np.array([[bilinear_at(src, x, y) for x in sx] for y in sy])
        assert np.array_equal(_bilinear(src, sy, sx), want)

    def test_resolution_scales(self):
        img = ScalarImage(np.zeros((4, 4)), resolution=10.0)
        assert magnify(img, 4).resolution == 2.5

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(2, 6),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_range_preserved(self, w, h, factor, seed):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-5, 5, (h, w))
        out = magnify(ScalarImage(src), factor)
        assert out.data.min() >= src.min() - 1e-9
        assert out.data.max() <= src.max() + 1e-9


class TestTranslate:
    def test_shift_and_clip(self):
        m = BinaryMask(np.array([[1, 0], [0, 0]], dtype=bool))
        out = translate(m, 1, 1)
        assert out.bits[1, 1] and out.count == 1
        assert translate(m, 5, 0).count == 0


@st.composite
def near_pnm(draw):
    """Bytes of a valid binary PGM/PPM with a drawn resolution comment, then
    maybe one corruption: a header field replaced, a byte changed or a cut."""
    magic = draw(st.sampled_from(["P5", "P6"]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    fields = [magic, str(width), str(height), "255"]
    comment = draw(st.none() | st.floats().map(str) | st.sampled_from(["", "2.5 m/px", "x"]))
    need = width * height * (3 if magic == "P6" else 1)
    payload = draw(st.binary(min_size=need, max_size=need + 2))
    corruption = draw(st.sampled_from(["none", "field", "byte", "cut"]))
    if corruption == "field":
        fields[draw(st.integers(0, 3))] = draw(st.sampled_from(
            ["P2", "P", "Q5", "0", "-1", "", "x", "1.5", "256", "65535", "9" * 30]))
    head = fields[0] + "\n"
    if comment is not None:
        head += f"# resolution {comment}\n"
    raw = (head + " ".join(fields[1:3]) + "\n" + fields[3] + "\n").encode() + payload
    if corruption == "byte":
        at = draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    elif corruption == "cut":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    return raw


class TestReadRasterFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=near_pnm())
    def test_image_or_format_error(self, tmp_path_factory, raw):
        p = tmp_path_factory.getbasetemp() / "fuzz.pnm"
        p.write_bytes(raw)
        try:
            img = read_raster(p)
        except FormatError:
            return
        assert isinstance(img, (ScalarImage, MultiSpectralImage))
        assert 0 < img.resolution < float("inf")


class TestIO:
    def test_pgm_roundtrip(self, tmp_path):
        img = gradient_image(3, 2)
        p = tmp_path / "g.pgm"
        write_raster(img, p)
        back = read_raster(p)
        assert isinstance(back, ScalarImage)
        assert np.array_equal(back.data, img.data)

    def test_ppm_roundtrip_with_resolution(self, tmp_path):
        chans = [ScalarImage((np.arange(12).reshape(3, 4) * k % 256).astype(np.uint8), 10.0) for k in (1, 2, 3)]
        ms = MultiSpectralImage(*chans)
        p = tmp_path / "m.ppm"
        write_raster(ms, p)
        back = read_raster(p)
        assert isinstance(back, MultiSpectralImage)
        assert back.resolution == 10.0
        for c1, c2 in zip(ms.channels, back.channels):
            assert np.array_equal(c1.data, c2.data)

    def test_payload_bytes_identical(self, tmp_path):
        img = gradient_image(7, 5)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_raster(img, a)
        write_raster(read_raster(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(FormatError):
            read_raster(p)

    def test_sixteen_bit_rejected(self, tmp_path):
        p = tmp_path / "deep.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError):
            read_raster(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(FormatError):
            read_raster(p)

    @pytest.mark.parametrize("value", ["-2", "nan", "0", "inf", "-inf", "1e999"])
    def test_resolution_comment_not_finite_positive(self, tmp_path, value):
        p = tmp_path / "res.pgm"
        p.write_bytes(f"P5\n# resolution {value} m/px\n2 2\n255\n".encode() + bytes(4))
        with pytest.raises(FormatError, match="resolution"):
            read_raster(p)

    @pytest.mark.parametrize("res, text", [(1.0, "1"), (2.5, "2.5"), (10.0, "10")])
    def test_header_bytes(self, tmp_path, res, text):
        p = tmp_path / "h.pgm"
        write_raster(ScalarImage(np.zeros((2, 3), dtype=np.uint8), res), p)
        assert p.read_bytes() == f"P5\n# resolution {text} m/px\n3 2\n255\n".encode() + bytes(6)

    @pytest.mark.parametrize("res", [math.inf, math.nan])
    def test_resolution_not_finite_rejected(self, res):
        """Such an image would write a header its own reader rejects."""
        with pytest.raises(ValueError, match="finite"):
            ScalarImage(np.zeros((2, 2), dtype=np.uint8), res)

    def test_resolution_2_5_round_trips(self, tmp_path):
        p = tmp_path / "pan.pgm"
        write_raster(ScalarImage(np.zeros((2, 2), dtype=np.uint8), 2.5), p)
        assert read_raster(p).resolution == 2.5

    def test_resolution_round_trips(self, tmp_path):
        """Six significant digits would read 2.5 / 3 back as 0.833333."""
        p = tmp_path / "third.pgm"
        write_raster(ScalarImage(np.zeros((2, 2), dtype=np.uint8), 2.5 / 3), p)
        assert read_raster(p).resolution == 2.5 / 3

    def test_mask_roundtrip(self, tmp_path):
        m = BinaryMask(np.eye(5, dtype=bool))
        p = tmp_path / "m.pgm"
        write_raster(m, p)
        assert np.array_equal(read_mask(p).bits, m.bits)

    def test_float_write_is_display_only(self, tmp_path):
        img = ScalarImage(np.array([[-1.0, 0.0], [1.0, 3.0]]))
        p = tmp_path / "f.pgm"
        write_raster(img, p)
        back = read_raster(p)
        assert back.data.dtype == np.uint8
        assert back.data.min() == 0 and back.data.max() == 255
