"""Raster containers and binary PGM/PPM input/output.

Images are thin wrappers around numpy arrays plus resolution metadata in
meters per pixel.  Loaded rasters are 8-bit; derived rasters (band
combinations, gradients) are stored as float64 so that negative and
injected values survive.  Arrays are locked after construction: every
operation returns a new object instead of mutating in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class FormatError(Exception):
    """Malformed or unsupported raster, edge-set or graph file."""


# what building an object from a malformed JSON document can raise
DOC_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


def doc_int(value) -> int:
    """An integer field of a JSON document; TypeError for anything else,
    booleans included, which `operator.index` would read as 0 and 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not an integer")
    return operator.index(value)


class ClipTooLarge(Exception):
    """Requested clip window exceeds the image."""


def _locked(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class ScalarImage:
    """Single-band raster. ``data`` is row-major, shape (height, width)."""

    data: np.ndarray
    resolution: float = 1.0

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim != 2 or self.data.size == 0:
            raise ValueError("image data must be a non-empty 2-D array")
        if not 0 < self.resolution < math.inf:  # False on NaN too
            raise ValueError("resolution must be finite and positive")
        self.resolution = float(self.resolution)
        self.data = _locked(self.data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(eq=False)
class MultiSpectralImage:
    """Three co-registered single-band channels of identical geometry."""

    ch1: ScalarImage
    ch2: ScalarImage
    ch3: ScalarImage

    def __post_init__(self) -> None:
        shapes = {c.data.shape for c in self.channels}
        resolutions = {c.resolution for c in self.channels}
        if len(shapes) != 1 or len(resolutions) != 1:
            raise ValueError("channels must share dimensions and resolution")

    @property
    def channels(self) -> tuple[ScalarImage, ScalarImage, ScalarImage]:
        return (self.ch1, self.ch2, self.ch3)

    @property
    def height(self) -> int:
        return self.ch1.height

    @property
    def width(self) -> int:
        return self.ch1.width

    @property
    def resolution(self) -> float:
        return self.ch1.resolution


@dataclass(eq=False)
class BinaryMask:
    """Boolean raster, shape (height, width)."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits)
        if self.bits.ndim != 2 or self.bits.size == 0:
            raise ValueError("mask must be a non-empty 2-D array")
        self.bits = _locked(self.bits.astype(bool))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def is_empty(self) -> bool:
        return not self.bits.any()


def clip_center(img, out_w: int, out_h: int):
    """Central window of ``out_w`` x ``out_h`` pixels.

    When the margin is odd the window shifts so that the extra removed
    pixel comes from the left/top, i.e. the surviving extra pixel sits on
    the right/bottom side.
    """
    if isinstance(img, MultiSpectralImage):
        return MultiSpectralImage(*(clip_center(c, out_w, out_h) for c in img.channels))
    if out_w <= 0 or out_h <= 0:
        raise ValueError("clip window must be positive")
    if out_w > img.width or out_h > img.height:
        raise ClipTooLarge(
            f"window {out_w}x{out_h} exceeds image {img.width}x{img.height}"
        )
    x0 = (img.width - out_w + 1) // 2
    y0 = (img.height - out_h + 1) // 2
    window = img.data[y0 : y0 + out_h, x0 : x0 + out_w].copy()
    return ScalarImage(window, img.resolution)


def _bilinear(src: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """`src` sampled at every (row, column) pair of the positions `sy` and
    `sx`, each from 0 to its axis's last index, by blending the four
    surrounding pixels (the last row or column blends with itself):
    src[y0, x0] * (1 - fy) * (1 - fx) + src[y0, x1] * (1 - fy) * fx + ...,
    summed left to right.  Products associate left first, so weighting the
    source's rows once, then gathering, scaling and adding the columns in
    that order gives the formula's bits with fewer passes over the output."""
    y0 = sy.astype(int)
    x0 = sx.astype(int)
    y1 = np.minimum(y0 + 1, src.shape[0] - 1)
    x1 = np.minimum(x0 + 1, src.shape[1] - 1)
    fy = (sy - y0)[:, None]
    fx = sx - x0
    top, bot = src[y0] * (1 - fy), src[y1] * fy
    out = top.take(x0, axis=1)
    out *= 1 - fx
    term = np.empty_like(out)
    for rows, cols, w in ((top, x1, fx), (bot, x0, 1 - fx), (bot, x1, fx)):
        rows.take(cols, axis=1, out=term, mode="clip")
        term *= w
        out += term
    return out


def magnify(img, factor: int):
    """Enlarge by an integer factor with pixel-center bilinear interpolation.

    Output centers sample the source at ((o + 0.5) / factor - 0.5); samples
    outside the source hull are edge-clamped, so the output range is a
    subset of the input range.  Resolution shrinks by the same factor.
    """
    if isinstance(img, MultiSpectralImage):
        return MultiSpectralImage(*(magnify(c, factor) for c in img.channels))
    factor = int(factor)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    src = img.data.astype(np.float64)
    h, w = src.shape
    sy = np.clip((np.arange(h * factor) + 0.5) / factor - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(w * factor) + 0.5) / factor - 0.5, 0.0, w - 1.0)
    return ScalarImage(_bilinear(src, sy, sx), img.resolution / factor)


def translate(mask: BinaryMask, dx: int, dy: int) -> BinaryMask:
    """Shift a mask by whole pixels; content pushed over the frame is lost."""
    h, w = mask.bits.shape
    out = np.zeros_like(mask.bits)
    ys0, ys1 = max(0, dy), min(h, h + dy)
    xs0, xs1 = max(0, dx), min(w, w + dx)
    if ys0 < ys1 and xs0 < xs1:
        out[ys0:ys1, xs0:xs1] = mask.bits[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
    return BinaryMask(out)


# ---------------------------------------------------------------------------
# PGM / PPM  (binary, maxval 255)
# ---------------------------------------------------------------------------

_RESOLUTION_TAG = "resolution "


def _parse_header(raw: bytes):
    """Return (magic, width, height, maxval, resolution, payload offset)."""
    if len(raw) < 2 or raw[:1] != b"P":
        raise FormatError("not a PGM/PPM file")
    magic = raw[:2]
    pos = 2
    tokens: list[int] = []
    resolution = None
    n = len(raw)
    while len(tokens) < 3:
        while pos < n and raw[pos : pos + 1].isspace():
            pos += 1
        if pos >= n:
            raise FormatError("truncated header")
        if raw[pos : pos + 1] == b"#":
            end = raw.find(b"\n", pos)
            if end < 0:
                raise FormatError("truncated header")
            comment = raw[pos + 1 : end].strip().decode("ascii", "replace")
            if comment.startswith(_RESOLUTION_TAG):
                try:
                    resolution = float(comment[len(_RESOLUTION_TAG) :].split()[0])
                except (ValueError, IndexError):
                    raise FormatError("bad resolution comment") from None
                if not 0 < resolution < math.inf:  # False on NaN too
                    raise FormatError(f"resolution {resolution} is not finite and positive")
            pos = end + 1
            continue
        start = pos
        while pos < n and not raw[pos : pos + 1].isspace():
            pos += 1
        try:
            tokens.append(int(raw[start:pos]))
        except ValueError:
            raise FormatError("non-numeric header field") from None
    pos += 1  # single whitespace byte before the payload
    width, height, maxval = tokens
    return magic, width, height, maxval, resolution, pos


def read_raster(path):
    """Read a binary PGM (-> ScalarImage) or PPM (-> MultiSpectralImage).

    Only 8-bit data (maxval 255) is supported.  Resolution comes from the
    optional ``# resolution <r> m/px`` header comment, defaulting to 1.0.
    """
    raw = Path(path).read_bytes()
    magic, width, height, maxval, file_res, off = _parse_header(raw)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported magic {magic!r}")
    if maxval != 255:
        raise FormatError(f"unsupported depth (maxval {maxval})")
    if width <= 0 or height <= 0:
        raise FormatError("non-positive dimensions")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = raw[off : off + need]
    if len(payload) < need:
        raise FormatError("truncated payload")
    res = file_res or 1.0
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return ScalarImage(arr.reshape(height, width).copy(), res)
    planes = arr.reshape(height, width, 3)
    return MultiSpectralImage(
        ScalarImage(planes[:, :, 0].copy(), res),
        ScalarImage(planes[:, :, 1].copy(), res),
        ScalarImage(planes[:, :, 2].copy(), res),
    )


def _header(magic: bytes, width: int, height: int, resolution: float) -> bytes:
    # the short `:g` form where it reads back as the same number, else repr
    res = f"{resolution:g}"
    if float(res) != resolution:
        res = repr(resolution)
    return magic + f"\n# {_RESOLUTION_TAG}{res} m/px\n{width} {height}\n255\n".encode("ascii")


def _display_bytes(data: np.ndarray) -> np.ndarray:
    """uint8 data unchanged; any other data by affine min-max normalization
    to uint8, which is display-only, not bit-exact."""
    if data.dtype == np.uint8:
        return data
    lo = float(data.min())
    hi = float(data.max())
    if hi <= lo:
        return np.zeros(data.shape, dtype=np.uint8)
    return np.rint((data - lo) * (255.0 / (hi - lo))).astype(np.uint8)


def write_raster(img, path) -> None:
    """Write PGM/PPM. uint8 payloads round-trip bit-exactly; float images
    are min-max normalized for display only."""
    if isinstance(img, BinaryMask):
        magic, res, payload = b"P5", 1.0, np.where(img.bits, 255, 0).astype(np.uint8)
    elif isinstance(img, MultiSpectralImage):
        magic, res = b"P6", img.resolution
        payload = np.stack([_display_bytes(c.data) for c in img.channels], axis=-1)
    else:
        magic, res, payload = b"P5", img.resolution, _display_bytes(img.data)
    Path(path).write_bytes(_header(magic, img.width, img.height, res) + payload.tobytes())


def read_mask(path) -> BinaryMask:
    """Read a mask PGM; any value >= 128 counts as foreground."""
    img = read_raster(path)
    if not isinstance(img, ScalarImage):
        raise FormatError("mask file must be single-band")
    return BinaryMask(img.data >= 128)
