"""Exhaustive integer-offset placement of a candidate mask on the
panchromatic image.

Every offset d in the search window scores how well the mask's rim normals
line up with the pan gradient, |sum_p N(p - d) . G(p)| (after Borgefors, IEEE
PAMI 10(6), 1988, and Steger, DAGM 2001).  N = grad(g_sigma * mask), the mask
zero outside the frame; G = grad(g_sigma * pan), the pan extended past the
frame by its own mean, so the border adds no gradient.  No edge set or
threshold is read, so a faint object limit still places, and the absolute
value takes no side on which of object and background is brighter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .edges import _gaussian_blur, _sobel_pair
from .morph import EmptyMask
from .raster import BinaryMask, ScalarImage

# scores within this fraction of the best one tie
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MatchResult:
    offset: tuple[int, int]  # (dx, dy)
    score: float
    tie_count: int


def _radius(sigma: float) -> int:
    """How far the gradient filter S B reaches: B = `_gaussian_blur`'s
    radius plus the one pixel of S = `_sobel_pair`."""
    return max(1, math.ceil(3.0 * sigma)) + 1


@lru_cache(maxsize=8)  # one per frame size and sigma, which a corpus shares
def _kernel_spectrum(sigma: float, shape: tuple[int, int]) -> np.ndarray:
    """Spectrum of (S B)^T (S B) on an FFT grid of ``shape``: the power
    spectrum of S B's impulse response, summed over x and y; read-only.

    The impulse lies as far from the patch border as S B reaches, so both
    steps' edge padding reads zeros and the patch holds the whole response.
    """
    r = _radius(sigma)
    delta = np.zeros((2 * r + 1, 2 * r + 1))
    delta[r, r] = 1.0
    power = sum(np.abs(np.fft.rfft2(k, shape)) ** 2 for k in _sobel_pair(_gaussian_blur(delta, sigma)))
    power.flags.writeable = False
    return power


def _scores(bits: np.ndarray, pan: np.ndarray, hw: int, sigma: float) -> np.ndarray:
    """The score of every offset with |dy|, |dx| <= hw, at [dy + hw, dx + hw].

    The sum is the correlation of (pan - mean), zero outside the frame, with
    the mask under (S B)^T (S B), so one product of spectra gives them all.
    """
    # along an axis of n pixels the two fields overlap only at lags |d| <=
    # n - 1 + reach; a circular lag |d| <= hw also sums the lags d +/- m, and
    # m >= n + hw + reach puts those past every overlap, so they add 0
    reach = 2 * _radius(sigma)
    shape = tuple(-(-(n + hw + reach) // 32) * 32 for n in pan.shape)
    f = pan.astype(np.float64)
    # clipped, so that a flat pan centres to exact zeros whatever its mean rounds to
    mean = np.clip(f.mean(), f.min(), f.max())
    spectrum = np.fft.rfft2(f - mean, shape) * np.conj(np.fft.rfft2(bits, shape))
    corr = np.fft.irfft2(spectrum * _kernel_spectrum(sigma, shape), shape)
    lags = np.arange(-hw, hw + 1)
    return np.abs(corr[np.ix_(lags % shape[0], lags % shape[1])])


def match_mask(
    mask: BinaryMask, pan: ScalarImage, half_window: int = 10, sigma: float = 1.2
) -> MatchResult:
    """Best translation of ``mask`` within +/- ``half_window`` pixels.

    Scores within TIE_TOLERANCE of the best tie.  Among them the offset
    nearest (0, 0) wins, then the smallest (dy, dx), so a pan with no
    gradient, which scores 0 everywhere, places at (0, 0).
    """
    if mask.is_empty():
        raise EmptyMask("cannot match an empty mask")
    if (mask.height, mask.width) != (pan.height, pan.width):
        raise ValueError("mask and panchromatic image must share dimensions")
    hw = int(half_window)
    if hw < 0:
        raise ValueError("half_window must be non-negative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # past a frame plus the filter's reach the fields no longer overlap, so
    # every further offset scores 0 and loses to the nearer zeros inside
    hw = min(hw, max(pan.height, pan.width) - 1 + 2 * _radius(sigma))
    scores = _scores(mask.bits, pan.data, hw, sigma)
    tied = (np.argwhere(scores >= scores.max() * (1 - TIE_TOLERANCE)) - hw).tolist()
    dy, dx = min(tied, key=lambda d: (d[0] ** 2 + d[1] ** 2, d))
    return MatchResult((dx, dy), float(scores[dy + hw, dx + hw]), len(tied))
