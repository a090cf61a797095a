"""Region-of-interest segmentation of the low-resolution multispectral image.

The three channels are collapsed to a single discriminant band with fixed
empirical weights, a corpus-level threshold is estimated from the mode of
the central window values, and hysteresis thresholding grows the candidate
region from strong seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .morph import label_components
from .raster import BinaryMask, MultiSpectralImage, ScalarImage, clip_center

DEFAULT_WEIGHTS = (0.3, 0.3, -1.0)
# side in pixels of the central window: its values set the corpus threshold,
# and the candidate component is the one that best overlaps it
CENTRAL_WINDOW = 5


class EmptyCorpus(Exception):
    """Threshold estimation needs at least one image."""


@dataclass(frozen=True)
class ThresholdPair:
    t_high: float
    t_low: float

    def __post_init__(self) -> None:
        if self.t_low > self.t_high:
            raise ValueError("t_low must not exceed t_high")


def band_combine(
    ms: MultiSpectralImage, weights: tuple[float, float, float] = DEFAULT_WEIGHTS
) -> ScalarImage:
    """Weighted channel sum, kept as float (values may go negative)."""
    w1, w2, w3 = weights
    data = (
        w1 * ms.ch1.data.astype(np.float64)
        + w2 * ms.ch2.data.astype(np.float64)
        + w3 * ms.ch3.data.astype(np.float64)
    )
    return ScalarImage(data, ms.resolution)


def corpus_mode_threshold(
    corpus: list[MultiSpectralImage],
    delta: float = 10.0,
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
) -> ThresholdPair:
    """Estimate a threshold pair from the corpus of multispectral images.

    Pools the central ``CENTRAL_WINDOW`` x ``CENTRAL_WINDOW`` values of every
    image's combined band, rounds them to integer bins and takes the mode as the
    strong threshold; ties resolve to the lower bin.  The weak threshold sits ``delta`` gray levels below.
    """
    if not corpus:
        raise EmptyCorpus("no images to estimate a threshold from")
    pooled = []
    for ms in corpus:
        win = clip_center(band_combine(ms, weights), CENTRAL_WINDOW, CENTRAL_WINDOW)
        pooled.append(win.data.astype(np.float64).ravel())
    values = np.concatenate(pooled)
    bins = np.floor(values + 0.5)  # round half up, deterministic
    uniq, counts = np.unique(bins, return_counts=True)
    mode = float(uniq[np.argmax(counts)])  # np.unique sorts: first max = lowest bin
    return ThresholdPair(t_high=mode, t_low=mode - delta)


def _grow8(seeds: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The 8-connected components of `allowed` that hold a pixel of
    ``seeds & allowed``."""
    labels, count = label_components(allowed, connectivity=8)
    hit = np.zeros(count + 1, dtype=bool)
    hit[labels[seeds]] = True
    hit[0] = False  # seeds outside `allowed`
    return hit[labels]


def hysteresis_segment(combined: ScalarImage, t: ThresholdPair) -> BinaryMask:
    """Pixels >= t_high seed the region; anything >= t_low that is
    8-connected to a seed joins it."""
    data = combined.data
    seeds = data >= t.t_high
    allowed = data >= t.t_low
    return BinaryMask(_grow8(seeds, allowed))


def keep_central_component(mask: BinaryMask) -> BinaryMask:
    """Keep the connected component that best overlaps the central window.

    The candidate object is centered by construction, so components that
    miss the center are treated as false positives.  If nothing overlaps
    the window, the largest component survives instead.  Empty masks pass
    through unchanged.
    """
    if mask.is_empty():
        return mask
    labels, count = label_components(mask.bits, connectivity=8)
    h, w = mask.bits.shape
    # a frame smaller than the window is all window
    y0 = max(0, (h - CENTRAL_WINDOW + 1) // 2)
    x0 = max(0, (w - CENTRAL_WINDOW + 1) // 2)
    center = labels[y0 : y0 + CENTRAL_WINDOW, x0 : x0 + CENTRAL_WINDOW]
    overlap = np.bincount(center.ravel(), minlength=count + 1)[1:]
    size = np.bincount(labels.ravel(), minlength=count + 1)[1:]
    # key (overlap, size) as one integer, since size < labels.size + 1;
    # argmax keeps the first maximum, so ties keep the lower label
    best = int(np.argmax(overlap * (labels.size + 1) + size)) + 1
    return BinaryMask(labels == best)
