"""Exhaustive integer-offset placement of a candidate mask on the
panchromatic image.

Every offset inside the search window is scored by the number of edge
pixels that the dilated, translated mask contains.  Equal scores fall back
to the gray-value variance under the (undilated) mask, then to the
lexicographically smallest (dy, dx).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .edges import EdgeSet, rasterize
from .morph import EmptyMask, StructuringElement, dilate
from .raster import BinaryMask, ScalarImage, translate

log = logging.getLogger(__name__)

# one-pixel margin: boundary edge lines sit exactly on the dilated mask rim,
# so every one-pixel shift drops a full edge line and the score peak is sharp
DEFAULT_ELEMENT = StructuringElement("disk", 1)


@dataclass(frozen=True)
class MatchResult:
    offset: tuple[int, int]  # (dx, dy)
    score: int
    variance: float
    tie_count: int
    warning: str | None = None


def _masked_variance(pan: np.ndarray, mask: BinaryMask, dx: int, dy: int) -> float:
    """Variance of `pan` under `mask` translated by (dx, dy); inf when no
    pixel of the mask stays in the frame."""
    values = pan[translate(mask, dx, dy).bits]
    if values.size == 0:
        return math.inf
    return float(np.var(values))


def match_mask(
    mask: BinaryMask,
    edges: EdgeSet,
    pan: ScalarImage,
    half_window: int = 10,
    se: StructuringElement = DEFAULT_ELEMENT,
) -> MatchResult:
    """Best translation of ``mask`` within +/- ``half_window`` pixels.

    The mask is dilated once so that a correctly placed mask is slightly
    bigger than the object and captures its boundary edges.  The variance
    tie-break is computed on the undilated mask.
    """
    if mask.is_empty():
        raise EmptyMask("cannot match an empty mask")
    if (mask.height, mask.width) != (pan.height, pan.width):
        raise ValueError("mask and panchromatic image must share dimensions")
    hw = int(half_window)
    if hw < 0:
        raise ValueError("half_window must be non-negative")
    # an offset of a frame or more scores 0, while an offset that lays a mask
    # pixel on an edge pixel lies within this bound and scores at least 1, so
    # cutting the window here keeps every candidate
    hw = min(hw, max(pan.height, pan.width) - 1)
    edge_bits = rasterize(EdgeSet(edges.chains, pan.width, pan.height)).bits
    pan_data = pan.data.astype(np.float64)
    if not edge_bits.any():
        log.warning("empty edge set: returning the null offset")
        return MatchResult(
            offset=(0, 0),
            score=0,
            variance=_masked_variance(pan_data, mask, 0, 0),
            tie_count=0,
            warning="empty edge set",
        )
    # the score of (dx, dy) counts edge pixels (y, x) with the dilated mask
    # set at (y - dy, x - dx); padding by hw keeps every such index inside
    padded = np.pad(dilate(mask, se).bits, hw)
    ey, ex = np.nonzero(edge_bits)
    cols = ex - np.arange(-hw, hw + 1)[:, None] + hw  # one row per dx
    scores = np.stack([
        np.count_nonzero(padded[ey - dy + hw, cols], axis=1) for dy in range(-hw, hw + 1)
    ])  # scores[dy + hw, dx + hw]
    best_score = int(scores.max())
    candidates = (np.argwhere(scores == best_score) - hw).tolist()  # ascending (dy, dx)

    best = None
    best_var = math.inf
    for dy, dx in candidates:
        v = _masked_variance(pan_data, mask, dx, dy)
        if best is None or v < best_var:
            best, best_var = (dx, dy), v
    return MatchResult(offset=best, score=best_score, variance=best_var, tie_count=len(candidates))
