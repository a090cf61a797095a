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


def _overlap_count(edge_bits: np.ndarray, dilated: np.ndarray, dx: int, dy: int) -> int:
    """Edge pixels covered by the dilated mask translated by (dx, dy)."""
    h, w = edge_bits.shape
    ys0, ys1 = max(0, dy), min(h, h + dy)
    xs0, xs1 = max(0, dx), min(w, w + dx)
    if ys0 >= ys1 or xs0 >= xs1:
        return 0
    return int(
        np.count_nonzero(
            edge_bits[ys0:ys1, xs0:xs1]
            & dilated[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
        )
    )


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
    dilated = dilate(mask, se).bits

    hw = int(half_window)
    best_score = -1
    candidates: list[tuple[int, int]] = []
    for dy in range(-hw, hw + 1):
        for dx in range(-hw, hw + 1):
            s = _overlap_count(edge_bits, dilated, dx, dy)
            if s > best_score:
                best_score = s
                candidates = [(dy, dx)]
            elif s == best_score:
                candidates.append((dy, dx))

    tie_count = len(candidates)
    best = None
    best_var = math.inf
    for dy, dx in candidates:  # already in ascending (dy, dx) order
        v = _masked_variance(pan_data, mask, dx, dy)
        if best is None or v < best_var:
            best, best_var = (dx, dy), v
    return MatchResult(offset=best, score=best_score, variance=best_var, tie_count=tie_count)
