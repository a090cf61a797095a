"""Marker-controlled watershed extraction.

The relief is the gradient magnitude of the panchromatic image with
detected edge pixels raised to the global maximum, so that flooding stops
at edges.  Minima are imposed at the object marker (mask skeleton) and the
background marker (outer rim of the dilated mask), then a priority-queue
immersion assigns every pixel to the basin that reaches it first.

Flooding semantics, fixed for reproducibility:

* marker components are 8-connected, flooding is 4-connected;
* queue entries order by (relief value, insertion sequence) where markers
  initialize in row-major order and neighbors push in N, W, E, S order;
* a pixel touched by a second basin before its first entry pops becomes a
  watershed-line pixel (it was reached simultaneously) and does not flood
  further.  This is the rule "a different basin has an entry pending for
  it at the same relief value": a pixel is pushed only while unlabelled
  and every entry for it carries its own value, so its first pop is its
  earliest entry and every other touch so far is pending at that value.
  One heap entry per pixel therefore suffices, with the first basin to
  touch it and a flag for any other.

Only contested pixels enter the heap.  The unmarked pixels split into
4-connected components; a component whose 4-neighbouring marker pixels
all carry one label is settled and takes that label outright, the others
are contested and flood.  This gives the same labels as flooding the
whole frame, for any markers:

* settled and contested pixels are never 4-adjacent, and markers never
  change, so no pop in one component pushes a pixel of another;
* the pops of a contested component therefore come in the same relative
  (relief value, insertion sequence) order as in a whole-frame flood;
* a settled component is only ever touched by its one label, so none of
  its pixels becomes a watershed-line pixel.

The pipeline's background marker is the outer rim of the dilated mask, so
a component outside it borders that marker alone unless the frame cuts
the rim into pieces.  `MarkerSet.partition` holds this split, computed
once per marker set.

The imposed relief of a pixel depends only on its own free component and
on the markers, so `impose_minima` may reconstruct the contested
components alone, with every other unmarked pixel held at +inf:

* the imposed value of a free pixel is the least, over 8-paths from a
  marker pixel to it, of the greatest raised relief on the path's free
  pixels;
* two 8-adjacent free pixels of different 4-connected components are
  diagonal neighbours whose two shared 4-neighbours are both marker
  pixels, since a free one would join them;
* so the last entry of a path into the target's component can start from
  one of those marker pixels instead, and the shorter path's free pixels
  are a subset of the longer one's and all lie in that component;
* with the pixels outside the region at +inf, the erosion loop finds that
  least value over paths through the region and the markers alone.

The step and the sentinel still come from the whole relief's minimum and
maximum, and a pass only takes minima and maxima of those values, so each
reconstructed value equals the whole-frame one bit for bit.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .edges import EdgeSet, _sobel_pair, rasterize
from .morph import _neighbor_planes, label_components
from .raster import BinaryMask, ScalarImage

log = logging.getLogger(__name__)

WSHED = -1


class MarkerOverlap(Exception):
    """Object and background markers intersect."""


class EmptyMarker(Exception):
    """A marker mask is empty."""


@dataclass(eq=False)
class MarkerSet:
    object_marker: BinaryMask
    background_marker: BinaryMask

    def __post_init__(self) -> None:
        if self.object_marker.is_empty() or self.background_marker.is_empty():
            raise EmptyMarker("both markers must be non-empty")
        if self.object_marker.bits.shape != self.background_marker.bits.shape:
            raise ValueError("markers must share dimensions")
        if (self.object_marker.bits & self.background_marker.bits).any():
            raise MarkerOverlap("object and background markers overlap")

    @cached_property
    def partition(self) -> Partition:
        """Marker labels and the settled/contested split of the unmarked
        pixels (module docstring), computed on the first read; the marker
        masks must not change after it."""
        labels, n_object = label_marker_components(self)
        free, n_free = label_components(labels == 0, connectivity=4)
        # least and greatest marker label 4-adjacent to each free component
        lo = np.full(n_free + 1, np.iinfo(np.int32).max, dtype=np.int32)
        hi = np.zeros(n_free + 1, dtype=np.int32)
        for plane in _neighbor_planes(labels)[::2]:  # N, E, S, W
            at = (free > 0) & (plane > 0)
            np.minimum.at(lo, free[at], plane[at])
            np.maximum.at(hi, free[at], plane[at])
        # index 0, the marker pixels, has lo > hi: neither settled nor contested
        return Partition(labels, n_object, np.where(lo == hi, hi, 0)[free], (lo < hi)[free])


class Partition(NamedTuple):
    """`MarkerSet.partition`: per-pixel arrays over the frame."""

    labels: np.ndarray  # marker component labels (label_marker_components), 0 elsewhere
    n_object: int  # object components hold labels 1..n_object
    settled: np.ndarray  # the one label bordering a settled pixel's component, 0 elsewhere
    contested: np.ndarray  # unmarked pixels whose component borders two labels


@dataclass(eq=False)
class LabelImage:
    """Integer basin labels; WSHED (-1) marks watershed-line pixels."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ValueError("labels must be 2-D")

    def to_display(self) -> ScalarImage:
        """Debug rendering: labels spread over gray levels, WSHED bright."""
        k = max(1, int(self.labels.max()))
        gray = np.where(
            self.labels == WSHED,
            255,
            np.rint(self.labels * (200.0 / k)).astype(int),
        )
        return ScalarImage(gray.astype(np.uint8), 1.0)


def gradient_magnitude(img: ScalarImage) -> ScalarImage:
    """Sobel gradient magnitude with replicated-border stencils."""
    return ScalarImage(np.hypot(*_sobel_pair(img.data.astype(np.float64))), img.resolution)


def inject_edges(grad: ScalarImage, es: EdgeSet) -> ScalarImage:
    """Copy of the relief with rasterized edge pixels set to its maximum."""
    data = grad.data.astype(np.float64).copy()
    if es.chains:
        edge_bits = rasterize(EdgeSet(es.chains, grad.width, grad.height)).bits
        data[edge_bits] = float(grad.data.max())
    return ScalarImage(data, grad.resolution)


def impose_minima(grad: ScalarImage, markers: MarkerSet, region: np.ndarray | None = None) -> ScalarImage:
    """Force the relief to have regional minima exactly at the markers.

    Marker pixels drop to a sentinel below the global minimum; elsewhere
    the relief is raised by one step and reconstructed by erosion, which
    fills every unmarked pit.  Distinct marker components should not touch
    (not even diagonally) or they merge into one minimum.

    Only the unmarked pixels of the boolean mask `region` (default: every
    unmarked pixel) are reconstructed; every other unmarked pixel holds
    +inf.  A region made of whole 4-connected free components, such as
    ``markers.partition.contested``, gets the default call's values on
    each of its pixels (module docstring), in fewer passes.

    Each pass sets ``cur = max(erode(cur), ceiling)``, until one changes
    nothing; ``erode`` is the 3x3 minimum, +inf outside the frame, taken on
    one +inf-bordered buffer as the minimum of three columns, then rows.
    Raises ValueError on NaN or -inf anywhere in the relief, where no pass
    is a fixpoint.
    """
    f = grad.data.astype(np.float64)
    marked = markers.object_marker.bits | markers.background_marker.bits
    lo = float(f.min())
    if not lo > -np.inf:  # also NaN, which the minimum propagates
        raise ValueError("relief must not contain NaN or -inf")
    hi = float(f.max())
    step = (hi - lo) * 1e-3 if hi > lo else 1.0
    sentinel = lo - 1.0
    seed = np.where(marked, sentinel, np.inf)
    ceiling = np.where(~marked if region is None else region & ~marked, f + step, seed)
    h, w = f.shape
    padded = np.full((h + 2, w + 2), np.inf)
    cur = padded[1:-1, 1:-1]
    cur[...] = seed
    cols, nxt = np.empty((h + 2, w)), np.empty((h, w))
    while True:
        np.minimum(padded[:, :-2], padded[:, 1:-1], out=cols)
        np.minimum(cols, padded[:, 2:], out=cols)
        np.minimum(cols[:-2], cols[1:-1], out=nxt)
        np.minimum(nxt, cols[2:], out=nxt)
        np.maximum(nxt, ceiling, out=nxt)
        if np.array_equal(nxt, cur):
            return ScalarImage(nxt, grad.resolution)
        cur[...] = nxt


def label_marker_components(markers: MarkerSet):
    """8-connected component labels for both markers on one grid.

    Object components take the low labels (row-major discovery order),
    background components follow.  Returns (labels, number of object
    components).
    """
    obj_labels, n_obj = label_components(markers.object_marker.bits, connectivity=8)
    bg_labels, _ = label_components(markers.background_marker.bits, connectivity=8)
    labels = np.where(obj_labels > 0, obj_labels, 0).astype(np.int32)
    labels = np.where(bg_labels > 0, bg_labels + n_obj, labels)
    return labels, n_obj


def watershed_flood(relief: ScalarImage, markers: MarkerSet) -> LabelImage:
    """Marker-seeded immersion of the relief (see module docstring).

    Settled components take their one label before the flood; a contested
    pixel enters the heap at its first touch, and the heap starts from the
    marker pixels 4-adjacent to a contested pixel, in row-major order.  The
    state lives in flat lists over the frame padded by one non-zero
    sentinel pixel, so the N, W, E, S neighbours of flat index i are
    i - W, i - 1, i + 1, i + W with no bounds test.  A heap key is
    ``(rank << 32) | seq``, where ``rank - 1`` is the index of the pixel's
    value among the contested pixels' sorted distinct values, so keys order
    by (relief value, insertion sequence); ``order[seq]`` is the pixel, and
    ``seq`` stays below 2**32 because it counts pixels.  Raises ValueError
    on NaN anywhere in the relief, which has no rank; +-inf ranks like any
    other value.
    """
    data = relief.data.astype(np.float64)
    h, w = data.shape
    if (h, w) != markers.object_marker.bits.shape:
        raise ValueError("relief and markers must share dimensions")
    if np.isnan(data).any():
        raise ValueError("relief must not contain NaN")
    marker_labels, _, settled, contested = markers.partition
    W = w + 2
    labels = np.pad(marker_labels + settled, 1, constant_values=WSHED).ravel().tolist()
    first = labels.copy()  # basin of the first touch (a marker's own); 0 = untouched
    mixed = [False] * len(labels)  # touched by a second basin as well
    rank = np.zeros((h, w), dtype=np.int64)
    rank[contested] = np.unique(data[contested], return_inverse=True)[1] + 1
    base = np.pad(rank << 32, 1).ravel().tolist()
    # Markers hold rank 0, below every relief value, so they pop first and
    # in row-major order; a sorted list is already a heap.
    ys, xs = np.nonzero((marker_labels > 0) & np.logical_or.reduce(_neighbor_planes(contested)[::2]))
    order = ((ys + 1) * W + xs + 1).tolist()
    heap = list(range(len(order)))
    push, pop, enter = heapq.heappush, heapq.heappop, order.append

    while heap:
        i = order[pop(heap) & 0xFFFFFFFF]
        if mixed[i]:
            labels[i] = WSHED
            continue
        lab = labels[i] = first[i]
        for j in (i - W, i - 1, i + 1, i + W):
            if labels[j] == 0:
                if not first[j]:
                    first[j] = lab
                    push(heap, base[j] | len(order))
                    enter(j)
                elif first[j] != lab:
                    mixed[j] = True

    out = np.array(labels, dtype=np.int32).reshape(h + 2, W)[1:-1, 1:-1]
    return LabelImage(np.ascontiguousarray(out))


def extract_object(labels: LabelImage, markers: MarkerSet) -> BinaryMask:
    """Union of the basins seeded by object marker components.

    Watershed-line pixels are excluded.  If no pixel carries an object
    label (mismatched inputs) the result is empty and a warning is logged.
    """
    bits = (labels.labels >= 1) & (labels.labels <= markers.partition.n_object)
    if not bits.any():
        log.warning("no object basin found in the label image")
    return BinaryMask(bits)
