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
* a pixel popped while entries from a different basin are pending for it
  at the same relief value becomes a watershed-line pixel (it was reached
  simultaneously) and does not flood further.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .edges import EdgeSet, _sobel_pair, rasterize
from .morph import _N4, label_components
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


@dataclass(eq=False)
class LabelImage:
    """Integer basin labels; WSHED (-1) marks watershed-line pixels."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ValueError("labels must be 2-D")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

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


def _erode8(f: np.ndarray) -> np.ndarray:
    p = np.pad(f, 1, constant_values=np.inf)
    out = f.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            h, w = f.shape
            np.minimum(out, p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w], out=out)
    return out


def impose_minima(grad: ScalarImage, markers: MarkerSet) -> ScalarImage:
    """Force the relief to have regional minima exactly at the markers.

    Marker pixels drop to a sentinel below the global minimum; elsewhere
    the relief is raised by one step and reconstructed by erosion, which
    fills every unmarked pit.  Distinct marker components should not touch
    (not even diagonally) or they merge into one minimum.
    """
    f = grad.data.astype(np.float64)
    marked = markers.object_marker.bits | markers.background_marker.bits
    lo = float(f.min())
    hi = float(f.max())
    step = (hi - lo) * 1e-3 if hi > lo else 1.0
    sentinel = lo - 1.0
    seed = np.where(marked, sentinel, np.inf)
    ceiling = np.minimum(f + step, seed)
    cur = seed
    while True:
        nxt = np.maximum(_erode8(cur), ceiling)
        if np.array_equal(nxt, cur):
            return ScalarImage(cur, grad.resolution)
        cur = nxt


def label_marker_components(markers: MarkerSet):
    """8-connected component labels for both markers on one grid.

    Object components take the low labels (row-major discovery order),
    background components follow.  Returns (labels, object_label_set).
    """
    obj_labels, n_obj = label_components(markers.object_marker.bits, connectivity=8)
    bg_labels, _ = label_components(markers.background_marker.bits, connectivity=8)
    labels = np.where(obj_labels > 0, obj_labels, 0).astype(np.int32)
    labels = np.where(bg_labels > 0, bg_labels + n_obj, labels)
    return labels, set(range(1, n_obj + 1))


def watershed_flood(relief: ScalarImage, markers: MarkerSet) -> LabelImage:
    """Marker-seeded immersion of the relief (see module docstring)."""
    data = relief.data.astype(np.float64)
    h, w = data.shape
    if (h, w) != markers.object_marker.bits.shape:
        raise ValueError("relief and markers must share dimensions")
    labels, _ = label_marker_components(markers)
    labels = labels.copy()

    heap: list[tuple[float, int, int, int, int]] = []
    pending: dict[tuple[int, int], list[tuple[float, int, int]]] = {}
    seq = 0

    def push(y: int, x: int, lab: int) -> None:
        nonlocal seq
        entry = (float(data[y, x]), seq, y, x, lab)
        heapq.heappush(heap, entry)
        pending.setdefault((y, x), []).append((entry[0], seq, lab))
        seq += 1

    for y, x in zip(*np.nonzero(labels)):
        lab = int(labels[y, x])
        for dy, dx in _N4:
            ny, nx = int(y) + dy, int(x) + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == 0:
                push(ny, nx, lab)

    while heap:
        v, s, y, x, lab = heapq.heappop(heap)
        here = pending.get((y, x))
        if here is not None:
            here.remove((v, s, lab))
            if not here:
                del pending[(y, x)]
        if labels[y, x] != 0:
            continue
        simultaneous = {lab}
        for vv, _, other in pending.get((y, x), ()):
            if vv == v:
                simultaneous.add(other)
        if len(simultaneous) > 1:
            labels[y, x] = WSHED
            continue
        labels[y, x] = lab
        for dy, dx in _N4:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == 0:
                push(ny, nx, lab)

    return LabelImage(labels)


def extract_object(labels: LabelImage, markers: MarkerSet) -> BinaryMask:
    """Union of the basins seeded by object marker components.

    Watershed-line pixels are excluded.  If no pixel carries an object
    label (mismatched inputs) the result is empty and a warning is logged.
    """
    _, object_ids = label_marker_components(markers)
    bits = np.isin(labels.labels, sorted(object_ids))
    if not bits.any():
        log.warning("no object basin found in the label image")
    return BinaryMask(bits)
