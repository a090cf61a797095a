"""Binary morphology: dilation, external boundary, thinning-based skeleton,
and the package's one connected-component labeller.

All operations clip at the image frame (no wraparound) and treat masks as
immutable.  The skeleton uses Zhang-Suen style iterative thinning with
8-connectivity, and restores one pixel of any component the thinning
deleted, so component counts stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import BinaryMask


class EmptyMask(Exception):
    """Operation requires a non-empty mask."""


@dataclass(frozen=True)
class StructuringElement:
    shape: str = "disk"
    radius: int = 1

    def __post_init__(self) -> None:
        if self.shape not in ("disk", "square"):
            raise ValueError(f"unknown element shape {self.shape!r}")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")

    def offsets(self) -> list[tuple[int, int]]:
        r = self.radius
        out = []
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if self.shape == "square" or dy * dy + dx * dx <= r * r:
                    out.append((dy, dx))
        return out


_SQUARE1 = StructuringElement("square", 1)


def dilate(m: BinaryMask, se: StructuringElement) -> BinaryMask:
    """Binary dilation; extensive and translation-equivariant."""
    r = se.radius
    h, w = m.bits.shape
    padded = np.pad(m.bits, r, constant_values=False)
    out = np.zeros((h, w), dtype=bool)
    for dy, dx in se.offsets():
        out |= padded[r + dy : r + dy + h, r + dx : r + dx + w]
    return BinaryMask(out)


def external_boundary(m: BinaryMask, se: StructuringElement) -> BinaryMask:
    """One-pixel-thick outer rim of the dilated mask.

    Computed as d8(D) \\ D where D = dilate(m, se) and d8 is a one-pixel
    8-neighborhood dilation; always disjoint from the input mask.
    """
    if m.is_empty():
        raise EmptyMask("cannot take the boundary of an empty mask")
    d = dilate(m, se)
    return BinaryMask(dilate(d, _SQUARE1).bits & ~d.bits)


def _neighbor_planes(img: np.ndarray, mode: str = "constant"):
    """The eight neighbor views P2..P9 (N, NE, E, SE, S, SW, W, NW), read past
    the frame as `np.pad` fills it in `mode`: zero by default, "edge" repeats."""
    p = np.pad(img, 1, mode=mode)
    return (
        p[:-2, 1:-1],  # N
        p[:-2, 2:],    # NE
        p[1:-1, 2:],   # E
        p[2:, 2:],     # SE
        p[2:, 1:-1],   # S
        p[2:, :-2],    # SW
        p[1:-1, :-2],  # W
        p[:-2, :-2],   # NW
    )


def _shortcut_free(n, ne, e, se, s, sw, w, nw):
    """The eight neighbour flags in `_neighbor_planes` order, less each diagonal
    link that a shared orthogonal pixel also makes (Rosenfeld's m-adjacency)."""
    # symmetric, and it isolates no pixel: the orthogonal pixel that makes a
    # dropped diagonal redundant is itself a neighbour
    return n, ne & ~n & ~e, e, se & ~s & ~e, s, sw & ~s & ~w, w, nw & ~n & ~w


def _reduced(*flags):
    """Neighbour count under `_shortcut_free`, a uint8 sum."""
    return sum(_shortcut_free(*flags), np.zeros(flags[0].shape, dtype=np.uint8))


def skeletonize(m: BinaryMask) -> BinaryMask:
    """Iterative two-subcycle thinning to a 1-pixel-wide skeleton that
    keeps every 8-connected component of the input."""
    if m.is_empty():
        raise EmptyMask("cannot skeletonize an empty mask")
    img = m.bits.copy()
    changed = True
    while changed:
        changed = False
        for step in (0, 1):
            p2, p3, p4, p5, p6, p7, p8, p9 = _neighbor_planes(img)
            seq = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
            b = sum(x.astype(np.uint8) for x in seq[:8])
            a = sum((~seq[i] & seq[i + 1]).astype(np.uint8) for i in range(8))
            cond = img & (b >= 2) & (b <= 6) & (a == 1)
            if step == 0:
                cond &= ~(p2 & p4 & p6) & ~(p4 & p6 & p8)
            else:
                cond &= ~(p2 & p4 & p8) & ~(p2 & p6 & p8)
            if cond.any():
                img &= ~cond
                changed = True
    # the parallel subcycles can delete a whole two-pixel-thick component:
    # each component they emptied gets back its first pixel in row-major order
    labels, count = label_components(m.bits)
    lost = np.bincount(labels[img], minlength=count + 1) == 0
    ys, xs = np.nonzero(lost[labels] & m.bits)
    _, first = np.unique(labels[ys, xs], return_index=True)
    img[ys[first], xs[first]] = True
    return BinaryMask(img)


# neighbour pairs (a, b), b after a in row-major order, as slices of the
# frame: E and S for 4-connectivity, then SE and SW for 8
_PAIRS = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]),
          (np.s_[:-1, :-1], np.s_[1:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1]))


def label_components(bits: np.ndarray, connectivity: int = 8):
    """Connected-component labels (row-major discovery order, from 1).

    Returns (labels, count); background stays 0.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, not {connectivity!r}")
    bits = np.asarray(bits, dtype=bool)
    return _label_links(bits, [bits[s] & bits[t] for s, t in _PAIRS[: connectivity // 2]])


def _label_links(bits: np.ndarray, links) -> tuple[np.ndarray, int]:
    """`label_components` with explicit links: ``links[k]``, shaped like the
    slices of ``_PAIRS[k]``, is True where a pixel of `bits` joins its
    partner in `bits` in that direction.

    Whole-array union-find (Wu, Otoo & Suzuki, Pattern Anal. Appl. 12,
    2009) over row runs: a run is a maximal row segment joined by the E
    links, numbered in row-major order of its first pixel.  Each round
    hooks every root run to the least root it touches through the other
    links, each run pair counted once per stretch of links, and pointer
    jumping flattens the trees.  No parent exceeds its run, so each root is
    the run of its component's first pixel, and numbering the roots in
    order numbers the components in discovery order.
    """
    flat = np.flatnonzero(bits)
    joined = np.zeros(bits.shape, dtype=bool)  # to the west neighbour: starts no run
    joined[:, 1:] = links[0]
    flat_run = np.cumsum(~joined.flat[flat]) - 1
    run = np.zeros(bits.shape, dtype=np.intp)  # pixel -> its run, on `bits`
    run.flat[flat] = flat_run
    ra, rb = np.concatenate([(run[s][m], run[t][m]) for (s, t), m in zip(_PAIRS[1:], links[1:])], axis=1)
    fresh = np.ones(ra.size, dtype=bool)
    fresh[1:] = (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])
    a, b = ra[fresh], rb[fresh]
    n = int(flat_run[-1]) + 1 if flat.size else 0
    parent = np.arange(n)
    ra, rb = a, b
    while (split := ra != rb).any():
        np.minimum.at(parent, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        up = parent[parent]
        while not np.array_equal(up, parent):
            parent, up = up, up[up]
        ra, rb = parent[a], parent[b]
    root_number = np.cumsum(parent == np.arange(n))
    labels = np.zeros(bits.shape, dtype=np.int32)
    labels.flat[flat] = root_number[parent][flat_run]
    return labels, int(root_number[-1]) if n else 0
