"""Binary morphology: dilation, external boundary, thinning-based skeleton,
and the package's one connected-component labeller.

All operations clip at the image frame (no wraparound) and treat masks as
immutable.  The skeleton uses Zhang-Suen style iterative thinning with
8-connectivity, testing in each subcycle only the pixels whose 3x3 window
changed, and restores one pixel of any component the thinning deleted, so
component counts stay stable.
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


def _link_lists(bits: np.ndarray) -> list[list[int]]:
    """Per pixel of `bits`, numbered row-major as `np.nonzero` lists them,
    the numbers of its `_shortcut_free` neighbours in `_neighbor_planes` order."""
    ys, xs = np.nonzero(bits)
    pos = bits.cumsum().reshape(bits.shape) * bits  # 1 + number of each pixel, 0 off it
    planes = [q[ys, xs] for q in _neighbor_planes(pos)]
    linked = _shortcut_free(*(q > 0 for q in planes))
    table = np.stack([q * f for q, f in zip(planes, linked)], axis=1) - 1
    return [[n for n in row if n >= 0] for row in table.tolist()]


def _zhang_suen_tables():
    """Per 3x3 window, coded as a byte with bit i set for neighbour i in
    `_neighbor_planes` order (P2..P9), whether each subcycle deletes its centre."""
    code = np.arange(256, dtype=np.uint8)[:, None]
    p = np.unpackbits(code, axis=1, bitorder="little").astype(bool)
    p2, p3, p4, p5, p6, p7, p8, p9 = p.T
    b = p.sum(axis=1)
    a = (~p & np.roll(p, -1, axis=1)).sum(axis=1)  # 0 -> 1 steps around P2..P9, P2
    ok = (b >= 2) & (b <= 6) & (a == 1)
    return (ok & ~(p2 & p4 & p6) & ~(p4 & p6 & p8),
            ok & ~(p2 & p4 & p8) & ~(p2 & p6 & p8))


_ZHANG_SUEN = _zhang_suen_tables()


def skeletonize(m: BinaryMask) -> BinaryMask:
    """Iterative two-subcycle thinning to a 1-pixel-wide skeleton that
    keeps every 8-connected component of the input.

    A deletion changes only the 3x3 windows around it, so each subcycle
    tests only the pixels whose window changed since it last ran (every
    pixel the first time), and the thinning stops after two subcycles in a
    row that delete nothing.
    """
    if m.is_empty():
        raise EmptyMask("cannot skeletonize an empty mask")
    img = np.pad(m.bits, 1)
    flat = img.ravel()  # a view: writes go to img
    w = img.shape[1]
    ring = np.array([-w, -w + 1, 1, w + 1, w, w - 1, -1, -w - 1])  # N, NE, ..., NW
    todo = [flat.copy(), flat.copy()]  # per subcycle: windows changed since it ran
    step, idle, isolated = 0, 0, False
    while idle < 2:
        cand = np.flatnonzero(todo[step])
        todo[step][cand] = False
        cand = cand[flat[cand]]
        codes = np.packbits(flat[cand[:, None] + ring], axis=1, bitorder="little").ravel()
        drop = cand[_ZHANG_SUEN[step][codes]]
        flat[drop] = False
        near = drop[:, None] + ring
        left = flat[near]
        isolated = isolated or not left.any(axis=1).all()
        near = near[left]
        todo[0][near] = todo[1][near] = True
        step, idle = 1 - step, 0 if drop.size else idle + 1
    img = img[1:-1, 1:-1]
    # the parallel subcycles can delete a whole two-pixel-thick component:
    # each component they emptied gets back its first pixel in row-major
    # order.  The subcycle that deletes a component's last pixels leaves
    # each of them without an 8-neighbour (a neighbour still set would be
    # of the same component), so without such a pixel no component was lost.
    if isolated:
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

    Whole-array union-find (Wu, Otoo & Suzuki, Pattern Anal. Appl. 12,
    2009) over row runs: a run is a maximal row segment, numbered in
    row-major order of its first pixel.  Each round hooks every root run to
    the least root it touches through the other neighbour pairs, each run
    pair counted once per stretch of pairs, and pointer jumping flattens
    the trees.  No parent exceeds its run, so each root is the run of its
    component's first pixel, and numbering the roots in order numbers the
    components in discovery order.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, not {connectivity!r}")
    bits = np.asarray(bits, dtype=bool)
    links = [bits[s] & bits[t] for s, t in _PAIRS[: connectivity // 2]]
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
