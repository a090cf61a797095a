"""Edge extraction and refinement on the panchromatic image.

Canny-style detection (Gaussian smoothing, Sobel gradient, non-maximum
suppression, hysteresis linking) produces chains of sub-pixel points; the
refinement pass smooths chain coordinates, merges chains whose extremities
lie close together and removes short leftovers.  Chains rasterize back to
1-pixel-wide lines when a pixel set is needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .morph import _link_lists, _neighbor_planes
from .raster import DOC_ERRORS, BinaryMask, FormatError, ScalarImage, doc_int
from .spectral import _grow8

# quantized gradient sectors -> (dy, dx) step along the gradient; sector k
# steps to neighbor plane k + 2 (E, SE, S, SW) and back to plane (k + 6) % 8
_SECTOR_STEP = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}


@dataclass(eq=False)
class EdgeChain:
    """Ordered polyline of (x, y) float coordinates in pixel units; a ring
    ends on its first point."""

    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or len(self.points) < 2:
            raise ValueError("a chain needs at least two (x, y) points")

    def arc_length(self) -> float:
        d = np.diff(self.points, axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum())


@dataclass(eq=False)
class EdgeSet:
    chains: list[EdgeChain]
    width: int
    height: int

    def total_points(self) -> int:
        return sum(len(c.points) for c in self.chains)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def _gaussian_blur(f: np.ndarray, sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    k /= k.sum()
    p = np.pad(f, ((0, 0), (radius, radius)), mode="edge")
    out = np.zeros_like(f)
    for i, kv in enumerate(k):
        out += kv * p[:, i : i + f.shape[1]]
    p = np.pad(out, ((radius, radius), (0, 0)), mode="edge")
    out2 = np.zeros_like(f)
    for i, kv in enumerate(k):
        out2 += kv * p[i : i + f.shape[0], :]
    return out2


def _sobel_pair(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel x and y derivatives, with the border pixels replicated."""
    n, ne, e, se, s, sw, w, nw = _neighbor_planes(f, "edge")
    gx = (ne + 2.0 * e + se) - (nw + 2.0 * w + sw)
    gy = (sw + 2.0 * s + se) - (nw + 2.0 * n + ne)
    return gx, gy


def _trace_chains(final: np.ndarray) -> list[list[int]]:
    """Decompose an edge-pixel set into maximal shortcut-free paths (links
    by `morph._shortcut_free`, so a staircase is one path) of pixel indices,
    numbered row-major as `np.nonzero(final)` lists the pixels.

    Paths start and end at pixels whose degree differs from 2 (line ends
    and junctions); what remains afterwards are pure cycles, each traced as
    an open path whose last pixel repeats its first.  Deterministic: pixels
    are visited in index order and neighbors in `_neighbor_planes` order.
    """
    # The rule is symmetric, so every pixel inside a path has degree 2 and a
    # flag per walked pixel marks the traced pixel pairs; two adjacent
    # terminals share one edge, which the one with the smaller index traces.
    nbrs = _link_lists(final)
    seen = [False] * len(nbrs)

    def walk(prev: int, cur: int) -> list[int]:
        path = [prev, cur]
        while len(nbrs[cur]) == 2 and not seen[cur]:
            seen[cur] = True
            a, b = nbrs[cur]
            prev, cur = cur, b if a == prev else a
            path.append(cur)
        return path

    paths = []
    for t, around in enumerate(nbrs):
        if len(around) == 2:
            continue
        for n in around:
            if not seen[n] and (len(nbrs[n]) == 2 or n > t):
                paths.append(walk(t, n))
    for p, around in enumerate(nbrs):
        if len(around) == 2 and not seen[p]:
            seen[p] = True  # the walk around the cycle stops back here
            paths.append(walk(p, around[0]))
    return paths


def canny(
    img: ScalarImage,
    sigma: float = 1.2,
    high_percentile: float = 95.0,
    low_fraction: float = 0.4,
) -> EdgeSet:
    """Edge chains with sub-pixel point positions.

    The strong threshold is the given percentile of the nonzero gradient
    magnitudes and the weak one a fixed fraction of it, which keeps the
    detector scale-free.  Non-maximum
    suppression breaks magnitude ties toward the pixel on the low side of
    the gradient, so symmetric ridge responses yield a single line.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    f = img.data.astype(np.float64)
    smooth = _gaussian_blur(f, sigma)
    gx, gy = _sobel_pair(smooth)
    mag = np.hypot(gx, gy)
    sector = (np.round(np.arctan2(gy, gx) / (math.pi / 4.0)).astype(int)) % 4

    keep = np.zeros(mag.shape, dtype=bool)
    planes = _neighbor_planes(mag)
    for k in _SECTOR_STEP:
        keep |= (sector == k) & (mag >= planes[k + 2]) & (mag > planes[(k + 6) % 8])
    nms = np.where(keep, mag, 0.0)

    nz = mag[mag > 0]
    hi = float(np.percentile(nz, high_percentile)) if nz.size else 0.0
    lo = low_fraction * hi
    if hi <= 0:
        return EdgeSet([], img.width, img.height)

    final = _grow8(nms >= hi, nms >= lo)
    paths = _trace_chains(final)
    if not paths:  # isolated pixels only
        return EdgeSet([], img.width, img.height)

    ys, xs = np.nonzero(final)
    idx = np.concatenate(paths)
    y, x = ys[idx], xs[idx]
    dy, dx = np.array([_SECTOR_STEP[k] for k in range(4)])[sector[y, x]].T
    padded = np.pad(mag, 1, constant_values=np.nan)  # no peak next to the border
    a, c, b = padded[y - dy + 1, x - dx + 1], mag[y, x], padded[y + dy + 1, x + dx + 1]
    den = a + b - 2.0 * c
    # sub-pixel peak of the parabola through the three magnitudes along the
    # gradient where it opens downward, clamped strictly inside +/-0.5 so
    # rounding stays on the detected pixel (symmetric ridges peak halfway)
    peak = den < 0.0
    delta = np.zeros(len(y))
    delta[peak] = np.clip((a - b)[peak] / (2.0 * den[peak]), -0.49, 0.49)
    pts = np.column_stack([x + delta * dx, y + delta * dy])
    ends = np.cumsum([len(path) for path in paths])[:-1]
    chains = [EdgeChain(p) for p in np.split(pts, ends)]
    return EdgeSet(chains, img.width, img.height)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _smooth_chain(chain: EdgeChain, window: int) -> EdgeChain:
    """Each point becomes the mean of the points within ``window // 2`` of it,
    summed in chain order as `mean(axis=0)` would.  The window stops at the
    chain's ends, which stay put."""
    pts = chain.points
    n = len(pts)
    if window <= 1 or n < 3:
        return EdgeChain(pts.copy())
    half = window // 2
    idx = np.arange(n)[:, None] + np.arange(-half, half + 1)
    inside = (idx >= 0) & (idx < n)
    acc = np.zeros_like(pts)
    for col, ok in zip(idx.T % n, inside.T):
        np.add(acc, pts[col], out=acc, where=ok[:, None])
    out = acc / np.count_nonzero(inside, axis=1)[:, None]
    out[[0, -1]] = pts[[0, -1]]
    return EdgeChain(out)


# Upper bound on grid cells per axis.  Cells grow past `merge_dist` when the
# endpoints span more than this many of them, which keeps the int64 cell keys
# small however small `merge_dist` is (a cell of 1e-9 px would overflow them).
_GRID_CELLS = 4096


def _candidate_pairs(
    coords: np.ndarray, merge_dist: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint pairs (i, j), i < j, on different chains within `merge_dist`,
    and their distances.

    Endpoints are bucketed into square cells of side at least `merge_dist`,
    so a partner lies in one of the 3x3 cells around an endpoint.
    """
    n = len(coords)
    lo = coords.min(axis=0)
    span = float((coords.max(axis=0) - lo).max())
    # the 1e-9 margin keeps rounding in the cell index from putting two
    # endpoints exactly `merge_dist` apart two cells apart; an infinite cell
    # holds every endpoint, and so does any cell when all endpoints coincide
    cell = max(merge_dist, span / _GRID_CELLS) * (1.0 + 1e-9) or 1.0
    ix, iy = (np.floor((coords - lo) / cell).astype(np.int64) + 1).T
    stride = _GRID_CELLS + 3  # room for the empty border cells 0 and _GRID_CELLS + 2
    key = ix * stride + iy
    order = np.argsort(key)
    sorted_key = key[order]
    firsts, seconds = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            target = key + dx * stride + dy
            start = np.searchsorted(sorted_key, target, "left")
            count = np.searchsorted(sorted_key, target, "right") - start
            rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
            firsts.append(np.repeat(np.arange(n), count))
            seconds.append(order[np.repeat(start, count) + rank])
    i = np.concatenate(firsts)
    j = np.concatenate(seconds)
    keep = (i < j) & (i // 2 != j // 2)
    i, j = i[keep], j[keep]
    diff = coords[i] - coords[j]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    near = dist <= merge_dist
    return i[near], j[near], dist[near]


def _merge_chains(chains: list[EdgeChain], merge_dist: float) -> list[EdgeChain]:
    """Greedily concatenate chains whose endpoints nearly touch.

    The closest endpoint pair merges first; exact ties resolve by the
    lexicographically smallest endpoint coordinates, so the result does
    not depend on input order.  Joining two chains consumes the touching
    endpoints and leaves every other endpoint exactly where it was, so
    all candidate pairs can be ranked once up front.

    Candidates come from a grid (`_candidate_pairs`): two endpoints within
    `merge_dist` differ by at most `merge_dist` along each axis, so with
    cells at least that wide their cell indices differ by at most one per
    axis and the 3x3 cells around one endpoint hold every partner that a
    scan of all pairs would find.  Each pair's distance is the same
    `hypot` of the same coordinate difference, so ranks and ties match.

    Every chain has exactly two live endpoints, and a merge of endpoints
    i and j only turns the far ends of their chains into the ends of the
    new chain.  `other[e]`, the live endpoint at the far end of e's chain,
    is therefore rewired at those two ends only, and i and j lie on one
    chain exactly when `other[i] == j`.  Keyed by its head endpoint, a
    live chain needs no id: e is a head when `e in points`.
    """
    if len(chains) < 2:
        return chains
    # endpoint 2k = head of chain k, 2k+1 = tail
    coords = np.concatenate([[c.points[0], c.points[-1]] for c in chains])
    first, second, dist = _candidate_pairs(coords, merge_dist)
    # rank by (dist, smaller endpoint, larger endpoint, i, j), the
    # endpoints compared lexicographically by (x, y)
    (xi, yi), (xj, yj) = coords[first].T, coords[second].T
    swap = (xj < xi) | ((xj == xi) & (yj < yi))
    rank = np.lexsort((
        second, first,
        np.where(swap, yi, yj), np.where(swap, xi, xj),
        np.where(swap, yj, yi), np.where(swap, xj, xi),
        dist,
    ))

    points = {2 * k: c.points for k, c in enumerate(chains)}
    other = [e ^ 1 for e in range(2 * len(chains))]  # live endpoint at the far end
    alive = [True] * len(other)
    for i, j in zip(first[rank].tolist(), second[rank].tolist()):
        if not (alive[i] and alive[j]) or other[i] == j:
            continue
        a = points.pop(i)[::-1] if i in points else points.pop(other[i])  # ends at i
        b = points.pop(j) if j in points else points.pop(other[j])[::-1]  # starts at j
        head, tail = other[i], other[j]  # survivors of chains i and j
        points[head] = np.concatenate([a, b])
        alive[i] = alive[j] = False
        other[head], other[tail] = tail, head
    # unmerged chains in input order, then merged ones in creation order
    return [EdgeChain(p) for p in points.values()]


def refine_edges(
    es: EdgeSet,
    merge_dist: float = 3.0,
    min_len: float = 10.0,
    smooth_window: int = 3,
) -> EdgeSet:
    """Smooth chain coordinates, merge close extremities, drop short chains.

    Merging runs before pruning so that fragments that join into a long
    edge survive the length filter.
    """
    if not (merge_dist >= 0 and min_len >= 0):  # also rejects NaN
        raise ValueError("merge_dist and min_len must be non-negative")
    smoothed = [_smooth_chain(c, smooth_window) for c in es.chains]
    merged = _merge_chains(smoothed, merge_dist)
    kept = [c for c in merged if c.arc_length() >= min_len]
    return EdgeSet(kept, es.width, es.height)


# ---------------------------------------------------------------------------
# rasterization and serialization
# ---------------------------------------------------------------------------


def _draw_line(bits: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    h, w = bits.shape
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    while True:
        if 0 <= y0 < h and 0 <= x0 < w:
            bits[y0, x0] = True
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x0 += sx
        if e2 < dx:
            err += dx
            y0 += sy


def _bounded_points(es: EdgeSet) -> np.ndarray:
    """Every chain point in order; ValueError unless each is finite and at
    most one frame size outside the frame."""
    pts = np.concatenate([c.points for c in es.chains]) if es.chains else np.empty((0, 2))
    size = np.array([es.width, es.height])  # comparisons are False on NaN
    if not ((pts >= -size) & (pts <= 2 * size)).all():
        raise ValueError("a point is not finite or lies more than a frame outside it")
    return pts


def rasterize(es: EdgeSet) -> BinaryMask:
    """Draw every chain as a 1-pixel-wide line after rounding coordinates.

    Each segment is a Bresenham line clipped to the frame.  One at most a
    pixel long per axis draws just its end points, so only longer ones are
    walked.  Raises ValueError on a point that `_bounded_points` rejects,
    so no walk is longer than three frames.
    """
    bits = np.zeros((es.height, es.width), dtype=bool)
    pts = _bounded_points(es)
    x, y = np.rint(pts).astype(int).T
    inside = (x >= 0) & (x < es.width) & (y >= 0) & (y < es.height)
    bits[y[inside], x[inside]] = True
    last = np.cumsum([len(c.points) for c in es.chains], dtype=np.intp) - 1
    start = np.delete(np.arange(len(pts)), last)  # every point but a chain's last
    stop = start + 1
    long = np.maximum(abs(x[stop] - x[start]), abs(y[stop] - y[start])) > 1
    start, stop = start[long], stop[long]
    for x0, y0, x1, y1 in zip(*(v.tolist() for v in (x[start], y[start], x[stop], y[stop]))):
        _draw_line(bits, x0, y0, x1, y1)
    return BinaryMask(bits)


def to_json(es: EdgeSet) -> str:
    doc = {
        "width": es.width,
        "height": es.height,
        "chains": [
            {"closed": False, "points": c.points.tolist()}
            for c in es.chains
        ],
    }
    return json.dumps(doc, sort_keys=True)


def _read_chain(doc: dict) -> EdgeChain:
    """A document's chain; a closed one reads as the open chain that returns
    to its first point, which draws the same pixels."""
    if not isinstance(doc["closed"], bool):
        raise TypeError(f"closed is {doc['closed']!r}, not a boolean")
    chain = EdgeChain(np.array(doc["points"], dtype=np.float64))
    return EdgeChain(np.vstack([chain.points, chain.points[:1]])) if doc["closed"] else chain


def from_json(text: str) -> EdgeSet:
    """The edge set a `to_json` document describes; FormatError for any other
    text, for a width or height that is not an integer of at least 1, or for
    a point not finite or more than a frame size outside it."""
    try:
        doc = json.loads(text)
        chains = [_read_chain(c) for c in doc["chains"]]
        es = EdgeSet(chains, doc_int(doc["width"]), doc_int(doc["height"]))
        if min(es.width, es.height) < 1:
            raise ValueError("the frame is smaller than one pixel")
        _bounded_points(es)
        return es
    except DOC_ERRORS as exc:
        raise FormatError(f"not an edge set: {type(exc).__name__}: {exc}") from exc
