"""Structural models of extracted shapes.

A mask's skeleton decomposes into geometric primitives (circles from its
cycles, line segments from its arcs), the primitives and their contacts
form an attributed relational graph, and a set of such graphs yields an
object model: the maximal common subgraph and minimal common supergraph
of its prototypes.  Scoring uses the normalized maximal-common-subgraph
distance 1 - |mcs| / max(|g1|, |g2|) against the nearest prototype
(Bunke & Shearer, PRL 19, 1998), computed in one place (`graph_distance`).
An isomorphic prototype scores 0 before any search.  Otherwise the
distance reads only the size of a common subgraph, so it comes from a
size-only search (`_mcs_size`) that prunes ties, starts from a floor it
must beat, and stops once nothing larger can exist; the bounds take the
mapping search (`_mcs_mapping`), which breaks ties.  A graph (`Arg`) is
its vertex kinds, vertex i at position i, and its edges.  What the
isomorphism test reads of it beyond those (its invariant, adjacency rows,
neighbours by edge attribute, and the order it places the vertices in) is
computed once per graph, on first read; a graph is frozen, which keeps
that data valid.  The scene generator writes its truth graphs in the same
two primitives.

Every exact search takes a node budget and raises BudgetExceeded once it
goes past it, rather than approximating: the isomorphism test counts the
vertices it places, the common-subgraph searches their search nodes.  The
size search visits a subset of the mapping search's nodes, so a distance
raises only where the mapping search would, and may return where it
raises.  A reference whose isomorphism test trips the budget while a graph
is scored is left to the size search.

Common-subgraph semantics here are *induced*: a vertex pairing is valid
only when each mapped pair of vertices agrees on edge presence and edge
attributes.  That choice keeps the supergraph gluing well defined and
makes |MinCS| = |g1| + |g2| - |MaxCS| hold exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .morph import EmptyMask, _link_lists, _neighbor_planes, _reduced, skeletonize
from .raster import DOC_ERRORS, BinaryMask, FormatError, doc_int

DIRECTION_BINS = ("E", "NE", "N", "SE")
CONNECTION_KINDS = ("end-to-end", "end-to-side", "overlap")
DECOMPOSE_MODES = ("skeleton",)


class BudgetExceeded(Exception):
    """Exact graph search exceeded its node budget."""


class EmptyInput(Exception):
    """Operation requires at least one input graph."""


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Primitive:
    """A geometric building block, all lengths in meters.

    circle:  center, radius
    segment: endpoints, with center their midpoint (length derived)
    """

    kind: str
    center: tuple[float, float]
    radius: float = 0.0
    endpoints: tuple[tuple[float, float], tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if self.kind == "circle":
            if self.radius <= 0:
                raise ValueError("circle needs a positive radius")
        elif self.kind == "segment":
            if self.endpoints is None or self.length <= 0:
                raise ValueError("segment needs two distinct endpoints")
        else:
            raise ValueError(f"unknown primitive kind {self.kind!r}")

    @property
    def length(self) -> float:
        if self.endpoints is None:
            return 0.0
        (x1, y1), (x2, y2) = self.endpoints
        return math.hypot(x2 - x1, y2 - y1)


def make_segment(p1: tuple[float, float], p2: tuple[float, float]) -> Primitive:
    center = ((p1[0] + p2[0]) / 2.0, (p1[1] + p2[1]) / 2.0)
    return Primitive("segment", center, endpoints=(tuple(p1), tuple(p2)))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

_MIN_ARC_PIXELS = 3


def _two_core(nbrs: list[list[int]]) -> list[bool]:
    """Per pixel of the link graph `nbrs` (`morph._link_lists`), whether it
    lies on a cycle: the 2-core, peeled from a stack of the pixels of degree
    below 2, each popped pixel decrementing its neighbours (Batagelj &
    Zaversnik, 2003).

    Stripping a pixel can restore a diagonal link that it blocked, but
    never between two pixels still there: the blocking pixel is
    orthogonally adjacent to both ends of the diagonal, so its degree stays
    at least 2 until one end is stripped.  The links of the input are
    therefore those of every stage of the peel, and the result equals
    stripping every pixel of reduced degree below 2, pass after pass.  So
    8-adjacent core pixels are joined in the core: its parts under the
    links are its 8-components.
    """
    deg = [len(around) for around in nbrs]
    stack = [p for p, d in enumerate(deg) if d < 2]
    while stack:
        for q in nbrs[stack.pop()]:
            deg[q] -= 1
            if deg[q] == 1:
                stack.append(q)
    return [d >= 2 for d in deg]


def _parts(nbrs: list[list[int]], member: list[bool]) -> list[list[int]]:
    """The parts of the pixels flagged in `member` under the links `nbrs`, by
    breadth-first search: sorted pixel numbers, in order of the first pixel."""
    left = list(member)
    parts = []
    for p in range(len(left)):
        if left[p]:
            left[p] = False
            part = [p]
            for q in part:  # the list grows as it is read
                for r in nbrs[q]:
                    if left[r]:
                        left[r] = False
                        part.append(r)
            parts.append(sorted(part))
    return parts


def decompose(mask: BinaryMask, mode: str = "skeleton", resolution: float = 1.0) -> list[Primitive]:
    """Split a mask into primitives in meters, at ``resolution`` per pixel:
    its skeleton's cycles become circles and its branch-free arcs segments
    between their two ends.  "skeleton" is the one ``mode``, the pipeline's
    ``decompose_mode``.

    An arc part of three or more pixels is a path, with two ends of one
    link in the part: a pixel has no more links there than its branch-cut
    count, below 3, and a cycle of links would lie in the 2-core.  The ends
    are unpacked as two, so a part that broke this would raise.
    """
    if mode not in DECOMPOSE_MODES:
        raise ValueError(f"unknown decompose mode {mode!r}")
    if not 0 < resolution < math.inf:  # False on NaN too
        raise ValueError("resolution must be finite and positive")
    if mask.is_empty():
        raise EmptyMask("cannot decompose an empty mask")
    skel = skeletonize(mask).bits
    ys, xs = np.nonzero(skel)  # pixel p of the link graph is (ys[p], xs[p])
    nbrs = _link_lists(skel)
    core = _two_core(nbrs)
    prims: list[Primitive] = []
    for part in _parts(nbrs, core):
        py, px = ys[part], xs[part]
        cx, cy = float(px.mean()), float(py.mean())
        r = float(np.hypot(py - cy, px - cx).mean())
        prims.append(Primitive("circle", (cx * resolution, cy * resolution), radius=r * resolution))

    # split the tree part at branch pixels, counted on the off-cycle pixels
    # alone, where a core pixel blocks no diagonal: not the link degree
    off = ~np.array(core, dtype=bool)
    rest = np.zeros_like(skel)
    rest[skel] = off
    arcs = off & (_reduced(*_neighbor_planes(rest))[skel] < 3)
    for part in _parts(nbrs, arcs.tolist()):
        if len(part) < _MIN_ARC_PIXELS:
            continue
        inside = set(part)
        ends = [p for p in part if sum(q in inside for q in nbrs[p]) == 1]
        (x1, y1), (x2, y2) = ((xs[p], ys[p]) for p in ends)
        p1 = (x1 * resolution, y1 * resolution)
        p2 = (x2 * resolution, y2 * resolution)
        if p1 != p2:
            prims.append(make_segment(p1, p2))
    return prims


# ---------------------------------------------------------------------------
# attributed relational graphs
# ---------------------------------------------------------------------------


@dataclass(eq=False, frozen=True)
class Arg:
    """Attributed relational graph: typed vertices, typed+directed edges.

    Vertex i has kind `kinds[i]`; an edge (a, b, conn, dir) joins vertices
    a and b.  The graph is frozen and stores both as tuples, so nothing
    mutates it after construction, and the search data below (`invariant`,
    `rows`, `near`, `match_plan`) is computed on first read and kept.  It
    is plain tuples, lists and dicts of vertex numbers, kinds and
    attributes, with no reference back to the graph, so dropping a graph
    frees it by reference counting.
    """

    kinds: tuple[str, ...] = ()
    edges: tuple[tuple[int, int, str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        n = len(self.kinds)
        canon = []
        seen = set()
        for a, b, conn, direction in self.edges:
            if a == b or not (0 <= a < n) or not (0 <= b < n):
                raise ValueError("edge references invalid vertices")
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise ValueError("duplicate edge")
            seen.add((a, b))
            canon.append((a, b, conn, direction))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def size(self) -> int:
        return len(self.kinds)

    @cached_property
    def invariant(self) -> tuple:
        """Sorted vertex kinds and sorted edge attributes: equal for
        isomorphic graphs."""
        return tuple(sorted(self.kinds)), tuple(sorted(e[2:] for e in self.edges))

    @cached_property
    def rows(self) -> list[list]:
        """Per vertex, the attributes of its edge to each vertex (None if none)."""
        n = self.size
        rows: list[list] = [[None] * n for _ in range(n)]
        for a, b, conn, d in self.edges:
            rows[a][b] = rows[b][a] = (conn, d)
        return rows

    @cached_property
    def near(self) -> list[dict[tuple[str, str], list[int]]]:
        """Per vertex, its neighbours grouped by edge attribute."""
        near: list[dict] = [{} for _ in range(self.size)]
        for a, b, conn, d in self.edges:
            attr = (conn, d)
            near[a].setdefault(attr, []).append(b)
            near[b].setdefault(attr, []).append(a)
        return near

    @cached_property
    def match_plan(self) -> tuple[list[int], list[int | None]]:
        """The vertices in the order `_matches` places them, and for each
        place the place of the vertex's first placed neighbour (None if it
        has none).  The order is breadth first through each component,
        isolated vertices last, so every vertex but a component's first is
        placed against a neighbour's image: a match that fails in its edges
        fails before it permutes the vertices that have none."""
        near = self.near
        order: list[int] = []
        anchors: list[int | None] = []
        placed = [False] * self.size
        for root in sorted(range(self.size), key=lambda v: not near[v]):
            if placed[root]:
                continue
            placed[root] = True
            order.append(root)
            anchors.append(None)
            i = len(order) - 1
            while i < len(order):  # the queue of the breadth-first pass
                for vs in near[order[i]].values():
                    for u in vs:
                        if not placed[u]:
                            placed[u] = True
                            order.append(u)
                            anchors.append(i)
                i += 1
        return order, anchors


def arg_to_doc(g: Arg) -> dict:
    """The JSON document of a graph, as `arg_to_json` writes it."""
    return {
        "vertices": [{"id": i, "kind": k} for i, k in enumerate(g.kinds)],
        "edges": [{"from": a, "to": b, "conn": c, "dir": d} for a, b, c, d in g.edges],
    }


def arg_to_json(g: Arg) -> str:
    return json.dumps(arg_to_doc(g), sort_keys=True)


def _text(value, allowed: tuple[str, ...] | None = None) -> str:
    """A JSON string, and one of ``allowed`` when given; ValueError if not."""
    if not isinstance(value, str) or allowed is not None and value not in allowed:
        raise ValueError(f"unexpected value {value!r}")
    return value


def arg_from_json(text: str) -> Arg:
    """The graph an `arg_to_json` document (text or parsed) describes;
    FormatError for any document that does not describe a valid one, such
    as one whose vertex ids are not 0..n-1 in order."""
    try:
        doc = json.loads(text) if isinstance(text, str) else text
        verts = doc["vertices"]
        if [doc_int(v["id"]) for v in verts] != list(range(len(verts))):
            raise ValueError("vertex ids must be dense 0..n-1 in order")
        kinds = [_text(v["kind"]) for v in verts]
        edges = [
            (doc_int(e["from"]), doc_int(e["to"]),
             _text(e["conn"], CONNECTION_KINDS), _text(e["dir"], DIRECTION_BINS))
            for e in doc["edges"]
        ]
        return Arg(kinds, edges)
    except DOC_ERRORS as exc:
        raise FormatError(f"not a graph: {type(exc).__name__}: {exc}") from exc


_CIRCLE_SAMPLES = 64  # a segment gets half as many


def _boundary_samples(p: Primitive) -> np.ndarray:
    if p.kind == "circle":
        t = np.linspace(0.0, 2 * math.pi, _CIRCLE_SAMPLES, endpoint=False)
        return np.stack(
            [p.center[0] + p.radius * np.cos(t), p.center[1] + p.radius * np.sin(t)], axis=1
        )
    a = np.array(p.endpoints[0])
    b = np.array(p.endpoints[1])
    t = np.linspace(0.0, 1.0, _CIRCLE_SAMPLES // 2)[:, None]
    return a[None, :] * (1 - t) + b[None, :] * t


def _near_end(p: Primitive, pt: np.ndarray, tol: float) -> bool:
    """Is a boundary point within ``tol`` of one of the primitive's ends?
    Segment ends are its endpoints; circles have no ends."""
    return p.kind == "segment" and any(
        math.hypot(pt[0] - e[0], pt[1] - e[1]) <= tol for e in p.endpoints
    )


def _contains(p: Primitive, pt: np.ndarray) -> bool:
    """Strict interior test; segments have no interior."""
    return p.kind == "circle" and math.hypot(pt[0] - p.center[0], pt[1] - p.center[1]) < p.radius - 1e-9


def _cross(o, a, b) -> float:
    """Cross product of the vectors o->a and o->b: > 0 for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_cross(a: Primitive, b: Primitive) -> bool:
    p1, p2 = a.endpoints
    p3, p4 = b.endpoints
    return (_cross(p3, p4, p1) * _cross(p3, p4, p2) < 0
            and _cross(p1, p2, p3) * _cross(p1, p2, p4) < 0)


def _interiors_overlap(a: Primitive, b: Primitive, sa: np.ndarray, sb: np.ndarray) -> bool:
    if a.kind == "segment" and b.kind == "segment":
        return _segments_cross(a, b)
    if any(_contains(b, pt) for pt in sa) or any(_contains(a, pt) for pt in sb):
        return True
    return _contains(b, np.array(a.center)) or _contains(a, np.array(b.center))


def _direction_bin(ca: tuple[float, float], cb: tuple[float, float]) -> str:
    ang = math.atan2(cb[1] - ca[1], cb[0] - ca[0]) % math.pi
    return DIRECTION_BINS[int(round(ang / (math.pi / 4))) % 4]


# the pipeline's contact tolerance, in meters; the generator's truth graphs use it too
DEFAULT_ADJACENCY_TOL = 8.0


def build_arg(prims: list[Primitive], adjacency_tol: float) -> Arg:
    """Graph of primitives: an edge joins every pair whose boundaries come
    within ``adjacency_tol`` meters, attributed with the connection kind
    and the quantized direction between centers (from the lower vertex)."""
    samples = [_boundary_samples(p) for p in prims]
    edges = []
    for i in range(len(prims)):
        for j in range(i + 1, len(prims)):
            a, b = prims[i], prims[j]
            diff = samples[i][:, None, :] - samples[j][None, :, :]
            dd = np.hypot(diff[..., 0], diff[..., 1])
            d = float(dd.min())
            overlap = _interiors_overlap(a, b, samples[i], samples[j])
            if not overlap and d > adjacency_tol:
                continue
            if overlap:
                conn = "overlap"
            else:
                # classify from the whole contact region: flank contact has
                # its centroid mid-side even though corners also touch
                contact = dd <= d + 0.25 * adjacency_tol
                ia, ib = np.nonzero(contact)
                pa = samples[i][ia].mean(axis=0)
                pb = samples[j][ib].mean(axis=0)
                near_a = _near_end(a, pa, adjacency_tol)
                near_b = _near_end(b, pb, adjacency_tol)
                if near_a and near_b:
                    conn = "end-to-end"
                elif near_a or near_b:
                    conn = "end-to-side"
                else:
                    conn = "overlap"  # flank contact with no end involved
            edges.append((i, j, conn, _direction_bin(a.center, b.center)))
    return Arg([p.kind for p in prims], edges)


# ---------------------------------------------------------------------------
# exact graph search
# ---------------------------------------------------------------------------

DEFAULT_NODE_BUDGET = 1_000_000


def _association(g1: Arg, g2: Arg):
    """The association graph of two graphs, as (pairs, compat, nbr, sides).

    `pairs` are the vertex pairs of one kind, numbered in (v1, v2) order,
    and each bitset below is a Python int with one bit per pair.
    `compat[i]` holds the pairs that can join pair i in one induced common
    subgraph, `nbr[i]` the pairs whose g1 vertices are adjacent to pair i's,
    and `sides` the pairs of each vertex that has any, the side with fewer
    such vertices first.

    The graph is built from per-vertex bitsets in O(pairs x edge
    attributes) int operations, never as a pairs x pairs array: each vertex
    holds the bitset of its pairs, and for each edge attribute the union of
    its neighbours' bitsets.  Pair (a, b) is then compatible with the pairs
    whose vertices are adjacent to neither a nor b, and with those adjacent
    to both under one attribute.
    """
    by_kind: dict[str, list[int]] = {}
    for b, kind in enumerate(g2.kinds):
        by_kind.setdefault(kind, []).append(b)
    pairs = [(a, b) for a, kind in enumerate(g1.kinds) for b in by_kind.get(kind, ())]
    of1, of2 = [0] * g1.size, [0] * g2.size  # the pairs of each vertex
    for i, (a, b) in enumerate(pairs):
        of1[a] |= 1 << i
        of2[b] |= 1 << i
    full = (1 << len(pairs)) - 1

    def around(g: Arg, of: list[int]):
        """Per vertex: the pairs on its neighbours, by edge attribute and in
        all, and the pairs on neither it nor a neighbour."""
        near: list[dict] = [{} for _ in range(g.size)]
        adjacent = [0] * g.size
        for a, b, conn, d in g.edges:
            attr, near_a, near_b = (conn, d), near[a], near[b]
            near_a[attr] = near_a.get(attr, 0) | of[b]
            near_b[attr] = near_b.get(attr, 0) | of[a]
            adjacent[a] |= of[b]
            adjacent[b] |= of[a]
        return near, adjacent, [full ^ (mine | adj) for mine, adj in zip(of, adjacent)]

    (near1, nbr1, far1), (near2, _, far2) = around(g1, of1), around(g2, of2)
    compat = []
    for a, b in pairs:
        c, by_attr = far1[a] & far2[b], near2[b]
        for attr, m in near1[a].items():
            if attr in by_attr:
                c |= m & by_attr[attr]
        compat.append(c)
    nbr = [nbr1[a] for a, _ in pairs]
    sides = sorted(([m for m in of1 if m], [m for m in of2 if m]), key=len)
    return pairs, compat, nbr, sides


def _reaches(cand: int, need: int, sides) -> bool:
    """Can `cand` still add `need` vertices: does it hold pairs on `need`
    distinct vertices of each side?  Each side is counted only until it
    reaches `need`."""
    if cand.bit_count() < need:
        return False
    for side in sides:
        left = need
        for m in side:
            if cand & m:
                left -= 1
                if not left:
                    break
        else:
            return False
    return True


def _mcs_mapping(g1: Arg, g2: Arg, node_budget: int = DEFAULT_NODE_BUDGET):
    """Largest induced common-subgraph mapping as [(v1, v2), ...].

    Branch and bound over the association graph (`_association`); ties by
    vertex count resolve toward more common edges, then the
    lexicographically smallest mapping.  Raises BudgetExceeded rather than
    approximating.

    Candidate sets are bitsets of pairs (bit-parallel max-clique search,
    San Segundo et al., Computers & OR 38(2), 2011).  Each search call takes
    the lowest candidate, so the nodes visited, and hence where the budget
    trips, are those of the plain list search.
    """
    pairs, compat, nbr, sides = _association(g1, g2)
    best = 0
    best_score = (0, -1)
    nodes = 0

    def extend(chosen: int, k: int, cand: int) -> None:
        # the first branch takes the lowest candidate; the loop is the second
        nonlocal best, best_score, nodes
        while True:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"graph search exceeded {node_budget} nodes")
            if not cand:
                if k < best_score[0]:
                    return
                edges, rest = 0, chosen
                while rest:
                    low = rest & -rest
                    edges += (nbr[low.bit_length() - 1] & chosen).bit_count()
                    rest ^= low
                score = (k, edges // 2)
                if score > best_score:
                    best, best_score = chosen, score
                return
            # bound: k + the distinct vertices left on the smaller side, which
            # is at least k + 1; a branch that cannot tie the incumbent stops
            need = best_score[0] - k
            if need > 1 and not _reaches(cand, need, sides):
                return
            low = cand & -cand
            cand ^= low
            extend(chosen | low, k + 1, cand & compat[low.bit_length() - 1])

    try:
        extend(0, 0, (1 << len(pairs)) - 1)
    finally:
        del extend  # the closure refers to itself: leave no cycle for the collector
    return [pair for i, pair in enumerate(pairs) if best >> i & 1]


def _mcs_size(g1: Arg, g2: Arg, node_budget: int = DEFAULT_NODE_BUDGET, floor: int = 0) -> int:
    """Vertex count of a largest induced common subgraph, or ``floor`` when
    none is larger.

    The search of `_mcs_mapping` over the same association graph, cut to
    what a distance reads.  The incumbent starts at ``floor``, a branch that
    cannot beat it stops (ties are not explored), and the search ends once
    the incumbent covers the side with fewer paired vertices.  By induction
    over the search order, it visits a subset of `_mcs_mapping`'s nodes.
    """
    if floor >= min(g1.size, g2.size):
        return floor
    pairs, compat, _, sides = _association(g1, g2)
    cover = len(sides[0])
    best = floor
    nodes = 0

    def extend(k: int, cand: int) -> bool:
        # True once the incumbent covers the smaller side
        nonlocal best, nodes
        while True:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"graph search exceeded {node_budget} nodes")
            if not cand:
                best = max(best, k)
                return best == cover
            need = best + 1 - k  # vertices still to add to beat the incumbent
            if need > 1 and not _reaches(cand, need, sides):
                return False
            low = cand & -cand
            cand ^= low
            if extend(k + 1, cand & compat[low.bit_length() - 1]):
                return True

    try:
        if best < cover:
            extend(0, (1 << len(pairs)) - 1)
    finally:
        del extend  # as in `_mcs_mapping`
    return best


def _induced_subgraph(g: Arg, keep: list[int]) -> Arg:
    remap = {v: i for i, v in enumerate(sorted(keep))}
    edges = [(remap[a], remap[b], c, d) for a, b, c, d in g.edges if a in remap and b in remap]
    return Arg([g.kinds[v] for v in remap], sorted(edges))


def max_common_subgraph(g1: Arg, g2: Arg, node_budget: int = DEFAULT_NODE_BUDGET) -> Arg:
    """Largest graph (by vertices, then edges) embeddable in both inputs."""
    mapping = _mcs_mapping(g1, g2, node_budget)
    return _induced_subgraph(g1, [a for a, _ in mapping])


def min_common_supergraph(g1: Arg, g2: Arg, node_budget: int = DEFAULT_NODE_BUDGET) -> Arg:
    """Glue g1 and g2 along their maximal common subgraph.

    |result| = |g1| + |g2| - |MaxCS|; both inputs embed in the result.
    """
    translate = {b: a for a, b in _mcs_mapping(g1, g2, node_budget)}  # g2 -> result
    extra = [b for b in range(g2.size) if b not in translate]
    translate.update((b, g1.size + k) for k, b in enumerate(extra))
    edges = {(a, b): (conn, d) for a, b, conn, d in g1.edges}
    for u, v, conn, d in g2.edges:
        edges.setdefault(tuple(sorted((translate[u], translate[v]))), (conn, d))
    kinds = [*g1.kinds, *(g2.kinds[b] for b in extra)]
    return Arg(kinds, [(a, b, *at) for (a, b), at in sorted(edges.items())])


def _matches(g1: Arg, g2: Arg, node_budget: int) -> bool:
    """Is there an isomorphism from g1 to g2?  Their invariants must be
    equal.  Backtracks over g1's `Arg.match_plan`, trying g2's vertices of
    the same kind in order, and, for a vertex with a placed neighbour, only
    the neighbours of that neighbour's image under the same edge
    attribute."""
    order, anchors = g1.match_plan
    kinds1, rows1 = g1.kinds, g1.rows
    kinds2, near2, rows2 = g2.kinds, g2.near, g2.rows
    n = len(order)
    used = [False] * n
    assign = [0] * n  # the image of each g1 vertex placed so far
    placements = 0

    def backtrack(p: int) -> bool:
        nonlocal placements
        if p == n:
            return True
        v, anchor = order[p], anchors[p]
        kind, row, placed = kinds1[v], rows1[v], order[:p]
        if anchor is None:
            cands = range(n)
        else:
            u = order[anchor]
            cands = near2[assign[u]].get(row[u], ())
        for w in cands:
            if used[w] or kinds2[w] != kind:
                continue
            image = rows2[w]
            for u in placed:
                if row[u] != image[assign[u]]:
                    break
            else:
                placements += 1
                if placements > node_budget:
                    raise BudgetExceeded(f"isomorphism test exceeded {node_budget} placements")
                used[w] = True
                assign[v] = w
                if backtrack(p + 1):
                    return True
                used[w] = False
        return False

    try:
        return backtrack(0)
    finally:
        del backtrack  # as in `_mcs_mapping`


def is_isomorphic(g1: Arg, g2: Arg, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exact attributed-graph isomorphism (kinds, edges, edge attributes)."""
    return g1.invariant == g2.invariant and _matches(g1, g2, node_budget)


def find_prototypes(
    args: list[Arg], min_support: int = 1, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[Arg]:
    """One representative per exact-isomorphism class with enough support,
    ordered by descending frequency (ties keep first appearance).

    Only graphs with equal invariants can be isomorphic, so each graph is
    tested against its invariant's groups alone.  The invariants, and what
    a match reads of both graphs, are each graph's own search data
    (`Arg`), computed once however many calls the graph takes part in."""
    groups: list[list] = []  # [representative, count], in order of appearance
    by_invariant: dict[tuple, list[list]] = {}
    for g in args:
        same = by_invariant.setdefault(g.invariant, [])
        for group in same:
            if _matches(g, group[0], node_budget):
                group[1] += 1
                break
        else:
            group = [g, 1]
            same.append(group)
            groups.append(group)
    ranked = sorted(groups, key=lambda group: -group[1])  # stable: ties keep first appearance
    return [rep for rep, count in ranked if count >= min_support]


@dataclass(eq=False)
class ObjectModel:
    """Prototypes, at least one, and the structural bounds folded from them
    on first read."""

    prototypes: list[Arg]
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if not self.prototypes:
            raise EmptyInput("a model needs at least one prototype")

    @cached_property
    def bounds(self) -> tuple[Arg, Arg]:
        """(max_csg, min_csg), folded over the prototypes left to right on the
        first read; the prototypes must not change after it.  The result can
        depend on their order, so it is fixed: canonically by descending
        frequency."""
        lo = hi = self.prototypes[0]
        for p in self.prototypes[1:]:
            lo = max_common_subgraph(lo, p, self.node_budget)
            hi = min_common_supergraph(hi, p, self.node_budget)
        return lo, hi


def generate_model(prototypes: list[Arg], node_budget: int = DEFAULT_NODE_BUDGET) -> ObjectModel:
    """The model of the prototypes; its bounds are folded when first read."""
    return ObjectModel(list(prototypes), node_budget)


def graph_distance(
    g1: Arg, g2: Arg, node_budget: int = DEFAULT_NODE_BUDGET, best: float = math.inf
) -> float:
    """The lesser of ``best`` and the normalized mcs distance
    1 - |mcs| / max(|g1|, |g2|), in [0, 1].

    Only the size of a common subgraph is searched for (`_mcs_size`), from
    the largest floor that would not lower ``best``: a common subgraph that
    does not beat it cannot bring the distance below ``best``."""
    denom = max(g1.size, g2.size)
    if denom == 0:
        return 0.0
    floor = 0
    while floor < denom and 1.0 - (floor + 1) / denom >= best:
        floor += 1
    return min(best, 1.0 - _mcs_size(g1, g2, node_budget, floor) / denom)


def model_distance(
    g: Arg,
    model: ObjectModel,
    use_bounds: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Distance from a graph to the nearest prototype (or, with
    ``use_bounds``, to the nearer of the two structural bounds): the least
    `graph_distance`.

    A reference isomorphic to the graph scores 0 before any search.  The
    other references are searched in order, each passed the least distance
    so far, and the walk stops at a distance of 0."""
    refs = model.bounds if use_bounds else model.prototypes
    for r in refs:
        try:
            if is_isomorphic(g, r, node_budget):
                return 0.0
        except BudgetExceeded:
            pass
    best = math.inf
    for r in refs:
        best = graph_distance(g, r, node_budget, best)
        if best == 0.0:
            break
    return best


def model_to_json(model: ObjectModel) -> str:
    lo, hi = model.bounds
    return json.dumps(
        {
            "max_csg": arg_to_doc(lo),
            "min_csg": arg_to_doc(hi),
            "prototypes": [arg_to_doc(p) for p in model.prototypes],
        },
        sort_keys=True,
    )


def model_from_json(text: str) -> ObjectModel:
    """The model a `model_to_json` document describes; FormatError for any
    text that does not describe one."""
    try:
        doc = json.loads(text)
        bounds = arg_from_json(doc["max_csg"]), arg_from_json(doc["min_csg"])
        model = ObjectModel([arg_from_json(p) for p in doc["prototypes"]])
        model.bounds = bounds  # read from the document, not folded
        return model
    except (*DOC_ERRORS, EmptyInput) as exc:
        raise FormatError(f"not a model: {type(exc).__name__}: {exc}") from exc
