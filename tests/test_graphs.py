import gc
import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg import edges, graphs
from cartoseg.graphs import (
    CONNECTION_KINDS,
    DIRECTION_BINS,
    Arg,
    BudgetExceeded,
    EmptyInput,
    ObjectModel,
    Primitive,
    arg_from_json,
    arg_to_json,
    build_arg,
    decompose,
    find_prototypes,
    generate_model,
    graph_distance,
    is_isomorphic,
    make_segment,
    max_common_subgraph,
    min_common_supergraph,
    model_distance,
    model_from_json,
    model_to_json,
    _association,
    _matches,
    _mcs_mapping,
    _two_core,
)
from cartoseg.morph import EmptyMask, _link_lists, _neighbor_planes, _reduced, skeletonize
from cartoseg.pipeline import PipelineConfig
from cartoseg.raster import BinaryMask, FormatError
from oracles import (
    brute_isomorphic,
    brute_mcs_size,
    can_embed,
    dense_association,
    eager_fold_bounds,
    edges_then_triangle,
    glue_supergraph,
    list_mcs_mapping,
    loop_decompose,
    old_arg_to_json,
    pass_two_core,
    pointwise_reduced_degree,
    probe_induced_subgraph,
    random_arg,
    random_polyline_mask,
    roundtrip_model_to_json,
    scan_prototypes,
)

EE = ("end-to-end", "E")


def path(kinds, attr=EE):
    edges = [(i, i + 1, attr[0], attr[1]) for i in range(len(kinds) - 1)]
    return Arg(kinds, edges)


class TestArgType:
    def test_dense_ids_required(self):
        """A graph has no vertex ids: vertex i is at position i.  A document
        whose ids are not 0..n-1 in order describes no graph."""
        for ids in ([0, 2], [1, 0], [0, 0], [1]):
            doc = {"vertices": [{"id": i, "kind": "circle"} for i in ids], "edges": []}
            with pytest.raises(FormatError, match="dense"):
                arg_from_json(json.dumps(doc))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Arg(("circle", "circle"), [(0, 1, "overlap", "E"), (1, 0, "overlap", "N")])

    def test_canonical_orientation(self):
        g = Arg(("a", "b"), [(1, 0, "overlap", "NE")])
        assert g.edges == ((0, 1, "overlap", "NE"),)

    def test_graph_cannot_change(self):
        """A graph keeps its search data once read, so it is frozen and its
        kinds and edges are tuples."""
        g = Arg(["a", "b"], [(1, 0, "overlap", "NE")])
        assert g.rows[0][1] == ("overlap", "NE")
        assert g.kinds == ("a", "b") and g.kinds[1] == "b"
        with pytest.raises(FrozenInstanceError):
            g.edges = ()
        with pytest.raises(AttributeError):
            g.edges.append((0, 1, "overlap", "E"))

    def test_json_roundtrip(self):
        g = path(["a", "b", "c"])
        back = arg_from_json(arg_to_json(g))
        assert back.kinds == g.kinds and back.edges == g.edges


class TestPrimitives:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown primitive kind"):
            Primitive("rectangle", (0, 0))
        with pytest.raises(ValueError):
            Primitive("circle", (0, 0), radius=-1)
        with pytest.raises(ValueError):
            Primitive("blob", (0, 0))
        with pytest.raises(ValueError):
            make_segment((1, 1), (1, 1))


def render_disk(shape, cy, cx, r):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def render_bar(shape, cy, cx, angle, length, width):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]].astype(float)
    u = (xx - cx) * math.cos(angle) + (yy - cy) * math.sin(angle)
    v = -(xx - cx) * math.sin(angle) + (yy - cy) * math.cos(angle)
    return (np.abs(u) <= length / 2) & (np.abs(v) <= width / 2)


class TestDecomposeSkeleton:
    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            decompose(BinaryMask(np.zeros((4, 4), dtype=bool)))

    def test_default_mode_is_the_pipelines(self):
        """The library default and the pipeline default name one algorithm."""
        mask = BinaryMask(render_disk((33, 33), 16.0, 16.0, 10.0) | render_bar(
            (33, 33), 16.0, 16.0, 0.5, 30.0, 4.0))
        assert decompose(mask) == decompose(mask, PipelineConfig().decompose_mode)
        with pytest.raises(ValueError, match="decompose mode"):
            decompose(mask, "shapes")

    @pytest.mark.parametrize("resolution", [0.0, -2.5, math.nan, math.inf])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            decompose(BinaryMask(render_disk((9, 9), 4.0, 4.0, 3.0)), resolution=resolution)

    def test_plus_shape_four_segments(self):
        bits = render_bar((41, 41), 20, 20, 0.0, 30.0, 5.0) | render_bar(
            (41, 41), 20, 20, math.pi / 2, 30.0, 5.0
        )
        prims = decompose(BinaryMask(bits), "skeleton")
        segs = [p for p in prims if p.kind == "segment"]
        assert len(segs) == 4
        angles = [math.atan2(q[1] - p[1], q[0] - p[0]) % math.pi for p, q in (s.endpoints for s in segs)]
        horiz = [a for a in angles if min(a, math.pi - a) < 0.3]
        vert = [a for a in angles if abs(a - math.pi / 2) < 0.3]
        assert len(horiz) == 2 and len(vert) == 2

    def test_ring_with_arms_yields_circle_and_segments(self):
        yy, xx = np.mgrid[0:61, 0:61].astype(float)
        rr = np.hypot(yy - 30, xx - 30)
        ring = (rr >= 10) & (rr <= 18)
        arms = (
            render_bar((61, 61), 30, 30, math.radians(20), 60.0, 6.0)
            | render_bar((61, 61), 30, 30, math.radians(110), 60.0, 6.0)
        ) & (rr >= 10)
        prims = decompose(BinaryMask(ring | arms), "skeleton")
        circles = [p for p in prims if p.kind == "circle"]
        segs = [p for p in prims if p.kind == "segment"]
        assert len(circles) == 1
        assert circles[0].radius == pytest.approx(14.0, abs=1.5)  # ring centerline
        assert len(segs) == 4


@st.composite
def decompose_masks(draw):
    """Masks up to 24x24: pixel noise or unions of disks and oriented bars,
    as drawn or thinned, which gives arcs with every number of ends."""
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    if draw(st.booleans()):
        bits = draw(arrays(bool, shape, fill=st.nothing()))  # every pixel drawn
    else:
        bits = np.zeros(shape, dtype=bool)
        pos = st.floats(0, 24)
        for bar, cy, cx, angle, size, width in draw(st.lists(st.tuples(
                st.booleans(), pos, pos, st.floats(0, math.pi), st.floats(1, 16), st.floats(1, 5)),
                min_size=1, max_size=4)):
            bits |= (render_bar(shape, cy, cx, angle, size, width) if bar
                     else render_disk(shape, cy, cx, size / 2))
    if draw(st.booleans()) and bits.any():
        bits = skeletonize(BinaryMask(bits)).bits
    return bits


# The branch cut counts neighbours on the off-cycle pixels alone.  The pixel
# at row 1, column 2 is off the cycle, and links to the two pixels above it,
# but the core pixel below it blocks its diagonal to row 2, column 1; among
# the off-cycle pixels nothing blocks it, so it counts three neighbours and
# is cut.  On its two links it would stay, joining the two pixels of row 0
# into an arc
BRANCH_CUT_MASK = np.array([[c == "#" for c in row] for row in (
    ".#.#.",
    "..#..",
    ".###.",
    "#.#.#",
    "...#.",
)])


def core_plane(bits):
    """`_two_core` of the link graph of `bits`, as a frame."""
    core = np.zeros_like(bits)
    core[bits] = _two_core(_link_lists(bits))
    return core


class TestDecomposeOracle:
    @settings(max_examples=400, deadline=None)
    @given(decompose_masks(), st.sampled_from((1.0, 2.5)))
    @example(BRANCH_CUT_MASK, 1.0)
    def test_equals_per_label_loops(self, bits, resolution):
        """The link-graph passes give the primitives, in the order, that
        full-frame passes, flood fills and per-pixel counts give."""
        if not bits.any():
            return
        mask = BinaryMask(bits)
        assert decompose(mask, resolution=resolution) == loop_decompose(mask, resolution)

    def test_branch_cut_counts_off_cycle_pixels(self):
        """The mask is its own skeleton and decomposes to its one cycle: a
        cut on the link degree would also keep a segment (1, 0)-(3, 0)."""
        mask = BinaryMask(BRANCH_CUT_MASK)
        assert np.array_equal(skeletonize(mask).bits, BRANCH_CUT_MASK)
        (circle,) = decompose(mask)
        assert circle.kind == "circle"
        assert circle.center == pytest.approx((2.8, 2.8))


class TestReducedDegreeOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: arrays(bool, shape, fill=st.nothing())))
    def test_equals_per_pixel_count(self, bits):
        """The branch cut's count, and on the whole frame the link degree."""
        want = pointwise_reduced_degree(bits)[bits]
        assert np.array_equal(_reduced(*_neighbor_planes(bits))[bits], want)
        assert [len(around) for around in _link_lists(bits)] == want.tolist()


class TestTwoCoreOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
        lambda shape: arrays(bool, shape, fill=st.nothing())), st.booleans())
    def test_equals_pass_loop(self, bits, thin):
        """Random frames, and thinned ones, which peel one pixel per arm end
        and pass."""
        if thin and bits.any():
            bits = skeletonize(BinaryMask(bits)).bits
        assert np.array_equal(core_plane(bits), pass_two_core(bits))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_pass_loop_on_long_arms(self, seed):
        """Skeletons of 64x64 connected polylines, whose arms take the pass
        loop dozens of passes to strip."""
        skel = skeletonize(BinaryMask(random_polyline_mask(np.random.default_rng(seed)))).bits
        assert np.array_equal(core_plane(skel), pass_two_core(skel))


class TestBuildArg:
    def test_touching_collinear_segments(self):
        a = make_segment((0.0, 0.0), (10.0, 0.0))
        b = make_segment((10.0, 0.0), (20.0, 0.0))
        g = build_arg([a, b], adjacency_tol=2.0)
        assert g.size == 2
        assert g.edges == ((0, 1, "end-to-end", "E"),)

    def test_distant_primitives_no_edge(self):
        a = make_segment((0.0, 0.0), (5.0, 0.0))
        b = make_segment((50.0, 50.0), (60.0, 50.0))
        g = build_arg([a, b], adjacency_tol=2.0)
        assert g.edges == ()

    def test_roundabout_star_distinct_directions(self):
        circle = Primitive("circle", (0.0, 0.0), radius=10.0)
        arms = [
            make_segment(
                (11.0 * math.cos(a), 11.0 * math.sin(a)),
                (30.0 * math.cos(a), 30.0 * math.sin(a)),
            )
            for a in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        ]
        g = build_arg([circle] + arms, adjacency_tol=2.0)
        star = [e for e in g.edges if e[0] == 0]
        assert len(star) == 4 and len(g.edges) == 4
        assert all(e[2] == "end-to-side" for e in star)
        assert sorted(e[3] for e in star) == sorted(["E", "NE", "N", "SE"])

    def test_crossing_segments_overlap(self):
        a = make_segment((-5.0, 0.0), (5.0, 0.0))
        b = make_segment((0.0, -5.0), (0.0, 5.0))
        g = build_arg([a, b], adjacency_tol=1.0)
        assert g.edges[0][2] == "overlap"

    def test_flank_contact_is_overlap(self):
        """Parallel segments side by side touch along their flanks, where no
        end is near the contact's centre."""
        a = make_segment((0.0, 0.0), (20.0, 0.0))
        b = make_segment((0.0, 0.5), (20.0, 0.5))
        g = build_arg([a, b], adjacency_tol=1.0)
        assert g.edges == ((0, 1, "overlap", "N"),)


class TestMaxCommonSubgraph:
    def test_identity(self):
        g = path(["a", "b", "c"])
        m = max_common_subgraph(g, g)
        assert is_isomorphic(m, g)

    def test_kind_disjoint_empty(self):
        g1 = path(["a", "a"])
        g2 = path(["b", "b"])
        assert max_common_subgraph(g1, g2).size == 0

    def test_paths_share_two_vertices(self):
        g1 = path(["a", "b", "c"])
        g2 = path(["a", "b", "d"])
        m = max_common_subgraph(g1, g2)
        assert m.size == 2 == brute_mcs_size(g1, g2)
        assert len(m.edges) == 1

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            g1, g2 = random_arg(rng), random_arg(rng)
            assert max_common_subgraph(g1, g2).size == brute_mcs_size(g1, g2)

    def test_size_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g1, g2 = random_arg(rng), random_arg(rng)
            assert max_common_subgraph(g1, g2).size == max_common_subgraph(g2, g1).size

    def test_budget(self):
        g = path(["a"] * 5)
        with pytest.raises(BudgetExceeded):
            max_common_subgraph(g, g, node_budget=3)


@st.composite
def small_args(draw, max_vertices=8):
    n = draw(st.integers(0, max_vertices))
    kinds = draw(st.lists(st.sampled_from(("rectangle", "circle", "segment")),
                          min_size=n, max_size=n))
    links = [(a, b) for a in range(n) for b in range(a + 1, n)]
    attrs = draw(st.lists(
        st.none() | st.tuples(st.sampled_from(CONNECTION_KINDS), st.sampled_from(DIRECTION_BINS)),
        min_size=len(links), max_size=len(links)))
    return Arg(kinds, [(a, b, *at) for (a, b), at in zip(links, attrs) if at])


class TestMcsOracle:
    @settings(max_examples=300, deadline=None)
    @given(small_args(), small_args())
    def test_same_mapping_and_nodes_as_list_search(self, g1, g2):
        """The bitset search returns the list search's mapping and visits the
        same nodes: it exceeds a budget exactly when the list search does.
        Every budget up to 400 is tried, and the three around the list
        search's node count (two 8-vertex graphs of one kind and no edge
        take 219,201 nodes)."""
        want, nodes = list_mcs_mapping(g1, g2, 10**9)
        assert _mcs_mapping(g1, g2) == want
        for budget in set(range(1, min(nodes, 400) + 1)) | {max(nodes - 1, 1), nodes, nodes + 1}:
            if budget < nodes:
                with pytest.raises(BudgetExceeded):
                    _mcs_mapping(g1, g2, budget)
            else:
                assert _mcs_mapping(g1, g2, budget) == want

    @settings(max_examples=200, deadline=None)
    @given(small_args(20), small_args(5))
    def test_supergraph_sized_calls_match_list_search(self, g1, g2):
        """The model fold's supergraph calls pair a g1 of up to 20 vertices
        with a small prototype.  Under a capped budget (about one draw in
        ten needs more nodes) both searches raise, or both return the same
        mapping after the same number of nodes."""
        budget = 100
        try:
            want, nodes = list_mcs_mapping(g1, g2, budget)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                _mcs_mapping(g1, g2, budget)
            return
        assert _mcs_mapping(g1, g2, budget) == _mcs_mapping(g1, g2, nodes) == want
        if nodes > 1:
            with pytest.raises(BudgetExceeded):
                _mcs_mapping(g1, g2, nodes - 1)

    @settings(max_examples=300, deadline=None)
    @given(small_args(), small_args(), st.data())
    def test_association_equals_dense_matrix(self, g1, g2, data):
        """The set-up gives the dense oracle's pairs, compatibility rows and
        neighbour sets, on unrelated graphs and on a permuted copy; `sides`
        holds each vertex's pairs, the side with fewer vertices first."""
        if data.draw(st.booleans()):
            g2 = permuted(g1, data.draw(st.permutations(range(g1.size))))
        pairs, compat, nbr, sides = _association(g1, g2)
        want_pairs, want_compat, want_adjacent = dense_association(g1, g2)

        def bits(row):
            return sum(1 << int(j) for j in np.flatnonzero(row))

        assert pairs == want_pairs
        assert compat == [bits(row) for row in want_compat]
        assert nbr == [bits(row) for row in want_adjacent]
        of = [[bits([p[side] == v for p in pairs]) for v in range(g.size)]
              for side, g in enumerate((g1, g2))]
        assert sides == sorted(([m for m in of[0] if m], [m for m in of[1] if m]), key=len)

    def test_large_graph_set_up_memory_is_bounded(self):
        """A 60-vertex ring of one kind against itself has 3,600 vertex
        pairs; a pairs x pairs association array would take hundreds of MB
        before the budget could trip.  The size search behind the distance
        stops at the covering identity mapping (61 nodes) and returns."""
        n = 60
        g = Arg(["segment"] * n, [(i, (i + 1) % n, *EE) for i in range(n)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                max_common_subgraph(g, g, node_budget=1000)
            assert graph_distance(g, g, node_budget=1000) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def permuted(g, perm):
    """g with vertex i renumbered perm[i]: an isomorphic copy."""
    return Arg([k for _, k in sorted(zip(perm, g.kinds))],
               [(perm[a], perm[b], c, d) for a, b, c, d in g.edges])


def list_distance(g1, g2, node_budget=10**9):
    """1 - |mcs| / max(|g1|, |g2|) from the list search's mapping, and the
    nodes that search visits."""
    denom = max(g1.size, g2.size)
    mapping, nodes = list_mcs_mapping(g1, g2, node_budget)
    return (1.0 - len(mapping) / denom if denom else 0.0), nodes


class TestSizeSearch:
    """`graph_distance` and `model_distance` search for the size of a common
    subgraph alone, and read the distances of the mapping search."""

    @settings(max_examples=200, deadline=None)
    @given(small_args(6), small_args(6))
    def test_distance_equals_brute_force(self, g1, g2):
        denom = max(g1.size, g2.size)
        want = 1.0 - brute_mcs_size(g1, g2) / denom if denom else 0.0
        assert graph_distance(g1, g2) == want

    @settings(max_examples=100, deadline=None)
    @given(small_args(), small_args())
    def test_returns_wherever_the_mapping_search_does(self, g1, g2):
        """At every budget at which `_mcs_mapping` returns, the distance is
        its mapping's; below it, the distance raises or returns that value."""
        want, nodes = list_distance(g1, g2)
        for budget in set(range(1, min(nodes, 300) + 1)) | {max(nodes - 1, 1), nodes, nodes + 1}:
            try:
                got = graph_distance(g1, g2, budget)
            except BudgetExceeded:
                assert budget < nodes
                continue
            assert got == want

    @settings(max_examples=150, deadline=None)
    @given(small_args(5), st.lists(small_args(5), min_size=1, max_size=4), st.booleans(),
           st.integers(1, 300), st.data())
    def test_model_distance_is_least_mapping_distance(self, g, protos, use_bounds, budget, data):
        """Half the prototype lists hold an isomorphic copy of g, where the
        walk stops at 0.  Under a budget that every reference's mapping
        search meets the least distance is returned; under a smaller one it
        is returned or the search raises."""
        if data.draw(st.booleans()):
            copy = permuted(g, data.draw(st.permutations(range(g.size))))
            protos.insert(data.draw(st.integers(0, len(protos))), copy)
        model = generate_model(protos)
        refs = list(eager_fold_bounds(protos)) if use_bounds else protos
        scored = [list_distance(g, r) for r in refs]
        want = min(d for d, _ in scored)
        assert model_distance(g, model, use_bounds) == want
        try:
            got = model_distance(g, model, use_bounds, budget)
        except BudgetExceeded:
            assert budget < max(nodes for _, nodes in scored)
            return
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(small_args(5), st.lists(small_args(5), min_size=1, max_size=4), st.booleans())
    def test_no_isomorphic_reference_is_least_mapping_distance(self, g, protos, use_bounds):
        """Without an isomorphic reference the first step returns nothing,
        and the walk gives the least mapping distance, which is above 0."""
        refs = list(eager_fold_bounds(protos)) if use_bounds else protos
        assume(not any(brute_isomorphic(g, r) for r in refs))
        want = min(list_distance(g, r)[0] for r in refs)
        assert model_distance(g, generate_model(protos), use_bounds) == want > 0.0

    def test_isomorphic_prototype_scores_zero_before_any_search(self):
        """A permuted copy of the shape sits behind a prototype whose search
        trips the budget: the copy scores 0, and no search runs."""
        ring = Arg(["segment"] * 8, [(i, (i + 1) % 8, *EE) for i in range(8)])
        loose = Arg(["segment"] * 8, [])
        with pytest.raises(BudgetExceeded):
            graph_distance(ring, loose, node_budget=20)
        model = generate_model([loose, permuted(ring, [3, 4, 5, 6, 7, 0, 1, 2])])
        assert model_distance(ring, model, node_budget=20) == 0.0

    def test_match_that_trips_the_budget_is_left_to_the_search(self):
        """`edges_then_triangle` at eight edges: the match stops at the node
        budget and the reference goes to the size search, which raises
        where `graph_distance` does; a later isomorphic reference still
        scores 0."""
        k = 8
        tri, line = edges_then_triangle(k)
        assert tri.invariant == line.invariant
        with pytest.raises(BudgetExceeded):
            _matches(tri, line, node_budget=1000)
        with pytest.raises(BudgetExceeded):
            graph_distance(tri, line, node_budget=1000)
        with pytest.raises(BudgetExceeded):
            model_distance(tri, generate_model([line]), node_budget=1000)
        copy = permuted(tri, [v ^ 1 for v in range(2 * k)] + [2 * k + 1, 2 * k + 2, 2 * k, 2 * k + 3])
        assert model_distance(tri, generate_model([line, copy]), node_budget=1000) == 0.0

    def test_scoring_goes_through_graph_distance(self, monkeypatch):
        """With no isomorphic prototype, each prototype's distance is one
        `graph_distance` call, passed the least distance so far."""
        calls = []
        distance = graphs.graph_distance
        monkeypatch.setattr(graphs, "graph_distance",
                            lambda g1, g2, *rest: calls.append((g2, *rest)) or distance(g1, g2, *rest))
        protos = [path(["a", "b", "d"]), path(["a", "c"]), path(["b"])]
        g = path(["a", "b", "c"])
        assert model_distance(g, generate_model(protos)) == distance(g, protos[0])
        assert [c[0] for c in calls] == protos
        assert [c[2] for c in calls] == [math.inf, distance(g, protos[0]), distance(g, protos[0])]

    def test_searches_leave_no_cyclic_garbage(self):
        """Each search frees what it builds by reference counting, also when
        its budget trips, and no graph's cached search data refers back to
        its graph, so the collector finds nothing to collect after a fold's
        calls; a recursive closure left referring to itself held about
        1,000 objects a fold."""
        cached = [name for name, attr in vars(Arg).items() if isinstance(attr, cached_property)]

        def fold():
            ring = Arg(["segment"] * 8, [(i, (i + 1) % 8, *EE) for i in range(8)])
            line = path(["segment", "cycle", "segment", "segment"])
            copies = [permuted(ring, [3, 4, 5, 6, 7, 0, 1, 2]), permuted(ring, [1, 2, 3, 4, 5, 6, 7, 0])]
            model = generate_model([line, ring])
            graph_distance(ring, line)
            model_distance(ring, model)
            model_distance(ring, model, True)
            find_prototypes([ring, line, copies[0]])
            assert is_isomorphic(ring, copies[1])
            for search in (graph_distance, max_common_subgraph):
                try:
                    search(ring, ring, node_budget=5)
                except BudgetExceeded:
                    pass
            for g in (ring, line, *copies, *model.bounds):
                for name in cached:
                    getattr(g, name)

        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            fold()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

class TestGraphAssemblyOracle:
    @settings(max_examples=300, deadline=None)
    @given(small_args(6), small_args(6), st.data())
    def test_sub_and_supergraph_equal_old_assembly(self, g1, g2, data):
        """Edge lists in any order, as a parsed document may hold them."""
        g1 = Arg(g1.kinds, data.draw(st.permutations(g1.edges)))
        g2 = Arg(g2.kinds, data.draw(st.permutations(g2.edges)))
        mapping = _mcs_mapping(g1, g2)
        assert arg_to_json(max_common_subgraph(g1, g2)) == old_arg_to_json(
            probe_induced_subgraph(g1, [a for a, _ in mapping]))
        assert arg_to_json(min_common_supergraph(g1, g2)) == old_arg_to_json(
            glue_supergraph(g1, g2, mapping))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_args(5), min_size=1, max_size=4))
    def test_model_json_equals_round_trip(self, prototypes):
        model = generate_model(prototypes)
        assert model_to_json(model) == roundtrip_model_to_json(model)


class TestMinCommonSupergraph:
    def test_identity(self):
        g = path(["a", "b"])
        assert is_isomorphic(min_common_supergraph(g, g), g)

    def test_disjoint_union(self):
        g1 = path(["a", "a"])
        g2 = path(["b", "b"])
        m = min_common_supergraph(g1, g2)
        assert m.size == 4 and len(m.edges) == 2

    def test_glued_paths(self):
        g1 = path(["a", "b", "c"])
        g2 = path(["a", "b", "d"])
        m = min_common_supergraph(g1, g2)
        assert m.size == 4
        assert sorted(m.kinds) == ["a", "b", "c", "d"]
        assert len(m.edges) == 3
        assert can_embed(g1, m) and can_embed(g2, m)

    def test_size_identity_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g1, g2 = random_arg(rng), random_arg(rng)
            mcs = max_common_subgraph(g1, g2)
            mins = min_common_supergraph(g1, g2)
            assert mins.size == g1.size + g2.size - mcs.size
            assert can_embed(g1, mins) and can_embed(g2, mins)


class TestPrototypes:
    def relabeled(self, g, perm):
        inv = {old: new for new, old in enumerate(perm)}
        edges = [(inv[a], inv[b], c, d) for a, b, c, d in g.edges]
        return Arg([g.kinds[old] for old in perm], edges)

    def test_single_class(self):
        g = path(["a", "b"])
        protos = find_prototypes([g] * 5, min_support=2)
        assert len(protos) == 1

    def test_support_filter(self):
        x = path(["a", "b"])
        y = path(["c", "c"])
        protos = find_prototypes([x, x, x, y], min_support=2)
        assert len(protos) == 1 and is_isomorphic(protos[0], x)

    def test_relabeled_copies_grouped(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            g = random_arg(rng, max_vertices=5)
            if g.size < 2:
                continue
            perm = list(rng.permutation(g.size))
            h = self.relabeled(g, perm)
            assert brute_isomorphic(g, h)
            assert is_isomorphic(g, h)
            protos = find_prototypes([g, h], min_support=2)
            assert len(protos) == 1

    def test_isomorphism_agrees_with_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            g1 = random_arg(rng, max_vertices=4)
            g2 = random_arg(rng, max_vertices=4)
            assert is_isomorphic(g1, g2) == brute_isomorphic(g1, g2)

    @settings(max_examples=300, deadline=None)
    @given(small_args(6), st.data())
    def test_equal_invariants_agree_with_brute_force(self, g, data):
        """A copy with the same kinds and edge attributes, its edges moved
        to other vertex pairs, is isomorphic or not as the brute force says."""
        links = [(a, b) for a in range(g.size) for b in range(a + 1, g.size)]
        ends = data.draw(st.permutations(links))[:len(g.edges)]
        h = Arg(g.kinds, [(a, b, *e[2:]) for (a, b), e in zip(ends, g.edges)])
        assert h.invariant == g.invariant
        assert is_isomorphic(g, h) == brute_isomorphic(g, h)

    def test_isolated_vertices_before_a_failing_edge(self):
        """Thirty isolated vertices numbered before a triangle, against a
        path of three edges: equal invariants and no isomorphism.  The
        match places vertices with edges first, so it fails before it
        tries the isolated vertices' 30! orders."""
        k, n = 30, 33
        tri = Arg(["segment"] * n, [(k, k + 1, *EE), (k + 1, k + 2, *EE), (k, k + 2, *EE)])
        line = Arg(["segment"] * n, [(k - 1, k, *EE), (k, k + 1, *EE), (k + 1, k + 2, *EE)])
        assert tri.invariant == line.invariant
        assert not is_isomorphic(tri, line) and not is_isomorphic(line, tri)
        assert len(find_prototypes([tri, line, tri])) == 2

    def test_failing_match_trips_the_node_budget(self):
        """`edges_then_triangle` at eight edges, which takes minutes with no
        budget: grouping and the isomorphism test stop at the node budget."""
        tri, line = edges_then_triangle(8)
        with pytest.raises(BudgetExceeded, match="exceeded 1000 placements"):
            find_prototypes([tri, line], node_budget=1000)
        with pytest.raises(BudgetExceeded, match="exceeded 1000 placements"):
            is_isomorphic(tri, line, node_budget=1000)

    def test_frequency_order(self):
        x = path(["a", "b"])
        y = path(["c", "c"])
        protos = find_prototypes([y, x, x], min_support=1)
        assert is_isomorphic(protos[0], x)  # most frequent first

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_args(4), max_size=12), st.data(), st.integers(1, 3))
    def test_same_prototypes_as_linear_scan(self, graphs, data, min_support):
        """Relabelled copies make the isomorphism classes hold more than one
        graph; the representatives and their order match the scan's."""
        copies = [self.relabeled(g, data.draw(st.permutations(range(g.size)))) for g in graphs]
        args = data.draw(st.permutations(graphs + copies))
        got = find_prototypes(args, min_support)
        assert [id(g) for g in got] == [id(g) for g in scan_prototypes(args, min_support)]


def bridge_variants():
    """Deck + two road rectangles; some training shapes add a ramp."""
    base = Arg(
        ["rectangle"] * 3,
        [(0, 1, "end-to-end", "E"), (1, 2, "end-to-end", "E")],
    )
    ramp = Arg(
        ["rectangle"] * 4,
        [
            (0, 1, "end-to-end", "E"),
            (1, 2, "end-to-end", "E"),
            (2, 3, "end-to-side", "NE"),
        ],
    )
    return base, ramp


class TestGenerateModel:
    def test_single_prototype(self):
        g = path(["a", "b", "c"])
        model = generate_model([g])
        assert is_isomorphic(model.bounds[0], g)
        assert is_isomorphic(model.bounds[1], g)

    def test_two_identical(self):
        g = path(["a", "b"])
        model = generate_model([g, g])
        assert is_isomorphic(model.bounds[0], g) and is_isomorphic(model.bounds[1], g)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            generate_model([])

    def test_bridge_corpus_bounds(self):
        base, ramp = bridge_variants()
        model = generate_model([base, base, ramp])
        assert model.bounds[0].size == 3  # the three-rectangle chain
        assert model.bounds[1].size == 4  # plus the ramp vertex
        for proto in model.prototypes:
            assert can_embed(model.bounds[0], proto)
            assert can_embed(proto, model.bounds[1])


class TestLazyBounds:
    """A model folds its bounds on their first read, never in `generate_model`."""

    @staticmethod
    def refuse_folds(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bounds were folded")

        monkeypatch.setattr(graphs, "max_common_subgraph", refuse)
        monkeypatch.setattr(graphs, "min_common_supergraph", refuse)

    def test_generate_model_folds_nothing(self, monkeypatch):
        self.refuse_folds(monkeypatch)
        base, ramp = bridge_variants()
        model = generate_model([base, base, ramp])
        assert model_distance(ramp, model) == 0.0
        with pytest.raises(AssertionError, match="folded"):
            model.bounds

    def test_model_from_json_folds_nothing(self, monkeypatch):
        base, ramp = bridge_variants()
        text = model_to_json(generate_model([base, ramp]))
        self.refuse_folds(monkeypatch)
        assert model_to_json(model_from_json(text)) == text

    def test_budget_trips_on_first_read(self):
        g = path(["a"] * 5)
        model = generate_model([g, g], node_budget=3)
        assert model.prototypes == [g, g]
        with pytest.raises(BudgetExceeded):
            model.bounds
        with pytest.raises(BudgetExceeded):  # a failed fold is not kept
            model.bounds

    def test_empty_prototypes(self):
        with pytest.raises(EmptyInput):
            ObjectModel([]).bounds

    def test_empty_model_document_is_format_error(self):
        one = json.loads(arg_to_json(path(["a"])))
        with pytest.raises(FormatError, match="at least one prototype"):
            model_from_json(json.dumps({"max_csg": one, "min_csg": one, "prototypes": []}))

    def test_folded_once(self, monkeypatch):
        calls = []
        fold = graphs.max_common_subgraph
        monkeypatch.setattr(graphs, "max_common_subgraph",
                            lambda *a: calls.append(1) or fold(*a))
        model = generate_model([path(["a", "b"]), path(["a", "c"])])
        assert model.bounds is model.bounds
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_args(5), min_size=1, max_size=4))
    def test_bounds_equal_eager_fold(self, prototypes):
        lo, hi = eager_fold_bounds(prototypes)
        model = generate_model(prototypes)
        assert [arg_to_json(b) for b in model.bounds] == [arg_to_json(lo), arg_to_json(hi)]


class TestModelDistance:
    def test_isomorphic_is_zero(self):
        g = path(["a", "b", "c"])
        model = generate_model([g])
        assert model_distance(g, model) == 0.0

    def test_kind_disjoint_is_one(self):
        model = generate_model([path(["a", "b"])])
        assert model_distance(path(["z", "z"]), model) == 1.0

    def test_third(self):
        model = generate_model([path(["a", "b", "d"])])
        assert model_distance(path(["a", "b", "c"]), model) == pytest.approx(1 / 3)

    def test_empty_graph_distance_one(self):
        model = generate_model([path(["a", "b"])])
        assert model_distance(Arg([], []), model) == 1.0

    def test_bounds_flag(self):
        base, ramp = bridge_variants()
        model = generate_model([base, ramp])
        d_proto = model_distance(ramp, model)
        d_bounds = model_distance(ramp, model, use_bounds=True)
        assert d_proto == 0.0
        assert d_bounds == pytest.approx(min(graph_distance(ramp, b) for b in model.bounds))

    def test_training_distance_bounded_by_max_csg_ratio(self):
        base, ramp = bridge_variants()
        model = generate_model([base, base, ramp])
        biggest = max(p.size for p in model.prototypes)
        bound = 1 - model.bounds[0].size / biggest
        for g in (base, ramp):
            assert model_distance(g, model) <= bound + 1e-12

    def test_model_json_roundtrip(self):
        base, ramp = bridge_variants()
        model = generate_model([base, ramp])
        back = model_from_json(model_to_json(model))
        assert all(map(is_isomorphic, back.bounds, model.bounds))
        assert len(back.prototypes) == 2


class TestMetricProperties:
    def test_bunke_metric(self):
        rng = np.random.default_rng(2024)
        graphs = [random_arg(rng) for _ in range(30)]
        for g in graphs[:10]:
            assert graph_distance(g, g) == 0.0
        for _ in range(60):
            a, b, c = (graphs[int(rng.integers(0, len(graphs)))] for _ in range(3))
            dab = graph_distance(a, b)
            dba = graph_distance(b, a)
            dac = graph_distance(a, c)
            dcb = graph_distance(c, b)
            assert dab == pytest.approx(dba)
            assert 0.0 <= dab <= 1.0
            assert dab <= dac + dcb + 1e-12  # triangle inequality


# JSON values: scalars (small ints often, so ids can be valid; numbers no
# float or int can hold), lists, objects
_leaf = (st.none() | st.booleans() | st.integers(-1, 3) | st.integers() | st.floats()
         | st.sampled_from([math.inf, 10**400]) | st.text(max_size=3))
_any = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def _doc(**keys):
    """An object with every key well typed, or with each key present or not
    and of any value, or any JSON value: documents land on both sides of
    every check."""
    mixed = st.fixed_dictionaries({}, optional={k: v | _any for k, v in keys.items()})
    return st.fixed_dictionaries(keys) | mixed | _any


_point = st.lists(st.integers(-2, 9) | st.floats(), min_size=2, max_size=2) | _any
_edge_set = _doc(
    width=st.integers(1, 16), height=st.integers(1, 16),
    chains=st.lists(_doc(closed=st.booleans(), points=st.lists(_point, max_size=4)), max_size=3),
)
_arg = _doc(
    vertices=st.lists(_doc(id=st.integers(0, 3), kind=st.sampled_from(["circle", "segment"])),
                      max_size=4),
    edges=st.lists(_doc(**{"from": st.integers(0, 3), "to": st.integers(0, 3),
                           "conn": st.just("overlap"), "dir": st.just("E")}), max_size=3),
)
_model = _doc(max_csg=_arg, min_csg=_arg, prototypes=st.lists(_arg, max_size=2))


class TestArgIds:
    """Vertex ids and edge ends are JSON integers: a float, a boolean or a
    numeric string is not truncated or read as one."""

    @pytest.mark.parametrize("vertex, edge", [
        ({"id": 0.9}, None), ({"id": 0.0}, None), ({"id": "0"}, None),
        ({"id": 0}, {"from": 0, "to": 1.5}), ({"id": 0}, {"from": "0", "to": 1}),
        ({"id": 0}, {"from": 0.0, "to": 1}), ({"id": False}, None),
        ({"id": 0}, {"from": False, "to": True}),
    ])
    def test_non_integer_is_format_error(self, vertex, edge):
        doc = {"vertices": [{**vertex, "kind": "circle"}, {"id": 1, "kind": "segment"}],
               "edges": [{**edge, "conn": "overlap", "dir": "E"}] if edge else []}
        with pytest.raises(FormatError):
            arg_from_json(json.dumps(doc))

    def test_integers_build(self):
        doc = {"vertices": [{"id": 0, "kind": "circle"}, {"id": 1, "kind": "segment"}],
               "edges": [{"from": 1, "to": 0, "conn": "overlap", "dir": "E"}]}
        assert arg_from_json(json.dumps(doc)).edges == ((0, 1, "overlap", "E"),)


class TestArgAttributes:
    """A vertex kind is a JSON string, and an edge's connection and
    direction are among `CONNECTION_KINDS` and `DIRECTION_BINS`: no other
    value is turned into a string."""

    @pytest.mark.parametrize("vertex, edge", [
        ({"kind": 5}, {}), ({"kind": None}, {}), ({}, {"conn": [1]}),
        ({}, {"conn": "touch"}), ({}, {"dir": "W"}), ({}, {"dir": 0}),
    ])
    def test_other_values_are_format_errors(self, vertex, edge):
        doc = {"vertices": [{"id": 0, "kind": "circle", **vertex}, {"id": 1, "kind": "segment"}],
               "edges": [{"from": 0, "to": 1, "conn": "overlap", "dir": "E", **edge}]}
        with pytest.raises(FormatError):
            arg_from_json(json.dumps(doc))

    def test_every_connection_and_direction_builds(self):
        for c in CONNECTION_KINDS:
            for d in DIRECTION_BINS:
                doc = {"vertices": [{"id": 0, "kind": "circle"}, {"id": 1, "kind": "segment"}],
                       "edges": [{"from": 0, "to": 1, "conn": c, "dir": d}]}
                assert arg_from_json(json.dumps(doc)).edges == ((0, 1, c, d),)


class TestEdgeChainClosed:
    """A chain's `closed` is a JSON boolean: no other value reads as one."""

    @pytest.mark.parametrize("closed", ['"no"', "0.0", "1", "null", "[]"])
    def test_other_values_are_format_errors(self, closed):
        text = ('{"width": 8, "height": 8, "chains": [{"closed": %s, '
                '"points": [[1, 1], [4, 1], [4, 4]]}]}' % closed)
        with pytest.raises(FormatError, match="closed"):
            edges.from_json(text)

    @pytest.mark.parametrize("width, height", [("true", "true"), ("8", "true"), ("false", "8")])
    def test_boolean_frame_is_format_error(self, width, height):
        """A JSON boolean is no frame size, though Python reads it as 0 or 1."""
        text = '{"width": %s, "height": %s, "chains": []}' % (width, height)
        with pytest.raises(FormatError, match="boolean"):
            edges.from_json(text)


class TestJsonFuzz:
    """ROADMAP 5c: any JSON value (or any text) either builds or raises FormatError."""

    @pytest.mark.parametrize(
        "parse, docs, built",
        [(edges.from_json, _edge_set, edges.EdgeSet),
         (arg_from_json, _arg, Arg),
         (model_from_json, _model, ObjectModel)],
        ids=["edges", "arg", "model"],
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_builds_or_format_error(self, parse, docs, built, data):
        text = data.draw(docs.map(json.dumps) | st.text(max_size=12))
        try:
            assert isinstance(parse(text), built)
        except FormatError:
            pass
