import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg.edges import (
    EdgeChain,
    EdgeSet,
    _merge_chains,
    _smooth_chain,
    _sobel_pair,
    _trace_chains,
    canny,
    from_json,
    rasterize,
    refine_edges,
    to_json,
)
from cartoseg.pipeline import PipelineConfig
from cartoseg.raster import FormatError, ScalarImage
from oracles import (
    bresenham_rasterize,
    dense_merge_chains,
    loop_smooth_chain,
    m_adjacent,
    pointwise_canny,
    pointwise_sobel,
    set_trace_chains,
)


def step_image(w=32, h=32, col=16, lo=0, hi=255):
    data = np.full((h, w), lo, dtype=np.float64)
    data[:, col:] = hi
    return ScalarImage(data)


def chain(pts):
    return EdgeChain(np.array(pts, dtype=np.float64))


class TestChainTypes:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            EdgeChain(np.array([[1.0, 2.0]]))

    def test_arc_length(self):
        c = chain([(0, 0), (3, 4)])
        assert c.arc_length() == pytest.approx(5.0)
        ring = chain([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
        assert ring.arc_length() == pytest.approx(4.0)


class TestCanny:
    def test_constant_image_no_edges(self):
        es = canny(ScalarImage(np.full((16, 16), 33.0)))
        assert es.chains == []

    def test_vertical_step_single_chain(self):
        es = canny(step_image(col=16))
        assert len(es.chains) == 1
        pts = es.chains[0].points
        xs = pts[:, 0]
        ys = pts[:, 1]
        # ideal step between columns 15 and 16: gradient peaks at 15.5
        assert np.all(np.abs(xs - 15.5) <= 1.0)
        assert ys.max() - ys.min() >= 27  # spans nearly all 32 rows

    def test_two_parallel_steps_two_chains(self):
        data = np.zeros((32, 32))
        data[:, 12:22] = 255.0  # steps at 11.5 and 21.5, 10 px apart
        es = canny(ScalarImage(data))
        assert len(es.chains) == 2
        for c in es.chains:
            xs = c.points[:, 0]
            near_left = np.abs(xs - 11.5) <= 1.0
            near_right = np.abs(xs - 21.5) <= 1.0
            assert near_left.all() or near_right.all()  # no chain crosses over

    def test_points_have_supporting_gradient(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0, 255, (24, 24))
        img = ScalarImage(data)
        es = canny(img, sigma=1.0)
        # recompute the smoothed gradient magnitude like the detector does
        from cartoseg.edges import _gaussian_blur, _sobel_pair

        gx, gy = _sobel_pair(_gaussian_blur(data, 1.0))
        mag = np.hypot(gx, gy)
        nz = mag[mag > 0]
        low = 0.4 * float(np.percentile(nz, 95.0))  # canny's default thresholds
        for c in es.chains:
            for x, y in c.points:
                assert mag[int(round(y)), int(round(x))] >= low - 1e-9

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            canny(step_image(), sigma=0.0)

    def test_default_thresholds_are_the_pipelines(self):
        """The library defaults and the pipeline defaults detect one edge set."""
        rng = np.random.default_rng(7)
        img = ScalarImage(rng.uniform(0, 255, (24, 24)))
        cfg = PipelineConfig()
        want = canny(img, cfg.canny_sigma, cfg.canny_high_percentile, cfg.canny_low_fraction)
        assert to_json(canny(img)) == to_json(want)

    def test_isolated_pixels_give_no_chain(self):
        """Hysteresis keeps pixels of this frame, none of them adjacent."""
        assert canny(ScalarImage(np.array([[136, 91, 172, 146]], dtype=np.uint8))).chains == []


def trace(bits):
    """`_trace_chains` of a pixel set given as (y, x) pairs, as (y, x) paths."""
    final = np.zeros((8, 8), dtype=bool)
    for y, x in bits:
        final[y, x] = True
    return traced_pixels(final)


def traced_pixels(final):
    ys, xs = np.nonzero(final)
    return [[(int(ys[k]), int(xs[k])) for k in path] for path in _trace_chains(final)]


_frames = arrays(bool, st.tuples(st.integers(1, 16), st.integers(1, 16)),
                 elements=st.booleans(), fill=st.nothing())


class TestTraceChains:
    """Mutants these kill: `n > t` flipped or dropped, and the cycle's
    first pixel not marked before its walk."""

    DIAMOND = [(0, 1), (1, 0), (1, 2), (2, 1)]  # every pixel has degree 2

    def test_ring_is_one_open_path_back_to_its_start(self):
        assert trace(self.DIAMOND) == [[(0, 1), (1, 2), (2, 1), (1, 0), (0, 1)]]

    def test_loop_hanging_off_a_terminal(self):
        assert trace(self.DIAMOND + [(3, 1)]) == [
            [(2, 1), (1, 2), (0, 1), (1, 0), (2, 1)],
            [(2, 1), (3, 1)],
        ]

    def test_adjacent_terminals_share_one_path(self):
        assert trace([(0, 0), (0, 1)]) == [[(0, 0), (0, 1)]]

    def test_two_by_two_block_is_one_ring(self):
        """The diagonals are shortcuts of the block's sides, so each pixel
        has degree 2."""
        assert trace([(0, 0), (0, 1), (1, 0), (1, 1)]) == [[(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]]

    def test_four_connected_staircase_is_one_path(self):
        """Plain 8-adjacency gives each corner pixel degree 3 and cuts this
        staircase into 11 paths."""
        stairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
        assert trace(stairs) == [stairs]

    def test_isolated_pixels_and_empty_frame_give_no_path(self):
        assert trace([(0, 0), (0, 2), (5, 5)]) == []
        assert trace([]) == []
        assert _trace_chains(np.zeros((0, 3), dtype=bool)) == []

    @settings(max_examples=300, deadline=None)
    @given(_frames)
    def test_equals_pixel_set_oracle(self, final):
        assert traced_pixels(final) == set_trace_chains(final)

    @settings(max_examples=300, deadline=None)
    @given(_frames)
    def test_paths_cover_linked_pixels_by_m_adjacent_steps(self, final):
        pixels = {(int(y), int(x)) for y, x in zip(*np.nonzero(final))}
        paths = traced_pixels(final)
        on_path = {p for path in paths for p in path}
        for y, x in pixels:
            has_neighbor = any((y + dy, x + dx) in pixels
                               for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)
            assert ((y, x) in on_path) == has_neighbor
        for path in paths:
            assert all(m_adjacent(pixels, p, q) for p, q in zip(path, path[1:]))


class TestRefineEdges:
    def test_lone_chain_smoothed_interior(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0)]
        es = EdgeSet([chain(pts)], 16, 16)
        out = refine_edges(es, merge_dist=2.0, min_len=0.0, smooth_window=3)
        assert len(out.chains) == 1
        got = out.chains[0].points
        assert tuple(got[0]) == pts[0] and tuple(got[-1]) == pts[-1]  # endpoints fixed
        assert got[2][1] == pytest.approx((1.0 + 0.0 + 1.0) / 3)

    def test_collinear_merge(self):
        a = chain([(0, 0), (4, 0)])
        b = chain([(6, 0), (10, 0)])
        out = refine_edges(EdgeSet([a, b], 16, 16), merge_dist=3.0, min_len=0.0, smooth_window=1)
        assert len(out.chains) == 1
        xs = out.chains[0].points[:, 0]
        assert sorted(xs) == list(xs) or sorted(xs, reverse=True) == list(xs)

    def test_short_chain_pruned(self):
        jitter = chain([(0, 0), (1, 0.5), (2, 0), (3, 0.5)])  # arc length ~ 4
        out = refine_edges(EdgeSet([jitter], 8, 8), merge_dist=0.0, min_len=10.0, smooth_window=1)
        assert out.chains == []

    def test_merge_before_prune(self):
        # two short fragments that only survive if merged first
        a = chain([(0, 0), (6, 0)])
        b = chain([(8, 0), (14, 0)])
        out = refine_edges(EdgeSet([a, b], 20, 20), merge_dist=3.0, min_len=10.0, smooth_window=1)
        assert len(out.chains) == 1

    def test_never_increases_chain_count_and_length_bound(self):
        rng = np.random.default_rng(3)
        chains = []
        for _ in range(8):
            start = rng.uniform(0, 28, 2)
            step = rng.uniform(-1, 1, (5, 2))
            pts = np.cumsum(np.vstack([start, step]), axis=0)
            chains.append(EdgeChain(pts))
        es = EdgeSet(chains, 32, 32)
        merge_dist = 4.0
        out = refine_edges(es, merge_dist=merge_dist, min_len=0.0, smooth_window=1)
        assert len(out.chains) <= len(es.chains)
        merges = len(es.chains) - len(out.chains)
        total_in = sum(c.arc_length() for c in es.chains)
        total_out = sum(c.arc_length() for c in out.chains)
        assert total_out <= total_in + merges * merge_dist + 1e-9

    def test_merge_order_independent(self):
        chains = [
            chain([(0, 0), (5, 0)]),
            chain([(7, 0), (12, 0)]),
            chain([(13.5, 0), (18, 0)]),
        ]
        a = refine_edges(EdgeSet(list(chains), 32, 32), 3.0, 0.0, 1)
        b = refine_edges(EdgeSet(list(reversed(chains)), 32, 32), 3.0, 0.0, 1)

        def canon(es):
            out = []
            for c in es.chains:
                fwd = tuple(map(tuple, c.points))
                rev = tuple(map(tuple, c.points[::-1]))
                out.append(min(fwd, rev))  # chains are undirected polylines
            return sorted(out)

        assert canon(a) == canon(b)

    @pytest.mark.parametrize("knob", ["merge_dist", "min_len"])
    def test_nan_rejected(self, knob):
        es = EdgeSet([chain([(0, 0), (4, 0)]), chain([(5, 0), (9, 0)])], 16, 16)
        with pytest.raises(ValueError):
            refine_edges(es, **{knob: math.nan})

    def test_merge_memory_linear_in_chain_count(self):
        # 4000 endpoints: an n x n x 2 float64 difference array alone is 256 MB
        rng = np.random.default_rng(5)
        starts = rng.uniform(0, 256, (2000, 2))
        ends = starts + rng.uniform(-2, 2, (2000, 2))
        es = EdgeSet([EdgeChain(np.stack([a, b])) for a, b in zip(starts, ends)], 256, 256)
        tracemalloc.start()
        try:
            out = refine_edges(es, merge_dist=3.0, min_len=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.chains) < 2000  # some chains did merge
        assert peak < 32 * 2**20


# endpoints on a 0.5 px lattice, so exact distance and coordinate ties abound
_lattice_point = st.tuples(st.integers(-4, 40), st.integers(-4, 40))
_chains = st.lists(st.lists(_lattice_point, min_size=2, max_size=4), max_size=16)


class TestMergeChains:
    @settings(max_examples=300, deadline=None)
    @given(_chains, st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5, math.inf]))
    def test_equals_dense_oracle(self, drawn, merge_dist):
        chains = [chain(np.array(pts) / 2.0) for pts in drawn]
        got = _merge_chains(chains, merge_dist)
        want = dense_merge_chains(chains, merge_dist)
        assert len(got) == len(want)
        for c, points in zip(got, want):
            assert np.array_equal(c.points, points)

    def test_merged_chains_follow_unmerged_ones(self):
        """Kills `sorted(points)` over the head-endpoint keys, which would
        put the merged chain, keyed 0, before the unmerged one, keyed 4."""
        a, b, c = chain([(0, 0), (4, 0)]), chain([(5, 0), (9, 0)]), chain([(0, 20), (4, 20)])
        got = _merge_chains([a, b, c], 3.0)
        assert [g.points.tolist() for g in got] == [
            [[0, 20], [4, 20]],
            [[0, 0], [4, 0], [5, 0], [9, 0]],
        ]


class TestChainStepInvariant:
    def test_consecutive_points_stay_close_after_refinement(self):
        rng = np.random.default_rng(41)
        data = np.full((48, 48), 40.0) + rng.normal(0, 2, (48, 48))
        data[16:32, 16:32] = 200.0
        merge_dist = 3.0
        es = refine_edges(canny(ScalarImage(data)), merge_dist=merge_dist, min_len=0.0)
        bound = np.sqrt(2.0) + merge_dist
        for c in es.chains:
            steps = np.hypot(*np.diff(c.points, axis=0).T)
            assert (steps <= bound + 1e-9).all()


class TestRasterizeAndJson:
    def test_rasterize_line(self):
        es = EdgeSet([chain([(1, 1), (5, 1)])], 8, 8)
        bits = rasterize(es).bits
        assert bits[1, 1:6].all()
        assert bits.sum() == 5

    def test_closed_ring_reads_open(self):
        """A `"closed": true` chain reads as the open chain back to its first
        point, which draws the whole square, closing side included."""
        es = from_json('{"width": 8, "height": 8, "chains": [{"closed": true, '
                       '"points": [[1, 1], [4, 1], [4, 4], [1, 4]]}]}')
        assert es.chains[0].points.tolist() == [[1, 1], [4, 1], [4, 4], [1, 4], [1, 1]]
        want = np.zeros((8, 8), dtype=bool)
        want[1:5, 1:5] = True
        want[2:4, 2:4] = False
        assert np.array_equal(rasterize(es).bits, want)

    def test_out_of_frame_clipped(self):
        es = EdgeSet([chain([(-3, 0), (3, 0)])], 4, 4)
        bits = rasterize(es).bits
        assert bits[0, 0:4].all()

    def test_json_roundtrip(self):
        es = EdgeSet([chain([(1.25, 2.5), (3.75, 4.0)]), chain([(0, 0), (1, 1), (0, 2), (0, 0)])], 10, 12)
        text = to_json(es)
        assert '"closed": true' not in text and text.count('"closed": false') == 2
        back = from_json(text)
        assert (back.width, back.height) == (10, 12)
        assert len(back.chains) == 2
        for c, b in zip(es.chains, back.chains):
            assert np.array_equal(b.points, c.points)


# chains on a 0.25 px lattice around frames of 1 to 12 px, with points
# negative, outside the frame and exactly halfway between pixels; steps are
# mostly at most 3 px, where one pixel more or less in a line shows, and
# half the chains are rings back to their first point.  The test clips the
# points to the bound `rasterize` accepts, one frame outside.
_quarter = st.integers(-24, 64)
_step = st.integers(-12, 12) | st.integers(-80, 80)
_raster_chains = st.lists(
    st.tuples(
        st.tuples(_quarter, _quarter),
        st.lists(st.tuples(_step, _step), min_size=1, max_size=5),
        st.booleans(),
    ),
    max_size=6,
)


class TestRasterizeOracle:
    @settings(max_examples=300, deadline=None)
    @given(_raster_chains, st.integers(1, 12), st.integers(1, 12))
    def test_equals_bresenham_per_segment(self, drawn, width, height):
        lo, hi = -4 * np.array([width, height]), 8 * np.array([width, height])
        paths = [np.clip(np.cumsum([start, *steps], axis=0), lo, hi) / 4.0
                 for start, steps, _ in drawn]
        chains = [chain(np.vstack([p, p[:1]]) if ring else p)
                  for p, (_, _, ring) in zip(paths, drawn)]
        got = rasterize(EdgeSet(chains, width, height)).bits
        assert np.array_equal(got, bresenham_rasterize(chains, width, height))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e9])
    def test_non_finite_point_rejected(self, bad):
        """Also a finite point more than a frame outside the 4 x 4 frame."""
        es = EdgeSet([chain([(0, 0), (2, 2)]), chain([(bad, 1), (bad, 1)])], 4, 4)
        with pytest.raises(ValueError):
            rasterize(es)


class TestCannyOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 14), st.integers(1, 14))),
        st.sampled_from([0.6, 1.2]),
        st.sampled_from([0.0, 0.4]),  # 0.0 lets flat, unsuppressed pixels in
    )
    def test_equals_pointwise_subpixel_loop(self, data, sigma, low_fraction):
        got = canny(ScalarImage(data), sigma=sigma, low_fraction=low_fraction).chains
        want = pointwise_canny(ScalarImage(data), sigma=sigma, low_fraction=low_fraction)
        assert len(got) == len(want)
        for c, points in zip(got, want):
            assert c.points.tobytes() == points.tobytes()


class TestSobelOracle:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.floats(-1e6, 1e6)))
    def test_equals_pointwise_replicated_border(self, data):
        gx, gy = _sobel_pair(data)
        want_x, want_y = pointwise_sobel(data)
        assert np.array_equal(gx, want_x) and np.array_equal(gy, want_y)


class TestSmoothChainOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: arrays(
               np.float64, (n, 2), elements=st.floats(-1e9, 1e9))),
           st.integers(1, 7))
    def test_equals_per_point_window(self, pts, window):
        """Mixed magnitudes make any other order of the additions show."""
        got = _smooth_chain(EdgeChain(pts), window)
        assert np.array_equal(got.points, loop_smooth_chain(pts, window))


class TestJsonPointBounds:
    @pytest.mark.parametrize(
        "point",
        ["NaN, 1", "1, Infinity", "-Infinity, 1", "1e12, 1", "-9, 1", "17, 1", "1, -13", "1, 25"],
    )
    def test_far_or_non_finite_point_is_format_error(self, point):
        """The frame is 8 x 12, so x may run from -8 to 16 and y from -12 to 24."""
        text = ('{"width": 8, "height": 12, "chains": [{"closed": false, '
                f'"points": [[1.0, 1.0], [{point}]]}}]}}')
        with pytest.raises(FormatError):
            from_json(text)

    def test_fractional_frame_is_format_error(self):
        """And a frame smaller than one pixel, which no raster can hold."""
        for frame in ('"width": 8.7, "height": 8', '"width": -3, "height": 0', '"width": 8, "height": 0'):
            with pytest.raises(FormatError):
                from_json(f'{{{frame}, "chains": []}}')

    def test_one_frame_outside_accepted(self):
        es = EdgeSet([chain([(-8, -12), (16, 24)])], 8, 12)
        back = from_json(to_json(es))
        assert np.array_equal(back.chains[0].points, es.chains[0].points)
