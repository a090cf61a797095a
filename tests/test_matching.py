import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg.edges import EdgeChain, EdgeSet, rasterize
from cartoseg.matching import match_mask
from cartoseg.morph import EmptyMask, StructuringElement, dilate
from cartoseg.raster import BinaryMask, ScalarImage
from oracles import naive_masked_variance, naive_match_scores


def chain(pts):
    return EdgeChain(np.array(pts, dtype=np.float64))


def mask_at(shape, coords):
    bits = np.zeros(shape, dtype=bool)
    for y, x in coords:
        bits[y, x] = True
    return BinaryMask(bits)


SQ1 = StructuringElement("square", 1)


class TestBasics:
    def test_empty_mask_raises(self):
        es = EdgeSet([chain([(1, 1), (2, 2)])], 8, 8)
        with pytest.raises(EmptyMask):
            match_mask(BinaryMask(np.zeros((8, 8), dtype=bool)), es, ScalarImage(np.zeros((8, 8))))

    def test_empty_edges_warns_null_offset(self):
        mask = mask_at((8, 8), [(4, 4)])
        res = match_mask(mask, EdgeSet([], 8, 8), ScalarImage(np.zeros((8, 8))), half_window=3)
        assert res.offset == (0, 0) and res.score == 0
        assert res.warning is not None

    def test_negative_half_window_raises(self):
        mask = mask_at((16, 16), [(8, 8)])
        es = EdgeSet([chain([(1, 1), (5, 1)])], 16, 16)
        with pytest.raises(ValueError, match="half_window must be non-negative"):
            match_mask(mask, es, ScalarImage(np.zeros((16, 16))), half_window=-1)

    def test_dimension_mismatch(self):
        mask = mask_at((8, 8), [(4, 4)])
        es = EdgeSet([chain([(1, 1), (2, 2)])], 8, 8)
        with pytest.raises(ValueError):
            match_mask(mask, es, ScalarImage(np.zeros((9, 8))))

    def test_edges_inside_at_origin(self):
        # a plus of edge pixels fills the dilated mask extent in both axes,
        # so every shifted placement drops at least one edge pixel
        mask = mask_at((17, 17), [(8, 8)])
        es = EdgeSet(
            [chain([(8, 7), (8, 9)]), chain([(7, 8), (9, 8)])], 17, 17
        )
        pan = ScalarImage(np.zeros((17, 17)))
        res = match_mask(mask, es, pan, half_window=4, se=SQ1)
        assert res.offset == (0, 0)
        assert res.score == 5


class TestDisplacedScene:
    def test_recovers_injected_offset_with_recount_oracle(self):
        # object: bright square; edge box around it; everything displaced (3, -2)
        rng = np.random.default_rng(5)
        h = w = 48
        dx, dy = 3, -2
        pan = np.full((h, w), 60.0) + rng.normal(0, 1, (h, w))
        y0, x0 = 20 + dy, 20 + dx
        pan[y0 : y0 + 9, x0 : x0 + 9] = 180.0
        # edge chains: the displaced square's boundary
        top = chain([(x0, y0), (x0 + 8, y0)])
        bottom = chain([(x0, y0 + 8), (x0 + 8, y0 + 8)])
        left = chain([(x0, y0), (x0, y0 + 8)])
        right = chain([(x0 + 8, y0), (x0 + 8, y0 + 8)])
        es = EdgeSet([top, bottom, left, right], w, h)
        bits = np.zeros((h, w), dtype=bool)
        bits[20:29, 20:29] = True  # centered mask (undisplaced)
        mask = BinaryMask(bits)
        res = match_mask(mask, es, ScalarImage(pan), half_window=10, se=SQ1)
        assert res.offset == (dx, dy)
        # exhaustive recount oracle agrees on the best score and offset
        scores = naive_match_scores(rasterize(es).bits, dilate(mask, SQ1).bits, 10)
        assert res.score == scores[res.offset] == max(scores.values())

    def test_search_covers_full_window(self):
        mask = mask_at((15, 15), [(7, 7)])
        es = EdgeSet([chain([(7, 7), (7, 8)])], 15, 15)
        pan = ScalarImage(np.zeros((15, 15)))
        scores = naive_match_scores(rasterize(es).bits, dilate(mask, SQ1).bits, 2)
        assert len(scores) == 25  # (2*hw+1)^2 candidates


class TestWindowBeyondFrame:
    def test_one_result_in_bounded_memory(self):
        """Offsets of a frame or more score 0, so every window that reaches
        past the frame gives one result, in memory that does not grow with it."""
        h, w = 9, 21
        mask = mask_at((h, w), [(4, 1), (5, 1)])
        es = EdgeSet([chain([(19, 2), (19, 6)]), chain([(3, 8), (6, 8)])], w, h)
        pan = ScalarImage(np.random.default_rng(3).normal(50.0, 5.0, (h, w)))
        want = match_mask(mask, es, pan, half_window=w - 1, se=SQ1)
        assert want.offset[0] >= 17 and (want.score, want.tie_count) == (4, 6)
        for hw in (w, 2 * w, 300):
            assert match_mask(mask, es, pan, half_window=hw, se=SQ1) == want
        tracemalloc.start()
        try:
            got = match_mask(mask, es, pan, half_window=1000, se=SQ1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1_000_000


class TestTieBreaks:
    def build_symmetric_instance(self):
        # mask: 2 px column at x=8; dilated (square r1) covers x 7..9, y 7..10.
        # edge columns at x=6 and x=10 (4 px) plus x=8 (2 px) make offsets
        # (-1,0) and (1,0) tie at score 6 while (0,0) only reaches 2.
        h = w = 17
        mask = mask_at((h, w), [(8, 8), (9, 8)])
        es = EdgeSet(
            [
                chain([(6, 7), (6, 10)]),
                chain([(10, 7), (10, 10)]),
                chain([(8, 8), (8, 9)]),
            ],
            w,
            h,
        )
        return mask, es

    def test_symmetric_ring_resolves_lexicographically(self):
        mask, es = self.build_symmetric_instance()
        pan = ScalarImage(np.full((17, 17), 99.0))  # uniform: variances tie too
        res = match_mask(mask, es, pan, half_window=3, se=SQ1)
        scores = naive_match_scores(rasterize(es).bits, dilate(mask, SQ1).bits, 3)
        best = max(scores.values())
        tied = sorted(k for k, v in scores.items() if v == best)
        assert tied == [(-1, 0), (1, 0)]
        assert res.tie_count == 2
        assert res.offset == (-1, 0)  # smallest (dy, dx)

    def test_variance_breaks_score_ties(self):
        mask, es = self.build_symmetric_instance()
        pan_data = np.full((17, 17), 99.0)
        pan_data[8, 7] = 0.0  # the (-1, 0) masked region becomes {0, 99}
        res = match_mask(mask, es, ScalarImage(pan_data), half_window=3, se=SQ1)
        assert res.offset == (1, 0)
        v_good = naive_masked_variance(pan_data, mask.bits, 1, 0)
        v_bad = naive_masked_variance(pan_data, mask.bits, -1, 0)
        assert v_good < v_bad
        assert res.variance == pytest.approx(v_good)


class TestEquivariance:
    def test_scene_shift_moves_offset(self):
        rng = np.random.default_rng(11)
        h = w = 40
        base = np.full((h, w), 50.0) + rng.normal(0, 1, (h, w))
        bits = np.zeros((h, w), dtype=bool)
        bits[18:23, 18:23] = True
        mask = BinaryMask(bits)

        def scene(shift):
            sx, sy = shift
            pan = base.copy()
            pan[18 + sy : 23 + sy, 18 + sx : 23 + sx] = 200.0
            box = [
                chain([(18 + sx, 18 + sy), (22 + sx, 18 + sy)]),
                chain([(18 + sx, 22 + sy), (22 + sx, 22 + sy)]),
                chain([(18 + sx, 18 + sy), (18 + sx, 22 + sy)]),
                chain([(22 + sx, 18 + sy), (22 + sx, 22 + sy)]),
            ]
            return ScalarImage(pan), EdgeSet(box, w, h)

        pan0, es0 = scene((0, 0))
        r0 = match_mask(mask, es0, pan0, half_window=6, se=SQ1)
        pan1, es1 = scene((2, -3))
        r1 = match_mask(mask, es1, pan1, half_window=6, se=SQ1)
        assert r1.offset == (r0.offset[0] + 2, r0.offset[1] - 3)

    def test_deterministic(self):
        mask, es = TestTieBreaks().build_symmetric_instance()
        pan = ScalarImage(np.full((17, 17), 10.0))
        a = match_mask(mask, es, pan, half_window=3, se=SQ1)
        b = match_mask(mask, es, pan, half_window=3, se=SQ1)
        assert a == b


def _square_pair(n):
    frame = arrays(bool, (n, n), elements=st.booleans(), fill=st.nothing())
    return st.tuples(frame, frame)


_frame_pair = st.integers(1, 10).flatmap(_square_pair)  # (mask, edge pixels)


class TestScoreOracle:
    @settings(max_examples=150, deadline=None)
    @given(_frame_pair, st.integers(0, 12))
    def test_equals_recount_per_offset(self, frames, half_window):
        """Windows wider than the frame included; a zero pan leaves the
        tie-break to in-frame placement, then to the smallest (dy, dx)."""
        mask_bits, edge_pixels = frames
        assume(mask_bits.any() and edge_pixels.any())
        n = len(mask_bits)
        es = EdgeSet([chain([(x, y), (x, y)]) for y, x in zip(*np.nonzero(edge_pixels))], n, n)
        pan = np.zeros((n, n))
        res = match_mask(BinaryMask(mask_bits), es, ScalarImage(pan), half_window, se=SQ1)
        scores = naive_match_scores(edge_pixels, dilate(BinaryMask(mask_bits), SQ1).bits,
                                    half_window)
        best = max(scores.values())
        tied = sorted((dy, dx) for (dx, dy), v in scores.items() if v == best)
        variances = [naive_masked_variance(pan, mask_bits, dx, dy) for dy, dx in tied]
        dy, dx = tied[variances.index(min(variances))]
        assert (res.score, res.tie_count, res.offset) == (best, len(tied), (dx, dy))
        assert res.variance == min(variances)
