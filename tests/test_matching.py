import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg import synth
from cartoseg.matching import _radius, _scores, match_mask
from cartoseg.morph import EmptyMask
from cartoseg.pipeline import PipelineConfig, load_corpus, segment_scene
from cartoseg.raster import BinaryMask, ScalarImage
from oracles import direct_match_scores


def mask_at(shape, coords):
    bits = np.zeros(shape, dtype=bool)
    for y, x in coords:
        bits[y, x] = True
    return BinaryMask(bits)


def oracle_placement(scores: dict):
    """The tie rule on the oracle's scores: within 1e-9 of the best, then
    nearest (0, 0), then the smallest (dy, dx)."""
    best = max(scores.values())
    tied = [(dy, dx) for (dx, dy), v in scores.items() if v >= best * (1 - 1e-9)]
    dy, dx = min(tied, key=lambda d: (d[0] ** 2 + d[1] ** 2, d))
    return (dx, dy), len(tied)


class TestBasics:
    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            match_mask(BinaryMask(np.zeros((8, 8), dtype=bool)), ScalarImage(np.zeros((8, 8))))

    def test_negative_half_window_raises(self):
        mask = mask_at((16, 16), [(8, 8)])
        with pytest.raises(ValueError, match="half_window must be non-negative"):
            match_mask(mask, ScalarImage(np.zeros((16, 16))), half_window=-1)

    def test_non_positive_sigma_raises(self):
        mask = mask_at((8, 8), [(4, 4)])
        with pytest.raises(ValueError, match="sigma must be positive"):
            match_mask(mask, ScalarImage(np.zeros((8, 8))), sigma=0.0)

    def test_dimension_mismatch(self):
        mask = mask_at((8, 8), [(4, 4)])
        with pytest.raises(ValueError):
            match_mask(mask, ScalarImage(np.zeros((9, 8))))


class TestDisplacedScene:
    def test_recovers_injected_offset_with_direct_oracle(self):
        # object: bright square displaced by (3, -2) on a noisy background
        rng = np.random.default_rng(5)
        h = w = 48
        dx, dy = 3, -2
        pan = np.full((h, w), 60.0) + rng.normal(0, 1, (h, w))
        pan[20 + dy : 29 + dy, 20 + dx : 29 + dx] = 180.0
        bits = np.zeros((h, w), dtype=bool)
        bits[20:29, 20:29] = True  # the mask where the object was drawn
        res = match_mask(BinaryMask(bits), ScalarImage(pan), half_window=6)
        assert res.offset == (dx, dy) and res.tie_count == 1
        scores = direct_match_scores(bits, pan, 6)
        assert oracle_placement(scores) == (res.offset, 1)
        assert res.score == pytest.approx(scores[res.offset], rel=1e-9)

    def test_search_covers_full_window(self):
        """A pan with no gradient scores 0 at every offset of the window, so
        all of them tie and the nearest to (0, 0) is (0, 0) itself.  So does
        one whose float mean is not exactly its value (0.1 over 17 x 17)."""
        mask = mask_at((17, 17), [(7, 7), (7, 8)])
        for value in (99.0, 0.1):
            for hw in (0, 2, 5):
                res = match_mask(mask, ScalarImage(np.full((17, 17), value)), half_window=hw)
                assert (res.offset, res.score, res.tie_count) == ((0, 0), 0.0, (2 * hw + 1) ** 2)


class TestWindowBeyondFrame:
    def test_one_result_in_bounded_memory(self):
        """Past a frame plus the filter's reach every offset scores 0, so each
        wider window gives the capped window's result, in memory that does
        not grow with it."""
        h, w = 9, 21
        mask = mask_at((h, w), [(4, 1), (5, 1)])
        pan = np.random.default_rng(3).normal(50.0, 5.0, (h, w))
        pan[2:7, 17:20] += 60.0  # an object near the far side of the frame
        cap = w - 1 + 2 * _radius(1.2)
        want = match_mask(mask, ScalarImage(pan), half_window=cap)
        assert want.offset[0] >= 12
        for hw in (cap + 1, 2 * cap, 400):
            assert match_mask(mask, ScalarImage(pan), half_window=hw) == want
        tracemalloc.start()
        try:
            got = match_mask(mask, ScalarImage(pan), half_window=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1_000_000


class TestTieBreaks:
    def test_symmetric_ring_resolves_lexicographically(self):
        """Two equal objects mirrored about the mask tie at (-4, 0) and (4, 0);
        both are as near (0, 0), so the smaller (dy, dx) wins."""
        h, w = 17, 25
        bits = np.zeros((h, w), dtype=bool)
        bits[6:11, 10:15] = True  # centred on column 12, the frame's middle
        pan = np.full((h, w), 40.0)
        pan[6:11, 6:11] = pan[6:11, 14:19] = 200.0
        res = match_mask(BinaryMask(bits), ScalarImage(pan), half_window=6)
        assert (res.offset, res.tie_count) == ((-4, 0), 2)
        scores = direct_match_scores(bits, pan, 6)
        assert oracle_placement(scores) == ((-4, 0), 2)


class TestEquivariance:
    def test_scene_shift_moves_offset(self):
        rng = np.random.default_rng(11)
        h = w = 40
        base = np.full((h, w), 50.0) + rng.normal(0, 1, (h, w))
        bits = np.zeros((h, w), dtype=bool)
        bits[18:23, 18:23] = True
        mask = BinaryMask(bits)

        def scene(sx, sy):
            pan = base.copy()
            pan[18 + sy : 23 + sy, 18 + sx : 23 + sx] = 200.0
            return ScalarImage(pan)

        r0 = match_mask(mask, scene(0, 0), half_window=6)
        r1 = match_mask(mask, scene(2, -3), half_window=6)
        assert r1.offset == (r0.offset[0] + 2, r0.offset[1] - 3)

    def test_deterministic(self):
        pan = ScalarImage(np.random.default_rng(4).normal(100.0, 20.0, (17, 17)))
        mask = mask_at((17, 17), [(8, 8), (9, 8)])
        assert match_mask(mask, pan, half_window=3) == match_mask(mask, pan, half_window=3)


def _frames(shape):
    return st.tuples(
        arrays(bool, shape, elements=st.booleans()),
        arrays(np.int64, shape, elements=st.integers(0, 255)),
    )


_scene = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(_frames)  # (mask, pan)


class TestScoreOracle:
    @settings(max_examples=100, deadline=None)
    @given(_scene, st.integers(0, 16), st.sampled_from([0.5, 1.2]))
    def test_equals_direct_sum_per_offset(self, scene, half_window, sigma):
        """Windows at and past the frame plus the filter's reach included.
        A symmetric scene can score 0 at every offset of a small window, so
        the tolerance is taken of a score of at least 1."""
        mask_bits, pan = scene
        assume(mask_bits.any())
        scores = direct_match_scores(mask_bits, pan, half_window, sigma)
        top = max(1.0, *scores.values())
        cap = min(half_window, max(pan.shape) - 1 + 2 * _radius(sigma))
        grid = _scores(mask_bits, pan, cap, sigma)
        for (dx, dy), v in scores.items():
            got = grid[dy + cap, dx + cap] if max(abs(dx), abs(dy)) <= cap else 0.0
            assert abs(got - v) <= 1e-9 * top
        res = match_mask(BinaryMask(mask_bits), ScalarImage(pan), half_window, sigma)
        assert res.offset == oracle_placement(scores)[0]


class TestFaintLimits:
    def test_twelve_grey_levels_place_every_acceptance_scene(self, tmp_path, monkeypatch):
        """The paper's hard case: roads 12 grey levels over the background in
        the pan image, the acceptance corpus otherwise.  Counting thresholded
        edge pixels placed 24 of these 40 scenes."""
        lut = synth._PAN_LUT.copy()
        lut[3] = lut[0] + 12  # the road entry, over the background's 80
        monkeypatch.setattr(synth, "_PAN_LUT", lut)
        synth.write_corpus(tmp_path, synth.corpus_specs(20, 20, seed=44, noise=8.0, clutter=2))
        cfg = PipelineConfig(corpus=str(tmp_path))
        entries, loaded, t = load_corpus(cfg)
        misplaced = []
        for entry in entries:
            pan, ms, _, offset = loaded[entry["id"]]
            _, mask = segment_scene(pan, ms, t, cfg)
            if match_mask(mask, pan, cfg.half_window, cfg.canny_sigma).offset != offset:
                misplaced.append(entry["id"])
        assert len(entries) == 40 and misplaced == []
