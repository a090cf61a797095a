import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg.raster import BinaryMask, MultiSpectralImage, ScalarImage
from cartoseg.spectral import (
    CENTRAL_WINDOW,
    EmptyCorpus,
    ThresholdPair,
    band_combine,
    corpus_mode_threshold,
    _grow8,
    hysteresis_segment,
    keep_central_component,
)
from oracles import bfs_grow8, bfs_hysteresis, histogram_mode, loop_keep_central

_frames = st.tuples(st.integers(1, 16), st.integers(1, 16))


def ms_from(ch1, ch2, ch3, res=10.0):
    return MultiSpectralImage(
        ScalarImage(np.asarray(ch1, dtype=np.float64), res),
        ScalarImage(np.asarray(ch2, dtype=np.float64), res),
        ScalarImage(np.asarray(ch3, dtype=np.float64), res),
    )


def const_ms(v1, v2, v3, shape=(7, 7)):
    return ms_from(np.full(shape, v1), np.full(shape, v2), np.full(shape, v3))


class TestBandCombine:
    def test_formula_pixel(self):
        out = band_combine(const_ms(100, 100, 50))
        assert out.data[0, 0] == pytest.approx((100 + 100) * 0.3 - 50)

    def test_zero(self):
        assert band_combine(const_ms(0, 0, 0)).data[3, 3] == 0.0

    def test_negative_kept(self):
        out = band_combine(const_ms(0, 0, 255))
        assert out.data[0, 0] == -255.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_direct_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        c1, c2, c3 = (rng.uniform(0, 255, (5, 5)) for _ in range(3))
        out = band_combine(ms_from(c1, c2, c3))
        assert np.allclose(out.data, (c1 + c2) * 0.3 - c3)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
    def test_linear_in_scaling(self, a, seed):
        rng = np.random.default_rng(seed)
        c1, c2, c3 = (rng.uniform(0, 255, (4, 4)) for _ in range(3))
        base = band_combine(ms_from(c1, c2, c3)).data
        scaled = band_combine(ms_from(a * c1, a * c2, a * c3)).data
        assert np.allclose(scaled, a * base, atol=1e-9)


class TestCorpusModeThreshold:
    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_mode_threshold([])

    def test_constant_window(self):
        ms = const_ms(150.0, 110.0, 1.0)  # (150+110)*0.3 - 1 = 77
        t = corpus_mode_threshold([ms], delta=10.0)
        assert t.t_high == 77.0 and t.t_low == 67.0

    def test_two_image_mode_pooling(self):
        # image A: 25 values at 60; image B: 13 at 60, 12 at 90
        a = const_ms(100, 100, 0, shape=(5, 5))  # combined 60
        ch3 = np.zeros((5, 5))
        ch3.flat[:12] = -30.0  # combined 90 on those pixels
        b = ms_from(np.full((5, 5), 100.0), np.full((5, 5), 100.0), ch3)
        vals = list(band_combine(a).data.ravel()) + list(band_combine(b).data.ravel())
        expect_high, expect_low = histogram_mode(vals, 10.0)
        t = corpus_mode_threshold([a, b], delta=10.0)
        assert (t.t_high, t.t_low) == (expect_high, expect_low)
        assert t.t_high == 60.0

    def test_bimodal_tie_takes_lower_bin(self):
        a = const_ms(100, 100, 10)  # 50
        b = const_ms(100, 100, -20)  # 80
        t = corpus_mode_threshold([a, b], delta=10.0)
        assert t.t_high == 50.0

    def test_window_is_central(self):
        ch = np.zeros((9, 9))
        ch[2:7, 2:7] = 100.0  # only the central 5x5 is bright
        ms = ms_from(ch, ch, np.zeros((9, 9)))
        t = corpus_mode_threshold([ms], delta=5.0)
        assert t.t_high == 60.0

    def test_threshold_pair_invariant(self):
        with pytest.raises(ValueError):
            ThresholdPair(t_high=5.0, t_low=6.0)


class TestHysteresis:
    def test_all_below(self):
        img = ScalarImage(np.full((6, 6), 10.0))
        out = hysteresis_segment(img, ThresholdPair(50.0, 40.0))
        assert out.is_empty()

    def test_ridge_chain_selected_isolated_excluded(self):
        data = np.zeros((5, 9))
        data[2, 1:5] = 45.0  # weak chain
        data[2, 4] = 60.0    # one strong seed at its end
        data[2, 7] = 45.0    # isolated weak pixel
        out = hysteresis_segment(ScalarImage(data), ThresholdPair(50.0, 40.0))
        assert out.bits[2, 1:5].all()
        assert not out.bits[2, 7]

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.uint8, _frames, elements=st.integers(0, 9)),
           st.integers(0, 10), st.integers(0, 10))
    def test_matches_bfs_oracle(self, data, a, b):
        t = ThresholdPair(float(max(a, b)), float(min(a, b)))
        out = hysteresis_segment(ScalarImage(data), t)
        assert np.array_equal(out.bits, bfs_hysteresis(data, t.t_high, t.t_low))

    @settings(max_examples=300, deadline=None)
    @given(_frames.flatmap(lambda shape: st.tuples(arrays(bool, shape, fill=st.nothing()),
                                                      arrays(bool, shape, fill=st.nothing()))))
    def test_grow8_equals_bfs_with_seeds_outside_allowed(self, masks):
        seeds, allowed = masks
        assert np.array_equal(_grow8(seeds, allowed), bfs_grow8(seeds, allowed))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(10.0, 90.0),
        st.floats(0.0, 30.0),
        st.floats(0.0, 20.0),
    )
    def test_monotone_in_thresholds(self, seed, t_high, d_low, drop):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 100, (12, 12))
        img = ScalarImage(data)
        base = hysteresis_segment(img, ThresholdPair(t_high, t_high - d_low)).bits
        lower = hysteresis_segment(
            img, ThresholdPair(t_high - drop, t_high - d_low - drop)
        ).bits
        assert not (base & ~lower).any()  # lowering thresholds never removes

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_seeds_always_included(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 100, (10, 10))
        t = ThresholdPair(70.0, 50.0)
        out = hysteresis_segment(ScalarImage(data), t)
        assert not ((data >= t.t_high) & ~out.bits).any()


class TestKeepCentralComponent:
    def test_keeps_overlapping_component(self):
        bits = np.zeros((11, 11), dtype=bool)
        bits[4:7, 4:7] = True   # central blob
        bits[0:2, 0:2] = True   # corner blob
        out = keep_central_component(BinaryMask(bits))
        assert out.bits[5, 5] and not out.bits[0, 0]

    def test_no_overlap_falls_back_to_largest(self):
        bits = np.zeros((11, 11), dtype=bool)
        bits[0:4, 0:4] = True
        bits[9:11, 9:11] = True
        out = keep_central_component(BinaryMask(bits))
        assert out.bits[0, 0] and not out.bits[10, 10]

    def test_frame_smaller_than_window(self):
        """On a 3x3 frame the window is the whole frame: the larger component
        wins, not the one a window starting off the frame would see."""
        bits = np.zeros((3, 3), dtype=bool)
        bits[0, 0:2] = True
        bits[2, 2] = True
        out = keep_central_component(BinaryMask(bits)).bits
        assert np.array_equal(out, bits & (np.arange(3) == 0)[:, None])
        assert np.array_equal(loop_keep_central(bits, CENTRAL_WINDOW), out)

    def test_empty_passthrough(self):
        m = BinaryMask(np.zeros((5, 5), dtype=bool))
        assert keep_central_component(m).is_empty()

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, _frames, fill=st.nothing()))
    def test_equals_per_label_loop(self, bits):
        got = keep_central_component(BinaryMask(bits)).bits
        assert np.array_equal(got, loop_keep_central(bits, CENTRAL_WINDOW))
