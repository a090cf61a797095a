import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cartoseg.morph import (
    EmptyMask,
    StructuringElement,
    dilate,
    external_boundary,
    label_components,
    skeletonize,
)
from cartoseg.raster import BinaryMask
from oracles import (
    bfs_label_components,
    disk_offsets,
    frame_zhang_suen,
    naive_dilate,
    naive_external_boundary,
    random_connected_mask,
    square_offsets,
)

mask16 = arrays(bool, (16, 16), fill=st.nothing())  # every pixel drawn


def frames(max_side, elements=st.booleans()):
    """Frames of 1..max_side rows and columns, every pixel drawn."""
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda shape: arrays(bool, shape, elements=elements, fill=st.nothing()))


def put(shape, coords):
    bits = np.zeros(shape, dtype=bool)
    for y, x in coords:
        bits[y, x] = True
    return BinaryMask(bits)


class TestElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            StructuringElement("hexagon", 1)
        with pytest.raises(ValueError):
            StructuringElement("disk", 0)

    def test_offsets(self):
        assert len(StructuringElement("square", 1).offsets()) == 9
        assert len(StructuringElement("disk", 1).offsets()) == 5
        assert len(StructuringElement("disk", 2).offsets()) == 13


class TestDilate:
    def test_empty(self):
        m = BinaryMask(np.zeros((8, 8), dtype=bool))
        assert dilate(m, StructuringElement("disk", 2)).is_empty()

    def test_single_pixel_disk(self):
        m = put((9, 9), [(4, 4)])
        out = dilate(m, StructuringElement("disk", 2))
        expected = naive_dilate(m.bits, disk_offsets(2))
        assert np.array_equal(out.bits, expected)
        assert out.count == 13

    @settings(max_examples=40, deadline=None)
    @given(mask16, st.sampled_from(["disk", "square"]), st.integers(1, 3))
    def test_matches_neighborhood_oracle(self, bits, shape, radius):
        m = BinaryMask(bits)
        se = StructuringElement(shape, radius)
        offsets = square_offsets(radius) if shape == "square" else disk_offsets(radius)
        assert np.array_equal(dilate(m, se).bits, naive_dilate(bits, offsets))

    @settings(max_examples=25, deadline=None)
    @given(mask16, mask16)
    def test_extensive_and_increasing(self, a, b):
        se = StructuringElement("square", 1)
        ma = BinaryMask(a)
        mab = BinaryMask(a | b)
        da = dilate(ma, se).bits
        dab = dilate(mab, se).bits
        assert (a & ~da).sum() == 0  # extensive
        assert (da & ~dab).sum() == 0  # increasing


class TestExternalBoundary:
    def test_empty_raises(self):
        with pytest.raises(EmptyMask):
            external_boundary(BinaryMask(np.zeros((4, 4), dtype=bool)), StructuringElement("square", 1))

    def test_square_ring_two_out(self):
        bits = np.zeros((11, 11), dtype=bool)
        bits[3:8, 3:8] = True
        m = BinaryMask(bits)
        se = StructuringElement("square", 1)
        out = external_boundary(m, se)
        assert np.array_equal(out.bits, naive_external_boundary(bits, square_offsets(1)))
        expected = np.zeros((11, 11), dtype=bool)
        expected[1:10, 1:10] = True
        expected[2:9, 2:9] = False
        assert np.array_equal(out.bits, expected)

    def test_single_pixel_ring(self):
        m = put((9, 9), [(4, 4)])
        out = external_boundary(m, StructuringElement("square", 1))
        assert np.array_equal(out.bits, naive_external_boundary(m.bits, square_offsets(1)))
        assert out.count == 16  # ring around the 3x3 block

    def test_frame_clipped_still_disjoint(self):
        m = put((5, 5), [(0, 0), (0, 1)])
        out = external_boundary(m, StructuringElement("square", 1))
        assert not (out.bits & m.bits).any()

    @settings(max_examples=30, deadline=None)
    @given(mask16)
    def test_always_disjoint_from_input(self, bits):
        if not bits.any():
            return
        m = BinaryMask(bits)
        out = external_boundary(m, StructuringElement("disk", 2))
        assert not (out.bits & bits).any()


class TestSkeletonize:
    def test_empty_raises(self):
        with pytest.raises(EmptyMask):
            skeletonize(BinaryMask(np.zeros((4, 4), dtype=bool)))

    def test_thin_line_unchanged(self):
        bits = np.zeros((5, 9), dtype=bool)
        bits[2, 1:8] = True
        out = skeletonize(BinaryMask(bits))
        assert np.array_equal(out.bits, bits)

    def test_rectangle_thins_to_middle_row(self):
        # golden output of the two-subcycle thinning on a 3x11 bar
        bits = np.zeros((7, 15), dtype=bool)
        bits[2:5, 2:13] = True
        out = skeletonize(BinaryMask(bits))
        ys, xs = np.nonzero(out.bits)
        assert set(ys) == {3}
        assert 7 <= len(xs) <= 11
        assert (out.bits & ~bits).sum() == 0

    def test_disjoint_blobs_stay_disjoint(self):
        bits = np.zeros((16, 16), dtype=bool)
        bits[2:6, 2:6] = True
        bits[10:14, 10:14] = True
        out = skeletonize(BinaryMask(bits))
        _, n = label_components(out.bits, connectivity=8)
        assert n == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(229576)  # blobs the parallel thinning alone deletes whole
    @example(529495)
    def test_subset_connectivity_thinness(self, seed):
        rng = np.random.default_rng(seed)
        bits = random_connected_mask(rng)
        out = skeletonize(BinaryMask(bits))
        assert (out.bits & ~bits).sum() == 0  # subset
        _, n_in = label_components(bits, connectivity=8)
        _, n_out = label_components(out.bits, connectivity=8)
        assert n_in == n_out  # component count preserved
        # no pixel whose full 3x3 neighborhood is skeleton
        p = np.pad(out.bits, 1, constant_values=False)
        solid = np.ones((16, 16), dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                solid &= p[1 + dy : 17 + dy, 1 + dx : 17 + dx]
        assert not solid.any()


class TestSkeletonOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        frames(24),
        frames(24, st.sampled_from((False, False, False, True))),  # sparse
        frames(24, st.sampled_from((True, True, True, True, False))),  # dense
    ))
    def test_equals_frame_loop(self, bits):
        if bits.any():
            assert np.array_equal(skeletonize(BinaryMask(bits)).bits, frame_zhang_suen(bits))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(229576)  # blobs the parallel thinning alone deletes whole
    @example(529495)
    def test_equals_frame_loop_on_walks(self, seed):
        bits = random_connected_mask(np.random.default_rng(seed))
        assert np.array_equal(skeletonize(BinaryMask(bits)).bits, frame_zhang_suen(bits))

    def test_restores_only_the_emptied_component(self):
        # the first subcycle deletes the whole 2x2 block; the line stays
        m = put((6, 9), [(1, 1), (1, 2), (2, 1), (2, 2), (4, 4), (4, 5), (4, 6), (4, 7)])
        out = skeletonize(m).bits
        assert np.array_equal(out, frame_zhang_suen(m.bits))
        assert np.array_equal(np.argwhere(out), [(1, 1), (4, 4), (4, 5), (4, 6), (4, 7)])


class TestLabelComponents:
    def test_counts_and_order(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[0, 0] = True
        bits[4, 4] = True
        labels, n = label_components(bits, connectivity=8)
        assert n == 2
        assert labels[0, 0] == 1 and labels[4, 4] == 2

    def test_diagonal_connectivity(self):
        bits = np.eye(4, dtype=bool)
        _, n8 = label_components(bits, connectivity=8)
        _, n4 = label_components(bits, connectivity=4)
        assert n8 == 1 and n4 == 4

    @pytest.mark.parametrize("connectivity", [0, 6, "8"])
    def test_bad_connectivity_rejected(self, connectivity):
        with pytest.raises(ValueError):
            label_components(np.eye(3, dtype=bool), connectivity=connectivity)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(bool, st.tuples(st.integers(0, 12), st.integers(0, 12)), fill=st.nothing()),
        st.sampled_from([4, 8]),
    )
    def test_equals_bfs_oracle(self, bits, connectivity):
        labels, count = label_components(bits, connectivity=connectivity)
        want, want_count = bfs_label_components(bits, connectivity)
        assert count == want_count
        assert labels.dtype == np.int32
        assert np.array_equal(labels, want)
