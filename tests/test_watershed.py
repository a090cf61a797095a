import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import cartoseg
from cartoseg import watershed
from cartoseg.edges import EdgeChain, EdgeSet, rasterize
from cartoseg.morph import StructuringElement, external_boundary, skeletonize
from cartoseg.pipeline import (
    PipelineConfig,
    clip_ms,
    detect_edges,
    extract_scene,
    place_mask,
    segment_scene,
)
from cartoseg.raster import BinaryMask, ScalarImage, translate
from cartoseg.spectral import corpus_mode_threshold
from cartoseg.synth import KINDS, SceneSpec, generate_scene
from cartoseg.watershed import (
    WSHED,
    EmptyMarker,
    LabelImage,
    MarkerOverlap,
    MarkerSet,
    extract_object,
    gradient_magnitude,
    impose_minima,
    inject_edges,
    label_marker_components,
    watershed_flood,
)
from oracles import erode8_impose_minima, heap_watershed_flood, naive_watershed, regional_minima


def mask_at(shape, coords):
    bits = np.zeros(shape, dtype=bool)
    for y, x in coords:
        bits[y, x] = True
    return BinaryMask(bits)


def separated_random_markers(rng, shape, n_obj=1, n_bg=1):
    """Single-pixel markers with pairwise Chebyshev distance >= 2."""
    h, w = shape
    picked = []
    while len(picked) < n_obj + n_bg:
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        if all(max(abs(y - py), abs(x - px)) >= 2 for py, px in picked):
            picked.append((y, x))
    obj = mask_at(shape, picked[:n_obj])
    bg = mask_at(shape, picked[n_obj:])
    return MarkerSet(obj, bg)


@pytest.fixture(scope="module", params=KINDS)
def rendered_scene(request):
    """A seed-44 synth scene of each kind carried through segmentation,
    edges and placement to the markers: (pan, placed, edges, injected
    gradient, markers)."""
    cfg = PipelineConfig()
    spec = SceneSpec(kind=request.param, seed=44, noise=8.0, clutter=2, offset=(3, -2))
    pan, ms, _ = generate_scene(spec)
    t = corpus_mode_threshold([clip_ms(pan, ms)], delta=cfg.delta)
    _, mask = segment_scene(pan, ms, t, cfg)
    es = detect_edges(pan, cfg)
    placed = translate(mask, *place_mask(mask, pan, cfg).offset)
    markers = MarkerSet(skeletonize(placed),
                        external_boundary(placed, StructuringElement("disk", cfg.boundary_se_radius)))
    return pan, placed, es, inject_edges(gradient_magnitude(pan), es), markers


class TestMarkerSet:
    def test_empty_marker(self):
        with pytest.raises(EmptyMarker):
            MarkerSet(
                BinaryMask(np.zeros((4, 4), dtype=bool)), mask_at((4, 4), [(0, 0)])
            )

    def test_overlap(self):
        with pytest.raises(MarkerOverlap):
            MarkerSet(mask_at((4, 4), [(1, 1)]), mask_at((4, 4), [(1, 1)]))

    def test_component_labels(self):
        m = MarkerSet(
            mask_at((6, 6), [(0, 0), (5, 5)]), mask_at((6, 6), [(0, 5)])
        )
        labels, n_obj = label_marker_components(m)
        assert n_obj == 2
        assert labels[0, 0] == 1 and labels[5, 5] == 2 and labels[0, 5] == 3

    def test_partition_computed_once_per_scene(self, monkeypatch):
        """`extract_scene` labels the object marker, the background marker
        and the free pixels once each, for the relief, the flood and the
        extraction together."""
        rng = np.random.default_rng(12)
        pan = ScalarImage(rng.uniform(0, 255, (24, 24)))
        placed = np.zeros((24, 24), dtype=bool)
        placed[8:16, 5:19] = True
        cfg = PipelineConfig()
        skel = skeletonize(BinaryMask(placed))
        calls = []
        label = watershed.label_components

        def counted(bits, connectivity=8):
            calls.append(connectivity)
            return label(bits, connectivity)

        monkeypatch.setattr(watershed, "label_components", counted)
        extract_scene(pan, BinaryMask(placed), skel, EdgeSet([], 24, 24), cfg)
        assert calls == [8, 8, 4]

    def test_partition_is_cached(self):
        m = MarkerSet(mask_at((6, 6), [(0, 0), (5, 5)]), mask_at((6, 6), [(0, 5)]))
        first = m.partition
        assert m.partition is first
        # one free component, bordered by all three labels
        assert first.n_object == 2 and not first.settled.any()
        assert np.array_equal(first.contested, first.labels == 0)


class TestGradient:
    def test_constant_zero(self):
        g = gradient_magnitude(ScalarImage(np.full((8, 8), 42.0)))
        assert np.allclose(g.data, 0.0)

    def test_vertical_step_response(self):
        data = np.zeros((8, 8))
        data[:, 4:] = 255.0
        g = gradient_magnitude(ScalarImage(data)).data
        # Sobel on the two columns flanking the step: |gx| = 4*255
        assert np.allclose(g[2:6, 3], 1020.0)
        assert np.allclose(g[2:6, 4], 1020.0)
        assert np.allclose(g[:, 0], 0.0) and np.allclose(g[:, 7], 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 200, (10, 10))
        a = gradient_magnitude(ScalarImage(data)).data
        b = gradient_magnitude(ScalarImage(data + 55.5)).data
        assert np.allclose(a, b)


class TestInjectEdges:
    def test_empty_edge_set(self):
        img = ScalarImage(np.arange(16.0).reshape(4, 4))
        out = inject_edges(img, EdgeSet([], 4, 4))
        assert np.array_equal(out.data, img.data)

    def test_zero_image_stays_zero(self):
        img = ScalarImage(np.zeros((6, 6)))
        es = EdgeSet([EdgeChain(np.array([[1.0, 1.0], [4.0, 1.0]]))], 6, 6)
        out = inject_edges(img, es)
        assert np.allclose(out.data, 0.0)

    def test_exact_pixels_set_to_max(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 41.5, (12, 12))
        data[3, 3] = 41.5  # known maximum
        es = EdgeSet([EdgeChain(np.array([[2.0, 8.0], [9.0, 8.0]]))], 12, 12)
        out = inject_edges(ScalarImage(data), es)
        edge_bits = rasterize(es).bits
        assert np.allclose(out.data[edge_bits], 41.5)
        assert np.array_equal(out.data[~edge_bits], data[~edge_bits])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 10, (9, 9))
        es = EdgeSet([EdgeChain(np.array([[1.0, 2.0], [7.0, 2.0]]))], 9, 9)
        once = inject_edges(ScalarImage(data), es)
        twice = inject_edges(once, es)
        assert np.array_equal(once.data, twice.data)


class TestImposeMinima:
    def test_flat_image_two_markers(self):
        img = ScalarImage(np.full((9, 9), 5.0))
        markers = MarkerSet(mask_at((9, 9), [(2, 2)]), mask_at((9, 9), [(6, 6)]))
        out = impose_minima(img, markers)
        minima = regional_minima(out.data)
        assert len(minima) == 2

    def test_unmarked_pit_filled(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(10, 20, (12, 12))
        data[2, 9] = -50.0  # deep unmarked pit
        markers = MarkerSet(mask_at((12, 12), [(5, 5)]), mask_at((12, 12), [(9, 2)]))
        out = impose_minima(ScalarImage(data), markers)
        minima = regional_minima(out.data)
        marker_comps = {frozenset([(5, 5)]), frozenset([(9, 2)])}
        assert set(minima) == marker_comps

    def test_whole_image_marker_degenerate(self):
        bits = np.ones((5, 5), dtype=bool)
        bits[0, 0] = False
        markers = MarkerSet(BinaryMask(bits), mask_at((5, 5), [(0, 0)]))
        out = impose_minima(ScalarImage(np.arange(25.0).reshape(5, 5)), markers)
        assert len(regional_minima(out.data)) <= 2

    def test_minima_match_markers_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data = rng.uniform(0, 30, (12, 12))
            markers = separated_random_markers(rng, (12, 12), n_obj=2, n_bg=1)
            out = impose_minima(ScalarImage(data), markers)
            minima = set(regional_minima(out.data))
            expected = set()
            for m in (markers.object_marker, markers.background_marker):
                for y, x in zip(*np.nonzero(m.bits)):
                    expected.add(frozenset([(int(y), int(x))]))
            assert minima == expected

    @staticmethod
    def rejects_promptly(setup: str, call: str) -> bool:
        """Whether `call` raises ValueError after `setup` builds `data`, `obj`
        and `bg`.  No reconstruction pass is a fixpoint on a NaN or -inf
        relief, so the call runs in a subprocess, where a hang ends at the
        timeout."""
        code = "\n".join([
            "import numpy as np",
            "from cartoseg.raster import BinaryMask, ScalarImage",
            "from cartoseg.watershed import MarkerSet, impose_minima",
            textwrap.dedent(setup),
            "markers = MarkerSet(BinaryMask(obj), BinaryMask(bg))",
            "try:",
            f"    {call}",
            "except ValueError:",
            "    raise SystemExit(3)",
        ])
        src = str(Path(cartoseg.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        return done.returncode == 3

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_nan_or_minus_inf_relief_rejected_promptly(self, bad):
        setup = f"""
            data = np.zeros((4, 4))
            data[1, 2] = float("{bad}")
            obj, bg = np.zeros((2, 4, 4), dtype=bool)
            obj[0, 0] = bg[3, 3] = True
        """
        assert self.rejects_promptly(setup, "impose_minima(ScalarImage(data), markers)")

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_bad_value_in_settled_component_rejected_promptly(self, bad):
        """The centre pixel, enclosed by the object ring, is settled: the
        region excludes it, and the check still sees it."""
        setup = f"""
            data = np.zeros((5, 5))
            data[2, 2] = float("{bad}")
            obj, bg = np.zeros((2, 5, 5), dtype=bool)
            obj[1:4, 1:4] = True
            obj[2, 2] = False
            bg[4, 4] = True
        """
        call = "impose_minima(ScalarImage(data), markers, markers.partition.contested)"
        assert self.rejects_promptly(setup, call)
        ring = [(y, x) for y in (1, 2, 3) for x in (1, 2, 3) if (y, x) != (2, 2)]
        part = MarkerSet(mask_at((5, 5), ring), mask_at((5, 5), [(4, 4)])).partition
        assert part.settled[2, 2] == 1 and not part.contested[2, 2]


class TestWatershedFlood:
    def test_1d_ridge_splits_at_peak(self):
        relief = ScalarImage(np.array([[0.0, 1.0, 5.0, 1.0, 0.0]]))
        markers = MarkerSet(mask_at((1, 5), [(0, 0)]), mask_at((1, 5), [(0, 4)]))
        out = watershed_flood(relief, markers)
        assert list(out.labels[0]) == [1, 1, WSHED, 2, 2]

    def test_flat_image_fifo_front_golden(self):
        relief = ScalarImage(np.zeros((8, 8)))
        markers = MarkerSet(mask_at((8, 8), [(3, 1)]), mask_at((8, 8), [(4, 6)]))
        out = watershed_flood(relief, markers)
        oracle, _ = naive_watershed(relief.data, markers.object_marker.bits, markers.background_marker.bits)
        assert np.array_equal(out.labels, oracle)
        # frozen golden: the split front sits between the two seeds
        assert out.labels[3, 1] == 1 and out.labels[4, 6] == 2
        assert (out.labels[:, 0:2] == 1).all()
        assert (out.labels[:, 6:8] == 2).all()

    def test_matches_naive_immersion_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            relief = ScalarImage(rng.integers(0, 6, (8, 8)).astype(np.float64))
            markers = separated_random_markers(rng, (8, 8))
            got = watershed_flood(relief, markers).labels
            want, _ = naive_watershed(
                relief.data, markers.object_marker.bits, markers.background_marker.bits
            )
            assert np.array_equal(got, want)

    def test_basin_connectivity(self):
        rng = np.random.default_rng(23)
        relief = ScalarImage(rng.integers(0, 5, (10, 10)).astype(np.float64))
        markers = separated_random_markers(rng, (10, 10), n_obj=2, n_bg=2)
        out = watershed_flood(relief, markers)
        labels, _ = label_marker_components(markers)
        for lab in range(1, int(labels.max()) + 1):
            basin = out.labels == lab
            from cartoseg.morph import label_components

            comp, n = label_components(basin, connectivity=4)
            assert n == 1  # every basin is 4-connected to its marker

    def test_nan_relief_rejected(self):
        data = np.zeros((3, 4))
        data[1, 2] = np.nan
        markers = MarkerSet(mask_at((3, 4), [(0, 0)]), mask_at((3, 4), [(2, 3)]))
        with pytest.raises(ValueError):
            watershed_flood(ScalarImage(data), markers)

    def test_nan_in_settled_component_rejected(self):
        """The centre pixel, enclosed by the object ring, never floods."""
        data = np.zeros((5, 5))
        data[2, 2] = np.nan
        ring = [(y, x) for y in (1, 2, 3) for x in (1, 2, 3) if (y, x) != (2, 2)]
        markers = MarkerSet(mask_at((5, 5), ring), mask_at((5, 5), [(4, 4)]))
        with pytest.raises(ValueError):
            watershed_flood(ScalarImage(data), markers)

    def test_all_settled_runs_no_heap(self, monkeypatch):
        """Two adjacent marker walls split the frame into two components,
        each touching one wall only: both take its label, with no heap."""
        rng = np.random.default_rng(11)
        relief = ScalarImage(rng.integers(0, 4, (6, 9)).astype(np.float64))
        markers = MarkerSet(mask_at((6, 9), [(y, 3) for y in range(6)]),
                            mask_at((6, 9), [(y, 4) for y in range(6)]))
        want = heap_watershed_flood(relief, markers).labels

        def no_heap(*args):
            raise AssertionError("the heap ran")

        monkeypatch.setattr(watershed.heapq, "heappush", no_heap)
        monkeypatch.setattr(watershed.heapq, "heappop", no_heap)
        got = watershed_flood(relief, markers).labels
        assert np.array_equal(got, want)
        assert (got[:, :4] == 1).all() and (got[:, 4:] == 2).all()

    def test_only_contested_pixels_enter_the_heap(self, monkeypatch):
        """The corner pixel is enclosed by the object marker alone and touches
        the contested rest only diagonally: it is settled, and each of the
        other 12 unmarked pixels is pushed once."""
        relief = ScalarImage(np.zeros((4, 4)))
        markers = MarkerSet(mask_at((4, 4), [(0, 1), (1, 0)]), mask_at((4, 4), [(3, 3)]))
        want = heap_watershed_flood(relief, markers).labels
        pushed = []
        push = watershed.heapq.heappush

        def counted_push(heap, key):
            pushed.append(key)
            push(heap, key)

        monkeypatch.setattr(watershed.heapq, "heappush", counted_push)
        got = watershed_flood(relief, markers).labels
        assert np.array_equal(got, want)
        assert got[0, 0] == 1 and len(pushed) == 12

    def test_rendered_scene_equals_whole_frame_heap(self, rendered_scene):
        """A synth scene carried through segmentation, edges, placement and
        markers to the imposed relief, flooded."""
        _, _, _, grad, markers = rendered_scene
        relief = impose_minima(grad, markers)
        got = watershed_flood(relief, markers).labels
        assert np.array_equal(got, heap_watershed_flood(relief, markers).labels)
        assert (got == WSHED).any()

    def test_infinite_relief_ranks(self):
        data = np.array([[0.0, -np.inf, np.inf, 2.0, np.inf, 0.0]])
        markers = MarkerSet(mask_at((1, 6), [(0, 0)]), mask_at((1, 6), [(0, 5)]))
        got = watershed_flood(ScalarImage(data), markers).labels
        want, _ = naive_watershed(data, markers.object_marker.bits, markers.background_marker.bits)
        assert np.array_equal(got, want)

    def test_contract_inputs_untouched_int32_labels(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 4, (6, 9)).astype(np.float64)
        markers = separated_random_markers(rng, (6, 9), n_obj=2, n_bg=2)
        relief = ScalarImage(data)
        before = (data.copy(), markers.object_marker.bits.copy(), markers.background_marker.bits.copy())
        out = watershed_flood(relief, markers)
        assert np.array_equal(relief.data, before[0])
        assert np.array_equal(markers.object_marker.bits, before[1])
        assert np.array_equal(markers.background_marker.bits, before[2])
        assert out.labels.dtype == np.int32 and out.labels.shape == (6, 9)


@st.composite
def flood_cases(draw):
    """Frames 1x2 to 9x9, relief with 1, 2, 3 or 6 integer levels, and
    multi-pixel object and background markers that may touch."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    assume(h * w >= 2)
    n = h * w
    levels = draw(st.sampled_from([1, 2, 3, 6]))
    relief = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)), dtype=np.float64)
    kinds = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), min_size=n, max_size=n)))
    obj_at = draw(st.integers(0, n - 1))
    bg_at = draw(st.integers(0, n - 2))
    kinds[obj_at] = 1
    kinds[bg_at + (bg_at >= obj_at)] = 2
    return relief.reshape(h, w), (kinds == 1).reshape(h, w), (kinds == 2).reshape(h, w)


class TestFloodOracleProperty:
    @settings(max_examples=300, deadline=None)
    @given(flood_cases())
    def test_equals_naive_immersion(self, case):
        relief, obj, bg = case
        got = watershed_flood(ScalarImage(relief), MarkerSet(BinaryMask(obj), BinaryMask(bg))).labels
        want, _ = naive_watershed(relief, obj, bg)
        assert np.array_equal(got, want)


@st.composite
def pipeline_flood_cases(draw):
    """Pipeline-shaped frames up to 40x40: a relief of 1 to 6 integer
    levels in blocks of 1, 2 or 4 pixels, so plateaus and ties occur; an
    object marker of one to three strokes; a background marker that is the
    external boundary of the strokes' dilation, often cut by the frame;
    and up to four marker specks, which make some components border two
    labels beyond the ring."""
    h, w = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    levels, cell = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 4]))
    coarse = draw(arrays(np.int8, (-(-h // cell), -(-w // cell)),
                         elements=st.integers(0, levels - 1), fill=st.nothing()))
    relief = np.kron(coarse, np.ones((cell, cell)))[:h, :w]
    ys, xs = st.integers(0, h - 1), st.integers(0, w - 1)
    obj = np.zeros((h, w), dtype=bool)
    for y0, x0, y1, x1 in draw(st.lists(st.tuples(ys, xs, ys, xs), min_size=1, max_size=3)):
        n = max(abs(y1 - y0), abs(x1 - x0)) + 1
        obj[np.rint(np.linspace(y0, y1, n)).astype(int), np.rint(np.linspace(x0, x1, n)).astype(int)] = True
    se = StructuringElement(draw(st.sampled_from(["disk", "square"])), draw(st.integers(1, 6)))
    bg = external_boundary(BinaryMask(obj), se).bits.copy()
    for y, x, to_obj in draw(st.lists(st.tuples(ys, xs, st.booleans()), max_size=4)):
        if not (obj[y, x] or bg[y, x]):
            (obj if to_obj else bg)[y, x] = True
    assume(bg.any())
    return relief, obj, bg


class TestFloodHeapOracleProperty:
    @settings(max_examples=300, deadline=None)
    @given(pipeline_flood_cases())
    def test_equals_whole_frame_heap(self, case):
        """Settling the one-label components leaves every label, and every
        watershed-line pixel, where the whole-frame flood put it."""
        relief, obj, bg = case
        markers = MarkerSet(BinaryMask(obj), BinaryMask(bg))
        got = watershed_flood(ScalarImage(relief), markers)
        want = heap_watershed_flood(ScalarImage(relief), markers)
        assert got.labels.dtype == np.int32
        assert np.array_equal(got.labels, want.labels)


class TestImposeMinimaOracleProperty:
    @settings(max_examples=300, deadline=None)
    @given(flood_cases(), st.sampled_from([1.0, 0.1, 1e6, 1e305]))
    def test_equals_erode8_loop(self, case, scale):
        """Touching markers, flat reliefs and frames one pixel high or wide."""
        relief, obj, bg = case
        got = impose_minima(ScalarImage(relief * scale), MarkerSet(BinaryMask(obj), BinaryMask(bg)))
        want = erode8_impose_minima(relief * scale, obj | bg)
        assert got.data.dtype == np.float64
        assert np.array_equal(got.data, want)


def assert_region_relief_floods_alike(relief: np.ndarray, obj: np.ndarray, bg: np.ndarray) -> None:
    """The contested-region relief holds the whole-frame values on the
    contested and marker pixels and +inf elsewhere, and floods to the same
    labels as the whole-frame relief."""
    markers = MarkerSet(BinaryMask(obj), BinaryMask(bg))
    whole = impose_minima(ScalarImage(relief), markers)
    contested = markers.partition.contested
    region = impose_minima(ScalarImage(relief), markers, contested)
    assert np.array_equal(region.data, np.where(contested | obj | bg, whole.data, np.inf))
    assert np.array_equal(watershed_flood(region, markers).labels, watershed_flood(whole, markers).labels)


class TestImposeMinimaRegionProperty:
    @settings(max_examples=300, deadline=None)
    @given(pipeline_flood_cases(), st.sampled_from([1.0, 1e6, 1e305]))
    def test_pipeline_cases(self, case, scale):
        relief, obj, bg = case
        assert_region_relief_floods_alike(relief * scale, obj, bg)

    @settings(max_examples=300, deadline=None)
    @given(flood_cases(), st.sampled_from([1.0, 1e6, 1e305]))
    def test_touching_markers_and_thin_frames(self, case, scale):
        relief, obj, bg = case
        assert_region_relief_floods_alike(relief * scale, obj, bg)

    def test_rendered_scene(self, rendered_scene):
        """The pipeline's own call imposes on the contested region and floods
        to the whole-frame relief's labels."""
        pan, placed, es, grad, markers = rendered_scene
        assert_region_relief_floods_alike(grad.data, markers.object_marker.bits, markers.background_marker.bits)
        cfg = PipelineConfig()
        _, labels, _ = extract_scene(pan, placed, markers.object_marker, es, cfg)
        want = heap_watershed_flood(impose_minima(grad, markers), markers).labels
        assert np.array_equal(labels.labels, want)


class TestExtractObject:
    def run_flood(self):
        relief = ScalarImage(np.zeros((8, 8)))
        markers = MarkerSet(mask_at((8, 8), [(4, 1)]), mask_at((8, 8), [(4, 6)]))
        return watershed_flood(relief, markers), markers

    def test_selects_object_basin(self):
        labels, markers = self.run_flood()
        obj = extract_object(labels, markers)
        assert obj.bits[4, 1] and not obj.bits[4, 6]
        assert not obj.bits[labels.labels == WSHED].any()

    def test_union_of_split_skeleton(self):
        relief = ScalarImage(np.zeros((8, 8)))
        markers = MarkerSet(
            mask_at((8, 8), [(1, 1), (6, 1)]), mask_at((8, 8), [(3, 6)])
        )
        labels = watershed_flood(relief, markers)
        obj = extract_object(labels, markers)
        assert obj.bits[1, 1] and obj.bits[6, 1]
        parts = np.isin(labels.labels, [1, 2])
        assert np.array_equal(obj.bits, parts)

    def test_degenerate_no_object_basin(self):
        labels, markers = self.run_flood()
        other = MarkerSet(mask_at((8, 8), [(0, 0)]), mask_at((8, 8), [(7, 7)]))
        wiped = LabelImage(np.where(labels.labels == 1, 99, labels.labels))
        obj = extract_object(wiped, other)
        assert obj.is_empty()


class TestEndToEndProperty:
    def test_wshed_next_to_object_is_edge_or_gradient_ridge(self):
        # bright bar on dark ground; its boundary edges are injected
        data = np.full((24, 24), 20.0)
        data[10:15, 2:22] = 200.0
        img = ScalarImage(data)
        es = EdgeSet(
            [
                EdgeChain(np.array([[2.0, 9.0], [21.0, 9.0]])),
                EdgeChain(np.array([[2.0, 15.0], [21.0, 15.0]])),
            ],
            24,
            24,
        )
        grad = gradient_magnitude(img)
        relief = inject_edges(grad, es)
        markers = MarkerSet(
            mask_at((24, 24), [(12, c) for c in range(4, 20)]),
            mask_at((24, 24), [(2, c) for c in range(2, 22)] + [(22, c) for c in range(2, 22)]),
        )
        out = watershed_flood(impose_minima(relief, markers), markers)
        obj_mask = extract_object(out, markers).bits
        edge_bits = rasterize(es).bits
        ys, xs = np.nonzero(out.labels == WSHED)
        for y, x in zip(ys, xs):
            near_obj = any(
                0 <= y + dy < 24 and 0 <= x + dx < 24 and obj_mask[y + dy, x + dx]
                for dy, dx in ((-1, 0), (0, -1), (0, 1), (1, 0))
            )
            if near_obj:
                # every watershed pixel touching the object lies on an
                # injected edge or on a local relief ridge
                on_edge = edge_bits[y, x]
                ridge = relief.data[y, x] >= max(
                    relief.data[max(y - 1, 0), x], relief.data[min(y + 1, 23), x]
                ) or relief.data[y, x] >= max(
                    relief.data[y, max(x - 1, 0)], relief.data[y, min(x + 1, 23)]
                )
                assert on_edge or ridge
