import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cartoseg.graphs import decompose, graph_distance
from cartoseg.pipeline import PipelineConfig, shape_graph
from cartoseg.raster import FormatError, read_mask, read_raster, translate
from cartoseg.spectral import band_combine
from cartoseg.synth import (
    _RIVER_WIDTH_M,
    _SECONDARY_GAP_M,
    _TEXTURE_CELL,
    GroundTruth,
    SceneSpec,
    SpecError,
    _value_noise,
    corpus_specs,
    generate_scene,
    load_truth,
    write_corpus,
)
from oracles import bilinear_at


def _direction(seg) -> float:
    """A segment's direction in [0, pi), from its endpoints."""
    (x1, y1), (x2, y2) = seg.endpoints
    return math.atan2(y2 - y1, x2 - x1) % math.pi


class TestSpecValidation:
    def test_kind(self):
        with pytest.raises(SpecError):
            SceneSpec(kind="tunnel")

    def test_offset_bound(self):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", offset=(11, 0))

    @pytest.mark.parametrize("offset", [(1.5, 0), (1, 2, 3), (1,), (True, 0), (0, np.True_), 3, None])
    def test_offset_not_two_integers(self, offset):
        with pytest.raises(SpecError, match="two integers"):
            SceneSpec(kind="bridge", offset=offset)

    def test_numpy_integers_render_and_write(self, tmp_path):
        """They are kept as ints: json could not write a numpy seed or offset."""
        spec = SceneSpec(kind="bridge", pan_size=32, seed=np.int64(3), offset=(np.int64(-3), np.int32(2)))
        assert generate_scene(spec)[2].offset == (-3, 2)
        (entry,) = write_corpus(tmp_path, [spec])["scenes"]
        assert (entry["seed"], entry["offset"]) == (3, [-3, 2])

    def test_offset_beyond_margin(self):
        """The pan frame is cut from the canvas inside the multispectral
        margin, so an offset past it left the frame short or empty."""
        with pytest.raises(SpecError, match="margin"):
            SceneSpec(kind="bridge", pan_size=32, ms_margin=1, offset=(-5, 0))
        assert SceneSpec(kind="bridge", pan_size=32, ms_margin=1, offset=(-4, 4)).offset == (-4, 4)

    def test_geometry(self):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", road_width_m=0)
        with pytest.raises(SpecError):
            SceneSpec(kind="roundabout", circle_radius_m=10.0, road_width_m=30.0)

    def test_resolution_factor(self):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", ms_res=9.0)
        assert SceneSpec(kind="bridge").factor == 4

    @pytest.mark.parametrize("field", ["noise", "road_width_m", "circle_radius_m",
                                       "pan_res", "ms_res", "main_angle"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, field, value):
        with pytest.raises(SpecError):
            SceneSpec(kind="roundabout", **{field: value})

    @pytest.mark.parametrize("pan_res", [0.0, -2.5])
    def test_pan_res_not_positive(self, pan_res):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", pan_res=pan_res)

    @pytest.mark.parametrize("pan_size", [0, -8])
    def test_pan_size_not_positive(self, pan_size):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", pan_size=pan_size)

    def test_negative_margin(self):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", ms_margin=-8)
        assert SceneSpec(kind="bridge", ms_margin=0).ms_margin == 0

    def test_negative_seed(self):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", seed=-1)

    @pytest.mark.parametrize("field, value", [("clutter", 1.5), ("clutter", 2.0), ("seed", 3.0),
                                              ("pan_size", 128.0), ("ms_margin", 8.0)])
    def test_non_integer_count(self, field, value):
        with pytest.raises(SpecError):
            SceneSpec(kind="bridge", **{field: value})
        assert getattr(SceneSpec(kind="bridge", **{field: np.int64(value // 1)}), field) == value // 1


class TestGenerateScene:
    def test_shapes_and_metadata(self):
        spec = SceneSpec(kind="roundabout", seed=4)
        pan, ms, truth = generate_scene(spec)
        assert (pan.width, pan.height, pan.resolution) == (128, 128, 2.5)
        assert (ms.width, ms.height, ms.resolution) == (48, 48, 10.0)
        assert isinstance(truth, GroundTruth)
        assert not truth.mask.is_empty()

    def test_deterministic(self):
        spec = SceneSpec(kind="bridge", seed=123, noise=5.0, clutter=3, offset=(4, -6))
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert np.array_equal(a[0].data, b[0].data)
        for c1, c2 in zip(a[1].channels, b[1].channels):
            assert np.array_equal(c1.data, c2.data)
        assert np.array_equal(a[2].mask.bits, b[2].mask.bits)

    @pytest.mark.parametrize("seed", range(20))
    def test_clutter_on_small_frame(self, seed):
        """A clutter block as wide as the frame has no position to draw; it
        is skipped, where numpy used to raise ValueError."""
        pan, _, _ = generate_scene(SceneSpec(kind="bridge", clutter=1, pan_size=20, seed=seed))
        assert pan.data.shape == (20, 20)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("bridge", "roundabout")), st.sampled_from(range(4, 33, 4)),
           st.integers(0, 3), st.integers(0, 2**16), st.integers(0, 8),
           st.tuples(st.integers(-10, 10), st.integers(-10, 10))
           | st.lists(st.integers(-10, 10) | st.booleans() | st.floats(-10, 10), max_size=3)
           .map(tuple))
    @example("bridge", 32, 0, 0, 8, (1.5, 0))
    @example("bridge", 32, 0, 0, 8, (True, 0))
    @example("bridge", 32, 0, 0, 8, (1,))
    @example("bridge", 32, 0, 0, 8, (1, 2, 3))
    def test_spec_renders_or_is_refused(self, kind, pan_size, clutter, seed, ms_margin, offset):
        """Offsets too: one with a float, a boolean, one entry or three
        entries is refused, and two integers in [-10, 10] render or are refused."""
        malformed = len(offset) != 2 or any(isinstance(n, (bool, float)) for n in offset)
        try:
            spec = SceneSpec(kind=kind, pan_size=pan_size, clutter=clutter, seed=seed,
                             ms_margin=ms_margin, offset=offset, noise=4.0)
        except SpecError:
            return
        assert not malformed
        pan, ms, truth = generate_scene(spec)
        assert pan.data.shape == truth.mask.bits.shape == (pan_size, pan_size)
        assert ms.width == ms.height == pan_size // spec.factor + 2 * ms_margin

    def test_seed_changes_scene(self):
        a = generate_scene(SceneSpec(kind="bridge", seed=1))
        b = generate_scene(SceneSpec(kind="bridge", seed=2))
        assert not np.array_equal(a[0].data, b[0].data)

    def test_band_combine_max_on_roads(self):
        spec = SceneSpec(kind="roundabout", seed=9, noise=0.0, clutter=0, offset=(0, 0))
        pan, ms, truth = generate_scene(spec)
        combined = band_combine(ms).data
        top = combined >= combined.max() - 1e-9
        # truth only covers the pan frame (ms cells 8..39); roads continue
        # beyond it, so assert on that window
        obj_big = np.zeros((192, 192), dtype=bool)
        obj_big[32:160, 32:160] = truth.mask.bits
        road_frac = obj_big.reshape(48, 4, 48, 4).mean(axis=(1, 3))
        inner = np.zeros((48, 48), dtype=bool)
        inner[8:40, 8:40] = True
        assert combined.max() == pytest.approx(90.0, abs=1.0)
        assert (road_frac[top & inner] > 0.99).all()  # maxima only on road blocks
        assert (top & inner).any()

    def test_offset_displaces_pan_content(self):
        spec = SceneSpec(kind="bridge", seed=5, offset=(3, -2))
        _, _, truth = generate_scene(spec)
        _, _, truth0 = generate_scene(replace(spec, offset=(0, 0)))
        assert truth.offset == (3, -2)
        moved = translate(truth0.mask, 3, -2)
        # identical away from the frame band where content enters/leaves
        assert np.array_equal(
            moved.bits[12:-12, 12:-12], truth.mask.bits[12:-12, 12:-12]
        )

    def test_truth_primitives_recoverable_from_mask(self):
        spec = SceneSpec(kind="roundabout", seed=2, offset=(0, 0))
        _, _, truth = generate_scene(spec)
        prims = decompose(truth.mask, "skeleton", resolution=2.5)
        circles = [p for p in prims if p.kind == "circle"]
        segs = [p for p in prims if p.kind == "segment"]
        assert len(circles) == 1
        assert circles[0].radius == pytest.approx(spec.circle_radius_m, abs=2.5)
        assert len(segs) == 4
        want = {_direction(truth.primitives[1]), _direction(truth.primitives[2])}
        for s in segs:
            diff = min(
                min(abs(_direction(s) - w), math.pi - abs(_direction(s) - w)) for w in want
            )
            assert diff < math.radians(5.0)

    def test_bridge_mask_arm_orientations(self):
        spec = SceneSpec(kind="bridge", seed=3, offset=(0, 0), main_angle=0.6)
        _, _, truth = generate_scene(spec)
        prims = decompose(truth.mask, "skeleton", resolution=2.5)
        segs = [p for p in prims if p.kind == "segment" and p.length > 20.0]
        want = {0.6 % math.pi, (0.6 + math.pi / 2) % math.pi}
        assert len(segs) >= 3
        for s in segs:
            diff = min(
                min(abs(_direction(s) - w), math.pi - abs(_direction(s) - w)) for w in want
            )
            assert diff < math.radians(5.0)

    def test_bridge_truth_arg_structure(self):
        """Two road axes, each cut at their crossing: four segments that all
        end there, so every pair is joined end to end."""
        spec = SceneSpec(kind="bridge", seed=5, main_angle=0.4)
        _, _, truth = generate_scene(spec)
        assert truth.arg.kinds == ("segment",) * 4
        assert sorted((a, b, conn) for a, b, conn, _ in truth.arg.edges) == [
            (a, b, "end-to-end") for a in range(4) for b in range(a + 1, 4)
        ]

    @pytest.mark.parametrize("kind", ["bridge", "roundabout"])
    @pytest.mark.parametrize("main_angle, offset", [
        (0.4, (0, 0)), (0.0, (10, -10)), (math.pi / 2, (-7, 3)), (2.9, (4, 9)),
    ])
    def test_truth_segment_ends(self, kind, main_angle, offset):
        """Every end of a truth segment lies on the edge of the frame the
        mask covers (the pan frame shifted by the offset), on the crossing
        of a bridge's two roads, or on a roundabout's ring."""
        spec = SceneSpec(kind=kind, seed=1, main_angle=main_angle, offset=offset)
        _, _, truth = generate_scene(spec)
        res, half = spec.pan_res, spec.pan_size / 2
        lo = ((-half - offset[0]) * res, (-half - offset[1]) * res)
        hi = ((half - offset[0]) * res, (half - offset[1]) * res)
        d_sec = _RIVER_WIDTH_M / 2 + _SECONDARY_GAP_M + spec.road_width_m / 2
        crossing = (-d_sec * math.cos(main_angle), -d_sec * math.sin(main_angle))

        def on_frame_edge(x, y):
            inside = all(lo[k] - 1e-9 <= c <= hi[k] + 1e-9 for k, c in enumerate((x, y)))
            return inside and min(abs(x - lo[0]), abs(x - hi[0]), abs(y - lo[1]), abs(y - hi[1])) < 1e-9

        segs = [p for p in truth.primitives if p.kind == "segment"]
        assert len(segs) == 4
        for seg in segs:
            for x, y in seg.endpoints:
                if kind == "bridge":
                    special = math.hypot(x - crossing[0], y - crossing[1]) < 1e-9
                else:
                    special = abs(math.hypot(x, y) - spec.circle_radius_m) < 1e-9
                assert on_frame_edge(x, y) or special, (x, y)
            assert on_frame_edge(*seg.endpoints[0]) != on_frame_edge(*seg.endpoints[1])

    def test_acceptance_bridge_truth_graphs_match_their_masks(self):
        """Each of the 20 bridges of the acceptance corpus has a truth graph
        that shares part of its structure with its own mask's graph (the
        normalized MCS distance is below 1), and the mean distance is at
        most 0.40."""
        specs = [s for s in corpus_specs(20, 20, seed=44, noise=8, clutter=2) if s.kind == "bridge"]
        dists = []
        for spec in specs:
            _, _, truth = generate_scene(spec)
            g = shape_graph(truth.mask, spec.pan_res, PipelineConfig())
            dists.append(graph_distance(g, truth.arg))
        assert len(dists) == 20 and max(dists) < 1.0
        assert sum(dists) / len(dists) <= 0.40

    def test_roundabout_truth_arg_structure(self):
        spec = SceneSpec(kind="roundabout", seed=5, main_angle=0.3)
        _, _, truth = generate_scene(spec)
        assert sorted(truth.arg.kinds) == ["circle"] + ["segment"] * 4
        star = [e for e in truth.arg.edges if 0 in (e[0], e[1])]
        assert len(star) == 4 and all(e[2] == "end-to-side" for e in star)

    def test_clutter_does_not_touch_object(self):
        spec = SceneSpec(kind="roundabout", seed=6, clutter=3, offset=(0, 0))
        pan, _, truth = generate_scene(spec)
        bright = pan.data >= 150
        clutter_px = bright & ~truth.mask.bits
        if clutter_px.any():
            from cartoseg.morph import StructuringElement, dilate
            from cartoseg.raster import BinaryMask

            grown = dilate(BinaryMask(clutter_px), StructuringElement("square", 2))
            assert not (grown.bits & truth.mask.bits).any()


class TestValueNoise:
    @pytest.mark.parametrize("seed, shape", [(0, (16, 16)), (3, (37, 50)), (9, (65, 17))])
    def test_equals_bilinear_at_on_its_grid(self, seed, shape):
        got = _value_noise(np.random.default_rng(seed), shape, 6.0)
        grid = np.random.default_rng(seed).normal(
            0.0, 1.0, (shape[0] // _TEXTURE_CELL + 2, shape[1] // _TEXTURE_CELL + 2))
        want = np.array([[6.0 * bilinear_at(grid, x / _TEXTURE_CELL, y / _TEXTURE_CELL)
                          for x in range(shape[1])] for y in range(shape[0])])
        assert np.array_equal(got, want)


def corpus_digest(tmp_path, specs) -> str:
    """sha256 over the name and bytes of every file `write_corpus` writes."""
    write_corpus(tmp_path, specs)
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class TestRenderDigests:
    """The bytes of written corpora, pinned: a faster renderer must draw the
    same random numbers in the same order and do the same arithmetic."""

    CASES = {
        # every fifth scene of the acceptance corpus: two bridges, two roundabouts
        "acceptance": (lambda: corpus_specs(20, 20, seed=44, noise=8, clutter=2)[::5],
                       "32128f6fece78cb6bb196b67c91950ead48400f4b9e67194c43a631285fac67d"),
        "frame256": (lambda: [SceneSpec(kind=k, seed=s, noise=8, clutter=2, pan_size=256)
                              for k, s in (("bridge", 11), ("roundabout", 12))],
                     "885ec1de27a9b85e498775616bc94e29f743846b6db61fc027147844e1acd4d4"),
        "noise 0, clutter 0": (lambda: [SceneSpec(kind=k, seed=s)
                                        for k, s in (("bridge", 13), ("roundabout", 14))],
                               "7de4ff77a371d588b1ec4fee3a341d99a581b9aff7b8f8689127627853eebf93"),
        "pan_res 5": (lambda: [SceneSpec(kind=k, seed=s, noise=4, clutter=1, pan_res=5.0, pan_size=64)
                               for k, s in (("bridge", 15), ("roundabout", 16))],
                      "77740654100f2f4bbd0d5778ccfc2c1ed601a866e85f0f8a596f57045e3a4d8c"),
        "offsets +-10": (lambda: [SceneSpec(kind=k, seed=s, noise=8, clutter=2, offset=o, main_angle=a)
                                  for k, s, o, a in (("bridge", 17, (10, -10), 0.3),
                                                     ("roundabout", 18, (-10, 10), 2.0),
                                                     ("bridge", 19, (-10, -10), None),
                                                     ("roundabout", 20, (10, 10), None))],
                         "b989e9a597999fff04207f54ace67a4d0f7e47e0a4c577ddc34d9b64ab620792"),
        "margin 3": (lambda: [SceneSpec(kind=k, seed=s, noise=8, clutter=2, pan_size=96, ms_margin=3)
                              for k, s in (("bridge", 21), ("roundabout", 22))],
                     "3910efc2c490b2f189e0ab8595a049a13ea5ab930b89101d52eff2435329d70e"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_written_bytes(self, tmp_path, case):
        make, want = self.CASES[case]
        assert corpus_digest(tmp_path, make()) == want


class TestCorpus:
    def test_specs_reproducible(self):
        a = corpus_specs(3, 2, seed=7, noise=4.0, clutter=1)
        b = corpus_specs(3, 2, seed=7, noise=4.0, clutter=1)
        assert a == b
        assert [s.kind for s in a] == ["bridge"] * 3 + ["roundabout"] * 2
        assert all(max(abs(s.offset[0]), abs(s.offset[1])) <= 10 for s in a)

    def test_negative_count_rejected(self):
        with pytest.raises(SpecError):
            corpus_specs(-1, 2)
        with pytest.raises(SpecError):
            corpus_specs(2, -1)
        assert corpus_specs(0, 0) == []

    @pytest.mark.parametrize("offset", [[1.7, "3"], [1, 2, 3], [1], [1.0, 2], None, "12",
                                        [True, False], [1, True]])
    def test_truth_offset_is_two_integers(self, tmp_path, offset):
        write_corpus(tmp_path, corpus_specs(1, 0, seed=3))
        path = tmp_path / "scene_000_truth.json"
        doc = json.loads(path.read_text())
        doc["offset"] = offset
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="offset"):
            load_truth(path)

    def test_write_corpus_files_and_manifest(self, tmp_path):
        specs = corpus_specs(1, 1, seed=3)
        manifest = write_corpus(tmp_path, specs)
        assert len(manifest["scenes"]) == 2
        entry = manifest["scenes"][0]
        pan = read_raster(tmp_path / entry["files"]["pan"])
        assert pan.resolution == 2.5
        ms = read_raster(tmp_path / entry["files"]["ms"])
        assert ms.resolution == 10.0
        mask = read_mask(tmp_path / entry["files"]["truth_mask"])
        kind, offset, arg = load_truth(tmp_path / entry["files"]["truth"])
        assert kind == entry["kind"]
        assert list(offset) == entry["offset"]
        assert arg.size >= 4
        assert not mask.is_empty()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
