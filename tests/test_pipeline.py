import itertools
import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cartoseg import pipeline
from cartoseg.pipeline import PipelineConfig, evaluate, run_pipeline
from cartoseg.raster import BinaryMask
from cartoseg.synth import SceneSpec, SpecError, corpus_specs, write_corpus
from oracles import edges_then_triangle


def mask_of(bits):
    return BinaryMask(np.asarray(bits, dtype=bool))


class TestEvaluate:
    def test_identity(self):
        m = mask_of(np.eye(6))
        assert evaluate(m, m) == (1.0, "correct")

    def test_disjoint(self):
        a = np.zeros((6, 6), dtype=bool)
        a[0, 0] = True
        b = np.zeros((6, 6), dtype=bool)
        b[5, 5] = True
        iou, cat = evaluate(mask_of(a), mask_of(b))
        assert iou == 0.0 and cat == "incorrect"

    def test_half_overlapping_squares_one_third(self):
        a = np.zeros((8, 12), dtype=bool)
        b = np.zeros((8, 12), dtype=bool)
        a[2:6, 2:6] = True
        b[2:6, 4:8] = True  # overlap 4x2 = 8; union 24
        iou, cat = evaluate(mask_of(a), mask_of(b))
        assert iou == pytest.approx(1 / 3)
        assert cat == "incorrect"

    def test_both_empty_degenerate_correct(self):
        e = mask_of(np.zeros((4, 4)))
        assert evaluate(e, e) == (1.0, "correct")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(mask_of(np.zeros((4, 4))), mask_of(np.zeros((5, 4))))

    def test_acceptable_band(self):
        a = np.zeros((10, 10), dtype=bool)
        b = np.zeros((10, 10), dtype=bool)
        a[0:6, 0:10] = True
        b[2:8, 0:10] = True  # IoU = 40/80 = 0.5
        iou, cat = evaluate(mask_of(a), mask_of(b))
        assert iou == pytest.approx(0.5) and cat == "acceptable"


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.iou_correct >= cfg.iou_acceptable

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            PipelineConfig(iou_correct=0.4, iou_acceptable=0.6)

    def test_from_file_and_overrides(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\ndelta=12.5\nhalf_window=8\ndistance_mode=bounds\n")
        cfg = PipelineConfig.from_file(p)
        assert cfg.delta == 12.5 and cfg.half_window == 8 and cfg.distance_mode == "bounds"
        cfg2 = cfg.with_overrides({"delta": "3", "save_intermediates": "false"})
        assert cfg2.delta == 3.0 and cfg2.save_intermediates is False

    def test_bool_spellings(self):
        cfg = PipelineConfig()
        for raw in ("1", "TRUE", "Yes", "on"):
            assert cfg.with_overrides({"save_intermediates": raw}).save_intermediates is True
        for raw in ("0", "False", "NO", "off"):
            assert cfg.with_overrides({"save_intermediates": raw}).save_intermediates is False
        for raw in ("flase", "", "2"):
            with pytest.raises(ValueError):
                cfg.with_overrides({"save_intermediates": raw})

    @pytest.mark.parametrize(
        "key, raw",
        [("merge_dist", "nan"), ("min_edge_len", "-1"), ("canny_sigma", "nan"),
         ("canny_sigma", "0"), ("half_window", "-3"), ("se_shape", "hexagon"),
         ("match_se_radius", "0"), ("boundary_se_radius", "0"), ("decompose_mode", "foo"),
         ("decompose_mode", "shapes"), ("threshold_source", "ch9"),
         ("canny_high_percentile", "150"), ("canny_high_percentile", "-1"),
         ("canny_low_fraction", "0"), ("canny_low_fraction", "2"), ("delta", "-5"),
         ("adjacency_tol", "-1"), ("smooth_window", "-3"), ("smooth_window", "0"),
         ("min_support", "-1"), ("min_support", "0"), ("node_budget", "-5"),
         ("node_budget", "0")],
    )
    def test_bad_numeric_rejected(self, key, raw):
        with pytest.raises(ValueError):
            PipelineConfig().with_overrides({key: raw})

    def test_nan_rejected_in_every_float_field(self):
        floats = [f.name for f in fields(PipelineConfig) if f.type == "float"]
        assert "delta" in floats and "adjacency_tol" in floats
        for name in floats:
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match=name):
                    PipelineConfig().with_overrides({name: raw})

    def test_unknown_key_rejected(self, tmp_path):
        """Also each key the pipeline no longer has."""
        p = tmp_path / "cfg.txt"
        for key in ("no_such_knob", "threshold_source", "prune_spurs", "se_shape", "build_models",
                    "match_se_radius"):
            p.write_text(f"{key}=1\n")
            with pytest.raises(ValueError, match="unknown config key"):
                PipelineConfig.from_file(p)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    specs = corpus_specs(2, 2, seed=21, noise=4.0, clutter=1)
    write_corpus(root, specs)
    return root


class TestRunPipeline:
    def test_stages_and_quality(self, small_corpus, tmp_path):
        cfg = PipelineConfig(corpus=str(small_corpus), out=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert len(report.scenes) == 4
        for scene in report.scenes:
            assert "error" not in scene
            for stage in ("segment", "match", "extract"):
                assert scene["stages"][stage]["iou"] >= 0.5
        agg = report.aggregate
        for stage in ("segment", "match", "extract"):
            total = sum(sum(c.values()) for c in agg[stage].values())
            assert total == 4  # counts sum to corpus size per stage
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "scene_000_object.pgm").exists()
        assert report.models["bridge"]["prototypes"] >= 1

    def test_error_isolation(self, small_corpus, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_corpus, broken)
        (broken / "scene_001_pan.pgm").write_bytes(b"P5\n4 4\n255\n")  # truncated
        cfg = PipelineConfig(corpus=str(broken), out=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        failed = [s for s in report.scenes if "error" in s]
        assert len(failed) == 1 and failed[0]["id"] == "scene_001"
        assert failed[0]["failed_stage"] == "load"
        done = [s for s in report.scenes if "error" not in s]
        assert len(done) == 3
        # the failed scene counts as incorrect in every stage aggregate
        kind = failed[0]["kind"]
        assert report.aggregate["extract"][kind]["incorrect"] >= 1

    @pytest.mark.parametrize("offset", [[1.7, "3"], [1, 2, 3], [True, False]])
    def test_malformed_truth_offset_is_scene_load_error(self, small_corpus, tmp_path, offset):
        """An offset that is not exactly two integers is not rounded or cut:
        its scene records the load error, and the others run."""
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_corpus, broken)
        path = broken / "scene_001_truth.json"
        doc = json.loads(path.read_text())
        doc["offset"] = offset
        path.write_text(json.dumps(doc))
        report = run_pipeline(PipelineConfig(corpus=str(broken), out=str(tmp_path / "out")))
        failed = [s for s in report.scenes if "error" in s]
        assert [s["id"] for s in failed] == ["scene_001"]
        assert failed[0]["failed_stage"] == "load"
        assert failed[0]["error"].startswith("load failed: not a truth offset")
        assert sum("error" not in s for s in report.scenes) == 3

    def test_fold_over_budget_keeps_the_distances(self, tmp_path):
        """At 500 nodes the roundabout fold trips and its prototype distances
        do not: the kind keeps its prototypes and distances and records the
        fold's error beside them, the report keeps the bridge model as
        before, and no roundabout model file is written.  Scoring by the
        bounds needs the fold, so there the fold's error is the kind's."""
        write_corpus(tmp_path / "c", corpus_specs(3, 3, seed=5, noise=4.0, clutter=1))
        cfg = PipelineConfig(corpus=str(tmp_path / "c"), out=str(tmp_path / "out"), node_budget=500)
        report = run_pipeline(cfg)
        bridge = ('"bridge": {"distances": {"scene_000": 0.0, "scene_001": 0.0, "scene_002": 0.0}, '
                  '"max_csg_size": 2, "min_csg_size": 10, "prototypes": 3}')
        assert json.dumps(report.models, sort_keys=True) == (
            '{' + bridge + ', "roundabout": {"bounds_error": "graph search exceeded 500 nodes", '
            '"distances": {"scene_003": 0.0, "scene_004": 0.0, "scene_005": 0.0}, "prototypes": 3}}'
        )
        assert sorted(p.name for p in (tmp_path / "out").glob("model_*.json")) == ["model_bridge.json"]
        report = run_pipeline(replace(cfg, out=str(tmp_path / "bounds"), distance_mode="bounds"))
        assert report.models["roundabout"] == {"error": "graph search exceeded 500 nodes"}
        assert sorted(p.name for p in (tmp_path / "bounds").glob("model_*.json")) == ["model_bridge.json"]

    def test_match_over_budget_is_the_kinds_error(self, small_corpus, tmp_path, monkeypatch):
        """Shapes whose isomorphism test takes minutes with no budget
        (`edges_then_triangle` at eight edges): grouping them into
        prototypes stops at the configured node budget, and each kind
        records the error."""
        shapes = itertools.cycle(edges_then_triangle(8))
        monkeypatch.setattr(pipeline, "shape_graph", lambda *args: next(shapes))
        cfg = PipelineConfig(corpus=str(small_corpus), out=str(tmp_path / "out"), node_budget=1000)
        report = run_pipeline(cfg)
        error = {"error": "isomorphism test exceeded 1000 placements"}
        assert report.models == {"bridge": error, "roundabout": error}

    def test_byte_identical_reruns(self, small_corpus, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_pipeline(PipelineConfig(corpus=str(small_corpus), out=str(out_a)))
        run_pipeline(PipelineConfig(corpus=str(small_corpus), out=str(out_b)))
        ra = (out_a / "report.json").read_bytes()
        rb = (out_b / "report.json").read_bytes()
        # the config block embeds the out path; compare everything else
        da, db = json.loads(ra), json.loads(rb)
        da["config"].pop("out"), db["config"].pop("out")
        assert da == db
        for pgm in sorted(out_a.glob("*.pgm")):
            assert pgm.read_bytes() == (out_b / pgm.name).read_bytes()

    def test_noise_free_scene_extraction_quality(self, tmp_path):
        # generous geometry: every stage optimum is known and the boundary
        # discretization loss is small relative to the object area
        specs = [
            SceneSpec(
                kind="bridge",
                seed=77,
                offset=(0, 0),
                noise=0.0,
                clutter=0,
                road_width_m=50.0,
                main_angle=0.5,
            )
        ]
        corpus = tmp_path / "one"
        write_corpus(corpus, specs)
        report = run_pipeline(
            PipelineConfig(corpus=str(corpus), out=str(tmp_path / "out_one"))
        )
        extract = report.scenes[0]["stages"]["extract"]
        assert extract["iou"] >= 0.95
        assert extract["category"] == "correct"

    def test_report_text_shape(self, small_corpus, tmp_path):
        cfg = PipelineConfig(corpus=str(small_corpus), out=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        text = report.to_text()
        lines = text.strip().splitlines()
        assert lines[0].split() == ["Step", "Object", "Correct", "Acceptable", "Incorrect"]
        assert len(lines) == 1 + 3 * 2  # three stages x two kinds
        assert "Segm." in text and "Match." in text and "Extract." in text


@st.composite
def accepted_specs(draw):
    """Scene specs that `SceneSpec` accepts, 24-48 panchromatic pixels wide."""
    try:
        return SceneSpec(
            kind=draw(st.sampled_from(("bridge", "roundabout"))),
            pan_size=draw(st.sampled_from(range(24, 49, 4))),
            clutter=draw(st.integers(0, 3)),
            seed=draw(st.integers(0, 2**16)),
            ms_margin=draw(st.integers(0, 8)),
            offset=draw(st.tuples(st.integers(-10, 10), st.integers(-10, 10))),
            noise=draw(st.sampled_from((0.0, 4.0, 8.0))),
        )
    except SpecError:
        assume(False)


class TestEveryCorpusEnds:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(accepted_specs(), min_size=1, max_size=3))
    def test_one_record_per_scene(self, specs):
        """Whatever a stage makes of a small rendered scene, the pipeline
        ends with one record per manifest scene, in manifest order."""
        with tempfile.TemporaryDirectory() as tmp:
            manifest = write_corpus(Path(tmp) / "c", specs)
            report = run_pipeline(PipelineConfig(corpus=str(Path(tmp) / "c"), out=str(Path(tmp) / "out")))
        assert [s["id"] for s in report.scenes] == [e["id"] for e in manifest["scenes"]]
