import json
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cartoseg
from cartoseg import graphs
from cartoseg.cli import _build_parser, main
from cartoseg.raster import BinaryMask, read_mask, translate, write_raster
from cartoseg.synth import SceneSpec, corpus_specs, generate_scene, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth", "--kind", "mixed", "--n", "4", "--seed", "5",
                 "--noise", "4", "--clutter", "1", "--out", str(root)]) == 0
    return root


def truth_masks(tmp_path, corpus_dir):
    """A directory holding the truth masks of the corpus's first two scenes."""
    masks = tmp_path / "masks"
    masks.mkdir()
    for entry in json.loads((corpus_dir / "manifest.json").read_text())["scenes"][:2]:
        m = read_mask(corpus_dir / entry["files"]["truth_mask"])
        write_raster(m, masks / f"{entry['id']}.pgm")
    return masks


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["synth", "--kind", "volcano", "--out", "x"]) == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: cartoseg" in capsys.readouterr().out

    def test_missing_file_is_two(self, tmp_path):
        rc = main(["edges", "--pan", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "e.json")])
        assert rc == 2

    def test_negative_scene_count_is_one(self, tmp_path):
        assert main(["synth", "--n", "-3", "--out", str(tmp_path / "corpus")]) == 1
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_one(self, tmp_path, noise, capsys):
        assert main(["synth", "--n", "2", "--noise", noise, "--out", str(tmp_path / "corpus")]) == 1
        assert not (tmp_path / "corpus").exists()
        assert "finite" in capsys.readouterr().err

    def test_budget_exceeded_is_three(self, tmp_path, corpus_dir):
        rc = main(["model", "--masks", str(truth_masks(tmp_path, corpus_dir)),
                   "--out", str(tmp_path / "m.json"), "--node_budget", "2"])
        assert rc == 3
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("resolution", ["0", "-2.5", "nan", "inf"])
    @pytest.mark.parametrize("command", ["model", "score"])
    def test_bad_resolution_is_one(self, tmp_path, corpus_dir, command, resolution, capsys):
        masks = truth_masks(tmp_path, corpus_dir)
        out = tmp_path / "m.json"
        if command == "model":
            argv = ["model", "--masks", str(masks), "--out", str(out)]
        else:
            (tmp_path / "model.json").write_text(
                graphs.model_to_json(graphs.generate_model([graphs.Arg(("circle",), [])])))
            argv = ["score", "--model", str(tmp_path / "model.json"),
                    "--mask", str(next(masks.glob("*.pgm")))]
        assert main([*argv, "--resolution", resolution]) == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "box",
        [(slice(None), slice(None))],  # full frame: no background rim
        ids=["empty-boundary"],
    )
    def test_empty_marker_is_two(self, tmp_path, corpus_dir, box, capsys):
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        pan_path = corpus_dir / entry["files"]["pan"]
        bits = np.zeros(read_mask(pan_path).bits.shape, dtype=bool)
        bits[box] = True
        mask_path = tmp_path / "mask.pgm"
        write_raster(BinaryMask(bits), mask_path)
        edges_path = tmp_path / "edges.json"
        assert main(["edges", "--pan", str(pan_path), "--out", str(edges_path)]) == 0
        rc = main(["extract", "--pan", str(pan_path), "--mask", str(mask_path),
                   "--edges", str(edges_path), "--out", str(tmp_path / "obj")])
        assert rc == 2
        assert "marker" in capsys.readouterr().err

    def test_bad_bool_is_one(self, tmp_path, corpus_dir):
        rc = main(["pipeline", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                   "--save_intermediates", "flase"])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, raw",
        [("half_window", "-3"), ("se_shape", "hexagon"), ("match_se_radius", "0"),
         ("boundary_se_radius", "0"), ("decompose_mode", "foo"), ("decompose_mode", "shapes"),
         ("threshold_source", "ch9"), ("prune_spurs", "4"), ("build_models", "false"),
         ("canny_high_percentile", "150"), ("canny_low_fraction", "2"), ("delta", "-5"),
         ("adjacency_tol", "-1"), ("smooth_window", "-3"), ("min_support", "-1"),
         ("node_budget", "-5"), ("half_window", "4.5")],
    )
    def test_bad_numeric_key_is_one(self, tmp_path, corpus_dir, key, raw):
        """Keys the pipeline no longer has (se_shape, match_se_radius,
        threshold_source, prune_spurs, build_models) fail as unknown flags."""
        rc = main(["pipeline", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                   f"--{key}", raw])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unreadable_number_names_its_key(self, tmp_path, corpus_dir, source, capsys):
        """A flag and a --config value are converted by the same code, and
        its error names the key."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("half_window=4.5\n")
        given = ["--half_window", "4.5"] if source == "flag" else ["--config", str(cfg)]
        rc = main(["pipeline", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"), *given])
        assert rc == 1
        assert not (tmp_path / "out").exists()
        assert "half_window: not a valid int: '4.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw", [("band_w1", "inf"), ("canny_sigma", "inf"),
                                          ("delta", "-inf"), ("adjacency_tol", "nan")])
    def test_non_finite_config_value_is_one(self, tmp_path, corpus_dir, key, raw, capsys):
        rc = main(["pipeline", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                   f"--{key}={raw}"])
        assert rc == 1
        assert not (tmp_path / "out").exists()
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text",
        [("--edges", "not json"),
         ("--edges", '{"width": 128}'),
         ("--edges", '{"width": 8, "height": 8, "chains": [{"closed": false, "points": [[0, 0]]}]}'),
         ("--edges", '{"width": 128.7, "height": 128, "chains": []}'),
         ("--arg", '{"vertices": [{"id": 0}], "edges": []}'),
         ("--arg", '{"vertices": [{"id": 0, "kind": "circle"}],'
                   ' "edges": [{"from": 0, "to": 0, "conn": "overlap", "dir": "E"}]}'),
         ("--arg", '{"vertices": [{"id": 0, "kind": "circle"}, {"id": 1, "kind": "circle"}],'
                   ' "edges": [{"from": 0, "to": 1, "conn": [1], "dir": "E"}]}'),
         ("--arg", '{"vertices": [{"id": 1, "kind": "circle"}, {"id": 0, "kind": "circle"}],'
                   ' "edges": []}'),
         ("--model", '{"max_csg": 1}'),
         ("--model", "[1, 2]"),
         ("--model", '{"max_csg": {"vertices": [], "edges": []},'
                     ' "min_csg": {"vertices": [], "edges": []}, "prototypes": []}')],
        ids=["edges-text", "edges-no-chains", "edges-one-point", "edges-fractional-width",
             "arg-no-kind", "arg-self-loop", "arg-list-conn", "arg-ids-out-of-order",
             "model-int-bound", "model-list",
             "model-no-prototypes"],
    )
    def test_malformed_json_is_two(self, tmp_path, corpus_dir, flag, text, capsys):
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        g = graphs.Arg(("circle",), [])
        good = {"--arg": graphs.arg_to_json(g),
                "--model": graphs.model_to_json(graphs.generate_model([g]))}
        for name, doc in {**good, flag: text}.items():
            (tmp_path / f"{name[2:]}.json").write_text(doc)
        bad = str(tmp_path / f"{flag[2:]}.json")
        argv = (["extract", "--mask", str(corpus_dir / entry["files"]["truth_mask"]),
                 "--pan", str(corpus_dir / entry["files"]["pan"]), "--edges", bad,
                 "--out", str(tmp_path / "out")]
                if flag == "--edges" else
                ["score", "--model", str(tmp_path / "model.json"),
                 "--arg", str(tmp_path / "arg.json")])
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("point", ["NaN", "1e12"])
    def test_unbounded_edge_point_is_two_promptly(self, tmp_path, corpus_dir, point):
        """A point that would send the line drawing on an endless walk."""
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        edges = tmp_path / "edges.json"
        edges.write_text('{"width": 128, "height": 128, "chains": [{"closed": false, '
                         f'"points": [[{point}, 1.0], [2.0, 1.0]]}}]}}')
        src = str(Path(cartoseg.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "cartoseg.cli", "extract",
             "--mask", str(corpus_dir / entry["files"]["truth_mask"]),
             "--pan", str(corpus_dir / entry["files"]["pan"]), "--edges", str(edges),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: not an edge set")

    @pytest.mark.parametrize("command", ["extract"])
    def test_edge_frame_mismatch_is_two(self, tmp_path, corpus_dir, command, capsys):
        """The chains are drawn on the pan, so the edge file must declare its frame."""
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        pan_path = str(corpus_dir / entry["files"]["pan"])
        edges_path = tmp_path / "edges.json"
        assert main(["edges", "--pan", pan_path, "--out", str(edges_path)]) == 0
        doc = json.loads(edges_path.read_text())
        w, h = doc["width"], doc["height"]
        edges_path.write_text(json.dumps({**doc, "width": 999}))
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main([command, "--mask", str(corpus_dir / entry["files"]["truth_mask"]),
                   "--pan", pan_path, "--edges", str(edges_path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: edge file frame 999x{h} differs from the pan's {w}x{h}\n")
        assert not out.exists()

    def test_no_prototype_is_two(self, tmp_path, corpus_dir, capsys):
        masks = tmp_path / "masks"
        masks.mkdir()
        for entry in json.loads((corpus_dir / "manifest.json").read_text())["scenes"]:
            shutil.copy(corpus_dir / entry["files"]["truth_mask"], masks)
        rc = main(["model", "--masks", str(masks), "--out", str(tmp_path / "m.json"),
                   "--min_support", "99"])
        assert rc == 2
        assert capsys.readouterr().err == "error: no prototype reached min_support\n"
        assert not (tmp_path / "m.json").exists()


class TestSynth(object):
    def test_writes_manifest(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 4
        kinds = {e["kind"] for e in manifest["scenes"]}
        assert kinds == {"bridge", "roundabout"}


class TestStageCommands:
    def test_segment(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "seg"
        rc = main(["segment", "--corpus", str(corpus_dir), "--delta", "10", "--out", str(out)])
        assert rc == 0
        assert (out / "threshold.txt").read_text().startswith("t_high=")
        assert len(list(out.glob("*_region.pgm"))) == 4

    def test_edges_match_extract_chain(self, corpus_dir, tmp_path, capsys):
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        pan_path = corpus_dir / entry["files"]["pan"]
        edges_path = tmp_path / "edges.json"
        rc = main(["edges", "--pan", str(pan_path), "--out", str(edges_path)])
        assert rc == 0 and edges_path.exists()

        # match the centered truth mask against the displaced scene
        spec_kwargs = dict(kind=entry["kind"], seed=entry["seed"], noise=entry["noise"],
                           clutter=entry["clutter"], offset=(0, 0))
        # regenerate the centered mask deterministically
        _, _, truth0 = generate_scene(SceneSpec(**spec_kwargs))
        mask_path = tmp_path / "mask.pgm"
        write_raster(truth0.mask, mask_path)
        capsys.readouterr()
        rc = main(["match", "--mask", str(mask_path), "--pan", str(pan_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["offset"] == entry["offset"]

        out = tmp_path / "extract"
        matched = tmp_path / "matched.pgm"
        write_raster(translate(truth0.mask, *doc["offset"]), matched)
        rc = main(["extract", "--pan", str(pan_path), "--mask", str(matched),
                   "--edges", str(edges_path), "--out", str(out)])
        assert rc == 0
        obj = read_mask(out / "object.pgm")
        truth = read_mask(corpus_dir / entry["files"]["truth_mask"])
        inter = np.count_nonzero(obj.bits & truth.bits)
        union = np.count_nonzero(obj.bits | truth.bits)
        assert inter / union >= 0.8

    def test_hand_chain_equals_pipeline(self, corpus_dir, tmp_path, capsys):
        """segment -> edges -> match -> extract with default flags writes
        what `pipeline` writes for the same scene."""
        pipe = tmp_path / "pipe"
        assert main(["pipeline", "--corpus", str(corpus_dir), "--out", str(pipe)]) == 0
        seg = tmp_path / "seg"
        assert main(["segment", "--corpus", str(corpus_dir), "--out", str(seg)]) == 0
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        sid = entry["id"]
        pan_path = str(corpus_dir / entry["files"]["pan"])
        mask_path = seg / f"{sid}_mask.pgm"
        assert mask_path.read_bytes() == (pipe / f"{sid}_mask.pgm").read_bytes()

        edges_path = tmp_path / "edges.json"
        assert main(["edges", "--pan", pan_path, "--out", str(edges_path)]) == 0
        assert edges_path.read_bytes() == (pipe / f"{sid}_edges.json").read_bytes()

        capsys.readouterr()
        assert main(["match", "--mask", str(mask_path), "--pan", pan_path]) == 0
        offset = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["offset"]
        report = json.loads((pipe / "report.json").read_text())
        scene = next(s for s in report["scenes"] if s["id"] == sid)
        assert offset == scene["stages"]["match"]["offset"]

        matched = tmp_path / "matched.pgm"
        write_raster(translate(read_mask(mask_path), *offset), matched)
        out = tmp_path / "extract"
        assert main(["extract", "--pan", pan_path, "--mask", str(matched),
                     "--edges", str(edges_path), "--out", str(out)]) == 0
        assert (out / "object.pgm").read_bytes() == (pipe / f"{sid}_object.pgm").read_bytes()

    def test_model_hand_chain_equals_pipeline(self, corpus_dir, tmp_path, capsys):
        """`model` over the pipeline's extracted objects of one kind writes
        that kind's model file, and `score` prints each object's distance."""
        pipe = tmp_path / "pipe"
        assert main(["pipeline", "--corpus", str(corpus_dir), "--out", str(pipe)]) == 0
        report = json.loads((pipe / "report.json").read_text())
        for kind in ("bridge", "roundabout"):
            distances = report["models"][kind]["distances"]
            objects = tmp_path / kind
            objects.mkdir()
            for sid in distances:
                shutil.copy(pipe / f"{sid}_object.pgm", objects)
            model = tmp_path / f"model_{kind}.json"
            assert main(["model", "--masks", str(objects), "--out", str(model)]) == 0
            assert model.read_bytes() == (pipe / f"model_{kind}.json").read_bytes()
            for sid, want in distances.items():
                capsys.readouterr()
                assert main(["score", "--model", str(model),
                             "--mask", str(objects / f"{sid}_object.pgm")]) == 0
                assert round(json.loads(capsys.readouterr().out)["distance"], 6) == want

    def test_model_and_score(self, corpus_dir, tmp_path, capsys):
        masks = tmp_path / "masks"
        masks.mkdir()
        entries = json.loads((corpus_dir / "manifest.json").read_text())["scenes"]
        round_entries = [e for e in entries if e["kind"] == "roundabout"]
        for e in round_entries:
            m = read_mask(corpus_dir / e["files"]["truth_mask"])
            write_raster(m, masks / f"{e['id']}.pgm")
        model_path = tmp_path / "model.json"
        rc = main(["model", "--masks", str(masks), "--out", str(model_path)])
        assert rc == 0 and model_path.exists()
        capsys.readouterr()
        rc = main(["score", "--model", str(model_path),
                   "--mask", str(masks / f"{round_entries[0]['id']}.pgm")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert 0.0 <= doc["distance"] <= 1.0

    def test_eval(self, corpus_dir, tmp_path, capsys):
        entry = json.loads((corpus_dir / "manifest.json").read_text())["scenes"][0]
        t = str(corpus_dir / entry["files"]["truth_mask"])
        rc = main(["eval", "--result", t, "--truth", t])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc == {"category": "correct", "iou": 1.0}


# two readable scenes that share one id
_DUPLICATE_IDS = json.dumps({"scenes": [
    {"id": "scene_000", "kind": "bridge",
     "files": {k: f"scene_00{i}_{v}" for k, v in
               (("pan", "pan.pgm"), ("ms", "ms.ppm"), ("truth", "truth.json"),
                ("truth_mask", "truth.pgm"))}}
    for i in (0, 1)]})


class TestPipelineCommand:
    def test_full_run_with_flag_override(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["pipeline", "--corpus", str(corpus_dir), "--out", str(out),
                   "--min_support", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Extract." in text
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["min_support"] == 1
        assert len(report["scenes"]) == 4

    def test_no_prototype_is_recorded(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(corpus_dir), "--out", str(out),
                     "--min_support", "99", "--save_intermediates", "false"]) == 0
        models = json.loads((out / "report.json").read_text())["models"]
        error = {"error": "no prototype reached min_support"}
        assert models == {"bridge": error, "roundabout": error}
        assert not list(out.glob("model_*.json"))

    @pytest.mark.parametrize(
        "text",
        ["garbage", '{"scenes": [{"id": "x"}]}', "[]", '{"scenes": 3}',
         '{"scenes": [{"id": 1, "kind": "bridge"}]}', _DUPLICATE_IDS],
        ids=["not-json", "no-kind", "list", "scenes-int", "int-id", "duplicate-id"],
    )
    def test_malformed_manifest_is_two_before_any_write(self, corpus_dir, tmp_path, text, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        (corpus / "manifest.json").write_text(text)
        out = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not a corpus manifest")
        assert not out.exists()

    def test_scene_without_files_is_load_error(self, corpus_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        del manifest["scenes"][0]["files"]
        manifest["scenes"][1]["files"] = "scene.pgm"
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(corpus), "--out", str(out),
                     "--save_intermediates", "false"]) == 0
        scenes = {s["id"]: s for s in json.loads((out / "report.json").read_text())["scenes"]}
        failed = {s["id"] for s in manifest["scenes"][:2]}
        assert {sid for sid, s in scenes.items() if s.get("failed_stage") == "load"} == failed
        assert all("error" not in s for sid, s in scenes.items() if sid not in failed)

    @pytest.mark.parametrize("command", ["pipeline", "segment"])
    def test_tiny_clip_is_that_scenes_load_error(self, tmp_path, command, capsys):
        """A scene whose multispectral clip is smaller than the central window
        fails to load; the others run as on the corpus without it."""
        specs = corpus_specs(2, 2, seed=3)
        specs[1] = replace(specs[1], pan_size=16)  # a 4x4 clip
        mixed = tmp_path / "mixed"
        write_corpus(mixed, specs)
        rest = tmp_path / "rest"
        shutil.copytree(mixed, rest)
        manifest = json.loads((rest / "manifest.json").read_text())
        del manifest["scenes"][1]
        (rest / "manifest.json").write_text(json.dumps(manifest))
        for corpus in (mixed, rest):
            assert main([command, "--corpus", str(corpus), "--out", str(corpus / "out"),
                         "--save_intermediates", "false"]) == 0
        if command == "segment":
            assert "scene_001: load failed" in capsys.readouterr().err
            assert sorted(p.name for p in (mixed / "out").iterdir()) == sorted(
                p.name for p in (rest / "out").iterdir())
            for p in (rest / "out").iterdir():
                assert p.read_bytes() == (mixed / "out" / p.name).read_bytes()
            return
        got, want = (json.loads((c / "out" / "report.json").read_text()) for c in (mixed, rest))
        small = got["scenes"].pop(1)
        assert small["failed_stage"] == "load" and "central window" in small["error"]
        assert got["scenes"] == want["scenes"]
        assert (got["threshold"], got["models"]) == (want["threshold"], want["models"])

    @pytest.mark.parametrize("command", ["pipeline", "segment"])
    def test_only_tiny_clips_is_two(self, tmp_path, command):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, [replace(s, pan_size=16) for s in corpus_specs(1, 1, seed=3)])
        assert main([command, "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_config_file(self, corpus_dir, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("delta=10\nsave_intermediates=false\n")
        out = tmp_path / "out2"
        rc = main(["pipeline", "--config", str(cfg), "--corpus", str(corpus_dir),
                   "--out", str(out)])
        assert rc == 0
        assert not list(out.glob("*_region.pgm"))  # intermediates disabled
        assert (out / "report.json").exists()


def test_readme_commands_parse():
    """Every `cartoseg ...` line in README.md is a valid command line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("cartoseg ")]
    assert len(lines) >= 9
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
