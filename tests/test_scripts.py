"""Smoke test of the experiment script: what it prints is what the
reports it wrote hold."""

import importlib.util
import json
from pathlib import Path

from cartoseg.graphs import graph_distance, is_isomorphic
from cartoseg.pipeline import PipelineConfig, shape_graph
from cartoseg.raster import read_mask, read_raster
from cartoseg.synth import load_truth

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "quality.py"


def test_quality_prints_the_report_numbers(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("quality", SCRIPT)
    quality = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(quality)
    assert quality.main(["--n", "1", "--levels", "0", "8", "--out", str(tmp_path)]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 2
    for level, block in zip(("0", "8"), blocks):
        report = json.loads((tmp_path / f"noise_{level}" / "results" / "report.json").read_text())
        lines = block.splitlines()
        assert lines[0].startswith(f"noise {level}: 2 scenes")
        assert len(lines) == 10
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:5]}
        means = {}
        for stage in ("segment", "match", "extract"):
            counts = [sum(by_kind[c] for by_kind in report["aggregate"][stage].values())
                      for c in ("correct", "acceptable", "incorrect")]
            ious = [s["stages"][stage]["iou"] for s in report["scenes"]]
            means[stage] = sum(ious) / len(ious)
            want = [*map(str, counts), str(len(ious)), f"{means[stage]:.6f}", f"{min(ious):.6f}"]
            assert rows[stage] == want
        gain = means["extract"] - means["match"]
        assert lines[5] == f"extract - match mean IoU: {gain:+.6f}"
        models = report["models"]
        assert sorted(models) == ["bridge", "roundabout"]
        for line, kind in zip(lines[6:8], sorted(models)):
            info = models[kind]
            dists = list(info["distances"].values())
            assert line == (f"model[{kind}]: {info['prototypes']} prototypes, bounds "
                            f"{info['max_csg_size']}/{info['min_csg_size']} vertices, "
                            f"mean training distance {sum(dists) / len(dists):.6f}")
        corpus = tmp_path / f"noise_{level}" / "corpus"
        scenes = json.loads((corpus / "manifest.json").read_text())["scenes"]
        for line, entry in zip(lines[8:], sorted(scenes, key=lambda e: e["kind"])):
            kind, _, truth = load_truth(corpus / entry["files"]["truth"])
            resolution = read_raster(corpus / entry["files"]["pan"]).resolution
            g = shape_graph(read_mask(corpus / entry["files"]["truth_mask"]), resolution, PipelineConfig())
            iso = int(is_isomorphic(g, truth))
            assert line == f"truth[{kind}]: {iso}/1 isomorphic, mean distance {graph_distance(g, truth):.6f}"
