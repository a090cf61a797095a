"""Smoke tests of the scripts: what the experiment script prints is what
the reports it wrote hold, and the pair runner's summary of canned results."""

import importlib.util
import json
import subprocess
from pathlib import Path

from cartoseg.graphs import graph_distance, is_isomorphic
from cartoseg.pipeline import PipelineConfig, shape_graph
from cartoseg.raster import read_mask, read_raster
from cartoseg.synth import load_truth

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quality_prints_the_report_numbers(tmp_path, capsys):
    quality = load_script("quality")
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


def result_line(wall: float, share: float) -> str:
    """A canned last line of `perfbench/run.py`."""
    return json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "correct_share": {"value": share, "unit": "ratio"}}})


END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "correct_share", "better": "higher", "bound": 0.1}]
# (parent, change) per pair: the change is faster in pairs 1, 3 and 4, and
# has the higher share in pair 3 only
CANNED = [((3.0, 1.0), (2.0, 1.0)), ((2.0, 1.0), (2.5, 0.9)),
          ((4.0, 0.9), (1.0, 1.0)), ((5.0, 1.0), (1.5, 1.0))]
# ten pairs: the change is faster in all but the first, and its share is
# 20 % below the parent's in every pair
CANNED_10 = [((3.0 + 0.1 * i, 1.0), (2.0 + 0.1 * i if i else 3.5, 0.8)) for i in range(10)]


def test_pairs_summary_of_canned_results():
    pairs = load_script("pairs")
    lines = [(result_line(*p), result_line(*c)) for p, c in CANNED]
    # the wall-time medians lie further apart than the parent's quartiles,
    # but four pairs are too few
    assert pairs.summarize("w", lines, END_TO_END) == [
        "w wall_s: parent 3.5 [2.75, 4.25]  change 1.75 [1.375, 2.125]  better in 3/4  unresolved",
        "w correct_share: parent 1 [0.975, 1]  change 1 [0.975, 1]  better in 1/4  unresolved",
    ]
    lines = [(result_line(*p), result_line(*c)) for p, c in CANNED_10]
    assert pairs.summarize("w", lines, END_TO_END) == [
        "w wall_s: parent 3.45 [3.225, 3.675]  change 2.55 [2.325, 2.775]  better in 9/10  gain",
        "w correct_share: parent 1 [1, 1]  change 0.8 [0.8, 0.8]  better in 0/10  worse",
    ]
    # three pairs that all favour the change are too few for a gain
    assert pairs.summarize("w", lines[1:4], END_TO_END)[0].endswith("better in 3/3  unresolved")


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch, capsys):
    pairs = load_script("pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": END_TO_END}))
    calls = []
    canned = {parent: iter(p for p, _ in CANNED), change: iter(c for _, c in CANNED)}

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout)
        return result_line(*next(canned[checkout]))

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main([str(parent), str(change), "--pairs", "4", "--log", str(tmp_path / "log")]) == 0
    assert calls == [parent, change, change, parent, parent, change, change, parent]
    assert capsys.readouterr().out.splitlines() == pairs.summarize(
        "w", [(result_line(*p), result_line(*c)) for p, c in CANNED], END_TO_END)
    logged = [json.loads(line) for line in (tmp_path / "log").read_text().splitlines()]
    assert [(r["pair"], r["side"]) for r in logged[:4]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]


def test_pairs_export_a_git_revision(tmp_path, monkeypatch):
    """A side that is no directory but a revision runs in a fresh export of
    that revision, which is gone once the runs end; a directory runs as is."""
    pairs = load_script("pairs")
    repo, change = tmp_path / "repo", tmp_path / "change"
    change.mkdir()
    bench = json.dumps({"workloads": [{"name": "w"}], "end_to_end": END_TO_END})
    (change / "BENCHMARK.json").write_text(bench)
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    for version in ("old", "new"):
        (repo / "version.txt").write_text(version)
        subprocess.run(git + ["add", "version.txt"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", version], check=True)
    canned = dict(zip(("old", "change"), CANNED[0]))
    seen = {}

    def run_once(checkout, workload, seed, seconds):
        side = "change" if checkout == change else (checkout / "version.txt").read_text()
        seen[checkout] = side
        return result_line(*canned[side])

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.chdir(repo)
    assert pairs.main(["HEAD~1", str(change), "--pairs", "2"]) == 0
    (export,) = [c for c, side in seen.items() if side == "old"]
    assert export not in (repo, change) and not export.exists()
    assert sorted(seen.values()) == ["change", "old"]
