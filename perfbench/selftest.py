#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny corpus (2 + 2 scenes).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints the metrics that
`BENCHMARK.json` names with their units and passes its output checks; that
the trace's self times add up to the traced wall time; that tracing puts
every wrapped name back; and that the benchmark fails without a result in
a directory that holds only `BENCHMARK.json` and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(doc: dict, expected: dict[str, str], label: str) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, label
    assert doc["correct"] is True, f"{label}: output checks failed"
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1, label
    assert isinstance(doc["failed"], int), label
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == expected, f"{label}: metrics differ from BENCHMARK.json: {got} != {expected}"
    for k, v in doc["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{label}: {k}"


def check_spans(workload: str, wall: float, overhead: float) -> None:
    """Self times of the measured repetition's spans sum to its traced
    wall time, within the tracing overhead."""
    spans = [
        json.loads(line)
        for line in (ROOT / ".bench_work" / f"trace-{workload}-{SEED}.jsonl").read_text().splitlines()
    ]
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
            assert spans[s["parent"]]["start"] <= s["start"] <= s["end"] <= spans[s["parent"]]["end"]
    root = {}
    for s in spans:
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    measured = [s for s in spans if spans[root[s["id"]]]["name"] != "synth.write_corpus"]
    self_sum = sum(s["end"] - s["start"] - children[s["id"]] for s in measured)
    assert abs(wall - self_sum) <= max(abs(overhead), 0.01 * wall), (
        f"{workload}: self times {self_sum:.6f} s vs traced wall {wall:.6f} s"
    )


def check_restore() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    from spans import Tracer

    from cartoseg import graphs, pipeline, synth

    modules = (pipeline, graphs, synth)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    layers.install_setup(tracer)
    layers.install_run(tracer, layers.Capture())
    assert pipeline.refine_edges is not before[0]["refine_edges"]
    tracer.restore()
    for m, saved in zip(modules, before):
        for name, value in saved.items():
            assert vars(m)[name] is value, f"{m.__name__}.{name} not restored"


def check_lonely_benchmark() -> None:
    """Without the library next to it, the benchmark exits non-zero and
    prints no result."""
    lonely = ROOT / ".bench_work" / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    lonely.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", lonely)
        shutil.copytree(HERE, lonely / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "corpus128", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=lonely)
        assert proc.returncode != 0, "benchmark ran without the library"
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(lonely)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", str(SEED), "--seconds", "0.1", "--scenes", "2"]
        doc = last_json(run(*base, "--trace", "0"))
        check_result(doc, e2e, f"{name} untraced")
        for k, v in doc["metrics"].items():
            assert v["value"] > 0, f"{name}: {k} is zero"
        doc = last_json(run(*base, "--trace", "1"))
        check_result(doc, per_layer, f"{name} traced")
        m = doc["metrics"]
        check_spans(name, m["trace.wall_s"]["value"], m["trace.overhead_s"]["value"])
        print(f"ok  {name}")
    check_restore()
    print("ok  wrapped names restored")
    check_lonely_benchmark()
    print("ok  fails without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
