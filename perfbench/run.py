#!/usr/bin/env python3
"""cartoseg benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload corpus128 --seed 44 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Set-up renders and writes the workload's corpus from `--seed`
(several times, `setup_s` is the median).  The measured part is then
repeated while another repetition still fits in `--seconds`, at least once:
a `run_pipeline` call over the whole corpus for `corpus128` and
`frame256`, the decompose + leave-one-out loop for `models_loo`.

`--trace 0` reports the end-to-end metrics.  Only `pipeline.run_scene` is
wrapped then, by a bare timer, for the per-scene times; it is put back
afterwards.  `--trace 1` runs one untraced repetition, then one traced
repetition that records a span around every call into the layers (see
`layers.py`), and reports the per-layer metrics; the spans go to
`.bench_work/trace-<workload>-<seed>.jsonl`.

Every repetition's output is checked: the criterion-4 gates on the extract
stage for the corpus workloads, a leave-one-out accuracy on `models_loo`,
and a digest of the outputs that must not change between repetitions (nor
under tracing).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--workload all` runs every workload, untraced and traced, each run in a
fresh process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("corpus128", "frame256", "models_loo")
SETUP_REPS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "scene_s_p50": "s",
    "scene_s_p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "correct_share": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of the order
    statistics weighted by a Beta((n + 1) p, (n + 1) (1 - p)) density.

    Per-scene times are multi-modal (roads near the axes are cheap, near
    the diagonals costly), so a single order statistic jumps whenever one
    scene lands in the other cluster.  Over two sets of ten seeds on
    `corpus128` the plain median spread by 0.10 and 0.32 of its median,
    this estimate by 0.08 and 0.21.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    cells = 200  # midpoint-rule cells per order statistic
    t = (np.arange(n * cells) + 0.5) / (n * cells)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    weight = np.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(weight @ x / weight.sum())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SceneTimer:
    """Times each `pipeline.run_scene` call; restores the name on exit."""

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self.times: list[float] = []

    def __enter__(self) -> "SceneTimer":
        original = self.original = self.pipeline.run_scene
        times = self.times

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        self.pipeline.run_scene = timed
        return self

    def __exit__(self, *exc) -> None:
        self.pipeline.run_scene = self.original


def measured_unit(w, corpus: Path, work: Path, rep: int, item_times: list, masks=None, tracer=None):
    """One repetition of the measured part; returns (wall, quality, digest)."""
    import workloads as wl

    if w.models_only:
        scope = (lambda sid: tracer.span("bench.fold", sid)) if tracer else None
        with tracer.span("bench.models_loo") if tracer else nullcontext():
            folds, wall = wl.run_models(masks, item_times, scope)
        return wall, wl.models_quality(folds), wl.models_digest(folds)
    from cartoseg import pipeline

    out = work / f"out{rep}"
    with SceneTimer(pipeline) as timer:
        report, wall = wl.run_corpus(w, corpus, out)
    item_times.extend(timer.times)
    quality = wl.corpus_quality(report, corpus)
    digest = wl.output_digest(out)
    shutil.rmtree(out)
    return wall, quality, digest


def run_workload(args) -> dict:
    import layers
    import workloads as wl
    from spans import Tracer

    w = wl.WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            layers.install_setup(tracer)
        try:
            corpora, setup_times = wl.set_up(
                w, args.seed, work, 1 if tracer else SETUP_REPS, args.scenes
            )
        finally:
            if tracer:
                tracer.restore()
        corpus = corpora[0]
        masks = wl.load_masks(corpora) if w.models_only else None

        walls, qualities, digests, item_times = [], [], [], []
        t_start = time.perf_counter()
        while True:
            wall, quality, digest = measured_unit(
                w, corpus, work, len(walls), item_times, masks
            )
            walls.append(wall)
            qualities.append(quality)
            digests.append(digest)
            elapsed = time.perf_counter() - t_start
            if args.trace or elapsed + max(walls) > args.seconds:
                break

        capture = None
        if tracer:
            capture = layers.Capture()
            layers.install_run(tracer, capture)
            try:
                traced_wall, quality, digest = measured_unit(
                    w, corpus, work, len(walls), [], masks, tracer
                )
            finally:
                tracer.restore()
            qualities.append(quality)
            digests.append(digest)
            tracer.write(WORK / f"trace-{w.name}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:  # per-scene samples, for pooling over a set of runs (pool.py)
        (WORK / f"scenes-{w.name}-{args.seed}.json").write_text(json.dumps(item_times))
    checks_ok = all(q["ok"] for q in qualities) and len(set(digests)) == 1
    q = qualities[0]
    if args.trace:
        metrics = layers.per_layer(tracer, capture)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - walls[0]
        units = layers.per_layer_units()
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "scene_s_p50": percentile(item_times, 50),
            "scene_s_p90": percentile(item_times, 90),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
            "correct_share": q["correct_share"],
        }
        units = END_TO_END_UNITS
    info = {
        "workload": w.name,
        "seed": args.seed,
        "repetitions": len(walls),
        "scene_samples": len(item_times),
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "failed_share": q["failed_share"],
        **{k: q[k] for k in ("iou_extract_mean", "offset_exact_share", "loo_accuracy") if k in q},
    }
    return {
        "info": info,
        "result": {
            "correct": checks_ok,
            "attempted": sum(x["attempted"] for x in qualities),
            "failed": sum(x["failed"] for x in qualities),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Every workload untraced and then traced, each run in a fresh process
    so that its peak RSS is its own; the results also go to
    `.bench_work/results-<seed>.json`."""
    results = {}
    for name in NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.scenes is not None:
                cmd += ["--scenes", str(args.scenes)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results.setdefault(name, {})[key] = json.loads(lines[-1])
    text = json.dumps(results, sort_keys=True)
    WORK.mkdir(exist_ok=True)
    (WORK / f"results-{args.seed}.json").write_text(text + "\n")
    print(text)
    ok = all(r["correct"] for per in results.values() for r in per.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=44)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run (ignored by --workload all)")
    p.add_argument(
        "--scenes", type=int, default=None,
        help="scenes per kind instead of the workload's own count (self-test)",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.scenes is not None and args.scenes < 2:
        p.error("--scenes must be at least 2")
    if not (SRC / "cartoseg" / "__init__.py").is_file():
        print(f"cartoseg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    out = run_workload(args)
    info, result = out["info"], out["result"]
    for k, v in info.items():
        print(f"{k}: {v}")
    for k, m in result["metrics"].items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
