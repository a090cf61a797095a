#!/usr/bin/env python3
"""Extraction quality against scene noise.

For each noise level, renders ``corpus_specs(n, n, seed, noise=level,
clutter)`` into ``<out>/noise_<level>/corpus``, runs the pipeline on it with
the default configuration into ``<out>/noise_<level>/results`` (where
``report.json`` holds every number printed), and prints per stage the
category counts and the mean and minimum IoU over the scenes that reached
the stage, then the extract - match gain in mean IoU, one summary line
per object model, and per kind the truth-graph recovery: in how many scenes
the graph of the decomposed truth mask is isomorphic to the generator's
truth graph, and the mean normalized MCS distance between the two.

Examples (the acceptance corpus, then a noise ladder):
    python scripts/quality.py --n 20 --seed 44 --levels 8 --out runs/acceptance
    python scripts/quality.py --n 10 --seed 7 --levels 0 16 24 40 --out runs/ladder
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from cartoseg.graphs import graph_distance, is_isomorphic
from cartoseg.pipeline import CATEGORIES, STAGES, PipelineConfig, run_pipeline, shape_graph
from cartoseg.raster import read_mask
from cartoseg.synth import corpus_specs, load_truth, write_corpus


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--n", type=int, default=20, help="scenes per object kind and level")
    ap.add_argument("--seed", type=int, default=44)
    ap.add_argument("--clutter", type=int, default=2)
    ap.add_argument("--levels", type=float, nargs="+", default=[8.0], help="noise levels")
    ap.add_argument("--out", default="runs/quality")
    args = ap.parse_args(argv)

    for level in args.levels:
        out = Path(args.out) / f"noise_{level:g}"
        specs = corpus_specs(args.n, args.n, seed=args.seed, noise=level, clutter=args.clutter)
        manifest = write_corpus(out / "corpus", specs)
        t0 = time.perf_counter()
        cfg = PipelineConfig(corpus=str(out / "corpus"), out=str(out / "results"))
        report = run_pipeline(cfg)
        print(f"noise {level:g}: {len(specs)} scenes in {time.perf_counter() - t0:.1f} s")
        print(f"{'stage':<9}" + "".join(f"{c:>12}" for c in CATEGORIES)
              + f"{'scored':>8}{'mean IoU':>10}{'min IoU':>10}")
        means = {}
        for stage in STAGES:
            counts = [sum(k[c] for k in report.aggregate[stage].values()) for c in CATEGORIES]
            ious = [s["stages"][stage]["iou"] for s in report.scenes if stage in s["stages"]]
            means[stage] = sum(ious) / len(ious) if ious else float("nan")
            low = min(ious, default=float("nan"))
            print(f"{stage:<9}" + "".join(f"{c:>12}" for c in counts)
                  + f"{len(ious):>8}{means[stage]:>10.6f}{low:>10.6f}")
        print(f"extract - match mean IoU: {means['extract'] - means['match']:+.6f}")
        for kind, info in report.models.items():
            if "error" in info:
                print(f"model[{kind}]: {info['error']}")
                continue
            dists = list(info["distances"].values())
            bounds = (f"bounds not folded ({info['bounds_error']})" if "bounds_error" in info
                      else f"bounds {info['max_csg_size']}/{info['min_csg_size']} vertices")
            print(
                f"model[{kind}]: {info['prototypes']} prototypes, {bounds}, "
                f"mean training distance {sum(dists) / len(dists):.6f}"
            )
        recovery = {}
        for spec, entry in zip(specs, manifest["scenes"]):
            _, _, truth = load_truth(out / "corpus" / entry["files"]["truth"])
            g = shape_graph(read_mask(out / "corpus" / entry["files"]["truth_mask"]), spec.pan_res, cfg)
            recovery.setdefault(spec.kind, []).append((is_isomorphic(g, truth), graph_distance(g, truth)))
        for kind, rows in sorted(recovery.items()):
            print(f"truth[{kind}]: {sum(iso for iso, _ in rows)}/{len(rows)} isomorphic, "
                  f"mean distance {sum(d for _, d in rows) / len(rows):.6f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
