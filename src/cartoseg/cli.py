"""Command-line interface.

Subcommands cover every stage individually (synth, segment, edges, match,
extract, model, score, eval) plus the full pipeline.  Every subcommand but
synth calls the pipeline's own stage functions and takes the same tuning
options as `pipeline`: a `--config` key=value file and one flag per config
key, spelled like the key (`--canny_high_percentile 95`, `--min_support 2`,
`--distance_mode bounds`, `--iou_correct 0.9`).
Exit codes: 0 on success, 1 for usage errors and bad config values, 2 for
corpus/IO errors, malformed JSON inputs, empty or overlapping watershed
markers and models without a prototype, 3 when an exact graph search
exceeds its node budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import graphs, synth
from .edges import EdgeSet, from_json as edges_from_json, to_json as edges_to_json
from .morph import EmptyMask, skeletonize
from .pipeline import (
    PipelineConfig,
    detect_edges,
    evaluate,
    extract_scene,
    fit_model,
    load_corpus,
    model_score,
    place_mask,
    run_pipeline,
    segment_scene,
    shape_graph,
)
from .raster import FormatError, read_mask, read_raster, write_raster
from .spectral import EmptyCorpus
from .watershed import EmptyMarker, MarkerOverlap

USAGE_ERROR, IO_ERROR, BUDGET_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _cmd_synth(a) -> int:
    if a.kind == "mixed":
        n_bridge = a.n // 2
        n_round = a.n - n_bridge
    elif a.kind == "bridge":
        n_bridge, n_round = a.n, 0
    else:
        n_bridge, n_round = 0, a.n
    specs = synth.corpus_specs(
        n_bridge, n_round, seed=a.seed, noise=a.noise, clutter=a.clutter,
        random_offsets=not a.zero_offsets,
    )
    synth.write_corpus(a.out, specs)
    print(f"wrote {len(specs)} scenes to {a.out}")
    return 0


def _config(a) -> PipelineConfig:
    """The --config file, if any, with every config flag given on top."""
    cfg = PipelineConfig.from_file(a.config) if a.config else PipelineConfig()
    return cfg.with_overrides({f.name: getattr(a, f.name, None) for f in fields(PipelineConfig)})


def _cmd_segment(a) -> int:
    cfg = _config(a)
    entries, loaded, t = load_corpus(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    segmented = 0
    for entry in entries:
        sid = entry["id"]
        if isinstance(loaded[sid], str):
            print(f"{sid}: {loaded[sid]}", file=sys.stderr)
            continue
        pan, ms, _, _ = loaded[sid]
        region, mask = segment_scene(pan, ms, t, cfg)
        write_raster(region, out / f"{sid}_region.pgm")
        write_raster(mask, out / f"{sid}_mask.pgm")
        segmented += 1
    (out / "threshold.txt").write_text(f"t_high={t.t_high:g}\nt_low={t.t_low:g}\n")
    print(f"t_high={t.t_high:g} t_low={t.t_low:g} ({segmented} images)")
    return 0


def _cmd_edges(a) -> int:
    es = detect_edges(read_raster(a.pan), _config(a))
    Path(a.out).write_text(edges_to_json(es))
    print(f"{len(es.chains)} chains, {es.total_points()} points -> {a.out}")
    return 0


def _read_edges(path, pan) -> EdgeSet:
    """The edge file at ``path``; FormatError unless it declares the pan's frame,
    on which its chains are drawn."""
    es = edges_from_json(Path(path).read_text())
    if (es.width, es.height) != (pan.width, pan.height):
        raise FormatError(
            f"edge file frame {es.width}x{es.height} differs from the pan's {pan.width}x{pan.height}"
        )
    return es


def _cmd_match(a) -> int:
    mask = read_mask(a.mask)
    result = place_mask(mask, read_raster(a.pan), _config(a))
    doc = {"offset": list(result.offset), "score": result.score, "tie_count": result.tie_count}
    text = json.dumps(doc, sort_keys=True)
    if a.out:
        Path(a.out).write_text(text)
    print(text)
    return 0


def _cmd_extract(a) -> int:
    cfg = _config(a)
    pan = read_raster(a.pan)
    mask = read_mask(a.mask)
    es = _read_edges(a.edges, pan)
    _, labels, obj = extract_scene(pan, mask, skeletonize(mask), es, cfg)
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    write_raster(obj, out / "object.pgm")
    write_raster(labels.to_display(), out / "labels.pgm")
    print(f"object pixels: {obj.count} -> {out / 'object.pgm'}")
    return 0


def _cmd_model(a) -> int:
    cfg = _config(a)
    paths = sorted(Path(a.masks).glob("*.pgm"))
    if not paths:
        raise EmptyCorpus(f"no .pgm masks under {a.masks}")
    model = fit_model([shape_graph(read_mask(p), a.resolution, cfg) for p in paths], cfg)
    Path(a.out).write_text(graphs.model_to_json(model))
    lo, hi = model.bounds
    print(f"{len(model.prototypes)} prototypes, bounds {lo.size}/{hi.size} vertices -> {a.out}")
    return 0


def _cmd_score(a) -> int:
    cfg = _config(a)
    model = graphs.model_from_json(Path(a.model).read_text())
    if a.arg:
        g = graphs.arg_from_json(Path(a.arg).read_text())
    else:
        g = shape_graph(read_mask(a.mask), a.resolution, cfg)
    d = model_score(g, model, cfg)
    print(json.dumps({"distance": d, "vertices": g.size}, sort_keys=True))
    return 0


def _cmd_eval(a) -> int:
    cfg = _config(a)
    iou, category = evaluate(
        read_mask(a.result), read_mask(a.truth), cfg.iou_correct, cfg.iou_acceptable
    )
    print(json.dumps({"iou": iou, "category": category}, sort_keys=True))
    return 0


def _cmd_pipeline(a) -> int:
    report = run_pipeline(_config(a))
    print(report.to_text(), end="")
    return 0


def _add_config_flags(s) -> None:
    """--config plus one flag per PipelineConfig tuning field, named after it;
    each command declares its own --corpus/--out.  Every flag is read as
    text, which `PipelineConfig.with_overrides` converts as it converts the
    --config file's values."""
    s.add_argument("--config", help="key=value file; the flags below override it")
    for f in fields(PipelineConfig):
        if f.name in ("corpus", "out"):
            continue
        s.add_argument(f"--{f.name}", metavar="BOOL" if f.type == "bool" else None)


def _build_parser() -> _Parser:
    p = _Parser(prog="cartoseg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", parents=[], help="generate a synthetic corpus")
    s.add_argument("--kind", choices=("bridge", "roundabout", "mixed"), default="mixed")
    s.add_argument("--n", type=int, default=20)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--clutter", type=int, default=0)
    s.add_argument("--zero-offsets", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("segment", help="segment the multispectral clip of every scene")
    s.add_argument("--corpus", required=True, help="corpus directory with manifest.json")
    s.add_argument("--out", required=True)
    _add_config_flags(s)
    s.set_defaults(func=_cmd_segment)

    s = sub.add_parser("edges", help="edge chains from a panchromatic image")
    s.add_argument("--pan", required=True)
    s.add_argument("--out", required=True)
    _add_config_flags(s)
    s.set_defaults(func=_cmd_edges)

    s = sub.add_parser("match", help="best integer offset of a mask on the pan image")
    s.add_argument("--mask", required=True)
    s.add_argument("--pan", required=True)
    s.add_argument("--out")
    _add_config_flags(s)
    s.set_defaults(func=_cmd_match)

    s = sub.add_parser("extract", help="marker-controlled watershed extraction")
    s.add_argument("--pan", required=True)
    s.add_argument("--mask", required=True)
    s.add_argument("--edges", required=True)
    s.add_argument("--out", required=True)
    _add_config_flags(s)
    s.set_defaults(func=_cmd_extract)

    s = sub.add_parser("model", help="build a graph model from object masks")
    s.add_argument("--masks", required=True, help="directory of .pgm masks")
    s.add_argument("--resolution", type=float, default=2.5)
    s.add_argument("--out", required=True)
    _add_config_flags(s)
    s.set_defaults(func=_cmd_model)

    s = sub.add_parser("score", help="distance of a shape to a model")
    s.add_argument("--model", required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--arg", help="graph JSON file")
    g.add_argument("--mask", help="mask PGM to decompose first")
    s.add_argument("--resolution", type=float, default=2.5)
    _add_config_flags(s)
    s.set_defaults(func=_cmd_score)

    s = sub.add_parser("eval", help="IoU category of a result against truth")
    s.add_argument("--result", required=True)
    s.add_argument("--truth", required=True)
    _add_config_flags(s)
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("pipeline", help="run every stage over a corpus")
    s.add_argument("--corpus")
    s.add_argument("--out")
    _add_config_flags(s)
    s.set_defaults(func=_cmd_pipeline)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code
    except graphs.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (FormatError, EmptyCorpus, FileNotFoundError, NotADirectoryError,
            EmptyMask, EmptyMarker, MarkerOverlap, graphs.EmptyInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ValueError, synth.SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
