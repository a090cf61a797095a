"""Which library names the traced run wraps, and the per-layer metrics.

Span names are `<module>.<layer>`; a layer's time metric is its span name
plus `_s`, the inclusive time of its outermost calls.  Names that
`cartoseg.pipeline` bound at import are wrapped in that namespace, since
wrapping `cartoseg.edges.refine_edges` would miss the pipeline's calls.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

from cartoseg import edges, graphs, pipeline, synth
from cartoseg.watershed import WSHED

from spans import Tracer

# (module, attribute, span name)
PIPELINE_NAMES = [
    ("read_raster", "raster.read"),
    ("read_mask", "raster.read"),
    ("load_truth", "synth.load_truth"),
    ("clip_center", "raster.resample"),
    ("magnify", "raster.resample"),
    ("translate", "raster.resample"),
    ("write_raster", "raster.write"),
    ("band_combine", "spectral.band_combine"),
    ("corpus_mode_threshold", "spectral.threshold"),
    ("hysteresis_segment", "spectral.hysteresis"),
    ("keep_central_component", "spectral.keep_central"),
    ("canny", "edges.canny"),
    ("refine_edges", "edges.refine"),
    ("edges_to_json", "edges.to_json"),
    ("match_mask", "matching.match"),
    ("skeletonize", "morph.skeletonize"),
    ("external_boundary", "morph.boundary"),
    ("dilate", "morph.dilate"),
    ("gradient_magnitude", "watershed.gradient"),
    ("inject_edges", "watershed.inject"),
    ("impose_minima", "watershed.impose_minima"),
    ("watershed_flood", "watershed.flood"),
    ("extract_object", "watershed.extract"),
    ("evaluate", "pipeline.evaluate"),
    ("run_scene", "pipeline.run_scene"),
]
GRAPHS_NAMES = [
    ("decompose", "graphs.decompose"),
    ("build_arg", "graphs.build_arg"),
    ("find_prototypes", "graphs.prototypes"),
    ("generate_model", "graphs.model"),
    ("model_distance", "graphs.distance"),
    ("max_common_subgraph", "graphs.mcs"),
    ("min_common_supergraph", "graphs.mcs"),
    ("graph_distance", "graphs.mcs"),
    ("model_to_json", "graphs.to_json"),
]
SYNTH_NAMES = [
    ("generate_scene", "synth.render"),
    ("write_raster", "synth.write"),
]

TIMED = sorted(
    {name for _, name in PIPELINE_NAMES + GRAPHS_NAMES + SYNTH_NAMES}
    - {"pipeline.run_scene"}
)
COUNTS = (
    "edges.chains_raw",
    "edges.chains_kept",
    "watershed.wshed_pixels",
    "matching.tie_count",
    "raster.bytes_written",
    "graphs.prototypes",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {f"{name}_s": "s" for name in TIMED}
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "raster.bytes_written": "B",
            "edges.kept_ratio": "ratio",
            "edges.refine_peak_mb": "MB_alloc",
            "graphs.mcs_calls": "count",
            "pipeline.self_s": "s",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.spans": "count",
        }
    )
    return units


class Capture:
    """Counters fed by the wrappers, plus the `canny` output with the most
    chains, kept for the `refine_edges` memory pass."""

    def __init__(self) -> None:
        self.largest_canny = None

    def on_canny(self, tracer: Tracer, args, result) -> None:
        tracer.count("edges.chains_raw", len(result.chains))
        if self.largest_canny is None or len(result.chains) > len(self.largest_canny.chains):
            self.largest_canny = result

    @staticmethod
    def on_refine(tracer: Tracer, args, result) -> None:
        tracer.count("edges.chains_kept", len(result.chains))

    @staticmethod
    def on_match(tracer: Tracer, args, result) -> None:
        tracer.count("matching.tie_count", result.tie_count)

    @staticmethod
    def on_flood(tracer: Tracer, args, result) -> None:
        tracer.count("watershed.wshed_pixels", int((result.labels == WSHED).sum()))

    @staticmethod
    def on_write(tracer: Tracer, args, result) -> None:
        tracer.count("raster.bytes_written", Path(args[1]).stat().st_size)

    @staticmethod
    def on_prototypes(tracer: Tracer, args, result) -> None:
        tracer.count("graphs.prototypes", len(result))


def install_setup(tracer: Tracer) -> None:
    tracer.wrap(synth, "write_corpus", "synth.write_corpus")
    for attr, name in SYNTH_NAMES:
        tracer.wrap(synth, attr, name)


def install_run(tracer: Tracer, capture: Capture) -> None:
    observers = {
        "edges.canny": capture.on_canny,
        "edges.refine": capture.on_refine,
        "matching.match": capture.on_match,
        "watershed.flood": capture.on_flood,
        "raster.write": capture.on_write,
        "graphs.prototypes": capture.on_prototypes,
    }
    tracer.wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    for attr, name in PIPELINE_NAMES:
        tracer.wrap(pipeline, attr, name, observers.get(name))
    for attr, name in GRAPHS_NAMES:
        tracer.wrap(graphs, attr, name, observers.get(name))


def refine_peak_mb(capture: Capture) -> float:
    """tracemalloc peak of one untraced `refine_edges` call on the scene
    with the most raw chains, in MB of allocated (computed) bytes.  Run
    apart from the timed spans because tracemalloc slows the merge loop
    about fivefold."""
    if capture.largest_canny is None:
        return 0.0
    cfg = pipeline.PipelineConfig()
    tracemalloc.start()
    try:
        edges.refine_edges(
            capture.largest_canny,
            merge_dist=cfg.merge_dist,
            min_len=cfg.min_edge_len,
            smooth_window=cfg.smooth_window,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def per_layer(tracer: Tracer, capture: Capture) -> dict[str, float]:
    m: dict[str, float] = {f"{name}_s": tracer.inclusive(name) for name in TIMED}
    m.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    raw = m["edges.chains_raw"]
    m["edges.kept_ratio"] = m["edges.chains_kept"] / raw if raw else 0.0
    m["edges.refine_peak_mb"] = refine_peak_mb(capture)
    m["graphs.mcs_calls"] = tracer.calls("graphs.mcs")
    selfs = tracer.self_times()
    m["pipeline.self_s"] = selfs.get("pipeline.run_pipeline", 0.0) + selfs.get(
        "pipeline.run_scene", 0.0
    )
    m["trace.spans"] = len(tracer.spans)
    return m
