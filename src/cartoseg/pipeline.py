"""End-to-end orchestration: segmentation, matching, extraction, models.

The pipeline consumes a corpus directory written by the scene generator
(manifest plus per-scene rasters and ground truth), runs the three imaging
stages on every scene, scores each stage against the truth mask with an
intersection-over-union category scheme, builds per-kind graph models
from the extracted shapes, and writes a JSON report plus a plain text
table of category counts per stage.

Per-scene failures are recorded in the report and never abort the batch.
Scenes are processed in manifest-id order so reports are byte-identical
across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import graphs
from .edges import EdgeSet, canny, refine_edges, to_json as edges_to_json
from .matching import MatchResult, match_mask
from .morph import StructuringElement, dilate, external_boundary, skeletonize
from .raster import (
    DOC_ERRORS,
    BinaryMask,
    ClipTooLarge,
    FormatError,
    ScalarImage,
    clip_center,
    magnify,
    read_mask,
    read_raster,
    translate,
    write_raster,
)
from .spectral import (
    CENTRAL_WINDOW,
    DEFAULT_WEIGHTS,
    ThresholdPair,
    band_combine,
    corpus_mode_threshold,
    hysteresis_segment,
    keep_central_component,
)
from .synth import load_truth
from .watershed import (
    MarkerSet,
    extract_object,
    gradient_magnitude,
    impose_minima,
    inject_edges,
    watershed_flood,
)

STAGES = ("segment", "match", "extract")
CATEGORIES = ("correct", "acceptable", "incorrect")
# the range of each bounded numeric key: (lowest, highest, lowest allowed)
_RANGES = {
    "delta": (0, math.inf, True),
    "canny_sigma": (0, math.inf, False),
    "canny_high_percentile": (0, 100, True),
    "canny_low_fraction": (0, 1, False),
    "smooth_window": (1, math.inf, True),
    "merge_dist": (0, math.inf, True),
    "min_edge_len": (0, math.inf, True),
    "half_window": (0, math.inf, True),
    "boundary_se_radius": (1, math.inf, True),
    "adjacency_tol": (0, math.inf, True),
    "min_support": (1, math.inf, True),
    "iou_correct": (0, 1, False),
    "iou_acceptable": (0, 1, False),
    "node_budget": (1, math.inf, True),
}
_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


@dataclass
class PipelineConfig:
    """Every knob of the pipeline; all keys can come from a key=value file
    and every key is overridable by a CLI flag of the same name."""

    corpus: str = "corpus"
    out: str = "out"
    delta: float = 10.0
    band_w1: float = DEFAULT_WEIGHTS[0]
    band_w2: float = DEFAULT_WEIGHTS[1]
    band_w3: float = DEFAULT_WEIGHTS[2]
    canny_sigma: float = 1.2
    canny_high_percentile: float = 95.0
    canny_low_fraction: float = 0.4
    smooth_window: int = 3
    merge_dist: float = 3.0
    min_edge_len: float = 10.0
    half_window: int = 10
    boundary_se_radius: int = 2
    decompose_mode: str = "skeleton"
    adjacency_tol: float = graphs.DEFAULT_ADJACENCY_TOL
    min_support: int = 1
    iou_correct: float = 0.8
    iou_acceptable: float = 0.5
    distance_mode: str = "prototypes"  # or "bounds"
    node_budget: int = graphs.DEFAULT_NODE_BUDGET
    save_intermediates: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for key, (low, high, low_ok) in _RANGES.items():
            v = getattr(self, key)
            if not (low <= v <= high and (low_ok or v > low)):
                raise ValueError(f"{key} must lie in {'[' if low_ok else '('}{low}, {high}]: {v!r}")
        if self.decompose_mode not in graphs.DECOMPOSE_MODES:
            raise ValueError(f"unknown decompose mode {self.decompose_mode!r}")
        if self.iou_correct < self.iou_acceptable:
            raise ValueError("correct threshold must be >= acceptable threshold")
        if self.distance_mode not in ("prototypes", "bounds"):
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        values = {}
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
        return cls().with_overrides(values)

    def with_overrides(self, values: dict[str, str | None]) -> "PipelineConfig":
        """This config with each key in ``values`` set from its text (None
        leaves the key as it is): the one conversion that the --config file
        and the CLI flags share."""
        by_name = {f.name: f for f in fields(self)}
        current = asdict(self)
        for key, raw in values.items():
            if raw is None:
                continue
            if key not in by_name:
                raise ValueError(f"unknown config key {key!r}")
            ftype = by_name[key].type
            if ftype == "bool":
                if raw.lower() not in _BOOLS:
                    raise ValueError(f"{key}: not a boolean: {raw!r}")
                raw = _BOOLS[raw.lower()]
            elif ftype in ("int", "float"):
                try:
                    raw = (int if ftype == "int" else float)(raw)
                except ValueError:
                    raise ValueError(f"{key}: not a valid {ftype}: {raw!r}") from None
            current[key] = raw
        return PipelineConfig(**current)


def evaluate(
    result: BinaryMask,
    truth: BinaryMask,
    correct: float = 0.8,
    acceptable: float = 0.5,
) -> tuple[float, str]:
    """Intersection-over-union and its category; two empty masks compare
    as a degenerate perfect match."""
    if result.bits.shape != truth.bits.shape:
        raise ValueError("masks must share dimensions")
    union = int(np.count_nonzero(result.bits | truth.bits))
    if union == 0:
        return 1.0, "correct"
    inter = int(np.count_nonzero(result.bits & truth.bits))
    iou = inter / union
    if iou >= correct:
        return iou, "correct"
    if iou >= acceptable:
        return iou, "acceptable"
    return iou, "incorrect"


@dataclass(eq=False)
class EvalReport:
    scenes: list[dict]
    aggregate: dict
    threshold: dict
    models: dict
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Category counts per stage and object kind, one table."""
        kinds = sorted({s["kind"] for s in self.scenes})
        lines = [
            f"{'Step':<10}{'Object':<14}{'Correct':>9}{'Acceptable':>12}{'Incorrect':>11}"
        ]
        names = {"segment": "Segm.", "match": "Match.", "extract": "Extract."}
        for stage in STAGES:
            for i, kind in enumerate(kinds):
                counts = self.aggregate[stage][kind]
                lines.append(
                    f"{names[stage] if i == 0 else '':<10}{kind:<14}"
                    f"{counts['correct']:>9}{counts['acceptable']:>12}{counts['incorrect']:>11}"
                )
        return "\n".join(lines) + "\n"


def _stage_counts(scenes: list[dict]) -> dict:
    """Aggregate counts; scenes that failed before a stage count as
    incorrect there so every stage sums to the corpus size."""
    kinds = sorted({s["kind"] for s in scenes})
    agg = {
        stage: {kind: {c: 0 for c in CATEGORIES} for kind in kinds} for stage in STAGES
    }
    for s in scenes:
        for stage in STAGES:
            cat = s["stages"].get(stage, {}).get("category", "incorrect")
            agg[stage][s["kind"]][cat] += 1
    return agg


def _ms_factor(pan: ScalarImage, ms) -> int:
    return max(1, int(round(ms.resolution / pan.resolution)))


def clip_ms(pan: ScalarImage, ms):
    """The multispectral window under the panchromatic footprint."""
    factor = _ms_factor(pan, ms)
    return clip_center(ms, pan.width // factor, pan.height // factor)


def load_corpus(cfg: PipelineConfig) -> tuple[list[dict], dict, ThresholdPair]:
    """Manifest entries in id order, each scene's rasters and truth, and the
    corpus-level threshold over every readable multispectral clip.

    ``loaded`` maps a scene id to (pan, ms, truth_mask, offset), or to the
    message of the error that stopped its loading, as for a clip smaller than
    the central window.  FormatError unless each manifest scene has a string
    ``id`` and ``kind``, and no two share an id; EmptyCorpus if none loads.
    """
    corpus = Path(cfg.corpus)
    try:
        manifest = json.loads((corpus / "manifest.json").read_text())
        entries = sorted(manifest["scenes"], key=lambda e: e["id"])
        if not all(isinstance(e["id"], str) and isinstance(e["kind"], str) for e in entries):
            raise ValueError("a scene id or kind is not a string")
        if len({e["id"] for e in entries}) < len(entries):
            raise ValueError("two scenes share an id")
    except DOC_ERRORS as exc:
        raise FormatError(f"not a corpus manifest: {type(exc).__name__}: {exc}") from exc
    loaded: dict = {}
    clips = []
    for entry in entries:
        try:
            files = entry["files"]
            pan = read_raster(corpus / files["pan"])
            ms = read_raster(corpus / files["ms"])
            truth_mask = read_mask(corpus / files["truth_mask"])
            _, offset, _ = load_truth(corpus / files["truth"])
            clip = clip_ms(pan, ms)
            if min(clip.width, clip.height) < CENTRAL_WINDOW:
                raise ClipTooLarge(f"clip {clip.width}x{clip.height} is smaller than the central window")
            clips.append(clip)
            loaded[entry["id"]] = (pan, ms, truth_mask, offset)
        except Exception as exc:  # noqa: BLE001 - per-scene isolation
            loaded[entry["id"]] = f"load failed: {exc}"
    threshold = corpus_mode_threshold(
        clips,
        delta=cfg.delta,
        weights=(cfg.band_w1, cfg.band_w2, cfg.band_w3),
    )
    return entries, loaded, threshold


def segment_scene(
    pan: ScalarImage, ms, t: ThresholdPair, cfg: PipelineConfig
) -> tuple[BinaryMask, BinaryMask]:
    """Hysteresis region of the magnified multispectral clip, and the
    component kept as the candidate mask."""
    weights = (cfg.band_w1, cfg.band_w2, cfg.band_w3)
    combined = band_combine(magnify(clip_ms(pan, ms), _ms_factor(pan, ms)), weights)
    region = hysteresis_segment(combined, t)
    return region, keep_central_component(region)


def detect_edges(pan: ScalarImage, cfg: PipelineConfig) -> EdgeSet:
    """Canny chains of the panchromatic image after refinement."""
    return refine_edges(
        canny(
            pan,
            sigma=cfg.canny_sigma,
            high_percentile=cfg.canny_high_percentile,
            low_fraction=cfg.canny_low_fraction,
        ),
        merge_dist=cfg.merge_dist,
        min_len=cfg.min_edge_len,
        smooth_window=cfg.smooth_window,
    )


def place_mask(mask: BinaryMask, pan: ScalarImage, cfg: PipelineConfig) -> MatchResult:
    """Offset of the candidate mask whose rim best fits the pan gradient."""
    return match_mask(mask, pan, cfg.half_window, cfg.canny_sigma)


def extract_scene(
    pan: ScalarImage, placed: BinaryMask, skel: BinaryMask, es: EdgeSet, cfg: PipelineConfig
):
    """Background marker, relief and flood around the object marker.

    The relief is imposed on the contested pixels alone, the only ones the
    flood reads.  Returns (boundary, labels, object); MarkerSet raises
    EmptyMarker when either marker is empty.
    """
    boundary = external_boundary(placed, StructuringElement("disk", cfg.boundary_se_radius))
    markers = MarkerSet(object_marker=skel, background_marker=boundary)
    grad = inject_edges(gradient_magnitude(pan), es)
    relief = impose_minima(grad, markers, markers.partition.contested)
    labels = watershed_flood(relief, markers)
    return boundary, labels, extract_object(labels, markers)


def shape_graph(mask: BinaryMask, resolution: float, cfg: PipelineConfig) -> graphs.Arg:
    """Relational graph of the primitives a shape decomposes into."""
    prims = graphs.decompose(mask, cfg.decompose_mode, resolution)
    return graphs.build_arg(prims, cfg.adjacency_tol)


def fit_model(args: list[graphs.Arg], cfg: PipelineConfig) -> graphs.ObjectModel:
    """Structural model of the prototypes of the given graphs (bounds folded
    on first read); raises EmptyInput when no prototype reaches ``min_support``."""
    protos = graphs.find_prototypes(args, cfg.min_support, cfg.node_budget)
    if not protos:
        raise graphs.EmptyInput("no prototype reached min_support")
    return graphs.generate_model(protos, cfg.node_budget)


def model_score(g: graphs.Arg, model: graphs.ObjectModel, cfg: PipelineConfig) -> float:
    """Distance of a graph to the model's prototypes, or to its bounds."""
    return graphs.model_distance(g, model, cfg.distance_mode == "bounds", cfg.node_budget)


def run_scene(
    pan: ScalarImage,
    ms,
    truth_mask: BinaryMask,
    truth_offset: tuple[int, int],
    t: ThresholdPair,
    cfg: PipelineConfig,
    out_dir: Path,
    sid: str,
) -> dict:
    """All imaging stages for one scene; returns the per-scene record."""
    record: dict = {"stages": {}}
    saving = cfg.save_intermediates

    def save(img, name):
        if saving:
            write_raster(img, out_dir / f"{sid}_{name}.pgm")

    def score(stage, mask, **extra):
        iou, cat = evaluate(mask, truth_mask, cfg.iou_correct, cfg.iou_acceptable)
        record["stages"][stage] = {"iou": round(iou, 6), "category": cat, **extra}

    def fail(message, stage):
        record["error"] = message
        record["failed_stage"] = stage
        return record

    region, mask = segment_scene(pan, ms, t, cfg)
    save(region, "region")
    save(mask, "mask")
    if mask.is_empty():
        return fail("segmentation produced an empty mask", "segment")
    score("segment", translate(mask, *truth_offset))

    es = detect_edges(pan, cfg)
    if saving:
        (out_dir / f"{sid}_edges.json").write_text(edges_to_json(es))
    result = place_mask(mask, pan, cfg)
    matched = translate(mask, *result.offset)
    # six significant digits, so the report does not carry the FFT's last bits
    score("match", matched, offset=list(result.offset), score=float(f"{result.score:.6g}"),
          tie_count=result.tie_count)
    save(matched, "matched")
    if matched.is_empty():
        return fail("matched mask left the frame", "extract")

    skel = skeletonize(matched)
    boundary, labels, obj = extract_scene(pan, matched, skel, es, cfg)
    score("extract", obj)
    save(skel, "skeleton")
    save(boundary, "boundary")
    save(labels.to_display(), "labels")
    save(obj, "object")
    if saving:
        overlay = pan.data.copy()
        if not obj.is_empty():
            rim = dilate(obj, StructuringElement("square", 1)).bits & ~obj.bits
            overlay = np.where(rim, 255, overlay).astype(np.uint8)
        save(ScalarImage(overlay, pan.resolution), "overlay")
    record["extracted"] = obj
    return record


def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    entries, loaded, threshold = load_corpus(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    scenes: list[dict] = []
    extracted_by_kind: dict[str, list] = {}
    for entry in entries:
        sid = entry["id"]
        record: dict = {"id": sid, "kind": entry["kind"], "stages": {}}
        data = loaded[sid]
        if isinstance(data, str):
            record["error"] = data
            record["failed_stage"] = "load"
            scenes.append(record)
            continue
        pan, ms, truth_mask, offset = data
        try:
            result = run_scene(pan, ms, truth_mask, offset, threshold, cfg, out_dir, sid)
        except Exception as exc:  # noqa: BLE001 - per-scene isolation
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["failed_stage"] = "pipeline"
            scenes.append(record)
            continue
        obj = result.pop("extracted", None)
        record.update(result)
        if obj is not None and not obj.is_empty():
            extracted_by_kind.setdefault(entry["kind"], []).append((sid, obj, pan.resolution))
        scenes.append(record)

    models: dict = {}
    for kind in sorted(extracted_by_kind):
        try:
            args = {
                sid: shape_graph(obj, resolution, cfg)
                for sid, obj, resolution in extracted_by_kind[kind]
            }
            model = fit_model(list(args.values()), cfg)
            # scoring by the bounds folds them here, so a fold over budget is the kind's error
            distances = {sid: round(model_score(g, model, cfg), 6) for sid, g in args.items()}
        except (graphs.BudgetExceeded, graphs.EmptyInput) as exc:
            models[kind] = {"error": str(exc)}
            continue
        models[kind] = {"prototypes": len(model.prototypes), "distances": distances}
        try:
            lo, hi = model.bounds
        except graphs.BudgetExceeded as exc:  # the distances stand; no model file
            models[kind]["bounds_error"] = str(exc)
            continue
        models[kind].update(max_csg_size=lo.size, min_csg_size=hi.size)
        (out_dir / f"model_{kind}.json").write_text(graphs.model_to_json(model))

    report = EvalReport(
        scenes=scenes,
        aggregate=_stage_counts(scenes),
        threshold={"t_high": threshold.t_high, "t_low": threshold.t_low},
        models=models,
        config=asdict(cfg),
    )
    (out_dir / "report.json").write_text(report.to_json())
    (out_dir / "report.txt").write_text(report.to_text())
    return report
