"""The benchmark's workloads: corpus set-up, the measured part, output checks.

Corpus workloads (`corpus128`, `frame256`) render a seeded corpus with
`synth.write_corpus` and time `pipeline.run_pipeline` on it.  `models_loo`
renders the same kind of corpus, reads its truth masks, and times
`graphs.decompose` + `build_arg` over every mask followed by a
leave-one-out loop: for each held-out shape, both kind models are built
from the remaining shapes and the shape is scored against each.

Everything here calls the library through module attributes
(`synth.write_corpus`, `pipeline.run_pipeline`, `graphs.decompose`), so the
tracer can wrap them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from cartoseg import graphs, pipeline, raster, synth

NOISE = 8.0
CLUTTER = 2
# criterion-4 gates on the extract stage
MIN_CORRECT = 0.6
MIN_CORRECT_OR_ACCEPTABLE = 0.8
DIGEST_SUFFIXES = (".json", ".pgm", ".txt")


@dataclass(frozen=True)
class Workload:
    name: str
    n_bridge: int
    n_roundabout: int
    pan_size: int = 128
    save_intermediates: bool = True
    models_only: bool = False
    corpora: int = 1

    def specs(self, seed: int, scenes: int | None = None) -> list[synth.SceneSpec]:
        """Scene specs of one corpus; `scenes` shrinks both kinds (self-test)."""
        nb = self.n_bridge if scenes is None else scenes
        nr = self.n_roundabout if scenes is None else scenes
        specs = stratify(synth.corpus_specs(nb, nr, seed=seed, noise=NOISE, clutter=CLUTTER))
        return [dataclasses.replace(s, pan_size=self.pan_size) for s in specs]


def stratify(specs: list[synth.SceneSpec]) -> list[synth.SceneSpec]:
    """Latin-hypercube the bearing and the offset within each kind: the
    j-th smallest of n drawn bearings becomes (j + 1/2) * pi / n, and the
    j-th smallest drawn dx (and dy) the j-th of n evenly spaced integers
    in [-10, 10].

    Scene cost depends on these draws.  A road near 45 degrees leaves a
    staircase of edge fragments (about 1500 raw chains against about 50
    near the axes), which costs `refine_edges` about four times as much,
    and where the offset crops the object changes its skeleton graph and
    so the number of model prototypes.  With iid draws the corpus time
    swung by a third between seeds, and the LOO time by almost a half.
    The seed still orders and pairs every value and draws everything
    else; each seed gets the same mix.
    """
    out = list(specs)
    for kind in synth.KINDS:
        idx = [i for i, s in enumerate(specs) if s.kind == kind]
        n = len(idx)
        for j, i in enumerate(sorted(idx, key=lambda i: specs[i].main_angle)):
            out[i] = dataclasses.replace(out[i], main_angle=(j + 0.5) * math.pi / n)
        for axis in (0, 1):
            for j, i in enumerate(sorted(idx, key=lambda i: (specs[i].offset[axis], i))):
                offset = list(out[i].offset)
                offset[axis] = math.floor(-10 + 21 * (j + 0.5) / n)
                out[i] = dataclasses.replace(out[i], offset=tuple(offset))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus128", 20, 20),
        Workload("frame256", 8, 8, pan_size=256, save_intermediates=False),
        # four acceptance-size corpora: every fold of one corpus folds almost
        # the same models, so a corpus's LOO time is a single draw.  Over one
        # 40 + 40 corpus it differed by up to 1.7x between seeds; over one
        # 20 + 20 corpus by about 8 %.
        Workload("models_loo", 20, 20, models_only=True, corpora=4),
    )
}


def set_up(w: Workload, seed: int, work: Path, reps: int, scenes: int | None):
    """Render and write the workload's corpora `reps` times into fresh
    directories; returns the last set of directories and the time of each
    set-up.  Corpus k of `--seed s` renders `corpus_specs(seed=s * corpora + k)`."""
    times = []
    for r in range(reps):
        rep = work / f"setup{r}"
        shutil.rmtree(rep, ignore_errors=True)
        corpora = [rep / f"corpus{k}" for k in range(w.corpora)]
        t0 = time.perf_counter()
        for k, corpus in enumerate(corpora):
            synth.write_corpus(corpus, w.specs(seed * w.corpora + k, scenes))
        times.append(time.perf_counter() - t0)
        if r + 1 < reps:
            shutil.rmtree(rep)
    return corpora, times


# ---------------------------------------------------------------------------
# corpus workloads
# ---------------------------------------------------------------------------


def run_corpus(w: Workload, corpus: Path, out: Path) -> tuple[pipeline.EvalReport, float]:
    """One measured `run_pipeline` call on a fresh output directory."""
    shutil.rmtree(out, ignore_errors=True)
    cfg = pipeline.PipelineConfig(
        corpus=str(corpus), out=str(out), save_intermediates=w.save_intermediates
    )
    t0 = time.perf_counter()
    report = pipeline.run_pipeline(cfg)
    return report, time.perf_counter() - t0


def corpus_quality(report: pipeline.EvalReport, corpus: Path) -> dict:
    """Output-derived figures of one run and the criterion-4 verdict."""
    manifest = json.loads((corpus / "manifest.json").read_text())
    truth_offset = {e["id"]: e["offset"] for e in manifest["scenes"]}
    scenes = report.scenes
    n = len(scenes)
    extract = [s["stages"].get("extract", {}) for s in scenes]
    correct = sum(1 for e in extract if e.get("category") == "correct")
    acceptable = sum(1 for e in extract if e.get("category") == "acceptable")
    exact = sum(
        1
        for s in scenes
        if s["stages"].get("match", {}).get("offset") == truth_offset[s["id"]]
    )
    failed = sum(1 for s in scenes if "error" in s)
    return {
        "attempted": n,
        "failed": failed,
        "correct_share": correct / n,
        "iou_extract_mean": statistics.fmean(e.get("iou", 0.0) for e in extract),
        "offset_exact_share": exact / n,
        "failed_share": failed / n,
        "ok": n == len(manifest["scenes"])
        and correct >= MIN_CORRECT * n
        and correct + acceptable >= MIN_CORRECT_OR_ACCEPTABLE * n,
    }


def output_digest(out: Path) -> str:
    """sha256 over the output directory's .json/.pgm/.txt files, by name.

    `report.json` records `config.corpus` and `config.out`; both are
    replaced by fixed strings so the digest does not depend on where the
    run happened.
    """
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        if p.suffix not in DIGEST_SUFFIXES or not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "report.json":
            doc = json.loads(data)
            doc["config"]["corpus"] = "<corpus>"
            doc["config"]["out"] = "<out>"
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(p.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# models_loo
# ---------------------------------------------------------------------------


def load_masks(corpora: list[Path]) -> list[list[tuple[str, str, raster.BinaryMask, float]]]:
    """Per corpus, (`corpusK/scene id`, kind, truth mask, pan resolution)
    for each scene in id order."""
    groups = []
    for corpus in corpora:
        manifest = json.loads((corpus / "manifest.json").read_text())
        group = []
        for e in sorted(manifest["scenes"], key=lambda e: e["id"]):
            mask = raster.read_mask(corpus / e["files"]["truth_mask"])
            pan = raster.read_raster(corpus / e["files"]["pan"])
            group.append((f"{corpus.name}/{e['id']}", e["kind"], mask, pan.resolution))
        groups.append(group)
    return groups


def run_models(groups, fold_times: list[float], fold_scope=None) -> tuple[dict, float]:
    """Decompose every mask, then leave each shape of a corpus out in turn.

    Both kind models are rebuilt from the corpus's remaining shapes on
    every fold, as `cartoseg model` would build them, and the held-out
    shape is scored against each with `model_distance`.  Returns the
    per-fold results and the time of the whole loop; each fold's time goes
    to `fold_times`.  `fold_scope(sid)` gives a context manager entered
    around each fold.
    """
    cfg = pipeline.PipelineConfig()
    t0 = time.perf_counter()
    shaped = [
        [
            (sid, kind, graphs.build_arg(
                graphs.decompose(mask, cfg.decompose_mode, resolution), cfg.adjacency_tol
            ))
            for sid, kind, mask, resolution in group
        ]
        for group in groups
    ]
    folds = {}
    for shapes in shaped:
        kinds = sorted({k for _, k, _ in shapes})
        for i, (sid, own, g) in enumerate(shapes):
            f0 = time.perf_counter()
            with fold_scope(sid) if fold_scope else nullcontext():
                try:
                    d = {}
                    for kind in kinds:
                        train = [h for j, (_, k, h) in enumerate(shapes) if k == kind and j != i]
                        protos = graphs.find_prototypes(train, cfg.min_support)
                        model = graphs.generate_model(protos, cfg.node_budget)
                        d[kind] = graphs.model_distance(g, model, False, cfg.node_budget)
                    other = min(v for k, v in d.items() if k != own)
                    folds[sid] = {"kind": own, "distances": d, "correct": d[own] < other}
                except graphs.BudgetExceeded as exc:
                    folds[sid] = {"kind": own, "error": str(exc)}
            fold_times.append(time.perf_counter() - f0)
    return folds, time.perf_counter() - t0


def models_quality(folds: dict) -> dict:
    n = len(folds)
    failed = sum(1 for f in folds.values() if "error" in f)
    correct = sum(1 for f in folds.values() if f.get("correct"))
    return {
        "attempted": n,
        "failed": failed,
        "loo_accuracy": correct / n,
        "correct_share": correct / n,
        "failed_share": failed / n,
        "ok": n > 0,
    }


def models_digest(folds: dict) -> str:
    return hashlib.sha256(json.dumps(folds, sort_keys=True).encode()).hexdigest()
