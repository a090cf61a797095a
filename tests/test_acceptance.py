"""Acceptance suite: every criterion runs at its stated size and tolerance
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`
to watch the lines as they appear (they are also captured in the summary).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from cartoseg.graphs import (
    Arg,
    find_prototypes,
    generate_model,
    graph_distance,
    max_common_subgraph,
    min_common_supergraph,
    model_distance,
)
from cartoseg.matching import match_mask
from cartoseg.pipeline import PipelineConfig, run_pipeline
from cartoseg.raster import BinaryMask, ScalarImage
from cartoseg.spectral import ThresholdPair, band_combine, hysteresis_segment
from cartoseg.synth import SceneSpec, corpus_specs, generate_scene, write_corpus
from cartoseg.watershed import MarkerSet, impose_minima, watershed_flood
from oracles import (
    brute_mcs_size,
    can_embed,
    naive_watershed,
    random_arg,
    regional_minima,
)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def random_markers(rng, shape, n_components):
    """Marker blobs (1-3 px) with pairwise Chebyshev separation >= 2."""
    h, w = shape
    comps = []
    while len(comps) < n_components:
        y, x = int(rng.integers(1, h - 1)), int(rng.integers(1, w - 1))
        blob = {(y, x)}
        for _ in range(int(rng.integers(0, 3))):
            dy, dx = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            blob.add((min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)))
        if all(
            max(abs(py - qy), abs(px - qx)) >= 2
            for py, px in blob
            for c in comps
            for qy, qx in c
        ):
            comps.append(blob)
    masks = []
    split = max(1, n_components // 2)
    for group in (comps[:split], comps[split:]):
        bits = np.zeros(shape, dtype=bool)
        for c in group:
            for y, x in c:
                bits[y, x] = True
        masks.append(BinaryMask(bits))
    return MarkerSet(masks[0], masks[1]), comps


def test_criterion_1_watershed_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    mismatches = 0
    for _ in range(100):
        relief = ScalarImage(rng.integers(0, 6, (8, 8)).astype(np.float64))
        markers, _ = random_markers(rng, (8, 8), 2)
        got = watershed_flood(relief, markers).labels
        want, _ = naive_watershed(
            relief.data, markers.object_marker.bits, markers.background_marker.bits
        )
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.time() - t0
    report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"100 random 8x8 floods vs naive immersion oracle: "
        f"{mismatches} mismatches in {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_minima_imposition():
    rng = np.random.default_rng(2002)
    bad = 0
    for _ in range(50):
        data = rng.uniform(0.0, 40.0, (12, 12))
        markers, comps = random_markers(rng, (12, 12), int(rng.integers(2, 5)))
        out = impose_minima(ScalarImage(data), markers)
        minima = {frozenset(m) for m in regional_minima(out.data)}
        expected = {frozenset(c) for c in comps}
        if minima != expected:
            bad += 1
    report(2, bad == 0, f"50 random 12x12 imposition instances: {bad} with minima != markers")


def _match_run(noise, n=50):
    rng = np.random.default_rng(3003)
    exact = within1 = 0
    for i in range(n):
        kind = "bridge" if i % 2 == 0 else "roundabout"
        off = (int(rng.integers(-10, 11)), int(rng.integers(-10, 11)))
        angle = float(rng.uniform(0, np.pi))
        spec = SceneSpec(kind=kind, offset=off, seed=30000 + i, noise=noise, main_angle=angle)
        pan, _, _ = generate_scene(spec)
        _, _, truth0 = generate_scene(replace(spec, offset=(0, 0)))
        res = match_mask(truth0.mask, pan)
        err = max(abs(res.offset[0] - off[0]), abs(res.offset[1] - off[1]))
        exact += err == 0
        within1 += err <= 1
    return exact, within1, n


def test_criterion_3_mask_matching_recovery():
    exact, _, n = _match_run(noise=0.0)
    exact_noisy, within1, n2 = _match_run(noise=8.0)
    ok = exact >= 0.95 * n and within1 >= 0.85 * n2
    report(
        3,
        ok,
        f"offset recovery: noise-free exact {exact}/{n} (need >=95%), "
        f"noise-8 within +/-1 px {within1}/{n2} (need >=85%)",
    )


def test_criterion_4_end_to_end_corpus(tmp_path):
    t0 = time.time()
    specs = corpus_specs(20, 20, seed=44, noise=8.0, clutter=2)
    corpus = tmp_path / "corpus40"
    write_corpus(corpus, specs)
    cfg = PipelineConfig(corpus=str(corpus), out=str(tmp_path / "out40"), save_intermediates=False)
    rep = run_pipeline(cfg)
    elapsed = time.time() - t0
    cats = {"correct": 0, "acceptable": 0, "incorrect": 0}
    for kind_counts in rep.aggregate["extract"].values():
        for cat, c in kind_counts.items():
            cats[cat] += c
    total = sum(cats.values())
    ok = (
        total == 40
        and cats["correct"] >= 0.6 * total
        and cats["correct"] + cats["acceptable"] >= 0.8 * total
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        f"20+20 scene corpus (noise 8, 2 clutter): {cats['correct']} correct, "
        f"{cats['acceptable']} acceptable, {cats['incorrect']} incorrect in {elapsed:.1f}s "
        f"(need >=24 correct, >=32 correct+acceptable, <120s)",
    )


def test_criterion_5_graph_suite():
    rng = np.random.default_rng(5005)
    size_mismatch = identity_fail = 0
    for _ in range(500):
        g1, g2 = random_arg(rng), random_arg(rng)
        mcs = max_common_subgraph(g1, g2)
        if mcs.size != brute_mcs_size(g1, g2):
            size_mismatch += 1
        mins = min_common_supergraph(g1, g2)
        if mins.size != g1.size + g2.size - mcs.size:
            identity_fail += 1
    metric_fail = 0
    graphs = [random_arg(rng) for _ in range(40)]
    for g in graphs[:20]:
        if graph_distance(g, g) != 0.0:
            metric_fail += 1
    for _ in range(200):
        a, b, c = (graphs[int(rng.integers(0, len(graphs)))] for _ in range(3))
        dab, dba = graph_distance(a, b), graph_distance(b, a)
        dac, dcb = graph_distance(a, c), graph_distance(c, b)
        if abs(dab - dba) > 1e-12 or not (0.0 <= dab <= 1.0) or dab > dac + dcb + 1e-12:
            metric_fail += 1
    ok = size_mismatch == 0 and identity_fail == 0 and metric_fail == 0
    report(
        5,
        ok,
        f"500 graph pairs: {size_mismatch} mcs-size mismatches vs brute force, "
        f"{identity_fail} size-identity failures; metric checks failed {metric_fail}/220",
    )


def test_criterion_6_model_sandwich():
    chain = Arg(
        ["rectangle"] * 3,
        [(0, 1, "end-to-end", "E"), (1, 2, "end-to-end", "E")],
    )
    ramp = Arg(
        ["rectangle"] * 4,
        [
            (0, 1, "end-to-end", "E"),
            (1, 2, "end-to-end", "E"),
            (2, 3, "end-to-side", "NE"),
        ],
    )
    skewed = Arg(
        ["rectangle"] * 3,
        [(0, 1, "end-to-end", "E"), (1, 2, "end-to-end", "NE")],
    )
    variants = [chain, ramp, skewed]
    protos = find_prototypes(variants, min_support=1)
    model = generate_model(protos)
    lo, hi = model.bounds
    sandwich_ok = all(can_embed(lo, p) and can_embed(p, hi) for p in model.prototypes)
    biggest = max(p.size for p in model.prototypes)
    bound = 1.0 - lo.size / biggest
    dist_ok = all(model_distance(g, model) <= bound + 1e-12 for g in variants)
    report(
        6,
        sandwich_ok and dist_ok,
        f"3-variant model: max_csg {lo.size}v / min_csg {hi.size}v, "
        f"sandwich {'holds' if sandwich_ok else 'broken'}, "
        f"training distances within 1-|maxCS|/|proto| = {bound:.3f}",
    )


def test_criterion_7_hysteresis_and_band_math():
    rng = np.random.default_rng(7007)
    mono_fail = 0
    for _ in range(100):
        data = rng.uniform(0, 100, (12, 12))
        img = ScalarImage(data)
        t_high = float(rng.uniform(20, 90))
        t_low = t_high - float(rng.uniform(0, 20))
        drop = float(rng.uniform(0, 15))
        base = hysteresis_segment(img, ThresholdPair(t_high, t_low)).bits
        lower = hysteresis_segment(img, ThresholdPair(t_high - drop, t_low - drop)).bits
        if (base & ~lower).any():
            mono_fail += 1
    from cartoseg.raster import MultiSpectralImage

    band_fail = 0
    for _ in range(100):
        c1, c2, c3 = (rng.uniform(0, 255, (6, 6)) for _ in range(3))
        ms = MultiSpectralImage(ScalarImage(c1), ScalarImage(c2), ScalarImage(c3))
        got = band_combine(ms).data
        if not np.allclose(got, (c1 + c2) * 0.3 - c3, rtol=0, atol=1e-12):
            band_fail += 1
    report(
        7,
        mono_fail == 0 and band_fail == 0,
        f"hysteresis monotonicity failures {mono_fail}/100; "
        f"band-combination formula mismatches {band_fail}/100",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    specs = corpus_specs(2, 2, seed=88, noise=6.0, clutter=1)
    corpus = tmp_path / "corpus_det"
    write_corpus(corpus, specs)
    out = tmp_path / "out_det"
    cfg = PipelineConfig(corpus=str(corpus), out=str(out))
    run_pipeline(cfg)
    first = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".json", ".pgm", ".txt")
    }
    run_pipeline(cfg)  # same corpus, same config, same destination
    second = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".json", ".pgm", ".txt")
    }
    identical = first == second
    report(
        8,
        identical,
        f"two identical pipeline runs: {len(first)} output files "
        f"{'byte-identical' if identical else 'DIFFER'}",
    )
