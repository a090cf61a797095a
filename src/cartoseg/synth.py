"""Deterministic synthetic scenes: paired panchromatic (2.5 m) and
multispectral (10 m) rasters of bridges and roundabouts with ground truth.

The whole scene renders once on a large canvas at panchromatic resolution.
The multispectral image is a box-averaged downsample of that canvas (the
sensor's area integration), so it covers a larger footprint and stays
centered on the object; the panchromatic frame is a central crop whose
window is shifted by the injected offset, which reproduces the bounded
misregistration between the two sources.  Everything derives from the
spec's seed, so identical specs give bit-identical rasters.

Bridges are a main road crossing a river at right angles, with a second
road running along the far bank; roundabouts are a ring road around a
vegetated island with four arms.  Building-like clutter blocks are bright
in both sources and spectrally road-like, placed near but never touching
the object.  The truth is the object mask in the panchromatic frame and
the graph of what that mask shows, in the primitives `graphs.decompose`
reads off a skeleton: a circle for the ring, and segments along each road
axis, cut at crossings and at the frame's edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import (DEFAULT_ADJACENCY_TOL, Arg, Primitive, arg_from_json, arg_to_doc, build_arg,
                     make_segment)
from .raster import (DOC_ERRORS, BinaryMask, FormatError, MultiSpectralImage, ScalarImage, _bilinear,
                     doc_int, write_raster)

KINDS = ("bridge", "roundabout")

# gray levels / channel values.  With the default band weights the combined
# band sits at 90 on roads, ~82 on building clutter (inside the hysteresis
# band: the documented confusion case), ~68 on background and ~46 on water,
# so the weak threshold (mode - 10) cuts mixed border pixels near the
# half-coverage point instead of demanding spectrally pure blocks.
# the river is subtle in the panchromatic band (banks stay below the edge
# thresholds); it is the multispectral signature that separates it
_PAN_BG, _PAN_RIVER, _PAN_CLUTTER, _PAN_ROAD = 80.0, 68.0, 168.0, 172.0
_MS_BG = (150.0, 150.0, 22.0)
_MS_RIVER = (130.0, 130.0, 32.0)
_MS_CLUTTER = (190.0, 190.0, 32.0)
_MS_ROAD = (200.0, 200.0, 30.0)
# per class of the scene's label canvas: background, river, clutter, road.
# Multispectral bands 0 and 1 are equal in every class, and generate_scene
# renders their shared canvas once
_PAN_LUT = np.array([_PAN_BG, _PAN_RIVER, _PAN_CLUTTER, _PAN_ROAD])
_MS_LUT = np.array([_MS_BG, _MS_RIVER, _MS_CLUTTER, _MS_ROAD]).T
_TEXTURE_AMPLITUDE = 6.0
_MS_TEXTURE_AMPLITUDE = 4.0
_TEXTURE_CELL = 16
_RIVER_WIDTH_M = 24.0
_CLUTTER_GAP_PX = 6
_SECONDARY_GAP_M = 20.0


class SpecError(Exception):
    """Invalid scene specification."""


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    # roads must stay >= 3 multispectral pixels wide so that arbitrary
    # orientations still leave spectrally pure blocks for the seed threshold
    road_width_m: float = 30.0
    circle_radius_m: float = 32.0      # ring centerline radius (roundabout)
    main_angle: float | None = None    # absolute bearing; None draws it from the seed
    offset: tuple[int, int] = (0, 0)   # (dx, dy), panchromatic pixels
    noise: float = 0.0                 # gray-level std of the additive noise
    clutter: int = 0
    seed: int = 0
    pan_size: int = 128
    ms_margin: int = 8                 # extra multispectral pixels per side
    pan_res: float = 2.5
    ms_res: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SpecError(f"unknown scene kind {self.kind!r}")
        reals = [self.road_width_m, self.circle_radius_m, self.noise, self.pan_res, self.ms_res]
        if not all(math.isfinite(v) for v in reals + [self.main_angle or 0.0]):
            raise SpecError("geometry, bearing, noise and resolutions must be finite")
        counts = (self.clutter, self.seed, self.pan_size, self.ms_margin)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise SpecError("clutter, seed, pan size and margin must be integers")
        off = self.offset
        if not (isinstance(off, (tuple, list)) and len(off) == 2
                and all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in off)):
            raise SpecError(f"offset must be two integers (dx, dy): {off!r}")
        # numpy integers are taken, and kept as the ints a manifest can hold
        for name in ("clutter", "seed", "pan_size", "ms_margin"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "offset", (int(off[0]), int(off[1])))
        if min(self.road_width_m, self.circle_radius_m, self.pan_res, self.pan_size) <= 0:
            raise SpecError("geometry must be positive")
        if self.kind == "roundabout" and self.circle_radius_m <= self.road_width_m / 2:
            raise SpecError("ring radius must exceed half the road width")
        if max(abs(self.offset[0]), abs(self.offset[1])) > 10:
            raise SpecError("offsets are limited to +/-10 pixels")
        if min(self.noise, self.clutter, self.seed, self.ms_margin) < 0:
            raise SpecError("noise, clutter, seed and margin must be non-negative")
        factor = self.ms_res / self.pan_res
        if abs(factor - round(factor)) > 1e-9 or factor < 1:
            raise SpecError("ms resolution must be an integer multiple of pan resolution")
        if self.pan_size % int(round(factor)) != 0:
            raise SpecError("pan size must be divisible by the resolution factor")
        if max(abs(self.offset[0]), abs(self.offset[1])) > self.ms_margin * self.factor:
            raise SpecError("offsets must fit in the multispectral margin")

    @property
    def factor(self) -> int:
        return int(round(self.ms_res / self.pan_res))


@dataclass(eq=False)
class GroundTruth:
    mask: BinaryMask                 # object mask aligned with the pan frame
    offset: tuple[int, int]
    arg: Arg
    primitives: list[Primitive] = field(default_factory=list)


def _value_noise(rng, shape: tuple[int, int], amplitude: float, window=np.s_[:, :]) -> np.ndarray:
    """Smooth low-frequency texture: a coarse random grid, bilinearly
    upsampled to `shape`, of which only the slices `window` are evaluated."""
    gh = shape[0] // _TEXTURE_CELL + 2
    gw = shape[1] // _TEXTURE_CELL + 2
    grid = rng.normal(0.0, 1.0, (gh, gw))
    ys = np.arange(shape[0])[window[0]] / _TEXTURE_CELL
    xs = np.arange(shape[1])[window[1]] / _TEXTURE_CELL
    return amplitude * _bilinear(grid, ys, xs)


def _bar(yy: np.ndarray, xx: np.ndarray, cx: float, cy: float, angle: float, width: float) -> np.ndarray:
    d = -(xx - cx) * math.sin(angle) + (yy - cy) * math.cos(angle)
    return np.abs(d) <= width / 2.0


def _box_downsample(canvas: np.ndarray, factor: int) -> np.ndarray:
    h, w = canvas.shape
    return canvas.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def _axis(p, d, lo, hi, cut: float = -math.inf, t0: float = -math.inf) -> list[Primitive]:
    """The road axis p + t*d, t >= t0, clipped to the box [lo, hi] (Liang &
    Barsky, CVGIP 3(1), 1984) and cut at t = cut, as segments."""
    t1 = math.inf
    for k in (0, 1):
        if d[k]:
            a, b = sorted(((lo[k] - p[k]) / d[k], (hi[k] - p[k]) / d[k]))
            t0, t1 = max(t0, a), min(t1, b)
        elif not lo[k] <= p[k] <= hi[k]:
            return []
    ends = [(p[0] + t * d[0], p[1] + t * d[1]) for t in sorted({t0, cut, t1}) if t0 <= t <= t1]
    return [make_segment(a, b) for a, b in zip(ends, ends[1:])]


def _truth_primitives(spec: SceneSpec, main_angle: float) -> list[Primitive]:
    """The primitives the truth mask shows, in meters, origin at the object
    center, in the vocabulary `decompose` reads off a skeleton: the ring is
    a circle, and each road axis is segments, cut where it crosses another
    road and at the edge of the frame the mask covers."""
    half = spec.pan_size / 2.0
    ox, oy = spec.offset
    lo = ((-half - ox) * spec.pan_res, (-half - oy) * spec.pan_res)
    hi = ((half - ox) * spec.pan_res, (half - oy) * spec.pan_res)
    u = (math.cos(main_angle), math.sin(main_angle))
    v = (-u[1], u[0])
    if spec.kind == "roundabout":
        arms = (u, v, (-u[0], -u[1]), (-v[0], -v[1]))
        return [Primitive("circle", (0.0, 0.0), radius=spec.circle_radius_m)] + [
            s for d in arms for s in _axis((0.0, 0.0), d, lo, hi, t0=spec.circle_radius_m)
        ]
    # the secondary road runs along the far bank, at right angles to the
    # main road, and crosses its axis at -d_sec * u
    d_sec = _RIVER_WIDTH_M / 2.0 + _SECONDARY_GAP_M + spec.road_width_m / 2.0
    crossing = (-d_sec * u[0], -d_sec * u[1])
    return _axis((0.0, 0.0), u, lo, hi, cut=-d_sec) + _axis(crossing, v, lo, hi, cut=0.0)


def generate_scene(spec: SceneSpec):
    """Render one scene; returns (pan, ms, truth).  Identical rasters need
    the draws from the `spec.seed` generator in this order: the bearing
    (if unset), the pan then the two multispectral texture grids, the
    clutter blocks, the pan noise, then each multispectral band's noise."""
    rng = np.random.default_rng(spec.seed)
    main_angle = spec.main_angle if spec.main_angle is not None else float(rng.uniform(0, math.pi))

    factor = spec.factor
    margin = spec.ms_margin * factor
    big = spec.pan_size + 2 * margin
    cy = cx = (big - 1) / 2.0
    xx = np.arange(big, dtype=np.float64)
    yy = xx[:, None]
    w_px = spec.road_width_m / spec.pan_res

    # surface classes, each later one painted over the earlier:
    # background 0, river 1, clutter 2, road 3
    label = np.zeros((big, big), dtype=np.uint8)
    if spec.kind == "bridge":
        tr = main_angle + math.pi / 2  # the river crosses at right angles
        label[_bar(yy, xx, cx, cy, tr, _RIVER_WIDTH_M / spec.pan_res)] = 1
        d_sec = (_RIVER_WIDTH_M / 2.0 + _SECONDARY_GAP_M + spec.road_width_m / 2.0) / spec.pan_res
        sx = cx - math.sin(tr) * d_sec
        sy = cy + math.cos(tr) * d_sec
        obj = _bar(yy, xx, cx, cy, main_angle, w_px) | _bar(yy, xx, sx, sy, tr, w_px)
    else:
        radius_px = spec.circle_radius_m / spec.pan_res
        rr = np.hypot(xx - cx, yy - cy)
        ring = (rr <= radius_px + w_px / 2.0) & (rr >= radius_px - w_px / 2.0)
        island = rr < radius_px - w_px / 2.0
        arms = _bar(yy, xx, cx, cy, main_angle, w_px) | _bar(
            yy, xx, cx, cy, main_angle + math.pi / 2.0, w_px
        )
        obj = ring | (arms & ~island)

    # pan frame: central window shifted against the injected offset
    ox, oy = spec.offset
    frame = np.s_[margin - oy : margin - oy + spec.pan_size, margin - ox : margin - ox + spec.pan_size]
    tex_pan = _value_noise(rng, (big, big), _TEXTURE_AMPLITUDE, frame)
    tex_ms_a = _value_noise(rng, (big, big), _MS_TEXTURE_AMPLITUDE)
    tex_ms_b = _value_noise(rng, (big, big), _MS_TEXTURE_AMPLITUDE)

    gap = _CLUTTER_GAP_PX
    placed = 0
    attempts = 0
    while placed < spec.clutter and attempts < 50 * max(1, spec.clutter):
        attempts += 1
        cw = int(rng.integers(8, 21))
        ch = int(rng.integers(8, 21))
        if max(cw, ch) >= spec.pan_size:  # no position fits it
            continue
        x0 = int(rng.integers(margin, big - margin - cw))
        y0 = int(rng.integers(margin, big - margin - ch))
        window = obj[
            max(0, y0 - gap) : y0 + ch + gap, max(0, x0 - gap) : x0 + cw + gap
        ]
        if window.any():
            continue
        label[y0 : y0 + ch, x0 : x0 + cw] = 2
        placed += 1
    label[obj] = 3

    textured = label < 2  # paved surfaces render flat
    pan = _PAN_LUT[label[frame]] + tex_pan * textured[frame]
    ms_a, ms_b = (_MS_LUT[b][label] + tex * textured for b, tex in ((0, tex_ms_a), (2, tex_ms_b)))
    ms_canvas = (ms_a, ms_a, ms_b)

    truth_bits = obj[frame].copy()
    if spec.noise > 0:
        pan += rng.normal(0.0, spec.noise, pan.shape)
    pan_img = ScalarImage(
        np.clip(np.rint(pan), 0, 255).astype(np.uint8), spec.pan_res
    )

    channels = []
    for c in ms_canvas:
        if spec.noise > 0:
            c = c + rng.normal(0.0, spec.noise * 0.3, c.shape)
        down = _box_downsample(c, factor)
        channels.append(
            ScalarImage(np.clip(np.rint(down), 0, 255).astype(np.uint8), spec.ms_res)
        )
    ms_img = MultiSpectralImage(*channels)

    prims = _truth_primitives(spec, main_angle)
    truth = GroundTruth(
        mask=BinaryMask(truth_bits),
        offset=spec.offset,
        arg=build_arg(prims, adjacency_tol=DEFAULT_ADJACENCY_TOL),
        primitives=prims,
    )
    return pan_img, ms_img, truth


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------


def corpus_specs(
    n_bridge: int,
    n_roundabout: int,
    seed: int = 0,
    noise: float = 0.0,
    clutter: int = 0,
    random_offsets: bool = True,
) -> list[SceneSpec]:
    """Reproducible scene specs: per-scene seeds, angles and offsets all
    derive from the master seed."""
    if n_bridge < 0 or n_roundabout < 0:
        raise SpecError("scene counts must be non-negative")
    master = np.random.default_rng(seed)
    specs = []
    kinds = ["bridge"] * n_bridge + ["roundabout"] * n_roundabout
    for kind in kinds:
        scene_seed = int(master.integers(0, 2**63 - 1))
        angle = float(master.uniform(0, math.pi))
        if random_offsets:
            off = (int(master.integers(-10, 11)), int(master.integers(-10, 11)))
        else:
            off = (0, 0)
        specs.append(
            SceneSpec(
                kind=kind,
                main_angle=angle,
                offset=off,
                noise=noise,
                clutter=clutter,
                seed=scene_seed,
            )
        )
    return specs


def write_corpus(out_dir, specs: list[SceneSpec]) -> dict:
    """Render and write every scene plus a manifest; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, spec in enumerate(specs):
        sid = f"scene_{i:03d}"
        pan, ms, truth = generate_scene(spec)
        write_raster(pan, out / f"{sid}_pan.pgm")
        write_raster(ms, out / f"{sid}_ms.ppm")
        write_raster(truth.mask, out / f"{sid}_truth.pgm")
        (out / f"{sid}_truth.json").write_text(
            json.dumps(
                {
                    "kind": spec.kind,
                    "offset": list(truth.offset),
                    "seed": spec.seed,
                    "arg": arg_to_doc(truth.arg),
                },
                sort_keys=True,
            )
        )
        entries.append(
            {
                "id": sid,
                "kind": spec.kind,
                "offset": list(spec.offset),
                "noise": spec.noise,
                "clutter": spec.clutter,
                "seed": spec.seed,
                "files": {
                    "pan": f"{sid}_pan.pgm",
                    "ms": f"{sid}_ms.ppm",
                    "truth_mask": f"{sid}_truth.pgm",
                    "truth": f"{sid}_truth.json",
                },
            }
        )
    manifest = {"scenes": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_truth(path) -> tuple[str, tuple[int, int], Arg]:
    """A truth file's kind, offset and graph; FormatError for an offset not two integers."""
    doc = json.loads(Path(path).read_text())
    try:
        dx, dy = map(doc_int, doc["offset"])
    except DOC_ERRORS as exc:
        raise FormatError(f"not a truth offset: {type(exc).__name__}: {exc}") from exc
    return doc["kind"], (dx, dy), arg_from_json(doc["arg"])
