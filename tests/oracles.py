"""Independent brute-force oracles used to pin expected test values.

Everything here is written naively and separately from the package code:
per-pixel loops, linear scans and exhaustive enumeration instead of the
vectorized / branch-and-bound implementations under test.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


# ---------------------------------------------------------------------------
# morphology
# ---------------------------------------------------------------------------


def naive_dilate(bits: np.ndarray, offsets) -> np.ndarray:
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            if not bits[y, x]:
                continue
            for dy, dx in offsets:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w:
                    out[ny, nx] = True
    return out


def square_offsets(r: int):
    return [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)]


def disk_offsets(r: int):
    return [
        (dy, dx)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if dy * dy + dx * dx <= r * r
    ]


def naive_external_boundary(bits: np.ndarray, offsets) -> np.ndarray:
    d = naive_dilate(bits, offsets)
    return naive_dilate(d, square_offsets(1)) & ~d


def bfs_label_components(bits: np.ndarray, connectivity: int = 8):
    """Stack flood fill from each unlabelled pixel, scanned row-major."""
    if connectivity == 8:
        offs = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
    else:
        offs = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    h, w = bits.shape
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not bits[sy, sx] or labels[sy, sx]:
                continue
            count += 1
            labels[sy, sx] = count
            stack = [(sy, sx)]
            while stack:
                y, x = stack.pop()
                for dy, dx in offs:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = count
                        stack.append((ny, nx))
    return labels, count


def random_connected_mask(rng, shape=(16, 16), steps=40):
    """An 8-connected random walk from the frame's centre, clipped to it."""
    bits = np.zeros(shape, dtype=bool)
    y, x = shape[0] // 2, shape[1] // 2
    bits[y, x] = True
    for _ in range(steps):
        dy, dx = rng.integers(-1, 2), rng.integers(-1, 2)
        y = int(np.clip(y + dy, 0, shape[0] - 1))
        x = int(np.clip(x + dx, 0, shape[1] - 1))
        bits[y, x] = True
    return bits


def random_polyline_mask(rng, shape=(64, 64), corners=5):
    """A connected polyline from the frame's centre through `corners` random
    points, drawn with a pen of radius 0, 1 or 2: long arms, and cycles
    where the line crosses itself."""
    h, w = shape
    pts = np.concatenate([[[h // 2, w // 2]], rng.integers(0, (h, w), size=(corners, 2))])
    r2 = int(rng.integers(0, 3)) ** 2 + 0.5
    yy, xx = np.mgrid[:h, :w]
    bits = np.zeros(shape, dtype=bool)
    for (y0, x0), (y1, x1) in zip(pts[:-1], pts[1:]):
        for t in np.linspace(0, 1, 2 * max(abs(y1 - y0), abs(x1 - x0)) + 1):
            bits |= (yy - y0 - t * (y1 - y0)) ** 2 + (xx - x0 - t * (x1 - x0)) ** 2 <= r2
    return bits


def frame_zhang_suen(bits: np.ndarray) -> np.ndarray:
    """Two-subcycle Zhang-Suen thinning by whole-frame passes: each subcycle
    tests every pixel, until a full cycle of both deletes none.  Then each
    component the thinning emptied gets back its first pixel in row-major
    order."""
    img = bits.copy()
    h, w = img.shape
    ring = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))  # N, NE, ..., NW
    changed = True
    while changed:
        changed = False
        for step in (0, 1):
            p = np.pad(img, 1)
            p2, p3, p4, p5, p6, p7, p8, p9 = (p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] for dy, dx in ring)
            seq = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
            b = sum(x.astype(np.uint8) for x in seq[:8])
            a = sum((~seq[i] & seq[i + 1]).astype(np.uint8) for i in range(8))
            cond = img & (b >= 2) & (b <= 6) & (a == 1)
            if step == 0:
                cond &= ~(p2 & p4 & p6) & ~(p4 & p6 & p8)
            else:
                cond &= ~(p2 & p4 & p8) & ~(p2 & p6 & p8)
            if cond.any():
                img &= ~cond
                changed = True
    labels, count = bfs_label_components(bits, 8)
    for label in range(1, count + 1):
        if not (img & (labels == label)).any():
            ys, xs = np.nonzero(labels == label)
            img[ys[0], xs[0]] = True
    return img


# ---------------------------------------------------------------------------
# hysteresis
# ---------------------------------------------------------------------------


def bfs_grow8(seeds: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Stack flood fill through 8-neighbours in `allowed` from every pixel of
    ``seeds & allowed``."""
    h, w = allowed.shape
    out = np.zeros((h, w), dtype=bool)
    stack = [(y, x) for y in range(h) for x in range(w) if seeds[y, x] and allowed[y, x]]
    for y, x in stack:
        out[y, x] = True
    while stack:
        y, x = stack.pop()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if (
                    0 <= ny < h
                    and 0 <= nx < w
                    and not out[ny, nx]
                    and allowed[ny, nx]
                ):
                    out[ny, nx] = True
                    stack.append((ny, nx))
    return out


def bfs_hysteresis(data: np.ndarray, t_high: float, t_low: float) -> np.ndarray:
    return bfs_grow8(data >= t_high, data >= t_low)


def loop_keep_central(bits: np.ndarray, window: int) -> np.ndarray:
    """`spectral.keep_central_component` with two full-frame scans per label."""
    if not bits.any():
        return bits.copy()
    labels, count = bfs_label_components(bits, 8)
    h, w = bits.shape
    y0 = max(0, (h - window + 1) // 2)
    x0 = max(0, (w - window + 1) // 2)
    center = labels[y0 : y0 + window, x0 : x0 + window]
    best, best_key = 0, (-1, -1)
    for lab in range(1, count + 1):
        overlap = int(np.count_nonzero(center == lab))
        size = int(np.count_nonzero(labels == lab))
        key = (overlap, size)
        if key > best_key:  # ties keep the earlier (lower) label
            best, best_key = lab, key
    return labels == best


def bfs_label_arcs(arcs: np.ndarray, skel: np.ndarray):
    """Arc labels by a stack flood fill through 8-neighbours in `arcs`: a
    diagonal step is cut where either orthogonal corner pixel is in `skel`."""
    h, w = arcs.shape
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for sy, sx in zip(*np.nonzero(arcs)):
        if labels[sy, sx]:
            continue
        count += 1
        labels[sy, sx] = count
        stack = [(int(sy), int(sx))]
        while stack:
            y, x = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if (dy, dx) == (0, 0):
                        continue
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < h and 0 <= nx < w) or not arcs[ny, nx] or labels[ny, nx]:
                        continue
                    if dy != 0 and dx != 0 and (skel[ny, x] or skel[y, nx]):
                        continue
                    labels[ny, nx] = count
                    stack.append((ny, nx))
    return labels, count


def histogram_mode(values, delta: float):
    bins = [math.floor(v + 0.5) for v in values]
    counts = {}
    for b in bins:
        counts[b] = counts.get(b, 0) + 1
    best = max(counts.values())
    mode = min(b for b, c in counts.items() if c == best)
    return float(mode), float(mode) - delta


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def bilinear_at(src: np.ndarray, sx: float, sy: float) -> float:
    h, w = src.shape
    sx = min(max(sx, 0.0), w - 1.0)
    sy = min(max(sy, 0.0), h - 1.0)
    x0, y0 = int(math.floor(sx)), int(math.floor(sy))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = sx - x0, sy - y0
    return float(
        src[y0, x0] * (1 - fy) * (1 - fx)
        + src[y0, x1] * (1 - fy) * fx
        + src[y1, x0] * fy * (1 - fx)
        + src[y1, x1] * fy * fx
    )


def naive_magnify(src: np.ndarray, factor: int) -> np.ndarray:
    h, w = src.shape
    out = np.zeros((h * factor, w * factor))
    for oy in range(h * factor):
        for ox in range(w * factor):
            out[oy, ox] = bilinear_at(
                src, (ox + 0.5) / factor - 0.5, (oy + 0.5) / factor - 0.5
            )
    return out


# ---------------------------------------------------------------------------
# edge detection and rasterization
# ---------------------------------------------------------------------------


# the tracer's neighbor order: N, NE, E, SE, S, SW, W, NW
_TRACE_ORDER = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def m_adjacent(pixels: set, p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Whether pixels p and q of the set `pixels` are m-adjacent (Rosenfeld):
    4-adjacent, or diagonal with neither of the two orthogonal pixels they
    both touch in the set."""
    (y, x), (v, u) = p, q
    if max(abs(v - y), abs(u - x)) != 1:
        return False
    return y == v or x == u or ((y, u) not in pixels and (v, x) not in pixels)


def set_trace_chains(final: np.ndarray) -> list[list[tuple[int, int]]]:
    """`edges._trace_chains` over a set of (y, x) pixel tuples, an
    m-adjacency neighbor dict and a set of traced pixel pairs.

    Paths start and end at pixels whose degree differs from 2 and are
    walked through degree-2 pixels until a pair repeats; what remains
    afterwards are pure cycles, each walked back to its first pixel.
    Returns the path of each chain.
    """
    pixels = {(int(y), int(x)) for y, x in zip(*np.nonzero(final))}
    nbrs = {
        p: [q for q in ((p[0] + dy, p[1] + dx) for dy, dx in _TRACE_ORDER)
            if q in pixels and m_adjacent(pixels, p, q)]
        for p in pixels
    }
    used: set[frozenset] = set()
    chains = []

    def walk(start, first):
        path = [start, first]
        used.add(frozenset((start, first)))
        cur, prev = first, start
        while len(nbrs[cur]) == 2:
            nxt = nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1]
            e = frozenset((cur, nxt))
            if e in used:
                break
            used.add(e)
            path.append(nxt)
            prev, cur = cur, nxt
        return path

    for t in sorted(p for p in pixels if len(nbrs[p]) != 2):
        for n in nbrs[t]:
            if frozenset((t, n)) not in used:
                chains.append(walk(t, n))
    for p in sorted(pixels):
        if len(nbrs[p]) != 2:
            continue
        for n in nbrs[p]:
            if frozenset((p, n)) not in used:
                chains.append(walk(p, n))
                break
    return chains


def pointwise_canny(img, sigma=1.2, high_percentile=95.0, low_fraction=0.4):
    """`edges.canny` with the sub-pixel offset computed pixel by pixel.

    Smoothing, gradient and suppression are the package's own helpers;
    hysteresis, tracing and the per-point loop are independent.
    Returns the points of each chain.
    """
    from cartoseg.edges import _SECTOR_STEP, _gaussian_blur, _sobel_pair
    from cartoseg.morph import _neighbor_planes

    smooth = _gaussian_blur(img.data.astype(np.float64), sigma)
    gx, gy = _sobel_pair(smooth)
    mag = np.hypot(gx, gy)
    sector = (np.round(np.arctan2(gy, gx) / (math.pi / 4.0)).astype(int)) % 4
    keep = np.zeros(mag.shape, dtype=bool)
    planes = _neighbor_planes(mag)
    for k in _SECTOR_STEP:
        keep |= (sector == k) & (mag >= planes[k + 2]) & (mag > planes[(k + 6) % 8])
    nms = np.where(keep, mag, 0.0)
    nz = mag[mag > 0]
    hi = float(np.percentile(nz, high_percentile)) if nz.size else 0.0
    if hi <= 0:
        return []
    h, w = mag.shape
    chains = []
    for path in set_trace_chains(bfs_hysteresis(nms, hi, low_fraction * hi)):
        pts = np.empty((len(path), 2), dtype=np.float64)
        for i, (y, x) in enumerate(path):
            dy, dx = _SECTOR_STEP[int(sector[y, x])]
            ym, xm = y - dy, x - dx
            yp, xp = y + dy, x + dx
            delta = 0.0
            if 0 <= ym < h and 0 <= xm < w and 0 <= yp < h and 0 <= xp < w:
                a, c, b = mag[ym, xm], mag[y, x], mag[yp, xp]
                den = a + b - 2.0 * c
                if den < 0.0:
                    delta = float(np.clip((a - b) / (2.0 * den), -0.49, 0.49))
            pts[i] = (x + delta * dx, y + delta * dy)
        chains.append(pts)
    return chains


def pointwise_sobel(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel x and y derivatives pixel by pixel, reading the nearest frame
    pixel for a neighbor past the border."""
    h, w = f.shape

    def at(y, x):
        return f[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    gx = np.empty((h, w))
    gy = np.empty((h, w))
    for y in range(h):
        for x in range(w):
            gx[y, x] = (at(y - 1, x + 1) + 2.0 * at(y, x + 1) + at(y + 1, x + 1)) - (
                at(y - 1, x - 1) + 2.0 * at(y, x - 1) + at(y + 1, x - 1)
            )
            gy[y, x] = (at(y + 1, x - 1) + 2.0 * at(y + 1, x) + at(y + 1, x + 1)) - (
                at(y - 1, x - 1) + 2.0 * at(y - 1, x) + at(y - 1, x + 1)
            )
    return gx, gy


def bresenham_rasterize(chains, width: int, height: int) -> np.ndarray:
    """One Bresenham walk per segment of every chain, clipped to the frame."""
    bits = np.zeros((height, width), dtype=bool)

    def draw(x0, y0, x1, y1):
        dx, dy = abs(x1 - x0), abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx - dy
        while True:
            if 0 <= y0 < height and 0 <= x0 < width:
                bits[y0, x0] = True
            if x0 == x1 and y0 == y1:
                return
            e2 = 2 * err
            if e2 > -dy:
                err -= dy
                x0 += sx
            if e2 < dx:
                err += dx
                y0 += sy

    for chain in chains:
        pts = np.rint(chain.points).astype(int)
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            draw(int(x0), int(y0), int(x1), int(y1))
    return bits


# ---------------------------------------------------------------------------
# edge refinement
# ---------------------------------------------------------------------------


def loop_smooth_chain(pts: np.ndarray, window: int) -> np.ndarray:
    """Moving average with one window per point, cut at the chain's ends,
    which stay."""
    n = len(pts)
    if window <= 1 or n < 3:
        return pts.copy()
    half = window // 2
    out = pts.copy()
    for i in range(1, n - 1):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        out[i] = pts[lo:hi].mean(axis=0)
    return out


def dense_merge_chains(chains, merge_dist: float) -> list[np.ndarray]:
    """Greedy endpoint merge over the dense n x n distance array.

    Ranks every endpoint pair within `merge_dist` by (distance, sorted
    endpoint coordinates, i, j) with a tuple sort, and rescans every live
    endpoint after each merge.  Returns the points of each output chain:
    unmerged ones in input order, then merged ones in creation order.
    """
    if len(chains) <= 1:
        return [c.points for c in chains]
    coords = np.concatenate([[c.points[0], c.points[-1]] for c in chains])
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    candidates = []
    for i, j in zip(*np.nonzero(dist <= merge_dist)):
        if i >= j or i // 2 == j // 2:
            continue
        key = tuple(sorted((tuple(coords[i]), tuple(coords[j]))))
        candidates.append((float(dist[i, j]), key, int(i), int(j)))
    candidates.sort()

    points = {k: c.points for k, c in enumerate(chains)}
    owner = {e: e // 2 for e in range(2 * len(chains))}
    side = {e: e % 2 for e in range(2 * len(chains))}
    alive = set(owner)
    next_id = len(chains)
    for _, _, i, j in candidates:
        if i not in alive or j not in alive or owner[i] == owner[j]:
            continue
        ci, cj = owner[i], owner[j]
        a = points.pop(ci)
        b = points.pop(cj)
        if side[i] == 0:
            a = a[::-1]
        if side[j] == 1:
            b = b[::-1]
        points[next_id] = np.concatenate([a, b])
        alive -= {i, j}
        for e in alive:
            if owner[e] == ci:
                owner[e], side[e] = next_id, 0
            elif owner[e] == cj:
                owner[e], side[e] = next_id, 1
        next_id += 1
    return [points[k] for k in sorted(points)]


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def _full_convolution(f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """f convolved with kernel, f read as zero outside its frame; the result
    grows by the kernel's radius on every side."""
    kh, kw = kernel.shape
    h, w = f.shape
    out = np.zeros((h + kh - 1, w + kw - 1))
    for i in range(kh):
        for j in range(kw):
            out[i : i + h, j : j + w] += kernel[i, j] * f
    return out


def _gradient_field(f: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Sobel x and y of the Gaussian-blurred f, all zero-padded convolutions;
    the result grows by radius + 1 on every side."""
    radius = max(1, math.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (xs / sigma) ** 2)
    g /= g.sum()
    blurred = _full_convolution(_full_convolution(f, g[None, :]), g[:, None])
    sobel_x = np.outer([1.0, 2.0, 1.0], [1.0, 0.0, -1.0])
    return _full_convolution(blurred, sobel_x), _full_convolution(blurred, sobel_x.T)


def direct_match_scores(
    mask: np.ndarray, pan: np.ndarray, half_window: int, sigma: float = 1.2
) -> dict:
    """|sum_p N(p - d) . G(p)| per offset d = (dx, dy), |dx|, |dy| <= half_window,
    summed directly over the pixels of two canvases.

    The canvas margin keeps every shifted N inside the canvas.
    """
    h, w = pan.shape
    r = max(1, math.ceil(3.0 * sigma)) + 1
    pad = half_window + 2 * r + 1
    canvas = np.zeros((h + 2 * pad, w + 2 * pad))
    # the pan extended past its frame by its own mean, less that mean, which
    # has no gradient: so a flat pan scores exactly 0
    canvas[pad : pad + h, pad : pad + w] = pan - np.mean(pan)
    rim = np.zeros_like(canvas)
    rim[pad : pad + h, pad : pad + w] = mask
    gx, gy = _gradient_field(canvas, sigma)
    nx, ny = _gradient_field(rim, sigma)
    # N is zero outside the mask's frame grown by r, a box that starts at pad
    # in both padded arrays
    y0, x0, bh, bw = pad, pad, h + 2 * r, w + 2 * r
    scores = {}
    for dy in range(-half_window, half_window + 1):
        for dx in range(-half_window, half_window + 1):
            total = 0.0
            for n, g in ((nx, gx), (ny, gy)):
                window = g[y0 + dy : y0 + dy + bh, x0 + dx : x0 + dx + bw]
                total += float(np.sum(n[y0 : y0 + bh, x0 : x0 + bw] * window))
            scores[(dx, dy)] = abs(total)
    return scores


# ---------------------------------------------------------------------------
# watershed
# ---------------------------------------------------------------------------


def naive_marker_labels(obj: np.ndarray, bg: np.ndarray):
    """8-connected components, object first, row-major discovery order."""

    def components(bits, labels, start):
        h, w = bits.shape
        n = start
        for y in range(h):
            for x in range(w):
                if not bits[y, x] or labels[y, x]:
                    continue
                n += 1
                stack = [(y, x)]
                labels[y, x] = n
                while stack:
                    cy, cx = stack.pop()
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = cy + dy, cx + dx
                            if (
                                0 <= ny < h
                                and 0 <= nx < w
                                and bits[ny, nx]
                                and not labels[ny, nx]
                            ):
                                labels[ny, nx] = n
                                stack.append((ny, nx))
        return n

    labels = np.zeros(obj.shape, dtype=int)
    n_obj = components(obj, labels, 0)
    components(bg, labels, n_obj)
    return labels, set(range(1, n_obj + 1))


def erode8_impose_minima(data: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """`watershed.impose_minima` with each pass a padded copy and eight
    shifted minima, one per neighbour."""
    f = data.astype(np.float64)
    lo, hi = float(f.min()), float(f.max())
    step = (hi - lo) * 1e-3 if hi > lo else 1.0
    seed = np.where(marked, lo - 1.0, np.inf)
    ceiling = np.minimum(f + step, seed)
    h, w = f.shape
    cur = seed
    while True:
        p = np.pad(cur, 1, constant_values=np.inf)
        eroded = cur.copy()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy or dx:
                    np.minimum(eroded, p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w], out=eroded)
        nxt = np.maximum(eroded, ceiling)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def naive_watershed(relief: np.ndarray, obj: np.ndarray, bg: np.ndarray):
    """Sorted-immersion simulation with a plain entry list and linear scans.

    Same declared semantics as the priority-flood under test: 4-connected
    flooding, entries ordered by (value, insertion sequence) with markers
    initialized row-major and neighbors pushed N, W, E, S; a pixel popped
    while a different basin has a pending entry for it at the same value
    becomes a watershed-line pixel (-1).
    """
    h, w = relief.shape
    labels, object_ids = naive_marker_labels(obj, bg)
    entries = []  # [value, seq, y, x, label, alive]
    seq = 0
    for y in range(h):
        for x in range(w):
            if labels[y, x] > 0:
                for dy, dx in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == 0:
                        entries.append([float(relief[ny, nx]), seq, ny, nx, labels[y, x], True])
                        seq += 1
    while True:
        best = None
        for e in entries:
            if e[5] and (best is None or (e[0], e[1]) < (best[0], best[1])):
                best = e
        if best is None:
            break
        best[5] = False
        v, _, y, x, lab, _ = best
        if labels[y, x] != 0:
            continue
        rivals = {lab}
        for e in entries:
            if e[5] and e[2] == y and e[3] == x and e[0] == v:
                rivals.add(e[4])
        if len(rivals) > 1:
            labels[y, x] = -1
            continue
        labels[y, x] = lab
        for dy, dx in ((-1, 0), (0, -1), (0, 1), (1, 0)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == 0:
                entries.append([float(relief[ny, nx]), seq, ny, nx, lab, True])
                seq += 1
    return labels, object_ids


def heap_watershed_flood(relief, markers):
    """`watershed.watershed_flood` as it was before settled components:
    every pixel of the frame enters the heap, a marker pixel at the start
    and any other pixel at its first touch."""
    import heapq

    from cartoseg.watershed import WSHED, LabelImage, label_marker_components

    data = relief.data.astype(np.float64)
    h, w = data.shape
    if (h, w) != markers.object_marker.bits.shape:
        raise ValueError("relief and markers must share dimensions")
    if np.isnan(data).any():
        raise ValueError("relief must not contain NaN")
    marker_labels, _ = label_marker_components(markers)
    W = w + 2
    labels = np.pad(marker_labels, 1, constant_values=WSHED).ravel().tolist()
    first = labels.copy()  # basin of the first touch (a marker's own); 0 = untouched
    mixed = [False] * len(labels)  # touched by a second basin as well
    _, rank = np.unique(data.ravel(), return_inverse=True)
    base = np.pad((rank.reshape(h, w).astype(np.int64) + 1) << 32, 1).ravel().tolist()
    # Markers hold rank 0, below every relief value, so they settle first
    # and in row-major order; a sorted list is already a heap.
    ys, xs = np.nonzero(marker_labels)
    order = ((ys + 1) * W + xs + 1).tolist()
    heap = list(range(len(order)))
    push, pop, enter = heapq.heappush, heapq.heappop, order.append

    while heap:
        i = order[pop(heap) & 0xFFFFFFFF]
        if mixed[i]:
            labels[i] = WSHED
            continue
        lab = labels[i] = first[i]
        for j in (i - W, i - 1, i + 1, i + W):
            if labels[j] == 0:
                if not first[j]:
                    first[j] = lab
                    push(heap, base[j] | len(order))
                    enter(j)
                elif first[j] != lab:
                    mixed[j] = True

    out = np.array(labels, dtype=np.int32).reshape(h + 2, W)[1:-1, 1:-1]
    return LabelImage(np.ascontiguousarray(out))


def regional_minima(data: np.ndarray) -> list[frozenset]:
    """8-connected constant plateaus whose outer neighbors are all greater."""
    h, w = data.shape
    seen = np.zeros((h, w), dtype=bool)
    minima = []
    for y in range(h):
        for x in range(w):
            if seen[y, x]:
                continue
            level = data[y, x]
            plateau = set()
            stack = [(y, x)]
            seen[y, x] = True
            is_min = True
            while stack:
                cy, cx = stack.pop()
                plateau.add((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if not (0 <= ny < h and 0 <= nx < w):
                            continue
                        if data[ny, nx] == level:
                            if not seen[ny, nx]:
                                seen[ny, nx] = True
                                stack.append((ny, nx))
                        elif data[ny, nx] < level:
                            is_min = False
            if is_min:
                minima.append(frozenset(plateau))
    return minima


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def _edge_attr(g, a, b):
    for u, v, conn, d in g.edges:
        if (u, v) == (min(a, b), max(a, b)):
            return (conn, d)
    return None


def brute_mcs_size(g1, g2) -> int:
    """Maximum induced common subgraph size by exhaustive enumeration of
    vertex subsets and injective kind-preserving mappings."""
    n1, n2 = g1.size, g2.size
    best = 0
    verts1 = list(range(n1))
    for k in range(min(n1, n2), best, -1):
        for subset in itertools.combinations(verts1, k):
            for image in itertools.permutations(range(n2), k):
                if any(g1.kinds[a] != g2.kinds[b] for a, b in zip(subset, image)):
                    continue
                ok = True
                for i in range(k):
                    for j in range(i + 1, k):
                        if _edge_attr(g1, subset[i], subset[j]) != _edge_attr(
                            g2, image[i], image[j]
                        ):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return k
    return 0


def can_embed(small, big) -> bool:
    """Is `small` isomorphic to a (not necessarily induced) subgraph of
    `big` with matching vertex kinds and edge attributes?"""
    ns, nb = small.size, big.size
    if ns > nb:
        return False

    def backtrack(i, used, assign):
        if i == ns:
            return True
        for w in range(nb):
            if w in used or small.kinds[i] != big.kinds[w]:
                continue
            ok = True
            for j in range(i):
                want = _edge_attr(small, i, j)
                if want is not None and _edge_attr(big, w, assign[j]) != want:
                    ok = False
                    break
            if ok and backtrack(i + 1, used | {w}, assign + [w]):
                return True
        return False

    return backtrack(0, set(), [])


def brute_isomorphic(g1, g2) -> bool:
    n = g1.size
    if n != g2.size or len(g1.edges) != len(g2.edges):
        return False
    for perm in itertools.permutations(range(n)):
        if any(g1.kinds[i] != g2.kinds[perm[i]] for i in range(n)):
            continue
        if all(
            _edge_attr(g1, i, j) == _edge_attr(g2, perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def random_arg(rng, max_vertices=5, kinds=("rectangle", "circle", "segment")):
    """Random small attributed graph for metric / search tests."""
    from cartoseg.graphs import Arg

    n = int(rng.integers(0, max_vertices + 1))
    picked = [kinds[int(rng.integers(0, len(kinds)))] for _ in range(n)]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.45:
                conn = ("end-to-end", "end-to-side", "overlap")[int(rng.integers(0, 3))]
                d = ("E", "NE", "N", "SE")[int(rng.integers(0, 4))]
                edges.append((a, b, conn, d))
    return Arg(picked, edges)


def edges_then_triangle(k: int):
    """k disjoint edges, a triangle and an isolated vertex, against k
    disjoint edges and a path of three edges, all of one kind and edge
    attribute: equal invariants and no isomorphism.  A backtracking match
    tries every placement of the edges before the triangle fails, about 13
    times longer per edge (seconds at six edges)."""
    from cartoseg.graphs import Arg

    ee = ("end-to-end", "E")
    kinds = ["segment"] * (2 * k + 4)
    pairs = [(2 * i, 2 * i + 1, *ee) for i in range(k)]
    a, b, c, d = range(2 * k, 2 * k + 4)
    tri = Arg(kinds, pairs + [(a, b, *ee), (b, c, *ee), (a, c, *ee)])
    line = Arg(kinds, pairs + [(a, b, *ee), (b, c, *ee), (c, d, *ee)])
    return tri, line


def pointwise_reduced_degree(bits: np.ndarray) -> np.ndarray:
    """Per pixel of `bits`: its orthogonal neighbors, plus each diagonal
    neighbor that shares no set orthogonal neighbor with it."""
    h, w = bits.shape

    def at(y, x):
        return 0 <= y < h and 0 <= x < w and bool(bits[y, x])

    deg = np.zeros((h, w), dtype=int)
    for y in range(h):
        for x in range(w):
            if not bits[y, x]:
                continue
            deg[y, x] = sum(at(y + dy, x + dx) for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)))
            for dy, dx in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                if at(y + dy, x + dx) and not at(y + dy, x) and not at(y, x + dx):
                    deg[y, x] += 1
    return deg


def pass_two_core(bits: np.ndarray) -> np.ndarray:
    """Two-core by synchronous full-frame passes: every pass strips all
    pixels whose reduced degree is below 2, until a pass strips none."""
    core = bits.copy()
    while True:
        keep = core & (pointwise_reduced_degree(core) >= 2)
        if np.array_equal(keep, core):
            return core
        core = keep


def scan_prototypes(args, min_support: int = 1):
    """Prototypes by a linear scan: each graph joins the first earlier
    group whose representative is isomorphic to it."""
    from cartoseg.graphs import is_isomorphic

    groups = []
    for g in args:
        for group in groups:
            if is_isomorphic(g, group[0]):
                group[1] += 1
                break
        else:
            groups.append([g, 1])
    ranked = sorted(groups, key=lambda group: -group[1])
    return [rep for rep, count in ranked if count >= min_support]


def dense_association(g1, g2):
    """The association graph as dense arrays: the vertex pairs of one kind
    in (v1, v2) order, the pairs x pairs compatibility matrix (distinct
    vertices on both sides, and equal edge attributes or no edge on both),
    and the pairs x pairs matrix of adjacent g1 vertices."""
    pairs = [
        (a, b)
        for a in range(g1.size)
        for b in range(g2.size)
        if g1.kinds[a] == g2.kinds[b]
    ]
    n = len(pairs)
    e1 = {(a, b): (c, d) for a, b, c, d in g1.edges}
    e2 = {(a, b): (c, d) for a, b, c, d in g2.edges}

    def attr1(a, b):
        return e1.get((a, b) if a < b else (b, a))

    def attr2(a, b):
        return e2.get((a, b) if a < b else (b, a))

    compat = np.zeros((n, n), dtype=bool)
    adjacent = np.zeros((n, n), dtype=bool)
    for i in range(n):
        a1, b1 = pairs[i]
        for j in range(i + 1, n):
            a2, b2 = pairs[j]
            adjacent[i, j] = adjacent[j, i] = attr1(a1, a2) is not None
            if a1 != a2 and b1 != b2 and attr1(a1, a2) == attr2(b1, b2):
                compat[i, j] = compat[j, i] = True
    return pairs, compat, adjacent


def list_mcs_mapping(g1, g2, node_budget: int):
    """Branch and bound over the association graph with list candidate
    sets and a dense compatibility matrix.  Returns (mapping, nodes); the
    node count is the number of search calls made."""
    from cartoseg.graphs import BudgetExceeded

    pairs, compat, adjacent = dense_association(g1, g2)
    n = len(pairs)

    def edge_count(chosen):
        return sum(
            int(adjacent[chosen[x], chosen[y]])
            for x in range(len(chosen))
            for y in range(x + 1, len(chosen))
        )

    best: list[int] = []
    best_score = (0, -1)
    nodes = 0

    def extend(chosen, cand):
        nonlocal best, best_score, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"graph search exceeded {node_budget} nodes")
        bound = len(chosen) + min(
            len({pairs[j][0] for j in cand}), len({pairs[j][1] for j in cand})
        )
        if bound < best_score[0]:
            return
        if not cand:
            score = (len(chosen), edge_count(chosen))
            if score > best_score:
                best = list(chosen)
                best_score = score
            return
        i = cand[0]
        extend(chosen + [i], [j for j in cand[1:] if compat[i, j]])
        extend(chosen, cand[1:])

    extend([], list(range(n)))
    return [pairs[i] for i in best], nodes


def loop_decompose(mask, resolution: float):
    """`decompose` from the oracles alone: the core by full-frame passes,
    circles from its flood-filled 8-components, the branch cut and the arc
    ends from per-pixel counts, one full-frame `labels == lab` scan per
    component."""
    from cartoseg.graphs import _MIN_ARC_PIXELS, Primitive, make_segment
    from cartoseg.morph import skeletonize

    skel = skeletonize(mask).bits
    prims = []
    core = pass_two_core(skel)
    labels, count = bfs_label_components(core, 8)
    for lab in range(1, count + 1):
        ys, xs = np.nonzero(labels == lab)
        cx, cy = float(xs.mean()), float(ys.mean())
        r = float(np.hypot(ys - cy, xs - cx).mean())
        prims.append(
            Primitive("circle", (cx * resolution, cy * resolution), radius=r * resolution)
        )
    rest = skel & ~core
    arcs = rest & (pointwise_reduced_degree(rest) < 3)
    labels, count = bfs_label_arcs(arcs, skel)
    for lab in range(1, count + 1):
        ys, xs = np.nonzero(labels == lab)
        if len(ys) < _MIN_ARC_PIXELS:
            continue
        arc = labels == lab
        ey, ex = np.nonzero(arc & (pointwise_reduced_degree(arc) <= 1))
        (x1, y1), (x2, y2) = zip(ex.astype(float), ey.astype(float))  # a path's two ends
        p1 = (x1 * resolution, y1 * resolution)
        p2 = (x2 * resolution, y2 * resolution)
        if p1 != p2:
            prims.append(make_segment(p1, p2))
    return prims


def old_arg_to_json(g) -> str:
    return json.dumps(
        {
            "vertices": [{"id": i, "kind": k} for i, k in enumerate(g.kinds)],
            "edges": [
                {"from": a, "to": b, "conn": c, "dir": d} for a, b, c, d in g.edges
            ],
        },
        sort_keys=True,
    )


def roundtrip_model_to_json(model) -> str:
    """The model document built by parsing each graph's JSON text back."""
    return json.dumps(
        {
            "max_csg": json.loads(old_arg_to_json(model.bounds[0])),
            "min_csg": json.loads(old_arg_to_json(model.bounds[1])),
            "prototypes": [json.loads(old_arg_to_json(p)) for p in model.prototypes],
        },
        sort_keys=True,
    )


def probe_induced_subgraph(g, keep):
    """Induced subgraph on `keep`, probing every kept pair for an edge."""
    from cartoseg.graphs import Arg

    keep = sorted(keep)
    kinds = [g.kinds[v] for v in keep]
    attrs = {(a, b): (c, d) for a, b, c, d in g.edges}
    edges = []
    for x in range(len(keep)):
        for y in range(x + 1, len(keep)):
            at = attrs.get((keep[x], keep[y]))
            if at is not None:
                edges.append((x, y, at[0], at[1]))
    return Arg(kinds, edges)


def glue_supergraph(g1, g2, mapping):
    """g1 and g2 glued along a common-subgraph mapping [(v1, v2), ...]."""
    from cartoseg.graphs import Arg

    to_g1 = {b: a for a, b in mapping}
    translate = {}
    next_id = g1.size
    for b in range(g2.size):
        if b in to_g1:
            translate[b] = to_g1[b]
        else:
            translate[b] = next_id
            next_id += 1
    kinds = list(g1.kinds) + [g2.kinds[b] for b in range(g2.size) if b not in to_g1]
    edges = {(a, b): (c, d) for a, b, c, d in g1.edges}
    for u, v, c, d in g2.edges:
        a, b = translate[u], translate[v]
        key = (a, b) if a < b else (b, a)
        if key not in edges:
            edges[key] = (c, d)
    edge_list = [(a, b, at[0], at[1]) for (a, b), at in sorted(edges.items())]
    return Arg(kinds, edge_list)


def eager_fold_bounds(prototypes):
    """(max_csg, min_csg) folded left to right at once, from the list search
    and the probing subgraph and gluing assembly."""
    lo = hi = prototypes[0]
    for p in prototypes[1:]:
        mapping, _ = list_mcs_mapping(lo, p, 10**9)
        lo = probe_induced_subgraph(lo, [a for a, _ in mapping])
        mapping, _ = list_mcs_mapping(hi, p, 10**9)
        hi = glue_supergraph(hi, p, mapping)
    return lo, hi
