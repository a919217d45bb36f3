"""Independent brute-force oracles used to check the fast implementations.

Everything here is written as plainly as possible (per-pixel Python loops,
textbook formulas) and stays independent of the package internals.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def naive_mask_energy(mask_union, clump):
    """Sum of squared differences via an explicit double loop."""
    height, width = clump.shape
    total = 0
    for y in range(height):
        for x in range(width):
            total += (int(mask_union[y, x]) - int(clump[y, x])) ** 2
    return total


def naive_pixel_metrics(predicted, truth):
    """Confusion rates with union TPR/TNR and per-object multi-counted FNR."""
    height, width = truth[0].shape
    tp = fp = tn = fn_union = 0
    for y in range(height):
        for x in range(width):
            p = any(m[y, x] for m in predicted)
            g = any(m[y, x] for m in truth)
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif not p and not g:
                tn += 1
            else:
                fn_union += 1
    fn_multi = 0
    truth_multi = 0
    for pm, gm in zip(predicted, truth):
        for y in range(height):
            for x in range(width):
                if gm[y, x]:
                    truth_multi += 1
                    if not pm[y, x]:
                        fn_multi += 1
    truth_area = tp + fn_union
    neg_area = tn + fp
    tpr = tp / truth_area if truth_area else 0.0
    tnr = tn / neg_area if neg_area else 0.0
    fnr = fn_multi / truth_multi if truth_multi else 0.0
    return tpr, tnr, 1.0 - tnr, fnr


def naive_dsc(predicted, truth):
    inter = 0
    a = 0
    b = 0
    height, width = truth.shape
    for y in range(height):
        for x in range(width):
            if predicted[y, x] and truth[y, x]:
                inter += 1
            if predicted[y, x]:
                a += 1
            if truth[y, x]:
                b += 1
    if a + b == 0:
        return 1.0
    return 2.0 * inter / (a + b)


def point_in_polygon(px, py, vertices):
    """Even-odd crossing test; points exactly on an edge count as inside."""
    n = len(vertices)
    inside = False
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        # on-segment test
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if (abs(cross) <= 1e-9 * (abs(x2 - x1) + abs(y2 - y1) + 1.0)
                and min(x1, x2) - 1e-9 <= px <= max(x1, x2) + 1e-9
                and min(y1, y2) - 1e-9 <= py <= max(y1, y2) + 1e-9):
            return True
        if (y1 <= py) != (y2 <= py):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xc:
                inside = not inside
    return inside


def fill_polygon_oracle(vertices, dims):
    """Per-pixel even-odd fill of a polygon, restricted to the canvas."""
    width, height = dims
    out = np.zeros((height, width), dtype=bool)
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    x_lo = max(int(np.floor(min(xs))) - 1, 0)
    x_hi = min(int(np.ceil(max(xs))) + 1, width)
    y_lo = max(int(np.floor(min(ys))) - 1, 0)
    y_hi = min(int(np.ceil(max(ys))) + 1, height)
    for y in range(y_lo, y_hi):
        for x in range(x_lo, x_hi):
            out[y, x] = point_in_polygon(x + 0.5, y + 0.5, vertices)
    return out


def radial_vertices(radii, centroid, scale=1.0, rotation=0.0):
    k = len(radii)
    angles = TWO_PI * np.arange(k) / k + rotation
    return [(centroid[0] + scale * radii[i] * np.cos(angles[i]),
             centroid[1] + scale * radii[i] * np.sin(angles[i]))
            for i in range(k)]


def ray_rectangle_exit(cx, cy, angle, x_lo, x_hi, y_lo, y_hi):
    """Distance from an interior point to the rectangle boundary (slabs)."""
    dx, dy = np.cos(angle), np.sin(angle)
    best = np.inf
    if dx > 1e-15:
        best = min(best, (x_hi - cx) / dx)
    elif dx < -1e-15:
        best = min(best, (x_lo - cx) / dx)
    if dy > 1e-15:
        best = min(best, (y_hi - cy) / dy)
    elif dy < -1e-15:
        best = min(best, (y_lo - cy) / dy)
    return best


def full_ray_walk(mask, centroid, k, step):
    """Outermost foreground sample of each of k rays, walked to the canvas
    diagonal sample by sample, with no early stop."""
    height, width = mask.shape
    angles = TWO_PI * np.arange(k) / k
    cos, sin = np.cos(angles), np.sin(angles)
    t = step * np.arange(1, int(np.ceil(np.hypot(width, height) / step)) + 1)
    radii = np.zeros(k)
    for i in range(k):
        xs = np.floor(centroid[0] + cos[i] * t)
        ys = np.floor(centroid[1] + sin[i] * t)
        for tj, x, y in zip(t, xs, ys):
            if 0 <= x < width and 0 <= y < height and mask[int(y), int(x)]:
                radii[i] = tj
    return radii


def brute_force_align(radii, centroid, clump, r_values, theta_values,
                      rasterize_fn, alignment_cls):
    """Reference grid search evaluating every candidate by rasterization."""
    clump = np.asarray(clump, dtype=bool)
    height, width = clump.shape
    best = None        # (area, r, theta)
    fallback = None    # (outside, r, theta)
    for theta in theta_values:
        for r in r_values:
            mask = rasterize_fn(radii, centroid, alignment_cls(r=r, theta=theta),
                                (width, height))
            outside = int(np.count_nonzero(mask & ~clump))
            if outside == 0:
                area = int(np.count_nonzero(mask))
                if (best is None or area > best[0]
                        or (area == best[0] and r > best[1])):
                    best = (area, float(r), float(theta))
            elif best is None:
                if (fallback is None or outside < fallback[0]
                        or (outside == fallback[0] and r < fallback[1])):
                    fallback = (outside, float(r), float(theta))
    if best is not None:
        return alignment_cls(r=best[1], theta=best[2])
    return alignment_cls(r=fallback[1], theta=fallback[2])
