"""Independent brute-force oracles used to check the fast implementations.

Everything here is written as plainly as possible (per-pixel Python loops,
textbook formulas) and stays independent of the package internals.  The one
exception is :func:`reference_evolve`, which reuses only package pieces that
have oracles of their own.
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


def reference_evolve(scene, model, config):
    """Naive whole-run reference of ``multishape.evolve``: ``(masks, state)``.

    It follows the engine's policy step by step, but every energy is the
    whole fit rasterized and scored from scratch, every probe is its own
    full evaluation, and every alignment comes from
    :func:`brute_force_align`.  Its policy constants come from
    ``multishape.evolution``; from the package it reuses only
    ``trust_region_step``, ``Sr1Hessian``, ``synthesize``, ``rasterize``,
    ``union`` and ``mask_energy``, each checked against its own oracle.
    """
    from multishape.evolution import (
        BOUNDARY_TOL, COEFF_SIGMA_BOX, FD_STEP, GROW_RATIO,
        INITIAL_TRUST_RADIUS, MAX_TRUST_RADIUS, MIN_TRUST_RADIUS,
        SHRINK_RATIO, EvolutionState, Sr1Hessian, TraceRow, mask_energy,
        trust_region_step)
    from multishape.raster import Alignment, rasterize, union
    from multishape.shape_model import synthesize

    n, t = scene.n_objects, model.t
    height, width = scene.clump.shape
    sqrt_ev = np.sqrt(model.eigenvalues)
    rs, thetas = config.grid.r_values(), config.grid.theta_values()
    e_star = config.energy_threshold_fraction * scene.clump_area

    def shape(row):
        return synthesize(model, row * sqrt_ev)

    def masks_of(c, alignments):
        return [rasterize(shape(c[i]), scene.centroids[i], alignments[i],
                          (width, height)) for i in range(n)]

    def energy(c, alignments):
        return mask_energy(union(masks_of(c, alignments)), scene.clump)

    def search(i, row):
        return brute_force_align(shape(row), scene.centroids[i], scene.clump,
                                 rs, thetas, rasterize, Alignment)

    def neighbors(a):
        r_idx = int(np.argmin(np.abs(rs - a.r)))
        t_idx = int(np.argmin(np.abs(thetas - a.theta)))
        out = [Alignment(r=float(rs[j]), theta=a.theta)
               for j in (r_idx + 1, r_idx - 1) if 0 <= j < len(rs)]
        return out + [Alignment(r=a.r, theta=float(
            thetas[(t_idx + step) % len(thetas)])) for step in (1, -1)]

    def probe_table(c, alignments, h):
        table = np.empty((n, 2 * t), dtype=np.int64)
        for i in range(n):
            for j in range(t):
                for col, sign in ((2 * j, 1.0), (2 * j + 1, -1.0)):
                    probe = c.copy()
                    probe[i, j] = c[i, j] + sign * h
                    table[i, col] = energy(probe, alignments)
        return table

    def walk(c, alignments, e_cur, table):
        for step_scale in (FD_STEP, 2.0 * FD_STEP, 4.0 * FD_STEP):
            if step_scale != FD_STEP:
                table = probe_table(c, alignments, step_scale)
            best = int(np.argmin(table))
            i, col = best // (2 * t), best % (2 * t)
            if table[i, col] < e_cur:
                moved, j = c.copy(), col // 2
                sign = 1.0 if col % 2 == 0 else -1.0
                moved[i, j] = min(max(c[i, j] + sign * step_scale,
                                      -COEFF_SIGMA_BOX), COEFF_SIGMA_BOX)
                return moved, alignments, step_scale
        for i in range(n):
            for candidate in neighbors(alignments[i]):
                moved = list(alignments)
                moved[i] = candidate
                if energy(c, moved) < e_cur:
                    return c, tuple(moved), 0.0
        return None

    # a fit is (c, alignments, energy); ``version`` counts fit replacements,
    # which is when the engine recomputes its gradient and may walk again
    c = np.zeros((n, t))
    alignments = tuple(search(i, c[i]) for i in range(n))
    e_cur = energy(c, alignments)
    version, searched_c = 0, c
    trace, delta, iteration, halted = [], INITIAL_TRUST_RADIUS, 0, None
    sr1 = Sr1Hessian(n * t)
    grad_version = walked_version = None
    grad_c = g = table = None

    while halted is None and e_cur > e_star \
            and iteration < config.max_outer_iterations:
        iteration += 1
        refreshed = tuple(search(i, c[i])
                          if not np.array_equal(c[i], searched_c[i])
                          else alignments[i] for i in range(n))
        searched_c = c
        if refreshed != alignments:
            e_new = energy(c, refreshed)
            if e_new <= e_cur:
                alignments, e_cur, version = refreshed, e_new, version + 1
        if e_cur <= e_star:
            break

        if grad_version != version:
            table = probe_table(c, alignments, FD_STEP)
            g_new = ((table[:, 0::2] - table[:, 1::2])
                     / (2.0 * FD_STEP)).reshape(-1)
            if grad_c is not None and not np.array_equal(c, grad_c):
                sr1.update((c - grad_c).reshape(-1), g_new - g)
            grad_version, grad_c, g = version, c, g_new
            if not np.any(g):
                halted = "zero_gradient"
                break

        hess = sr1.matrix
        p = trust_region_step(g, hess, delta)
        predicted = -float(g @ p + 0.5 * p @ hess @ p)
        step_norm = float(np.linalg.norm(p))
        trial_c = np.clip(c + p.reshape(n, t), -COEFF_SIGMA_BOX,
                          COEFF_SIGMA_BOX)
        e_trial = energy(trial_c, alignments)
        if predicted > 0 and e_trial < e_cur:
            rho = (e_cur - e_trial) / predicted
            trace.append(TraceRow(iteration, e_trial, delta, step_norm, True))
            c, e_cur, version = trial_c, e_trial, version + 1
            if rho > GROW_RATIO and step_norm >= delta - BOUNDARY_TOL:
                delta = min(2.0 * delta, MAX_TRUST_RADIUS)
            elif rho < SHRINK_RATIO:
                delta = max(0.5 * delta, MIN_TRUST_RADIUS)
            continue

        moved = None
        if delta <= FD_STEP * (1.0 + 1e-12) and walked_version != version:
            moved, walked_version = walk(c, alignments, e_cur, table), version
        if moved is not None:
            c, alignments, step_scale = moved
            e_cur, version = energy(c, alignments), version + 1
            trace.append(TraceRow(iteration, e_cur, delta, step_scale, True))
            delta = FD_STEP
            continue

        trace.append(TraceRow(iteration, e_cur, delta, step_norm, False))
        if delta <= MIN_TRUST_RADIUS * (1.0 + 1e-12):
            halted = "no_decrease"
        else:
            delta = max(0.5 * delta, MIN_TRUST_RADIUS)

    if e_cur <= e_star:
        halted = "energy_threshold"
    state = EvolutionState(
        x=(c * sqrt_ev).reshape(-1), alignments=list(alignments),
        energy=e_cur, iteration=iteration, trace=trace,
        halted_reason=halted or "max_iterations")
    return masks_of(c, alignments), state
