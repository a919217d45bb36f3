"""Joint trust-region evolution of all objects' shape coefficients.

The objective is the pixel count of the symmetric difference between the
union of the objects' rasterized shapes and the clump mask.  It is an
integer-valued, piecewise-constant function of the coefficients, so the
gradient and Hessian of the local quadratic model come from central finite
differences and a safeguarded SR1 update.  Steps minimize the quadratic
model inside a trust region (Newton step when it fits, the exact
ball-constrained solution on the boundary, Cauchy point for indefinite
models), and each object's similarity alignment is refreshed by grid
search between steps, adopted only when the energy does not increase.

The optimizer works in per-mode standard-deviation units (coefficient j of
a raw vector equals sqrt(eigenvalue_j) times its normalized value), so the
default finite-difference step moves boundaries by a sizable fraction of a
pixel and crosses the quantization plateaus of the objective.  When the
trust region shrinks below the probe scale, the loop walks the probed
landscape directly (single-coordinate moves at one, two, and four probe
steps, then single grid-step alignment moves) and halts only once none of
those moves can decrease the energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .align import AlignmentSearcher, GridSearchConfig
from .errors import DimensionMismatch, ZeroGradient
from .raster import Alignment, rasterize, union
from .shape_model import RADIUS_FLOOR, COEFF_SIGMA_BOX, synthesize

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class EvolutionConfig:
    """Tuning knobs of the evolution loop; defaults follow the method."""

    energy_threshold_fraction: float = 0.05
    max_outer_iterations: int = 200
    fd_step: float = 0.1
    initial_trust_radius: float = 1.0
    min_trust_radius: float = 1e-3
    max_trust_radius: float = 10.0
    shrink_ratio_threshold: float = 0.25
    grow_ratio_threshold: float = 0.75
    alignment_refresh_period: int = 1
    exact_fd_hessian: bool = False
    grid: GridSearchConfig = field(default_factory=GridSearchConfig)

    def __post_init__(self):
        if min(self.energy_threshold_fraction, self.fd_step,
               self.initial_trust_radius, self.min_trust_radius,
               self.max_trust_radius) <= 0:
            raise ValueError("evolution scales must be positive")
        if self.max_outer_iterations < 1 or self.alignment_refresh_period < 1:
            raise ValueError("iteration counts must be positive")
        if not (0 < self.shrink_ratio_threshold
                < self.grow_ratio_threshold < 1):
            raise ValueError("acceptance ratio thresholds must be ordered")
        if not (self.min_trust_radius <= self.initial_trust_radius
                <= self.max_trust_radius):
            raise ValueError("trust radius bounds must be ordered")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    energy: int
    delta: float
    step_norm: float
    accepted: bool


@dataclass
class EvolutionState:
    """Final optimizer state; ``x`` is the concatenated raw coefficients."""

    x: np.ndarray
    alignments: list
    delta: float
    energy: int
    iteration: int
    trace: list
    halted_reason: str


def mask_energy(mask_union, clump):
    """Sum of squared pixel differences between two binary masks."""
    mask_union = np.asarray(mask_union, dtype=bool)
    clump = np.asarray(clump, dtype=bool)
    if mask_union.shape != clump.shape:
        raise DimensionMismatch(f"{mask_union.shape} vs {clump.shape}")
    return int(np.count_nonzero(mask_union ^ clump))


def energy(scene, model, x, alignments):
    """Discrepancy energy for the joint raw coefficient vector."""
    n = scene.n_objects
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n * model.t,):
        raise DimensionMismatch(
            f"joint coefficients {x.shape} != ({n * model.t},)")
    if len(alignments) != n:
        raise DimensionMismatch(f"{len(alignments)} alignments for {n} objects")
    masks = [rasterize(synthesize(model, x[i * model.t:(i + 1) * model.t]),
                       scene.centroids[i], alignments[i], scene.dims)
             for i in range(n)]
    return mask_energy(union(masks), scene.clump)


def gradient_fd(scene, model, x, alignments, h=0.1):
    """Central-difference gradient of the energy, alignments held fixed.

    ``h`` may be a scalar or a per-coordinate array of raw-unit steps.
    """
    x = np.asarray(x, dtype=np.float64)
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    if np.any(steps <= 0):
        raise ValueError("finite-difference steps must be positive")
    g = np.zeros_like(x)
    for j in range(x.size):
        probe = x.copy()
        probe[j] = x[j] + steps[j]
        e_plus = energy(scene, model, probe, alignments)
        probe[j] = x[j] - steps[j]
        e_minus = energy(scene, model, probe, alignments)
        g[j] = (e_plus - e_minus) / (2.0 * steps[j])
    return g


class Sr1Hessian:
    """Symmetric rank-1 quasi-Newton Hessian approximation.

    Seeded with the identity; an update is skipped when its denominator is
    tiny relative to the step and residual norms (the standard safeguard).
    """

    def __init__(self, dim):
        self._hess = np.eye(dim)

    def update(self, step, grad_change):
        step = np.asarray(step, dtype=np.float64)
        grad_change = np.asarray(grad_change, dtype=np.float64)
        residual = grad_change - self._hess @ step
        denom = float(residual @ step)
        guard = 1e-8 * np.linalg.norm(step) * np.linalg.norm(residual)
        if abs(denom) <= guard or denom == 0.0:
            return
        self._hess += np.outer(residual, residual) / denom

    @property
    def matrix(self):
        return self._hess.copy()


def hessian_approx(history, dim):
    """SR1 matrix after applying (step, gradient change) pairs in order."""
    approx = Sr1Hessian(dim)
    for step, grad_change in history:
        approx.update(step, grad_change)
    return approx.matrix


def fd_hessian(func, x, h):
    """Full central-difference Hessian of ``func`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    dim = x.size
    hess = np.zeros((dim, dim))
    f0 = func(x)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = steps[i]
        hess[i, i] = (func(x + ei) - 2.0 * f0 + func(x - ei)) / steps[i] ** 2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = steps[j]
            mixed = (func(x + ei + ej) - func(x + ei - ej)
                     - func(x - ei + ej) + func(x - ei - ej))
            hess[i, j] = hess[j, i] = mixed / (4.0 * steps[i] * steps[j])
    return hess


def _model_value(g, hess, p):
    return float(g @ p + 0.5 * p @ hess @ p)


def _boundary_step(g, hess, delta):
    """Exact ball-constrained minimizer for a positive definite model.

    Solves (H + nu I) p = -g with the multiplier chosen so ||p|| = delta,
    by bisection on the monotone secular equation in the eigenbasis.
    """
    eigvals, eigvecs = np.linalg.eigh(hess)
    b = eigvecs.T @ g

    def step_norm(nu):
        return float(np.linalg.norm(b / (eigvals + nu)))

    lo = 0.0
    hi = max(float(np.linalg.norm(g)) / delta, 1.0)
    while step_norm(hi) > delta:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if step_norm(mid) > delta:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return eigvecs @ (-b / (eigvals + nu))


def trust_region_step(g, hess, delta):
    """Minimizer of the local quadratic model inside the trust ball.

    Positive definite model: the Newton step when it fits, otherwise the
    exact boundary solution of the constrained problem.  Indefinite model:
    the Cauchy point (steepest descent to the boundary).  The result never
    exceeds the radius and is never worse than the Cauchy point.
    """
    g = np.asarray(g, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if delta <= 0:
        raise ValueError("trust radius must be positive")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ZeroGradient("gradient is zero; stationary point")

    ghg = float(g @ hess @ g)
    if ghg > 0:
        tau = min(1.0, gnorm ** 3 / (delta * ghg))
    else:
        tau = 1.0
    cauchy = -(tau * delta / gnorm) * g

    try:
        np.linalg.cholesky(hess)
        newton = np.linalg.solve(hess, -g)
        if np.linalg.norm(newton) <= delta:
            step = newton
        else:
            step = _boundary_step(g, hess, delta)
    except np.linalg.LinAlgError:
        step = cauchy

    if _model_value(g, hess, step) > _model_value(g, hess, cauchy):
        step = cauchy
    norm = float(np.linalg.norm(step))
    if norm > delta + BOUNDARY_TOL:
        step = step * (delta / norm)
    return step


class _SceneEngine:
    """Per-scene state shared by the evolution loop.

    Holds one alignment searcher per object; the searcher's polar grid is
    reused for all probe rasterizations at that centroid.
    """

    def __init__(self, scene, model, config):
        self.scene = scene
        self.model = model
        self.config = config
        self.n = scene.n_objects
        self.t = model.t
        self.bc = scene.clump.reshape(-1)
        self.e_star = config.energy_threshold_fraction * scene.clump_area
        self.sqrt_ev = np.sqrt(model.eigenvalues)
        bound = max(model.max_radius_bound(), RADIUS_FLOOR)
        self.searchers = [
            AlignmentSearcher(c, scene.clump, model.k, config.grid,
                              radius_bound=bound)
            for c in scene.centroids
        ]
        self._probe_energies = np.zeros((self.n, 2 * self.t), dtype=np.int64)

    def object_mask(self, i, radii, alignment):
        return self.searchers[i].grid.mask(radii, alignment.r, alignment.theta)

    def total_energy(self, masks):
        return mask_energy(union(masks), self.bc)

    def raw_from_normalized(self, c):
        return c * self.sqrt_ev[None, :]

    def _probe_table(self, x, alignments, masks, h):
        """Exact joint energies of every +-h single-coordinate move.

        Batched per object: probes change one object, so the other masks
        contribute a precomputed constant plus a shared restriction to the
        object's reachable pixels.
        """
        energies = np.zeros((self.n, 2 * self.t), dtype=np.int64)
        for i in range(self.n):
            others = union([np.zeros_like(self.bc)] + masks[:i] + masks[i + 1:])
            probes = np.repeat(x[i][None, :], 2 * self.t, axis=0)
            idx = np.arange(self.t)
            probes[2 * idx, idx] += h * self.sqrt_ev
            probes[2 * idx + 1, idx] -= h * self.sqrt_ev
            radii = np.stack([synthesize(self.model, row) for row in probes])
            # pixels beyond every probe's reach contribute a constant
            grid = self.searchers[i].grid
            stop, inside = grid.inside(radii, alignments[i].r,
                                       alignments[i].theta)
            near = grid.flat_index[:stop]
            o_d = others[near]
            bc_d = self.bc[near]
            outside_mismatch = (int(np.count_nonzero(others ^ self.bc))
                                - int(np.count_nonzero(o_d ^ bc_d)))
            mismatch = (o_d[None, :] | inside) ^ bc_d[None, :]
            energies[i] = outside_mismatch + np.count_nonzero(mismatch, axis=1)
        return energies

    def gradient(self, x, alignments, masks):
        """Normalized-unit central-difference gradient, batched per object.

        Caches the probe energies; the plateau fallback reuses them.
        """
        h = self.config.fd_step
        self._probe_energies = self._probe_table(x, alignments, masks, h)
        diffs = self._probe_energies[:, 0::2] - self._probe_energies[:, 1::2]
        return (diffs / (2.0 * h)).reshape(-1)

    @staticmethod
    def _best_table_move(table, e_cur):
        """Best improving coordinate move of a probe table, or None.

        Ties resolve to the first minimum in scan order: by object, then by
        mode with the positive probe before the negative one.
        """
        flat_table = table.reshape(-1)
        flat = int(np.argmin(flat_table))
        if int(flat_table[flat]) >= e_cur:
            return None
        i_obj, col = divmod(flat, table.shape[1])
        return i_obj, col // 2, 1.0 if col % 2 == 0 else -1.0

    def _alignment_neighbors(self, alignment):
        """Single grid-step moves of one alignment, on canonical grid values."""
        grid_cfg = self.config.grid
        rs = grid_cfg.r_values()
        thetas = grid_cfg.theta_values()
        r_idx = int(np.argmin(np.abs(rs - alignment.r)))
        t_idx = int(np.argmin(np.abs(thetas - alignment.theta)))
        out = []
        if r_idx + 1 < rs.size:
            out.append(Alignment(r=float(rs[r_idx + 1]), theta=alignment.theta))
        if r_idx > 0:
            out.append(Alignment(r=float(rs[r_idx - 1]), theta=alignment.theta))
        n_theta = thetas.size
        out.append(Alignment(r=alignment.r,
                             theta=float(thetas[(t_idx + 1) % n_theta])))
        out.append(Alignment(r=alignment.r,
                             theta=float(thetas[(t_idx - 1) % n_theta])))
        return out

    def _alignment_escape(self, radii, masks, alignments, e_cur):
        """First single-step alignment move that strictly decreases energy.

        Scans objects in order and their neighbour alignments in a fixed
        order, so the escape is deterministic.
        """
        for i in range(self.n):
            for candidate in self._alignment_neighbors(alignments[i]):
                trial = self.object_mask(i, radii[i], candidate)
                swapped = list(masks)
                swapped[i] = trial
                e_new = self.total_energy(swapped)
                if e_new < e_cur:
                    return i, candidate, trial, e_new
        return None

    def energy_at(self, x, alignments):
        masks = [self.object_mask(i, synthesize(self.model, x[i]), alignments[i])
                 for i in range(self.n)]
        return self.total_energy(masks), masks

    def run(self):
        cfg = self.config
        n, t = self.n, self.t
        c = np.zeros((n, t))
        x = self.raw_from_normalized(c)
        radii = [synthesize(self.model, x[i]) for i in range(n)]
        alignments = [self.searchers[i].search(radii[i]) for i in range(n)]
        masks = [self.object_mask(i, radii[i], alignments[i]) for i in range(n)]
        e_cur = self.total_energy(masks)
        x_at_align = x.copy()

        trace = []
        delta = cfg.initial_trust_radius
        halted = None
        iteration = 0
        sr1 = Sr1Hessian(n * t)
        prev_c = None
        prev_g = None
        g = None
        fallback_exhausted = False

        if e_cur <= self.e_star:
            halted = "energy_threshold"

        while halted is None and iteration < cfg.max_outer_iterations:
            iteration += 1

            if (iteration - 1) % cfg.alignment_refresh_period == 0:
                stale = [i for i in range(n)
                         if not np.array_equal(x[i], x_at_align[i])]
                if stale:
                    cand_align = list(alignments)
                    cand_masks = list(masks)
                    for i in stale:
                        cand_align[i] = self.searchers[i].search(radii[i])
                        cand_masks[i] = self.object_mask(i, radii[i],
                                                         cand_align[i])
                    e_cand = self.total_energy(cand_masks)
                    # adopt only non-increasing refreshes so accepted-step
                    # energies stay strictly decreasing
                    if e_cand <= e_cur:
                        moved = any(cand_align[i] != alignments[i]
                                    for i in stale)
                        alignments, masks = cand_align, cand_masks
                        if e_cand < e_cur or moved:
                            g = None
                            fallback_exhausted = False
                        e_cur = e_cand
                    x_at_align = x.copy()
                    if e_cur <= self.e_star:
                        halted = "energy_threshold"
                        break

            if g is None:
                g = self.gradient(x, alignments, masks)
                if prev_c is not None and not np.array_equal(c, prev_c):
                    sr1.update((c - prev_c).reshape(-1), g - prev_g)
                prev_c, prev_g = c.copy(), g.copy()
                if not np.any(g):
                    halted = "zero_gradient"
                    break

            if cfg.exact_fd_hessian:
                def f(c_flat):
                    x_probe = self.raw_from_normalized(c_flat.reshape(n, t))
                    return self.energy_at(x_probe, alignments)[0]
                hess = fd_hessian(f, c.reshape(-1), cfg.fd_step)
            else:
                hess = sr1.matrix

            p = trust_region_step(g, hess, delta)
            predicted = -_model_value(g, hess, p)
            c_new = np.clip(c + p.reshape(n, t),
                            -COEFF_SIGMA_BOX, COEFF_SIGMA_BOX)
            x_new = self.raw_from_normalized(c_new)
            changed = [i for i in range(n) if not np.array_equal(x_new[i], x[i])]
            trial_radii = list(radii)
            trial_masks = list(masks)
            for i in changed:
                trial_radii[i] = synthesize(self.model, x_new[i])
                trial_masks[i] = self.object_mask(i, trial_radii[i],
                                                  alignments[i])
            e_trial = self.total_energy(trial_masks)
            rho = (e_cur - e_trial) / predicted if predicted > 0 else -np.inf
            step_norm = float(np.linalg.norm(p))
            accepted = predicted > 0 and rho > 0 and e_trial < e_cur

            if accepted:
                trace.append(TraceRow(iteration, e_trial, delta, step_norm,
                                      True))
                c, x = c_new, x_new
                radii, masks = trial_radii, trial_masks
                e_cur = e_trial
                g = None
                fallback_exhausted = False
                if e_cur <= self.e_star:
                    halted = "energy_threshold"
                elif rho > cfg.grow_ratio_threshold \
                        and step_norm >= delta - BOUNDARY_TOL:
                    delta = min(2.0 * delta, cfg.max_trust_radius)
                elif rho < cfg.shrink_ratio_threshold:
                    delta = max(0.5 * delta, cfg.min_trust_radius)
                continue

            # The quadratic model has no information below the probe scale,
            # so near a plateau the loop walks the probed landscape instead:
            # the best cached probe point, then coarser coordinate probes,
            # then single-step alignment moves.  It halts only when none of
            # the probed moves can decrease the energy.
            moved = False
            if delta <= cfg.fd_step * (1.0 + 1e-12) and not fallback_exhausted:
                step_scale = cfg.fd_step
                move = self._best_table_move(self._probe_energies, e_cur)
                if move is None:
                    for mult in (2.0, 4.0):
                        step_scale = mult * cfg.fd_step
                        table = self._probe_table(x, alignments, masks,
                                                  step_scale)
                        move = self._best_table_move(table, e_cur)
                        if move is not None:
                            break
                if move is not None:
                    i_obj, j_mode, sign = move
                    # apply in raw units exactly as the probe table built
                    # the point, so the new energy equals the probed one
                    x = x.copy()
                    x[i_obj, j_mode] += sign * step_scale \
                        * self.sqrt_ev[j_mode]
                    bounds = self.model.coefficient_bounds()
                    x[i_obj] = np.clip(x[i_obj], -bounds, bounds)
                    c = c.copy()
                    c[i_obj, j_mode] = min(max(
                        c[i_obj, j_mode] + sign * step_scale,
                        -COEFF_SIGMA_BOX), COEFF_SIGMA_BOX)
                    radii = list(radii)
                    masks = list(masks)
                    radii[i_obj] = synthesize(self.model, x[i_obj])
                    masks[i_obj] = self.object_mask(i_obj, radii[i_obj],
                                                    alignments[i_obj])
                    e_cur = self.total_energy(masks)
                    trace.append(TraceRow(iteration, e_cur, delta,
                                          step_scale, True))
                    g = None
                    moved = True
                else:
                    escape = self._alignment_escape(radii, masks,
                                                    alignments, e_cur)
                    if escape is not None:
                        i_obj, candidate, trial, e_new = escape
                        alignments = list(alignments)
                        alignments[i_obj] = candidate
                        masks = list(masks)
                        masks[i_obj] = trial
                        e_cur = e_new
                        trace.append(TraceRow(iteration, e_cur, delta,
                                              0.0, True))
                        g = None
                        moved = True
                    else:
                        fallback_exhausted = True
                if moved:
                    fallback_exhausted = False
                    if e_cur <= self.e_star:
                        halted = "energy_threshold"
                    else:
                        delta = max(0.5 * delta, cfg.min_trust_radius,
                                    min(cfg.fd_step, cfg.max_trust_radius))
            if not moved:
                trace.append(TraceRow(iteration, e_cur, delta, step_norm,
                                      False))
                if delta <= cfg.min_trust_radius * (1.0 + 1e-12):
                    halted = "no_decrease"
                else:
                    delta = max(0.5 * delta, cfg.min_trust_radius)

        if halted is None:
            halted = "max_iterations"

        height, width = self.scene.clump.shape
        final_masks = [m.reshape(height, width).copy() for m in masks]
        state = EvolutionState(
            x=x.reshape(-1).copy(),
            alignments=list(alignments),
            delta=delta,
            energy=e_cur,
            iteration=iteration,
            trace=trace,
            halted_reason=halted,
        )
        return final_masks, state


def evolve(scene, model, config=None):
    """Segment every object in the scene; returns (masks, state)."""
    config = config or EvolutionConfig()
    return _SceneEngine(scene, model, config).run()
