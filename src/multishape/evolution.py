"""Joint trust-region evolution of all objects' shape coefficients.

The objective is the pixel count of the symmetric difference between the
union of the objects' rasterized shapes and the clump mask.  It is an
integer-valued, piecewise-constant function of the coefficients, so the
gradient and Hessian of the local quadratic model come from central finite
differences and a safeguarded SR1 update.  The optimizer works in
per-mode standard-deviation units (coefficient j of a raw vector equals
sqrt(eigenvalue_j) times its normalized value), so the default
finite-difference step moves boundaries by a sizable fraction of a pixel
and crosses the quantization plateaus of the objective.

The loop holds one immutable ``_Fit`` (coefficients, shapes, alignments,
masks and energy of every object) and changes it only through
``_SceneEngine.revise``, which re-synthesizes just the objects whose raw
coefficients changed, re-rasterizes just those whose coefficients or
alignment changed, and re-scores the union.  Each iteration runs these
phases on it:

- ``refresh_alignments``: grid-search the alignment of every object whose
  shape changed since the last refresh; adopted only when an alignment
  moved and the energy does not increase.
- gradient: probe every coordinate at +-fd_step, once per fit, and update
  SR1 (or build the exact finite-difference Hessian).
- trust-region trial: minimize the quadratic model inside the trust ball
  (Newton step when it fits, the exact ball-constrained solution on the
  boundary, Cauchy point for indefinite models); accepted when it strictly
  lowers the energy.
- ``plateau_walk``: once the trust region is below the probe scale, take
  the best single-coordinate move at one, two or four probe steps, else the
  first single grid-step alignment move that lowers the energy.  The loop
  halts only when the walk finds nothing and the radius is at its minimum.
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
    exact_fd_hessian: bool = False
    grid: GridSearchConfig = field(default_factory=GridSearchConfig)

    def __post_init__(self):
        if min(self.energy_threshold_fraction, self.fd_step,
               self.initial_trust_radius, self.min_trust_radius,
               self.max_trust_radius) <= 0:
            raise ValueError("evolution scales must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be positive")
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


@dataclass(frozen=True)
class _Fit:
    """One scored hypothesis for every object of a scene.

    ``c`` holds the normalized and ``x`` the raw coefficients, one row per
    object; ``masks`` are flat over the clump's pixels and ``energy`` scores
    their union.  A fit is never mutated: every move builds a new one with
    :meth:`_SceneEngine.revise`.
    """

    c: np.ndarray
    x: np.ndarray
    radii: tuple
    alignments: tuple
    masks: tuple
    energy: int


class _SceneEngine:
    """Per-scene state shared by the evolution phases.

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
        self._probed = (None, None)   # (fit, its +-fd_step probe table)

    def object_mask(self, i, radii, alignment):
        return self.searchers[i].grid.mask(radii, alignment.r, alignment.theta)

    def total_energy(self, masks):
        return mask_energy(union(masks), self.bc)

    def raw_from_normalized(self, c):
        return c * self.sqrt_ev[None, :]

    def initial_fit(self):
        """Mean shapes at their best alignments."""
        c = np.zeros((self.n, self.t))
        x = self.raw_from_normalized(c)
        radii = tuple(synthesize(self.model, row) for row in x)
        alignments = tuple(s.search(r) for s, r in zip(self.searchers, radii))
        masks = tuple(self.object_mask(i, radii[i], alignments[i])
                      for i in range(self.n))
        return _Fit(c, x, radii, alignments, masks, self.total_energy(masks))

    def revise(self, fit, c=None, x=None, alignments=None):
        """``fit`` with new coefficients and/or alignments, re-scored.

        ``x`` defaults to the raw form of ``c``.  Only objects whose raw
        coefficients changed are re-synthesized, and only objects whose
        coefficients or alignment changed are re-rasterized.
        """
        if x is None:
            x = fit.x if c is None else self.raw_from_normalized(c)
        c = fit.c if c is None else c
        alignments = fit.alignments if alignments is None else tuple(alignments)
        radii, masks = list(fit.radii), list(fit.masks)
        for i in range(self.n):
            reshaped = not np.array_equal(x[i], fit.x[i])
            if reshaped:
                radii[i] = synthesize(self.model, x[i])
            if reshaped or alignments[i] != fit.alignments[i]:
                masks[i] = self.object_mask(i, radii[i], alignments[i])
        return _Fit(c, x, tuple(radii), alignments, tuple(masks),
                    self.total_energy(masks))

    def _probe_table(self, fit, h):
        """Exact joint energies of every +-h single-coordinate move.

        Batched per object: probes change one object, so the other masks
        contribute a precomputed constant plus a shared restriction to the
        object's reachable pixels.
        """
        energies = np.zeros((self.n, 2 * self.t), dtype=np.int64)
        for i in range(self.n):
            others = union((np.zeros_like(self.bc),)
                           + fit.masks[:i] + fit.masks[i + 1:])
            probes = np.repeat(fit.x[i][None, :], 2 * self.t, axis=0)
            idx = np.arange(self.t)
            probes[2 * idx, idx] += h * self.sqrt_ev
            probes[2 * idx + 1, idx] -= h * self.sqrt_ev
            radii = np.stack([synthesize(self.model, row) for row in probes])
            # pixels beyond every probe's reach contribute a constant
            grid = self.searchers[i].grid
            alignment = fit.alignments[i]
            stop, inside = grid.inside(radii, alignment.r, alignment.theta)
            near = grid.flat_index[:stop]
            o_d = others[near]
            bc_d = self.bc[near]
            outside_mismatch = (int(np.count_nonzero(others ^ self.bc))
                                - int(np.count_nonzero(o_d ^ bc_d)))
            mismatch = (o_d[None, :] | inside) ^ bc_d[None, :]
            energies[i] = outside_mismatch + np.count_nonzero(mismatch, axis=1)
        return energies

    def gradient(self, fit):
        """Normalized-unit central-difference gradient, batched per object.

        Caches the probe energies; the plateau walk reuses them.
        """
        h = self.config.fd_step
        table = self._probe_table(fit, h)
        self._probed = (fit, table)
        diffs = table[:, 0::2] - table[:, 1::2]
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

    def refresh_alignments(self, fit, searched_x):
        """Re-search the alignments of objects reshaped since ``searched_x``.

        The result is adopted only when some alignment moved and the energy
        does not increase, so accepted energies stay strictly decreasing.
        """
        alignments = list(fit.alignments)
        for i in range(self.n):
            if not np.array_equal(fit.x[i], searched_x[i]):
                alignments[i] = self.searchers[i].search(fit.radii[i])
        if tuple(alignments) == fit.alignments:
            return fit
        candidate = self.revise(fit, alignments=alignments)
        return candidate if candidate.energy <= fit.energy else fit

    def plateau_walk(self, fit):
        """First probed move that lowers the energy, as ``(fit, step_scale)``.

        The quadratic model has no information below the probe scale, so
        near a plateau the loop walks the probed landscape instead: the best
        single-coordinate probe at one, then two, then four probe steps,
        then the first single grid-step alignment move (step scale 0.0),
        scanned by object in a fixed neighbour order.  Returns None when
        none of these moves lowers the energy.
        """
        h = self.config.fd_step
        probed_fit, table = self._probed
        for step_scale in (h, 2.0 * h, 4.0 * h):
            if step_scale != h or probed_fit is not fit:
                table = self._probe_table(fit, step_scale)
            move = self._best_table_move(table, fit.energy)
            if move is not None:
                i, j, sign = move
                # apply in raw units exactly as the probe table built the
                # point, so the new energy equals the probed one
                x, c = fit.x.copy(), fit.c.copy()
                bounds = self.model.coefficient_bounds()
                x[i, j] += sign * step_scale * self.sqrt_ev[j]
                x[i] = np.clip(x[i], -bounds, bounds)
                c[i, j] = min(max(c[i, j] + sign * step_scale,
                                  -COEFF_SIGMA_BOX), COEFF_SIGMA_BOX)
                return self.revise(fit, c=c, x=x), step_scale
        for i in range(self.n):
            for candidate in self._alignment_neighbors(fit.alignments[i]):
                alignments = list(fit.alignments)
                alignments[i] = candidate
                moved = self.revise(fit, alignments=alignments)
                if moved.energy < fit.energy:
                    return moved, 0.0
        return None

    def run(self):
        cfg = self.config
        n, t = self.n, self.t
        fit = self.initial_fit()
        searched_x = fit.x
        trace, delta, iteration = [], cfg.initial_trust_radius, 0
        sr1 = Sr1Hessian(n * t)
        # the gradient, and a plateau walk that found nothing, stay valid
        # while the fit they were computed for is the current one
        grad_fit = g = walked = None
        halted = "energy_threshold" if fit.energy <= self.e_star else None

        while halted is None and iteration < cfg.max_outer_iterations:
            iteration += 1
            fit = self.refresh_alignments(fit, searched_x)
            searched_x = fit.x
            if fit.energy <= self.e_star:
                halted = "energy_threshold"
                break

            if grad_fit is not fit:
                g_new = self.gradient(fit)
                if grad_fit is not None \
                        and not np.array_equal(fit.c, grad_fit.c):
                    sr1.update((fit.c - grad_fit.c).reshape(-1), g_new - g)
                grad_fit, g = fit, g_new
                if not np.any(g):
                    halted = "zero_gradient"
                    break

            if cfg.exact_fd_hessian:
                def f(c_flat):
                    return self.revise(fit, c=c_flat.reshape(n, t)).energy
                hess = fd_hessian(f, fit.c.reshape(-1), cfg.fd_step)
            else:
                hess = sr1.matrix

            p = trust_region_step(g, hess, delta)
            predicted = -_model_value(g, hess, p)
            step_norm = float(np.linalg.norm(p))
            trial = self.revise(fit, c=np.clip(fit.c + p.reshape(n, t),
                                               -COEFF_SIGMA_BOX,
                                               COEFF_SIGMA_BOX))
            if predicted > 0 and trial.energy < fit.energy:
                rho = (fit.energy - trial.energy) / predicted
                trace.append(TraceRow(iteration, trial.energy, delta,
                                      step_norm, True))
                fit = trial
                if fit.energy <= self.e_star:
                    halted = "energy_threshold"
                elif rho > cfg.grow_ratio_threshold \
                        and step_norm >= delta - BOUNDARY_TOL:
                    delta = min(2.0 * delta, cfg.max_trust_radius)
                elif rho < cfg.shrink_ratio_threshold:
                    delta = max(0.5 * delta, cfg.min_trust_radius)
                continue

            walk = None
            if delta <= cfg.fd_step * (1.0 + 1e-12) and walked is not fit:
                walk, walked = self.plateau_walk(fit), fit
            if walk is not None:
                fit, step_scale = walk
                trace.append(TraceRow(iteration, fit.energy, delta,
                                      step_scale, True))
                if fit.energy <= self.e_star:
                    halted = "energy_threshold"
                else:
                    delta = max(0.5 * delta, cfg.min_trust_radius,
                                min(cfg.fd_step, cfg.max_trust_radius))
                continue

            trace.append(TraceRow(iteration, fit.energy, delta, step_norm,
                                  False))
            if delta <= cfg.min_trust_radius * (1.0 + 1e-12):
                halted = "no_decrease"
            else:
                delta = max(0.5 * delta, cfg.min_trust_radius)

        height, width = self.scene.clump.shape
        final_masks = [m.reshape(height, width).copy() for m in fit.masks]
        state = EvolutionState(
            x=fit.x.reshape(-1).copy(), alignments=list(fit.alignments),
            delta=delta, energy=fit.energy, iteration=iteration, trace=trace,
            halted_reason=halted or "max_iterations")
        return final_masks, state


def evolve(scene, model, config=None):
    """Segment every object in the scene; returns (masks, state)."""
    config = config or EvolutionConfig()
    return _SceneEngine(scene, model, config).run()
