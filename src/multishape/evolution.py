"""Joint trust-region evolution of all objects' shape coefficients.

The objective is the pixel count of the symmetric difference between the
union of the objects' rasterized shapes and the clump mask.  It is an
integer-valued, piecewise-constant function of the coefficients, so the
gradient and Hessian of the local quadratic model come from central finite
differences and a safeguarded SR1 update.  The optimizer works only in
per-mode standard-deviation units (coefficient j of a raw vector equals
sqrt(eigenvalue_j) times its normalized value; raw vectors are formed just
to synthesize shapes and for ``EvolutionState.x``), so the probe step
``FD_STEP`` moves boundaries by a sizable fraction of a pixel and crosses
the quantization plateaus of the objective.  The trust-region policy is
fixed by the module constants below.

The loop holds one immutable ``_Fit`` (coefficients, shapes, alignments,
masks and energy of every object) and changes it only through
``_SceneEngine.revise``, which re-synthesizes just the objects whose
coefficients changed, re-rasterizes just those whose coefficients or
alignment changed, and re-scores the union.  Each iteration runs these
phases on it:

- ``refresh_alignments``: grid-search the alignment of every object whose
  shape changed since the last refresh; adopted only when an alignment
  moved and the energy does not increase.
- gradient: ``run`` computes the +-FD_STEP probe table of every coordinate,
  once per fit, takes the gradient as its central difference and updates
  the SR1 Hessian from the change in that gradient; SR1 is the only
  curvature model.
- trust-region trial: minimize the quadratic model inside the trust ball
  (Newton step when it fits, the exact ball-constrained solution on the
  boundary, Cauchy point for indefinite models); accepted when it strictly
  lowers the energy.
- ``plateau_walk``: once the trust region is below the probe scale, take
  the best single-coordinate move at one, two or four probe steps, else the
  first single grid-step alignment move that lowers the energy; the walk
  reuses the gradient's probe table, passed to it by ``run``.

The halt reason is ``energy_threshold`` exactly when the final energy is at
or below the threshold, ``energy_threshold_fraction`` of the clump area.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .align import AlignmentSearcher, GridSearchConfig
from .errors import DimensionMismatch, ZeroGradient, finite_arithmetic
from .raster import as_mask, rasterize, union
from .shape_model import COEFF_SIGMA_BOX, synthesize

BOUNDARY_TOL = 1e-9

# Trust-region policy in normalized units.  The radius halves when the
# actual decrease is below SHRINK_RATIO of the predicted one, and doubles
# above GROW_RATIO when the step reached the boundary.
FD_STEP = 0.1
INITIAL_TRUST_RADIUS = 1.0
MIN_TRUST_RADIUS = 1e-3
MAX_TRUST_RADIUS = 10.0
SHRINK_RATIO = 0.25
GROW_RATIO = 0.75


@dataclass(frozen=True)
class EvolutionConfig:
    """Tuning knobs of the evolution loop; defaults follow the method."""

    energy_threshold_fraction: float = 0.05
    max_outer_iterations: int = 200
    grid: GridSearchConfig = field(default_factory=GridSearchConfig)

    def __post_init__(self):
        if not 0 < self.energy_threshold_fraction < np.inf:
            raise ValueError("energy_threshold_fraction must be positive")
        if not (isinstance(self.max_outer_iterations, numbers.Integral)
                and self.max_outer_iterations >= 1):
            raise ValueError("max_outer_iterations must be positive")


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
    energy: int
    iteration: int
    trace: list
    halted_reason: str


def mask_energy(mask_union, clump):
    """Sum of squared pixel differences between two binary masks."""
    clump = as_mask(clump)
    return int(np.count_nonzero(as_mask(mask_union, clump) ^ clump))


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


class Sr1Hessian:
    """Symmetric rank-1 quasi-Newton Hessian approximation.

    Seeded with the identity; an update is skipped when its denominator is
    tiny relative to the step and residual norms (the standard safeguard).
    """

    def __init__(self, dim):
        self._hess = np.eye(dim)

    @finite_arithmetic("step and gradient change")
    def update(self, step, grad_change):
        step = np.asarray(step, dtype=np.float64)
        grad_change = np.asarray(grad_change, dtype=np.float64)
        if not step.shape == grad_change.shape == self._hess.shape[:1]:
            raise DimensionMismatch(
                f"step {step.shape}, gradient change {grad_change.shape}, "
                f"Hessian {self._hess.shape}")
        residual = grad_change - self._hess @ step
        denom = float(residual @ step)
        guard = 1e-8 * np.linalg.norm(step) * np.linalg.norm(residual)
        if abs(denom) <= guard or denom == 0.0:
            return
        self._hess += np.outer(residual, residual) / denom

    @property
    def matrix(self):
        return self._hess.copy()


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
        # np.linalg.norm of a 1-D vector, bitwise, without its wrapper cost
        v = b / (eigvals + nu)
        return math.sqrt(v.dot(v))

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


@finite_arithmetic("gradient, Hessian and trust radius")
def trust_region_step(g, hess, delta):
    """Minimizer of the local quadratic model inside the trust ball.

    Positive definite model: the Newton step when it fits, otherwise the
    exact boundary solution of the constrained problem.  Indefinite model:
    the Cauchy point (steepest descent to the boundary).  The result never
    exceeds the radius and is never worse than the Cauchy point.
    """
    g = np.asarray(g, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if g.ndim != 1 or hess.shape != (g.size, g.size):
        raise DimensionMismatch(f"gradient {g.shape} and Hessian {hess.shape}")
    gnorm = float(np.linalg.norm(g))
    if not (0 < delta < np.inf and math.isfinite(gnorm)):
        raise ValueError("gradient and trust radius must be finite, radius > 0")
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

    ``c`` holds the normalized coefficients, one row per object, and
    ``radii`` their shapes; ``masks`` are flat over the clump's pixels, each
    the grid mask of its object's radii at its alignment (the probe table
    relies on it), and ``energy`` scores their union.  A fit is never
    mutated: every move builds a new one with :meth:`_SceneEngine.revise`,
    so every fit's ``c`` lies in the box of +-``COEFF_SIGMA_BOX``.
    """

    c: np.ndarray
    radii: tuple
    alignments: tuple
    masks: tuple
    energy: int


class _SceneEngine:
    """Per-scene state shared by the evolution phases.

    Holds one alignment searcher per object; the searcher's polar grid is
    reused for all probe rasterizations at that centroid.
    """

    def __init__(self, scene, model, config, searchers=None):
        self.scene = scene
        self.model = model
        self.config = config
        self.n = scene.n_objects
        self.t = model.t
        self.bc = scene.clump.reshape(-1)
        self.e_star = config.energy_threshold_fraction * scene.clump_area
        self.sqrt_ev = np.sqrt(model.eigenvalues)
        if searchers is None:
            searchers = scene_searchers(scene, model.k, config)
        elif len(searchers) != self.n or not all(
                s.serves(c, scene.clump, model.k, config.grid)
                for s, c in zip(searchers, scene.centroids)):
            raise DimensionMismatch(
                f"need {self.n} searchers built for {scene.scene_id}'s "
                f"centroids and clump with K={model.k} and the grid config")
        self.searchers = searchers

    def object_mask(self, i, radii, alignment):
        return self.searchers[i].grid.mask(radii, alignment.r, alignment.theta)

    def total_energy(self, masks):
        # (height, width) views of the flat masks: no copy is made
        views = [m.reshape(self.scene.clump.shape) for m in masks]
        return mask_energy(union(views), self.scene.clump)

    def raw_from_normalized(self, c):
        """Raw coefficients of normalized ones, row by row."""
        return c * self.sqrt_ev

    def initial_fit(self):
        """Mean shapes at their best alignments."""
        c = np.zeros((self.n, self.t))
        # every row of c is the same, so one shape serves every object
        radii = (synthesize(self.model, self.raw_from_normalized(c[0])),) \
            * self.n
        alignments = tuple(s.search(r) for s, r in zip(self.searchers, radii))
        masks = tuple(self.object_mask(i, radii[i], alignments[i])
                      for i in range(self.n))
        return _Fit(c, radii, alignments, masks, self.total_energy(masks))

    def revise(self, fit, c=None, alignments=None):
        """``fit`` with new coefficients and/or alignments, re-scored.

        New coefficients are clipped to the box of +-``COEFF_SIGMA_BOX``.
        Only objects whose coefficients changed are re-synthesized, and only
        objects whose coefficients or alignment changed are re-rasterized.
        """
        c = fit.c if c is None else np.clip(c, -COEFF_SIGMA_BOX,
                                            COEFF_SIGMA_BOX)
        alignments = fit.alignments if alignments is None else tuple(alignments)
        radii, masks = list(fit.radii), list(fit.masks)
        reshaped = [i for i in range(self.n)
                    if not np.array_equal(c[i], fit.c[i])]
        if reshaped:
            # one batched call; each row equals its own call, bitwise
            rows = synthesize(self.model,
                              self.raw_from_normalized(c[reshaped]))
            for i, row in zip(reshaped, rows):
                radii[i] = row
        for i in range(self.n):
            if i in reshaped or alignments[i] != fit.alignments[i]:
                masks[i] = self.object_mask(i, radii[i], alignments[i])
        return _Fit(c, tuple(radii), alignments, tuple(masks),
                    self.total_energy(masks))

    def _probe_table(self, fit, h):
        """Exact joint energies of every +-h single-coordinate move.

        A probe changes one object, and its shape differs from the fit's
        only on the fit's boundary band
        (:meth:`multishape.geometry.RadialGrid.inside_near`), so its energy
        is the fit's, corrected on the band pixels alone.  All probes are
        synthesized in one batch.
        """
        n, t = self.n, self.t
        probes = np.repeat(fit.c, 2 * t, axis=0).reshape(n, 2 * t, t)
        idx = np.arange(t)
        probes[:, 2 * idx, idx] += h
        probes[:, 2 * idx + 1, idx] -= h
        radii = synthesize(self.model, self.raw_from_normalized(
            probes.reshape(-1, t))).reshape(n, 2 * t, -1)
        energies = np.empty((n, 2 * t), dtype=np.int64)
        for i in range(n):
            grid = self.searchers[i].grid
            alignment = fit.alignments[i]
            band, band_inside = grid.inside_near(
                fit.radii[i], radii[i], alignment.r, alignment.theta)
            edge = grid.flat_index[band]
            others = np.zeros(edge.size, dtype=bool)
            for j in range(n):
                if j != i:
                    others |= fit.masks[j][edge]
            clump = self.bc[edge]
            before = np.count_nonzero((others | fit.masks[i][edge]) ^ clump)
            after = np.count_nonzero((others | band_inside) ^ clump, axis=1)
            energies[i] = fit.energy - before + after
        return energies

    def refresh_alignments(self, fit, searched_c):
        """Re-search the alignments of objects reshaped since ``searched_c``.

        The result is adopted only when some alignment moved and the energy
        does not increase, so accepted energies stay strictly decreasing.
        """
        alignments = list(fit.alignments)
        for i in range(self.n):
            if not np.array_equal(fit.c[i], searched_c[i]):
                alignments[i] = self.searchers[i].search(fit.radii[i])
        if tuple(alignments) == fit.alignments:
            return fit
        candidate = self.revise(fit, alignments=alignments)
        return candidate if candidate.energy <= fit.energy else fit

    def plateau_walk(self, fit, table):
        """First probed move that lowers the energy, as ``(fit, step_scale)``.

        The quadratic model has no information below the probe scale, so
        near a plateau the loop walks the probed landscape instead: the best
        single-coordinate probe at one, then two, then four probe steps,
        then the first single grid-step alignment move (step scale 0.0),
        scanned by object in a fixed neighbour order.  ``table`` is the
        ``FD_STEP`` probe table of ``fit``.  Returns None when none of these
        moves lowers the energy.
        """
        for step_scale in (FD_STEP, 2.0 * FD_STEP, 4.0 * FD_STEP):
            if step_scale != FD_STEP:
                table = self._probe_table(fit, step_scale)
            # ties go to the first minimum: by object, then by mode with
            # the positive probe before the negative one
            flat = int(np.argmin(table))
            if table.flat[flat] < fit.energy:
                i, col = divmod(flat, 2 * self.t)
                c = fit.c.copy()
                c[i, col // 2] += step_scale if col % 2 == 0 else -step_scale
                return self.revise(fit, c=c), step_scale
        for i in range(self.n):
            for candidate in self.searchers[i].neighbors(fit.alignments[i]):
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
        searched_c = fit.c
        trace, delta, iteration, halted = [], INITIAL_TRUST_RADIUS, 0, None
        sr1 = Sr1Hessian(n * t)
        # the gradient and its probe table, and a plateau walk that found
        # nothing, stay valid while the fit they were computed for is current
        grad_fit = g = table = walked = None

        while halted is None and fit.energy > self.e_star \
                and iteration < cfg.max_outer_iterations:
            iteration += 1
            fit = self.refresh_alignments(fit, searched_c)
            searched_c = fit.c
            if fit.energy <= self.e_star:
                break

            if grad_fit is not fit:
                table = self._probe_table(fit, FD_STEP)
                g_new = ((table[:, 0::2] - table[:, 1::2])
                         / (2.0 * FD_STEP)).reshape(-1)
                if grad_fit is not None \
                        and not np.array_equal(fit.c, grad_fit.c):
                    sr1.update((fit.c - grad_fit.c).reshape(-1), g_new - g)
                grad_fit, g = fit, g_new
                if not np.any(g):
                    halted = "zero_gradient"
                    break

            hess = sr1.matrix
            p = trust_region_step(g, hess, delta)
            predicted = -_model_value(g, hess, p)
            step_norm = float(np.linalg.norm(p))
            trial = self.revise(fit, c=fit.c + p.reshape(n, t))
            if predicted > 0 and trial.energy < fit.energy:
                rho = (fit.energy - trial.energy) / predicted
                trace.append(TraceRow(iteration, trial.energy, delta,
                                      step_norm, True))
                fit = trial
                if rho > GROW_RATIO and step_norm >= delta - BOUNDARY_TOL:
                    delta = min(2.0 * delta, MAX_TRUST_RADIUS)
                elif rho < SHRINK_RATIO:
                    delta = max(0.5 * delta, MIN_TRUST_RADIUS)
                continue

            walk = None
            if delta <= FD_STEP * (1.0 + 1e-12) and walked is not fit:
                walk, walked = self.plateau_walk(fit, table), fit
            if walk is not None:
                fit, step_scale = walk
                trace.append(TraceRow(iteration, fit.energy, delta,
                                      step_scale, True))
                # the walk ran at or below the probe scale; resume there
                delta = FD_STEP
                continue

            trace.append(TraceRow(iteration, fit.energy, delta, step_norm,
                                  False))
            if delta <= MIN_TRUST_RADIUS * (1.0 + 1e-12):
                halted = "no_decrease"
            else:
                delta = max(0.5 * delta, MIN_TRUST_RADIUS)

        if fit.energy <= self.e_star:
            halted = "energy_threshold"
        height, width = self.scene.clump.shape
        final_masks = [m.reshape(height, width).copy() for m in fit.masks]
        state = EvolutionState(
            x=self.raw_from_normalized(fit.c).reshape(-1),
            alignments=list(fit.alignments), energy=fit.energy,
            iteration=iteration, trace=trace,
            halted_reason=halted or "max_iterations")
        return final_masks, state


def scene_searchers(scene, k, config=None):
    """One alignment searcher per object of ``scene``, for ``evolve``."""
    config = config or EvolutionConfig()
    return [AlignmentSearcher(c, scene.clump, k, config.grid)
            for c in scene.centroids]


def evolve(scene, model, config=None, searchers=None):
    """Segment every object in the scene; returns (masks, state).

    ``searchers`` may pass the :func:`scene_searchers` of an earlier call on
    the same scene with the same K and grid config, so repeated evolves
    reuse their polar grids; the result does not depend on it.  Searchers
    built for other centroids, another clump, K or grid config raise
    :class:`DimensionMismatch`.
    """
    config = config or EvolutionConfig()
    return _SceneEngine(scene, model, config, searchers).run()
