"""Grid search for the scale and rotation that fit a shape into the clump.

The search maximizes the overlap with the clump among candidates whose
foreground lies entirely inside it; for feasible candidates the overlap is
just the candidate's own area.  Containment of a pixel at scale r is the
comparison q <= r of the shape's scale-free containment value, so for a
fixed rotation the candidate area is monotone in r and feasibility is a
prefix of the scale grid.  The best candidate at each rotation is therefore
the largest feasible scale, which makes the exhaustive search exact at a
fraction of the brute-force cost.

Every grid rotation is a whole-sector roll of the radii against one of the
grid's few rotation-free tables (see :mod:`multishape.geometry`).  A search
builds one stack of the T rotations' wrapped inverse radii and passes the
rows that share a table offset, with that offset, to
:meth:`multishape.geometry.RadialGrid.q_values`, so all rotations are
evaluated together, in (rotations, pixels) batches.

Three certificates keep the search exact while evaluating only the pixels
and rotations that can matter:

1. **Settled rotations leave the background scan.**  The feasible scales of
   rotation t are the grid scales below its minimum q over background
   pixels.  Since q >= d / max(radii), background pixels beyond
   ``reach_distance(min(min_t, r_max) * max(radii))`` have q above the
   running minimum or above every grid scale (its BOUND_MARGIN exceeds the
   rounding and closure of q), so once the outward scan passes that
   distance the rotation's feasible scales are final.  The polar grid
   grows only when a rotation still reaches past it.  The searcher keeps
   the grid positions of the background pixels and refreshes them at the
   top of the scan loop in ``_background_min`` whenever the grid has
   grown, since masks and searches both grow it.
2. **Only the annulus of the top rotations is counted.**  The rotations
   whose largest feasible scale r is the largest of all share r.  Since
   q <= d / (min(radii) * cos(pi/K)), pixels within
   ``r * min(radii) * cos(pi/K)`` (less BOUND_MARGIN) are inside at
   every rotation, and pixels past the reach of r are outside, so one
   ``searchsorted`` counts the core and only the annulus between is
   evaluated.
3. **Lower-scale rotations are pruned by an area ceiling.**  A rotation
   whose largest feasible scale is smaller loses every tie against a top
   rotation (equal areas go to the larger scale), so it can win only with a
   strictly larger area.  A shape at scale r holds at most
   ``r**2 * A1 + (sqrt(2)/2) * r * P1 + theta_plus / 4`` pixels, with A1
   and P1 the area and perimeter of the polygon at scale 1 and theta_plus
   the sum of its convex vertices' exterior angles: the counted pixels'
   disjoint unit squares lie within sqrt(2)/2 of the polygon.  The ceiling
   depends on neither rotation nor center, so it costs O(K) per search
   (:func:`multishape.geometry.area_ceiling`).  Rotations whose ceiling
   does not exceed the best top area cannot win and are skipped; the rest
   are counted exactly, in one batch, over their annulus.

When no candidate fits, the search falls back to the fewest outside
pixels at the smallest scale.  That count takes only the stop of
:meth:`multishape.geometry.RadialGrid.annulus` at that scale and starts
from grid position 0, since the core's pixels count when they lie outside
the clump.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CentroidOutsideMask
from .geometry import (
    TWO_PI,
    RadialGrid,
    area_ceiling,
    on_foreground,
    reach_distance,
    shape_radii,
    split_rotation,
)
from .raster import Alignment

# Largest pixel block evaluated for all rotations at once; bounds the
# (rotations x pixels) temporaries of a search.
MAX_CHUNK = 8192

# Most scales a grid search may have; checked before any grid is built.
MAX_SCALES = 10**4


@dataclass(frozen=True)
class GridSearchConfig:
    """Scale and rotation grids for the alignment search."""

    r_min: float = 0.3
    r_max: float = 2.0
    r_step: float = 0.05
    theta_count: int = 72

    def __post_init__(self):
        if not 0 < self.r_min <= self.r_max:
            raise ValueError("need 0 < r_min <= r_max")
        if not (self.r_step > 0 and self.theta_count >= 1):
            raise ValueError("r_step and theta_count must be positive")
        # r_values' count is at most MAX_SCALES exactly when this holds
        if not (self.r_max - self.r_min) / self.r_step + 1e-9 < MAX_SCALES:
            raise ValueError(f"the grid may have at most {MAX_SCALES} scales")

    def r_values(self):
        count = int(np.floor((self.r_max - self.r_min) / self.r_step + 1e-9)) + 1
        return self.r_min + self.r_step * np.arange(count)

    def theta_values(self):
        return TWO_PI * np.arange(self.theta_count) / self.theta_count


@functools.lru_cache(maxsize=8)
def _rotation_plan(k, theta_count):
    """``(roll_index, offset_rows)`` of the grid rotations at K radii.

    Rotation t is the radii rolled by ``roll_index[t]`` at one of the few
    table offsets; the index has K + 1 columns, the last repeating the
    first, so ``(1 / radii)[roll_index]`` holds the
    :func:`multishape.geometry.wrapped_inverse` of every rotation.
    ``offset_rows`` pairs each offset with the rotations sharing it, which
    are evaluated in one batch.  The plan depends only on K and the
    rotation count, so every searcher shares one read-only copy.
    """
    thetas = GridSearchConfig(theta_count=theta_count).theta_values()
    splits = [split_rotation(theta, k) for theta in thetas]
    shifts = np.array([shift for shift, _ in splits])
    roll_index = (np.arange(k + 1)[None, :] - shifts[:, None]) % k
    roll_index.setflags(write=False)
    bases = [base for _, base in splits]
    offset_rows = []
    for base in dict.fromkeys(bases):
        rows = np.flatnonzero(np.equal(bases, base))
        rows.setflags(write=False)
        offset_rows.append((base, rows))
    return roll_index, tuple(offset_rows)


class AlignmentSearcher:
    """Reusable alignment search for one centroid inside one clump.

    Caches the polar pixel tables, so repeated searches for evolving shapes
    at the same centroid only pay for arithmetic.  The polar grid starts at
    the clump's equivalent-disk radius ``sqrt(area / pi)`` and grows as
    searches and masks reach past it.
    """

    def __init__(self, centroid, clump, k, config=None):
        self.config = config or GridSearchConfig()
        clump = np.asarray(clump, dtype=bool)
        height, width = clump.shape
        cx, cy = float(centroid[0]), float(centroid[1])
        if not on_foreground(clump, cx, cy):
            raise CentroidOutsideMask(
                f"centroid ({cx}, {cy}) is not on clump foreground")
        self._clump = clump.reshape(-1)
        self.grid = RadialGrid((cx, cy), (width, height), k,
                               np.sqrt(np.count_nonzero(clump) / np.pi))
        self._synced = -1
        self._r_values = self.config.r_values()
        self._theta_values = self.config.theta_values()
        self._roll_index, self._offset_rows = _rotation_plan(
            self.grid.k, self.config.theta_count)

    def serves(self, centroid, clump, k, config):
        """Whether this searcher is the one built for ``centroid`` in
        ``clump`` with ``k`` radii and grid ``config``."""
        height, width = clump.shape
        return (self.grid.center == (float(centroid[0]), float(centroid[1]))
                and self.grid.dims == (width, height) and self.grid.k == k
                and self.config == config
                and np.array_equal(self._clump, clump.reshape(-1)))

    def neighbors(self, alignment):
        """Single grid-step moves of ``alignment``, on the searched grids.

        In order: the next larger scale, the next smaller scale, the next
        rotation and the previous rotation (rotations wrap around).
        """
        rs, thetas = self._r_values, self._theta_values
        r_idx = int(np.argmin(np.abs(rs - alignment.r)))
        t_idx = int(np.argmin(np.abs(thetas - alignment.theta)))
        out = [Alignment(r=float(rs[j]), theta=alignment.theta)
               for j in (r_idx + 1, r_idx - 1) if 0 <= j < rs.size]
        out += [Alignment(r=alignment.r,
                          theta=float(thetas[(t_idx + step) % thetas.size]))
                for step in (1, -1)]
        return out

    def _rotated_q(self, inverse, selected, index):
        """``(rows, q)`` per table offset: the ``selected`` rotations sharing
        it and their containment values at ``index``, one row per rotation;
        offsets with no selected rotation are skipped.

        ``inverse`` holds the wrapped inverse radii of every rotation, each
        rolled by its rotation's whole-sector shift (see
        :func:`_rotation_plan`).
        """
        for base, rows in self._offset_rows:
            rows = rows[selected[rows]]
            if rows.size:
                # every rotation, in order: the stack itself, not a copy
                part = inverse if rows.size == inverse.shape[0] \
                    else inverse[rows]
                yield rows, self.grid.q_values(part, base, index)

    def _background_min(self, inverse, max_s, cap):
        """Certified per-rotation minimum containment value over background.

        Background pixels are scanned outward in growing chunks.  Rotation t
        is settled once the scan passes ``reach_distance(min(min_t, cap) *
        max_s)``: farther pixels have q above its running minimum ``min_t``
        or above ``cap``, the largest scale of interest, as BOUND_MARGIN
        exceeds the rounding and closure of q, so they can change no
        comparison against the scale grid.  Settled rotations drop out of
        the batch and the scan stops when every rotation has settled.  The
        grid grows only when the scan has passed every built pixel and some
        rotation still reaches beyond them.  A minimum above ``cap`` is not
        exact, but it stays above ``cap``.

        ``_bg_positions`` holds the grid positions of the pixels off the
        clump, ascending, so their distances ascend too.
        """
        minimum = np.full(inverse.shape[0], np.inf)
        start = 0
        chunk = 256
        while True:
            # masks and searches both grow the grid, so the background
            # positions are refreshed whenever its size has changed
            if self._synced != self.grid.size:
                self._bg_positions = np.flatnonzero(
                    ~self._clump[self.grid.flat_index])
                self._synced = self.grid.size
            reach = reach_distance(np.minimum(minimum, cap) * max_s)
            farthest = float(reach.max())
            positions, dist = self._bg_positions, self.grid.dist
            if start == positions.size:
                if farthest <= self.grid.reach:
                    break
                self.grid.cover(farthest)
                continue
            active = reach >= dist[positions[start]]
            if not active.any():
                break
            # background pixels at distances up to the farthest reach
            within = np.searchsorted(positions,
                                     np.searchsorted(dist, farthest,
                                                     side="right"))
            stop = min(positions.size, start + chunk, int(within))
            for rows, q in self._rotated_q(inverse, active,
                                           positions[start:stop]):
                minimum[rows] = np.minimum(minimum[rows], q.min(axis=1))
            start = stop
            chunk = min(4 * chunk, MAX_CHUNK)
        return minimum

    def _inside_counts(self, inverse, selected, r, lo, hi, where=None):
        """Per-rotation count of grid pixels ``lo:hi`` inside at scale ``r``.

        ``r`` holds one scale per rotation; only ``selected`` rotations are
        counted, the others read 0.  ``where`` restricts the count to a
        subset of the grid pixels.
        """
        counts = np.zeros(inverse.shape[0], dtype=np.int64)
        for start in range(lo, hi, MAX_CHUNK):
            block = slice(start, min(hi, start + MAX_CHUNK))
            for rows, q in self._rotated_q(inverse, selected, block):
                inside = q <= r[rows, None]
                if where is not None:
                    inside &= where[block]
                counts[rows] += np.count_nonzero(inside, axis=1)
        return counts

    def _areas(self, inverse, selected, r, min_s, max_s):
        """Exact areas of the ``selected`` rotations at their scales ``r``;
        the entries of the other rotations are meaningless.

        Pixels before the core stop of the smallest selected scale are
        inside at every rotation and pixels past the reach of the largest
        are outside, so only the annulus between them is evaluated.
        """
        lo, hi = self.grid.annulus(float(r[selected].min()) * min_s,
                                   float(r[selected].max()) * max_s)
        return lo + self._inside_counts(inverse, selected, r, lo, hi)

    def search(self, radii):
        """Best alignment for one radii vector, with deterministic ties.

        Feasible candidates are ranked by overlap area, then larger scale,
        then smaller rotation; for a fixed rotation the best feasible
        candidate is always the largest feasible scale because containment
        is monotone in the scale.  If no candidate fits inside the clump,
        returns the one with the fewest outside pixels (ties: smaller
        scale, then smaller rotation).  All rotations are evaluated
        together as rolls of ``radii``, which must pass
        :func:`multishape.geometry.shape_radii` with the searcher's K.

        Three certificates prune the work without changing the result:

        - the background scan retires a rotation once no farther pixel can
          change its feasible scales (see :meth:`_background_min`);
        - the rotations at the largest feasible scale are counted only over
          the annulus between the pixels inside at every rotation and the
          reach of that scale (:meth:`RadialGrid.annulus`);
        - a rotation at a smaller scale beats them only with a strictly
          larger area, since equal areas go to the larger scale, so it is
          counted only if the area ceiling of its scale
          (:func:`multishape.geometry.area_ceiling`) exceeds their best
          area.
        """
        radii = shape_radii(radii, self.grid.k)
        min_s, max_s = float(radii.min()), float(radii.max())
        rs = self._r_values
        # every q of the search reads this one stack of T rolled shapes
        inverse = (1.0 / radii)[self._roll_index]
        min_bg = self._background_min(inverse, max_s, float(rs[-1]))
        # number of scales strictly below each rotation's background minimum
        n_feasible = np.searchsorted(rs, min_bg, side="left")
        top = n_feasible.max()
        if top == 0:
            every = np.ones(inverse.shape[0], dtype=bool)
            r0 = np.full(inverse.shape[0], rs[0])
            _, stop = self.grid.annulus(rs[0] * min_s, rs[0] * max_s)
            background = ~self._clump[self.grid.flat_index[:stop]]
            outside = self._inside_counts(inverse, every, r0, 0, stop,
                                          background)
            best = np.argmin(outside)
            return Alignment(r=float(rs[0]),
                             theta=float(self._theta_values[best]))
        # infeasible rotations get rs[0]; they are never counted
        r = rs[np.maximum(n_feasible, 1) - 1]
        counted = n_feasible == top
        area = self._areas(inverse, counted, r, min_s, max_s)
        contenders = (n_feasible > 0) & ~counted & (
            area_ceiling(radii, r) > area[counted].max())
        if contenders.any():
            area[contenders] = self._areas(inverse, contenders, r, min_s,
                                           max_s)[contenders]
            counted |= contenders
        candidates = np.flatnonzero(counted)
        # largest area, then larger scale; lexsort is stable, so the
        # smaller rotation wins the remaining ties
        order = np.lexsort((-n_feasible[candidates], -area[candidates]))
        best = candidates[order[0]]
        return Alignment(r=float(r[best]),
                         theta=float(self._theta_values[best]))


def align(radii, centroid, clump, config=None):
    """One-shot alignment search; see :class:`AlignmentSearcher`."""
    radii = shape_radii(radii)
    return AlignmentSearcher(centroid, clump, radii.size,
                             config=config).search(radii)
