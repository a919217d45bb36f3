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
grid's few rotation-free tables (see :mod:`multishape.geometry`), so a
search stacks the T rolled radii vectors and evaluates all rotations
together: one (T, pixels) batch per chunk of background pixels for the
feasibility scan, then per block of grid pixels for the area count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CentroidOutsideMask
from .geometry import TWO_PI, RadialGrid
from .raster import Alignment

# Largest pixel block evaluated for all rotations at once; bounds the
# (rotations x pixels) temporaries of a search.
MAX_CHUNK = 8192


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
        if self.r_step <= 0 or self.theta_count < 1:
            raise ValueError("r_step and theta_count must be positive")

    def r_values(self):
        count = int(np.floor((self.r_max - self.r_min) / self.r_step + 1e-9)) + 1
        return self.r_min + self.r_step * np.arange(count)

    def theta_values(self):
        return TWO_PI * np.arange(self.theta_count) / self.theta_count


class AlignmentSearcher:
    """Reusable alignment search for one centroid inside one clump.

    Caches the polar pixel tables, so repeated searches for evolving shapes
    at the same centroid only pay for arithmetic.  ``radius_bound`` must be
    at least the largest radii entry of any shape that will be searched.
    """

    def __init__(self, centroid, clump, k, config=None, radius_bound=None):
        self.config = config or GridSearchConfig()
        clump = np.asarray(clump, dtype=bool)
        height, width = clump.shape
        cx, cy = float(centroid[0]), float(centroid[1])
        px, py = int(np.floor(cx)), int(np.floor(cy))
        if not (0 <= px < width and 0 <= py < height) or not clump[py, px]:
            raise CentroidOutsideMask(
                f"centroid ({cx}, {cy}) is not on clump foreground")
        if radius_bound is None:
            radius_bound = max(width, height)
        self.radius_bound = float(radius_bound)
        self.grid = RadialGrid((cx, cy), (width, height), k,
                               self.config.r_max * self.radius_bound)
        self._background = ~clump.reshape(-1)[self.grid.flat_index]
        # grid pixels are distance-sorted, so these are too
        self._bg_positions = np.nonzero(self._background)[0]
        self._r_values = self.config.r_values()
        self._theta_values = self.config.theta_values()
        # rotation t is radii rolled by shifts[t] at one of the few table
        # offsets; rows sharing an offset are evaluated in one batch
        splits = [self.grid.split_rotation(t) for t in self._theta_values]
        shifts = np.array([shift for shift, _ in splits])
        self._roll_index = (np.arange(k)[None, :] - shifts[:, None]) % k
        bases = [base for _, base in splits]
        self._offset_rows = [(base, np.flatnonzero(np.equal(bases, base)))
                             for base in dict.fromkeys(bases)]

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

    def _rotated_q(self, stack, index):
        """``(rows, q)`` per table offset: the rotations sharing it and
        their containment values at ``index``, one row per rotation."""
        for base, rows in self._offset_rows:
            yield rows, self.grid.q_values(stack[rows], base, index)

    def _background_min(self, stack, max_s, cap):
        """Certified per-rotation minimum containment value over background.

        Background pixels are scanned outward in growing chunks, all
        rotations at once; once the remaining pixels are provably farther
        than every rotation's running minimum (or the largest scale of
        interest) can reach, they cannot change any comparison against the
        scale grid and the scan stops.  A rotation whose minimum exceeds
        ``cap`` may see it lowered by pixels scanned for other rotations,
        but never to ``cap`` or below, so its feasible scales are exact.
        """
        positions = self._bg_positions
        total = positions.size
        minimum = np.full(stack.shape[0], np.inf)
        start = 0
        chunk = 1024
        while start < total:
            bound = min(float(minimum.max()), cap)
            if positions[start] >= self.grid.reach_stop(bound * max_s):
                break
            stop = min(total, start + chunk)
            for rows, q in self._rotated_q(stack, positions[start:stop]):
                minimum[rows] = np.minimum(minimum[rows], q.min(axis=1))
            start = stop
            chunk = min(4 * chunk, MAX_CHUNK)
        return minimum

    def _inside_counts(self, stack, r, stop, where=None):
        """Per-rotation count of the first ``stop`` grid pixels inside.

        ``r`` holds one scale per rotation.  Pixels past a rotation's own
        reach have q > r, so scanning to the largest reach adds nothing.
        ``where`` restricts the count to a subset of the grid pixels.
        """
        counts = np.zeros(stack.shape[0], dtype=np.int64)
        for start in range(0, stop, MAX_CHUNK):
            block = slice(start, min(stop, start + MAX_CHUNK))
            for rows, q in self._rotated_q(stack, block):
                inside = q <= r[rows, None]
                if where is not None:
                    inside &= where[block]
                counts[rows] += np.count_nonzero(inside, axis=1)
        return counts

    def search(self, radii):
        """Best alignment for one radii vector, with deterministic ties.

        Feasible candidates are ranked by overlap area, then larger scale,
        then smaller rotation; for a fixed rotation the best feasible
        candidate is always the largest feasible scale because containment
        is monotone in the scale.  If no candidate fits inside the clump,
        returns the one with the fewest outside pixels (ties: smaller
        scale, then smaller rotation).  All rotations are evaluated
        together as rolls of ``radii``.
        """
        radii = np.asarray(radii, dtype=np.float64)
        if radii.size != self.grid.k:
            raise ValueError(f"radii length {radii.size} != searcher k {self.grid.k}")
        max_s = float(radii.max())
        if max_s > self.radius_bound:
            raise ValueError("shape exceeds the searcher's radius bound")
        rs = self._r_values
        stack = radii[self._roll_index]
        min_bg = self._background_min(stack, max_s, float(rs[-1]))
        # number of scales strictly below each rotation's background minimum
        n_feasible = np.searchsorted(rs, min_bg, side="left")
        feasible = np.flatnonzero(n_feasible)
        if feasible.size:
            # infeasible rotations get rs[0]; their counts are never read
            r = rs[np.maximum(n_feasible, 1) - 1]
            stop = self.grid.reach_stop(float(r[feasible].max()) * max_s)
            area = self._inside_counts(stack, r, stop)
            # largest area, then larger scale; lexsort is stable, so the
            # smaller rotation wins the remaining ties
            order = np.lexsort((-n_feasible[feasible], -area[feasible]))
            best = feasible[order[0]]
            return Alignment(r=float(r[best]),
                             theta=float(self._theta_values[best]))
        r0 = np.full(stack.shape[0], rs[0])
        stop = self.grid.reach_stop(float(rs[0]) * max_s)
        outside = self._inside_counts(stack, r0, stop, self._background)
        return Alignment(r=float(rs[0]),
                         theta=float(self._theta_values[np.argmin(outside)]))


def align(radii, centroid, clump, config=None):
    """One-shot alignment search; see :class:`AlignmentSearcher`."""
    radii = np.asarray(radii, dtype=np.float64)
    searcher = AlignmentSearcher(
        centroid, clump, radii.size, config=config,
        radius_bound=float(radii.max()))
    return searcher.search(radii)
