"""Grid search for the scale and rotation that fit a shape into the clump.

The search maximizes the overlap with the clump among candidates whose
foreground lies entirely inside it; for feasible candidates the overlap is
just the candidate's own area.  Containment of a pixel at scale r is the
comparison q <= r of the shape's scale-free containment value, so for a
fixed rotation the candidate area is monotone in r and feasibility is a
prefix of the scale grid.  The best candidate at each rotation is therefore
the largest feasible scale, which makes the exhaustive search exact at a
fraction of the brute-force cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CentroidOutsideMask
from .geometry import REACH_MARGIN, TWO_PI, RadialGrid
from .raster import Alignment


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
        reach = self.config.r_max * self.radius_bound + REACH_MARGIN
        self.grid = RadialGrid((cx, cy), (width, height), k, reach)
        self._background = ~clump.reshape(-1)[self.grid.flat_index]
        # grid pixels are distance-sorted, so these are too
        self._bg_positions = np.nonzero(self._background)[0]
        self._bg_dist = self.grid.dist[self._bg_positions]
        self._r_values = self.config.r_values()
        self._theta_values = self.config.theta_values()

    def _background_min(self, radii, theta, max_s, cap):
        """Certified minimum containment value over background pixels.

        Background pixels are scanned outward in growing chunks; once the
        remaining pixels are provably farther than the running minimum (or
        the largest scale of interest) can reach, they cannot change any
        comparison against the scale grid and the scan stops.
        """
        positions = self._bg_positions
        total = positions.size
        minimum = np.inf
        start = 0
        chunk = 1024
        while start < total:
            bound = min(minimum, cap)
            if self._bg_dist[start] > bound * max_s + REACH_MARGIN:
                break
            stop = min(total, start + chunk)
            q = self.grid.q_values(radii, theta, positions[start:stop])
            minimum = min(minimum, float(q.min()))
            start = stop
            chunk *= 4
        return minimum

    def search(self, radii):
        """Best alignment for one radii vector, with deterministic ties.

        Feasible candidates are ranked by overlap area, then larger scale,
        then smaller rotation; for a fixed rotation the best feasible
        candidate is always the largest feasible scale because containment
        is monotone in the scale.  If no candidate fits inside the clump,
        returns the one with the fewest outside pixels (ties: smaller
        scale, then smaller rotation).
        """
        radii = np.asarray(radii, dtype=np.float64)
        if radii.size != self.grid.k:
            raise ValueError(f"radii length {radii.size} != searcher k {self.grid.k}")
        max_s = float(radii.max())
        if max_s > self.radius_bound:
            raise ValueError("shape exceeds the searcher's radius bound")
        rs = self._r_values
        r_cap = float(rs[-1])
        best = None          # (area, r, theta)
        fallback = None      # (outside_count, theta)
        for theta in self._theta_values:
            min_bg = self._background_min(radii, theta, max_s, r_cap)
            feasible = rs < min_bg
            if feasible.any():
                r = float(rs[np.nonzero(feasible)[0][-1]])
                _, inside = self.grid.inside(radii, r, theta)
                area = int(np.count_nonzero(inside))
                if best is None or area > best[0] or (area == best[0] and r > best[1]):
                    best = (area, r, float(theta))
            elif best is None:
                stop, inside = self.grid.inside(radii, float(rs[0]), theta)
                outside = int(np.count_nonzero(inside
                                               & self._background[:stop]))
                if fallback is None or outside < fallback[0]:
                    fallback = (outside, float(theta))
        if best is not None:
            return Alignment(r=best[1], theta=best[2])
        return Alignment(r=float(rs[0]), theta=fallback[1])


def align(radii, centroid, clump, config=None):
    """One-shot alignment search; see :class:`AlignmentSearcher`."""
    radii = np.asarray(radii, dtype=np.float64)
    searcher = AlignmentSearcher(
        centroid, clump, radii.size, config=config,
        radius_bound=float(radii.max()))
    return searcher.search(radii)
