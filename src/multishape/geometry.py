"""Polar pixel tables for radial shapes.

A radial shape is a closed polygon whose K vertices sit at the angles
2*pi*k/K (counter-clockwise from the +x axis) at per-angle distances from a
fixed center.  Because consecutive vertices are less than pi apart and all
distances are positive, the polygon boundary is a single-valued function of
the polar angle, so the filled region is exactly the set of points whose
distance to the center does not exceed the boundary chord at their angle.

Every raster query in this package reduces to the scale-free quantity

    q(p) = d(p) * (s_u * a(p) + s_v * b(p)) / (s_u * s_v * sin(2*pi/K))

where d is the pixel-center distance, (s_u, s_v) are the two vertex radii
spanning the pixel's angular sector, and a, b are the sines of the angular
offsets to the sector edges.  A pixel lies in the filled region at scale r
precisely when q <= r, which makes containment exactly monotone in r.
Since q >= d / max(radii), pixels beyond r * max(radii) plus a small
rounding margin can never be inside; grid pixels are kept sorted by
distance so such pixels can be skipped by slicing.

That reach cut followed by the test q <= r is the package's single
containment rule, :meth:`RadialGrid.inside`.  Rasterization, the evolution
energy and its probes, and the alignment search's area count all use it.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# Pixels farther than scale * max(radii) + REACH_MARGIN from the center can
# never satisfy q <= scale; the margin absorbs floating-point rounding.
REACH_MARGIN = 2.0


class RadialGrid:
    """Per-pixel polar lookup tables around one center point.

    Covers every canvas pixel whose center lies within ``reach`` of the
    center, ordered by increasing distance (ties by flat index).  The
    tables are shape independent: one grid serves any radii vector of
    length ``k`` at any rotation.  Sector tables are memoized per rotation
    angle so repeated queries at the same angle cost only gathers and
    arithmetic.
    """

    def __init__(self, center, dims, k, reach):
        width, height = int(dims[0]), int(dims[1])
        if width <= 0 or height <= 0:
            raise ValueError("canvas dims must be positive")
        if k < 3:
            raise ValueError("k must be at least 3")
        cx, cy = float(center[0]), float(center[1])
        reach = float(reach)

        x0 = max(int(np.floor(cx - reach)) - 1, 0)
        x1 = min(int(np.ceil(cx + reach)) + 1, width)
        y0 = max(int(np.floor(cy - reach)) - 1, 0)
        y1 = min(int(np.ceil(cy + reach)) + 1, height)
        # an empty range leaves empty tables (center far off the canvas)
        xs = np.arange(x0, x1, dtype=np.float64) + 0.5
        ys = np.arange(y0, y1, dtype=np.float64) + 0.5
        # materialized grids keep every ufunc on contiguous arrays,
        # which evaluates elementwise-identically across grid extents
        dx = np.ascontiguousarray(np.broadcast_to(xs[None, :] - cx,
                                                  (ys.size, xs.size)))
        dy = np.ascontiguousarray(np.broadcast_to(ys[:, None] - cy,
                                                  (ys.size, xs.size)))
        d = np.hypot(dx, dy)
        keep = d <= reach
        yy, xx = np.nonzero(keep)
        flat_index = (yy + y0) * width + (xx + x0)
        dist = d[keep]
        phi = np.arctan2(dy[keep], dx[keep])
        phi = np.where(phi < 0.0, phi + TWO_PI, phi)
        order = np.lexsort((flat_index, dist))
        self.flat_index = flat_index[order]
        self.dist = dist[order]
        self._phi = phi[order]
        self._sin_phi = np.sin(self._phi)
        self._cos_phi = np.cos(self._phi)

        self.center = (cx, cy)
        self.dims = (width, height)
        self.reach = reach
        self.k = int(k)
        self.sector = TWO_PI / self.k
        self._sin_sector = np.sin(self.sector)
        self._theta_tables: dict[float, tuple] = {}

    @property
    def size(self):
        return self.dist.size

    def _sector_table(self, theta):
        theta = float(theta)
        table = self._theta_tables.get(theta)
        if table is None:
            phi_rel = np.mod(self._phi - theta, TWO_PI)
            m = (phi_rel / self.sector).astype(np.int32)
            np.minimum(m, self.k - 1, out=m)
            vertex_angles = theta + self.sector * np.arange(self.k + 1)
            table = (m, np.sin(vertex_angles), np.cos(vertex_angles))
            self._theta_tables[theta] = table
        return table

    def q_values(self, radii, theta, index=slice(None)):
        """Scale-free containment values for the grid pixels at ``index``.

        ``index`` is a slice or an index array into the distance-sorted
        pixels.  ``radii`` may be a (k,) vector or an (n, k) batch; the
        result has shape (m,) or (n, m) for m selected pixels.  A pixel is
        inside the shape scaled by r exactly when its value is <= r.
        """
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape[-1] != self.k:
            raise ValueError(
                f"radii length {radii.shape[-1]} does not match grid k={self.k}")
        m, sin_a, cos_a = self._sector_table(theta)
        m = m[index]
        sin_phi, cos_phi = self._sin_phi[index], self._cos_phi[index]
        dist = self.dist[index]
        a = sin_phi * cos_a[m] - cos_phi * sin_a[m]
        b = cos_phi * sin_a[m + 1] - sin_phi * cos_a[m + 1]
        ext = np.concatenate([radii, radii[..., :1]], axis=-1)
        su = ext[..., m]
        sv = ext[..., m + 1]
        return dist * (su * a + sv * b) / (su * sv * self._sin_sector)

    def inside(self, radii, r, theta):
        """Which grid pixels the shape scaled by ``r`` contains.

        Pixels beyond ``r * max(radii) + REACH_MARGIN`` are never inside, so
        only the first ``stop`` pixels are tested.  Returns ``(stop, inside)``
        with ``inside`` of shape (stop,) for a (k,) radii vector or
        (n, stop) for an (n, k) batch, whose reach is set by its largest
        entry.
        """
        radii = np.asarray(radii, dtype=np.float64)
        reach = r * float(radii.max()) + REACH_MARGIN
        stop = int(np.searchsorted(self.dist, reach, side="right"))
        return stop, self.q_values(radii, theta, slice(0, stop)) <= r

    def mask(self, radii, r, theta):
        """Flat canvas mask of the shape at scale ``r``, rotation ``theta``."""
        width, height = self.dims
        out = np.zeros(height * width, dtype=bool)
        stop, inside = self.inside(radii, r, theta)
        out[self.flat_index[:stop][inside]] = True
        return out
