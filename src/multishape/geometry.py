"""Polar pixel tables for radial shapes.

A radial shape is a closed polygon whose K vertices sit at the angles
2*pi*k/K (counter-clockwise from the +x axis; :func:`ray_angles` is the
package's one copy of that rule) at per-angle distances from a fixed
center.  Because consecutive vertices are less than pi apart and all
distances are positive, the polygon boundary is a single-valued function of
the polar angle, so the filled region is exactly the set of points whose
distance to the center does not exceed the boundary chord at their angle.

Every raster query in this package reduces to the scale-free quantity

    q(p) = A(p) / r[m + 1] + B(p) / r[m]

where m is the angular sector holding pixel p, r[m] and r[m + 1] are the
radii of the sector's two vertices (indices mod K), and

    A = d * a / sin(2*pi/K),    B = d * b / sin(2*pi/K)

with d the pixel-center distance and a, b the sines of the angular offsets
from the sector's first and second edge to the pixel.  A pixel lies in the
filled region at scale r precisely when q <= r, which makes containment
exactly monotone in r.  The region is closed: a pixel center on an edge or
vertex has q == r and is inside.  Its computed q could round either way of
r, so :func:`sector_entries` scales every q down by EDGE_CLOSURE.

The test q <= r is the package's single containment rule, and BOUND_MARGIN
its single distance slack.  It is evaluated in one of two pixel orders, from
the same elementwise pieces (:func:`polar_box`, :func:`polar_angle`,
:func:`sector_entries`, :func:`sector_q`), so both give the same answer for
every pixel:

* a :class:`RadialGrid` keeps its pixels sorted by distance with their
  tables, so repeated queries about one center skip far pixels by slicing.
  The evolution engine's object masks (:meth:`RadialGrid.mask`) and probes
  (:meth:`RadialGrid.inside_near`) and the alignment search use it;
* :func:`box_mask` visits the pixels of the reach's bounding box once and
  keeps nothing, for one-shot fills such as :func:`multishape.rasterize`.

A grid covers only the distances asked of it.  It is built at an extent
chosen by its caller and rebuilt at a larger reach whenever a query reaches
past it.  Its pixels are sorted by distance, ties by flat index, and every
table is computed elementwise, so a grid is always a bitwise-identical
prefix of the grid built at full extent, and the answers of its queries are
the same.

The tables (m, A, B) do not depend on the shape, and rotation only moves
them by whole sectors: rotating the shape by s * 2*pi/K puts vertex j where
vertex j + s was, which is the same as rolling the radii by s.  A rotation
theta is therefore split into a whole-sector shift s and a fractional
offset, snapped to multiples of OFFSET_QUANTUM of a sector
(:func:`split_rotation`); the grid builds one table per fractional offset
the first time it is asked for, and evaluates ``np.roll(radii, s)`` against
it.  Every grid query takes the one form
``RadialGrid.q_values(wrapped_inverse(radii, s), base, index)``.  The T
rotations 2*pi*t/T of the alignment search need T/gcd(K, T) tables, a
single one whenever T divides K.

Two more bounds on q let the containment rule and the alignment search
skip work without changing a single comparison.  With u the pixel's angular
offset from its sector's first edge (so a = sin(u) and b = sin(S - u) for
the sector width S = 2*pi/K), A + B = d * cos(u - S/2) / cos(S/2), which
lies between d and d / cos(pi/K).  Hence

    d / max(r[m], r[m + 1])  <=  q  <=  d / (min(radii) * cos(pi/K)),

so pixels within r * min(radii) * cos(pi/K) are inside at every rotation
(:func:`core_distance`).  Both pixel orders skip the certified core: they
evaluate q only on the annulus between the core and the reach
r * max(radii) (:func:`reach_distance`).  On a grid both stops come from
one query, :meth:`RadialGrid.annulus`, the grid's only stop query, used by
masks, probes and the alignment search alike.  The same sum bounds how far
q moves when the radii change: two shapes whose inverse radii differ by at
most delta give any pixel q values at most delta * d / cos(pi/K) apart, so
a batch of shapes near a reference one is evaluated only on the reference's
boundary band (:meth:`RadialGrid.inside_near`).  Every bound is widened by
BOUND_MARGIN, which suffices: rounding (~1e-14 relative, times
1/sin(2*pi/K) through the angle) and EDGE_CLOSURE move q by a few times
1e-12 relative, under 1e-7 px of distance on canvases up to 10^4 px.

The area of a shape has a ceiling that depends on neither rotation nor
center (:func:`area_ceiling`).  A pixel is inside only if its center lies
in the polygon, so its unit square lies within sqrt(2)/2 of the polygon,
and disjoint squares fit in the polygon's sqrt(2)/2-parallel body.  That
body is covered by the polygon, one outward rectangle per edge and one
circular sector per convex vertex, whose angle is the vertex's exterior
angle (a reflex vertex is never a nearest boundary point from outside).
So a shape at scale r holds at most

    r**2 * A1 + rho * r * P1 + rho**2 * theta_plus / 2

pixels, with rho = sqrt(2)/2, A1 and P1 the area and perimeter of the
shape at scale 1, and theta_plus the sum of its convex vertices' exterior
angles.  BOUND_MARGIN widens rho.

Every bound above assumes K >= 3 radii between MIN_RADIUS, the floor
below which a term A / r of q overflows, and MAX_RADIUS, the ceiling above
which the search's products of scales and radii overflow.  The package's
one check of that rule is :func:`shape_radii`, made where radii enter from
outside (:func:`multishape.rasterize`, :func:`multishape.align`,
:meth:`multishape.AlignmentSearcher.search`, :meth:`RadialGrid.mask`,
the training examples of :class:`WeightedExampleSet` and the mean of
:func:`covariance`); the helpers they call take the checked vector as it
is.  K has one check too, in :func:`ray_angles`, which every K from
outside passes (the :class:`RadialGrid` of a search,
:func:`multishape.sample_shape_vector`,
:func:`multishape.overlapping_degree` and the generator).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

TWO_PI = 2.0 * np.pi

# The one distance slack of every bound on q (see the module docstring).
BOUND_MARGIN = 1e-6

# Factor on every q.  A pixel center on an edge or vertex has exact q == r,
# which computed q rounds either way without the factor; with it, such
# pixels are inside, and only pixels within 1e-12 relative of an edge turn.
EDGE_CLOSURE = 1.0 - 1e-12

# A grid asked past its reach grows to at least GROWTH times that reach.
# Any factor above 1 makes the reaches grow geometrically, so the box work
# of all growths stays within a constant multiple of the last box's;
# a small factor keeps the grid close to what was asked for.
GROWTH = 1.25

# Resolution of a rotation's fractional sector offset.  A power of two, so
# snapping is exact; coarse enough that every theta of one exact offset,
# computed in floating point, lands on the same multiple for K up to ~10^4.
OFFSET_QUANTUM = 2.0 ** -36

# Smallest radius of a shape vector.  Each term A / r of q must stay finite:
# on canvases up to 10^4 px a side (pixel distances d up to 1.42e4 from a
# center on the canvas) and for K up to 10^4, A <= d / sin(2*pi/K) ~=
# 2.3e7, and 2.3e7 / 1.3e-301 ~= 1.73e308 lies below the largest float64,
# 1.80e308.  Below the floor q overflows, and the search and the raster
# would return made-up answers.
MIN_RADIUS = 1.3e-301

# Largest radius of a shape vector.  The search multiplies radii by its
# scales and squares the products in its area ceiling (about K/2 times
# (scale * radius)**2); for K up to 10^4 and scales up to 10^50 that stays
# below 1e304.  A radius of 1e155 on a clump that fills the canvas used to
# overflow the ceiling, and one of 1e308 the search's reach.
MAX_RADIUS = 1e100


def ray_angles(k):
    """The K ray angles 2*pi*j/K of a shape vector, j = 0, ..., K - 1.

    The package's one check of K: it must be an integer (not a bool) of at
    least 3, or ``ValueError`` names it.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 3:
        raise ValueError(f"K must be an integer of at least 3, got {k!r}")
    return TWO_PI * np.arange(k) / k


def shape_radii(radii, k=None):
    """``radii`` as a float64 shape vector, checked.

    Raises ``ValueError`` unless the radii are a vector of at least 3
    values (exactly ``k`` when it is given), all finite, at least
    ``MIN_RADIUS`` and at most ``MAX_RADIUS``, the bounds that keep every
    q and every product of the search finite.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size < 3:
        raise ValueError("radii must be a vector of at least 3 values, "
                         f"got shape {radii.shape}")
    if k is not None and radii.size != k:
        raise ValueError(f"radii must be a vector of K={k} values")
    # two reductions decide; a NaN makes the minimum NaN
    if not MIN_RADIUS <= radii.min() <= radii.max() <= MAX_RADIUS:
        if not np.all(np.isfinite(radii)):
            raise ValueError("radii must be finite")
        raise ValueError(f"radii must be positive, at least {MIN_RADIUS} "
                         f"and at most {MAX_RADIUS}")
    return radii


def split_rotation(theta, k):
    """``(shift, base)`` with ``theta`` = ``shift`` sectors of 2*pi/k plus
    ``base``.

    ``base`` is the canonical angle of the fractional sector offset, in
    [0, 2*pi/k), so every rotation with the same offset shares one table.
    The shape rotated by ``theta`` is the shape with radii
    ``np.roll(radii, shift)`` rotated by ``base``, and
    ``split_rotation(base, k)`` is ``(0, base)``.
    """
    sector = TWO_PI / k
    turns = float(theta) / sector
    whole = math.floor(turns)
    steps = round((turns - whole) / OFFSET_QUANTUM)
    if steps * OFFSET_QUANTUM >= 1.0:
        whole, steps = whole + 1, 0
    return whole % k, steps * OFFSET_QUANTUM * sector


def core_distance(extent, k):
    """Distance within which every pixel is inside, at every rotation.

    ``extent`` is the scale times ``min(radii)``: q <= d / (min(radii) *
    cos(pi/K)), so every pixel within ``extent * cos(pi/K)`` satisfies
    q <= scale.  Elementwise for an array of extents.
    """
    return extent * np.cos(0.5 * (TWO_PI / k)) - BOUND_MARGIN


def on_foreground(mask, x, y):
    """Whether the point (x, y) lies on a foreground pixel of ``mask``.

    The point lies on pixel (floor(x), floor(y)); a point with a
    non-finite coordinate lies on no pixel.
    """
    height, width = mask.shape
    return 0 <= x < width and 0 <= y < height and bool(mask[int(y), int(x)])


def reach_distance(extent):
    """Distance past which q > scale, for ``extent`` = scale * max(radii),
    since q >= d / max(radii).  Elementwise for an array of extents."""
    return np.add(extent, BOUND_MARGIN)


def polar_box(center, dims, reach):
    """Offsets and distances of the canvas pixels in a box about ``center``.

    Returns ``(x0, y0, dx, dy, d)``: the box's first column and row, and
    (rows, cols) arrays of the pixel centers' offsets from ``center`` and
    their distances.  The box holds every canvas pixel within ``reach`` (it
    is empty when there is none).  The offsets are materialized, so every
    ufunc runs on contiguous arrays and evaluates a pixel identically in
    every box that holds it.  The canvas ``dims`` must be positive.
    """
    (cx, cy), (width, height) = center, dims
    if width <= 0 or height <= 0:
        raise ValueError("canvas dims must be positive")
    # clipped to the canvas in floating point: a center far off it, even at
    # 1e300, gives an empty range, not a huge integer one
    x0, x1 = (int(min(max(v, 0), width))
              for v in (np.floor(cx - reach) - 1, np.ceil(cx + reach) + 1))
    y0, y1 = (int(min(max(v, 0), height))
              for v in (np.floor(cy - reach) - 1, np.ceil(cy + reach) + 1))
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5
    dx = np.ascontiguousarray(np.broadcast_to(xs[None, :] - cx,
                                              (ys.size, xs.size)))
    dy = np.ascontiguousarray(np.broadcast_to(ys[:, None] - cy,
                                              (ys.size, xs.size)))
    return x0, y0, dx, dy, np.hypot(dx, dy)


def polar_angle(dx, dy):
    """Angle of the offsets ``(dx, dy)`` in [0, 2*pi), from the +x axis."""
    phi = np.arctan2(dy, dx)
    return np.where(phi < 0.0, phi + TWO_PI, phi)


def sector_entries(phi, dist, base, k):
    """Sector ``m``, ``A`` and ``B`` of pixels at offset ``base``.

    Built elementwise, without reductions, so a pixel's entries do not
    depend on which other pixels are evaluated with it.
    """
    sector = TWO_PI / k
    phi_rel = np.mod(phi - base, TWO_PI)
    m = (phi_rel / sector).astype(np.intp)
    np.minimum(m, k - 1, out=m)
    edge = sector * m
    scale = dist * (EDGE_CLOSURE / np.sin(sector))
    coef_a = scale * np.sin(phi_rel - edge)
    coef_b = scale * np.sin((edge + sector) - phi_rel)
    return m, coef_a, coef_b


def wrapped_inverse(radii, shift=0):
    """Inverse radii rolled by ``shift`` sectors, with the first repeated.

    ``radii`` is a (k,) vector or an (n, k) batch; the result has k + 1
    entries per row, so entry m + 1 is the second vertex of sector m.
    Rolling by ``shift`` rotates the shape by whole sectors (see
    :func:`split_rotation`).
    """
    inv = 1.0 / radii
    start = -shift % inv.shape[-1]
    return np.concatenate([inv[..., start:], inv[..., :start],
                           inv[..., start:start + 1]], axis=-1)


def sector_q(inverse, m, coef_a, coef_b):
    """q of the pixels with table entries ``(m, coef_a, coef_b)``.

    ``inverse`` is the :func:`wrapped_inverse` of a (k,) vector or an (n, k)
    batch of radii, rolled by the whole-sector shift of the rotation whose
    fractional offset the entries were built at.  The result has shape (p,)
    or (n, p).
    """
    q = np.take(inverse[..., 1:], m, axis=-1)
    q *= coef_a
    term = np.take(inverse, m, axis=-1)
    term *= coef_b
    q += term
    return q


@functools.lru_cache(maxsize=8)
def _wrapped_directions(k):
    """Unit vectors at the angles 2*pi*j/k for j = 0, ..., k - 1, 0, 1."""
    angles = ray_angles(k)[np.arange(k + 2) % k]
    directions = np.cos(angles), np.sin(angles)
    for array in directions:
        array.setflags(write=False)
    return directions


def area_ceiling(radii, r):
    """Most pixels the shape ``radii`` can hold at the scales ``r``.

    Elementwise in ``r``, and valid at every rotation and center (see the
    module docstring): ``r**2 * A1 + rho * r * P1 + rho**2 * theta_plus /
    2`` with rho = sqrt(2)/2 + BOUND_MARGIN, whose margin also covers
    EDGE_CLOSURE and the rounding of q and of this sum.
    """
    k = radii.size
    cos, sin = _wrapped_directions(k)
    ring = np.concatenate([radii, radii[:2]])
    x, y = ring * cos, ring * sin
    # edge j runs from vertex j to vertex j + 1, for j = 0, ..., k; vertex
    # j + 1 turns from edge j to edge j + 1, by a positive angle where it
    # is convex
    ex, ey = x[1:] - x[:-1], y[1:] - y[:-1]
    turn = np.arctan2(ex[:-1] * ey[1:] - ey[:-1] * ex[1:],
                      ex[:-1] * ex[1:] + ey[:-1] * ey[1:])
    area = 0.5 * math.sin(TWO_PI / k) * float(ring[:k] @ ring[1:k + 1])
    perimeter = float(np.hypot(ex[:k], ey[:k]).sum())
    theta_plus = float(np.maximum(turn, 0.0).sum())
    rho = math.sqrt(0.5) + BOUND_MARGIN
    r = np.asarray(r, dtype=np.float64)
    return r * r * area + rho * r * perimeter + 0.5 * rho * rho * theta_plus


def box_mask(center, dims, radii, r, theta):
    """(height, width) mask of the shape at scale ``r``, rotation ``theta``.

    The pixels are those of ``RadialGrid(center, dims, k, r *
    max(radii)).mask(radii, r, theta)``, decided by the same rule on the
    same values: pixels within the core are inside, and q is evaluated
    only on the annulus out to the reach.  The pixels are visited in a box
    about the center, so nothing is sorted or kept.
    """
    width, height = int(dims[0]), int(dims[1])
    center = (float(center[0]), float(center[1]))
    k = radii.size
    reach = reach_distance(r * float(radii.max()))
    core = core_distance(r * float(radii.min()), k)
    x0, y0, dx, dy, d = polar_box(center, (width, height), reach)
    inside = d <= core
    ring = d <= reach
    ring &= ~inside
    if ring.any():
        shift, base = split_rotation(theta, k)
        table = sector_entries(polar_angle(dx[ring], dy[ring]), d[ring],
                               base, k)
        inside[ring] = sector_q(wrapped_inverse(radii, shift), *table) <= r
        del table
    rows, cols = inside.shape
    # the canvas is allocated only once the box's float arrays are freed
    del dx, dy, d, ring
    out = np.zeros((height, width), dtype=bool)
    out[y0:y0 + rows, x0:x0 + cols] = inside
    return out


class RadialGrid:
    """Per-pixel polar lookup tables around one center point.

    Holds every canvas pixel whose center lies within ``reach`` of the
    center, ordered by increasing distance (ties by flat index).  The grid
    is built at ``reach_distance(extent)``.  Every query past the reach
    (:meth:`annulus`, or an explicit :meth:`cover`) first rebuilds it at
    the larger of what it needs and ``GROWTH`` times the reach, dropping
    the cached tables.  The order and the elementwise tables make every
    build a bitwise-identical prefix of the grid built at full extent.
    Once the whole canvas is held, ``reach`` is infinite.

    The tables are shape independent: one grid serves any radii vector of
    length ``k`` at any rotation.  They are built once per fractional
    sector offset of the rotation (see :func:`split_rotation`); whole
    sectors of rotation are a roll of the radii.  Every query applies the
    one closed rule q <= r, with BOUND_MARGIN as its only distance slack.
    """

    def __init__(self, center, dims, k, extent):
        self.center = (float(center[0]), float(center[1]))
        self.dims = (int(dims[0]), int(dims[1]))
        # K passes its one check, in ray_angles
        self.k = ray_angles(k).size
        self._build(reach_distance(float(extent)))

    def _build(self, reach):
        """Hold the canvas pixels within ``reach``; drop every cached table."""
        width, height = self.dims
        x0, y0, dx, dy, d = polar_box(self.center, self.dims, reach)
        keep = d <= reach
        yy, xx = np.nonzero(keep)
        dist = d[keep]
        # np.nonzero is row-major, so flat indices ascend and a stable sort
        # breaks distance ties by flat index
        order = np.argsort(dist, kind="stable")
        self.flat_index = ((yy + y0) * width + (xx + x0))[order]
        self.dist = dist[order]
        self._phi = polar_angle(dx[keep], dy[keep])[order]
        self._tables: dict[float, tuple] = {}
        whole = d.shape == (height, width)
        self.reach = np.inf if whole and d.max() <= reach else reach

    def cover(self, distance):
        """Make the grid hold every pixel within ``distance``."""
        if distance > self.reach:
            self._build(max(float(distance), GROWTH * self.reach))

    @property
    def size(self):
        return self.dist.size

    def _sector_table(self, base):
        """Build and keep the per-pixel table at offset ``base``."""
        table = sector_entries(self._phi, self.dist, base, self.k)
        self._tables[base] = table
        return table

    def q_values(self, inverse, base, index=slice(None)):
        """Scale-free containment values for the grid pixels at ``index``.

        ``inverse`` is the :func:`wrapped_inverse` of a (k,) vector or an
        (n, k) batch of radii, rolled by the whole-sector shift of a
        rotation, and ``base`` is that rotation's fractional offset: both
        come from :func:`split_rotation`.  ``index`` is a slice or an index
        array into the distance-sorted pixels.  The result has shape (m,)
        or (n, m) for m selected pixels.  A pixel is inside the shape
        scaled by r exactly when its value is <= r.
        """
        m, coef_a, coef_b = self._tables.get(base) or self._sector_table(base)
        return sector_q(inverse, m[index], coef_a[index], coef_b[index])

    def annulus(self, core_extent, reach_extent):
        """``(lo, stop)``, the grid positions between which q must be
        evaluated for shapes with scale times min(radii) at least
        ``core_extent`` and scale times max(radii) at most ``reach_extent``.

        The first ``lo`` pixels lie within ``core_distance(core_extent)``
        and are inside at every rotation; the pixels from ``stop`` on lie
        past ``reach_distance(reach_extent)`` and are outside, as
        BOUND_MARGIN exceeds the rounding and closure of q.  The grid is
        grown to the reach first.  Requires ``core_extent <=
        reach_extent``, so the core lies within the reach.
        """
        reach = reach_distance(reach_extent)
        self.cover(reach)
        core = core_distance(core_extent, self.k)
        lo, stop = np.searchsorted(self.dist, (core, reach), side="right")
        return int(lo), int(stop)

    def inside_near(self, reference, radii, r, theta):
        """Where an (n, k) batch of shapes near ``reference`` may differ
        from it, at scale ``r`` and rotation ``theta``.

        Returns ``(band, band_inside)``: the grid positions ``band``, and
        the rows' (n, band.size) containment there.  At every other grid
        pixel each row's containment equals the reference's.

        Pixels inside the core of both, or past the reach of both, agree.
        On the annulus between, with delta the largest difference of
        inverse radii, a row's q is within delta * d / cos(pi/K) of the
        reference's (see the module docstring), so a pixel whose reference
        q is farther than that from ``r`` is on the reference's side for
        every row.  (1 - EDGE_CLOSURE) of the largest inverse radius widens
        delta past the rounding of q.  The radii are float arrays from
        :func:`multishape.synthesize` and are not checked.
        """
        lo, stop = self.annulus(r * min(radii.min(), reference.min()),
                                r * max(radii.max(), reference.max()))
        shift, base = split_rotation(theta, self.k)
        inv, inv_ref = (wrapped_inverse(radii, shift),
                        wrapped_inverse(reference, shift))
        q = self.q_values(inv_ref, base, slice(lo, stop))
        delta = float(np.abs(inv - inv_ref).max())
        delta += (1.0 - EDGE_CLOSURE) * max(float(inv.max()),
                                            float(inv_ref.max()))
        width = self.dist[lo:stop] * (delta / math.cos(math.pi / self.k))
        band = np.flatnonzero(np.abs(q - r) <= width)
        band += lo
        return band, self.q_values(inv, base, band) <= r

    def mask(self, radii, r, theta):
        """Flat canvas mask of the (k,) shape ``radii`` at scale ``r``,
        rotation ``theta``.

        Only the :meth:`annulus` of ``r * min(radii)`` and ``r *
        max(radii)`` is tested, by the closed rule q <= r; the pixels
        before it are inside.  ``radii`` must pass :func:`shape_radii`
        with ``k``.
        """
        radii = shape_radii(radii, self.k)
        lo, stop = self.annulus(r * radii.min(), r * radii.max())
        shift, base = split_rotation(theta, self.k)
        inside = self.q_values(wrapped_inverse(radii, shift), base,
                               slice(lo, stop)) <= r
        width, height = self.dims
        out = np.zeros(height * width, dtype=bool)
        out[self.flat_index[:lo]] = True
        out[self.flat_index[lo:stop][inside]] = True
        return out
