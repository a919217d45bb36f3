import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import multishape as ms
from conftest import disk_mask, ellipse_mask
from oracles import brute_force_align, fill_polygon_oracle, radial_vertices


def grid_q(grid, radii, theta, index=slice(None)):
    """``grid.q_values`` of a (k,) vector or (n, k) batch of radii at
    rotation ``theta``: its whole-sector shift rolls the radii, and its
    fractional offset picks the table."""
    shift, base = ms.geometry.split_rotation(theta, grid.k)
    inverse = ms.geometry.wrapped_inverse(np.asarray(radii, dtype=float),
                                          shift)
    return grid.q_values(inverse, base, index)


class TestRasterize:
    def test_disk_area(self):
        radii = np.full(360, 10.0)
        mask = ms.rasterize(radii, (32.0, 32.0), ms.Alignment(), (64, 64))
        assert abs(mask.sum() - np.pi * 100.0) <= 0.05 * np.pi * 100.0

    def test_scaling_area_ratio(self):
        rng = np.random.default_rng(3)
        radii = 12.0 * (1.0 + 0.1 * np.sin(3 * np.linspace(0, 2 * np.pi, 90,
                                                           endpoint=False)))
        m1 = ms.rasterize(radii, (64.0, 64.0), ms.Alignment(r=1.0), (128, 128))
        m2 = ms.rasterize(radii, (64.0, 64.0), ms.Alignment(r=2.0), (128, 128))
        ratio = m2.sum() / m1.sum()
        assert abs(ratio - 4.0) <= 0.4

    def test_four_fold_symmetry_rotation(self):
        k = 64
        angles = 2 * np.pi * np.arange(k) / k
        radii = 10.0 + 2.0 * np.cos(4 * angles)
        a = ms.rasterize(radii, (32.0, 32.0), ms.Alignment(theta=0.0), (64, 64))
        b = ms.rasterize(radii, (32.0, 32.0), ms.Alignment(theta=np.pi / 2),
                         (64, 64))
        assert np.array_equal(a, b)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        radii = rng.uniform(6, 14, size=48)
        args = (radii, (21.3, 18.7), ms.Alignment(r=1.1, theta=0.37), (48, 40))
        assert np.array_equal(ms.rasterize(*args), ms.rasterize(*args))

    def test_monotone_scaling_subset(self):
        radii = np.full(90, 9.0)
        small = ms.rasterize(radii, (50.0, 50.0), ms.Alignment(r=1.0), (100, 100))
        big = ms.rasterize(radii, (50.0, 50.0), ms.Alignment(r=2.0), (100, 100))
        assert not np.any(small & ~big)

    def test_out_of_bounds_clipped(self):
        radii = np.full(36, 30.0)
        mask = ms.rasterize(radii, (5.0, 5.0), ms.Alignment(), (32, 32))
        assert mask.shape == (32, 32)
        assert mask[0, 0]

    def test_matches_even_odd_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            k = int(rng.integers(8, 32))
            radii = rng.uniform(3.0, 11.0, size=k)
            centroid = (rng.uniform(10, 30), rng.uniform(10, 30))
            alignment = ms.Alignment(r=float(rng.uniform(0.6, 1.5)),
                                     theta=float(rng.uniform(0, 2 * np.pi)))
            mask = ms.rasterize(radii, centroid, alignment, (40, 40))
            vertices = radial_vertices(radii, centroid,
                                       alignment.r, alignment.theta)
            oracle = fill_polygon_oracle(vertices, (40, 40))
            assert np.array_equal(mask, oracle), f"trial {trial}"

    @pytest.mark.parametrize("theta", [0.123, 5.9, -0.4, 7.0])
    def test_non_grid_rotation_matches_oracle(self, theta):
        rng = np.random.default_rng(5)
        for k in (7, 37, 48):
            radii = rng.uniform(4.0, 11.0, size=k)
            alignment = ms.Alignment(r=1.2, theta=theta)
            mask = ms.rasterize(radii, (20.3, 19.6), alignment, (40, 40))
            vertices = radial_vertices(radii, (20.3, 19.6), 1.2, theta)
            oracle = fill_polygon_oracle(vertices, (40, 40))
            assert np.array_equal(mask, oracle), f"k={k}"

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(radii=st.lists(st.floats(0.5, 12.0), min_size=3, max_size=40),
           centroid=st.tuples(st.floats(-4.0, 36.0), st.floats(-4.0, 32.0)),
           r=st.floats(0.3, 2.0), theta=st.floats(-7.0, 7.0))
    def test_matches_oracle_property(self, radii, centroid, r, theta):
        # centroids near and beyond the border clip the shape at the edge
        radii = np.asarray(radii)
        mask = ms.rasterize(radii, centroid, ms.Alignment(r=r, theta=theta),
                            (32, 28))
        oracle = fill_polygon_oracle(
            radial_vertices(radii, centroid, r, theta), (32, 28))
        assert np.array_equal(mask, oracle)


def grid_mask(radii, centroid, r, theta, dims):
    """The shape's mask from a distance-sorted grid at full extent."""
    grid = ms.geometry.RadialGrid(centroid, dims, len(radii),
                                  r * float(np.max(radii)))
    return grid.mask(radii, r, theta).reshape(dims[1], dims[0])


def canvas_coordinate(size):
    """Coordinates off the canvas, on its edges, on pixel centers or
    corners, or anywhere."""
    return st.one_of(st.floats(-10.0, size + 10.0),
                     st.sampled_from([0.0, float(size)]),
                     st.integers(-3, size + 3).map(float),
                     st.integers(-3, size + 3).map(lambda i: i + 0.5))


BAD_RADII = [
    ([4.0, np.nan, 4.0, 4.0], "finite"),
    ([4.0, np.inf, 4.0, 4.0], "finite"),
    ([4.0, -np.inf, 4.0, 4.0], "finite"),
    (np.full((2, 4), 4.0), "vector"),
    ([4.0, 4.0], "at least 3"),
    (4.0, "vector"),
    ([4.0, 0.0, 4.0], "positive"),
    ([4.0, -1.0, 4.0], "positive"),
]

# every entry point that takes radii from outside checks them
SHAPE_DOORS = ("rasterize", "align", "search", "mask", "examples")


def call_shape_door(door, radii):
    """Pass ``radii`` through one entry point.  The search and the grid
    mask are built for one K: the length of a vector of at least 3 radii,
    else 4."""
    shape = np.shape(radii)
    k = shape[0] if len(shape) == 1 and shape[0] >= 3 else 4
    centroid = (8.0, 8.0)
    clump = disk_mask((16, 16), centroid, 6.0)
    if door == "rasterize":
        return ms.rasterize(radii, centroid, ms.Alignment(), (16, 16))
    if door == "align":
        return ms.align(radii, centroid, clump)
    if door == "search":
        return ms.AlignmentSearcher(centroid, clump, k).search(radii)
    if door == "mask":
        grid = ms.geometry.RadialGrid(centroid, (16, 16), k, 4.0)
        return grid.mask(radii, 1.0, 0.0)
    pair = ms.TrainingPair(ms.ClumpScene(clump, [centroid]), [radii])
    return ms.importance.dataset_examples([pair])


def bad_radii_cases():
    """Each bad input at each entry point; the rasterize cases keep the ids
    pytest gives the inputs alone."""
    for door in SHAPE_DOORS:
        prefix = "" if door == "rasterize" else f"{door}-"
        for i, (radii, problem) in enumerate(BAD_RADII):
            name = repr(radii) if np.ndim(radii) == 0 else f"radii{i}"
            yield pytest.param(door, radii, problem,
                               id=f"{prefix}{name}-{problem}")


class TestBoxRaster:
    """The one-shot box fill is the sorted grid's mask, bitwise."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), k=st.sampled_from([3, 4, 12, 37, 48, 360]),
           centroid=st.tuples(canvas_coordinate(32), canvas_coordinate(28)),
           r=st.floats(0.3, 2.0),
           theta=st.one_of(st.floats(-7.0, 7.0),
                           st.integers(-72, 143).map(
                               lambda t: 2 * np.pi * t / 72)))
    def test_matches_radial_grid_property(self, data, k, centroid, r, theta):
        radii = np.asarray(data.draw(st.lists(st.floats(0.5, 12.0),
                                              min_size=k, max_size=k)))
        mask = ms.rasterize(radii, centroid, ms.Alignment(r=r, theta=theta),
                            (32, 28))
        assert mask.shape == (28, 32)
        assert np.array_equal(mask, grid_mask(radii, centroid, r, theta,
                                              (32, 28)))

    def test_lattice_aligned_edges_match_radial_grid_and_oracle(self):
        # vertices and edges through pixel centers, where q rounds either
        # way of r: both pixel orders must agree, and count those pixel
        # centers as inside, as the even-odd oracle does
        cases = 0
        for k in (3, 4, 6, 8, 12):
            for radius in (2.0, 3.5, 4.0, 5.0):
                for centroid in ((16.5, 16.5), (16.0, 16.0),
                                 (10.5, 20.5), (20.0, 11.0)):
                    for theta in (0.0, np.pi / 4, np.pi / 2, np.pi):
                        radii = np.full(k, radius)
                        mask = ms.rasterize(radii, centroid,
                                            ms.Alignment(theta=theta),
                                            (32, 32))
                        want = grid_mask(radii, centroid, 1.0, theta,
                                         (32, 32))
                        assert np.array_equal(mask, want), (k, radius,
                                                            centroid, theta)
                        oracle = fill_polygon_oracle(
                            radial_vertices(radii, centroid, 1.0, theta),
                            (32, 32))
                        assert np.array_equal(mask, oracle), (k, radius,
                                                              centroid, theta)
                        cases += 1
        assert cases == 320

    def test_center_far_off_canvas(self):
        radii = np.full(12, 3.0)
        mask = ms.rasterize(radii, (-50.0, 90.0), ms.Alignment(), (20, 10))
        assert mask.shape == (10, 20) and not mask.any()

    @pytest.mark.parametrize("dims", [(0, 16), (16, 0), (-3, 16)])
    def test_non_positive_canvas_named(self, dims):
        with pytest.raises(ValueError, match="canvas dims must be positive"):
            ms.rasterize(np.full(4, 4.0), (8.0, 8.0), ms.Alignment(), dims)
        with pytest.raises(ValueError, match="canvas dims must be positive"):
            ms.geometry.RadialGrid((8.0, 8.0), dims, 4, 4.0)

    @pytest.mark.parametrize("door, radii, problem", bad_radii_cases())
    def test_bad_radii_named(self, door, radii, problem):
        if door in ("align", "search") and np.isnan(radii).any():
            # a search over NaN radii can loop forever in its background
            # scan, so it runs in a child process with a timeout
            code = ("import json, sys, numpy as np, test_raster_align as t\n"
                    "t.call_shape_door(sys.argv[1], "
                    "np.array(json.loads(sys.argv[2])))")
            child = subprocess.run(
                [sys.executable, "-c", code, door,
                 json.dumps(np.asarray(radii).tolist())],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
            assert re.search(f"ValueError: .*{problem}", child.stderr)
            return
        with pytest.raises(ValueError, match=problem):
            call_shape_door(door, radii)

    @pytest.mark.parametrize("centroid", [(np.nan, 8.0), (8.0, np.inf),
                                          (-np.inf, 8.0)])
    def test_non_finite_centroid_named(self, centroid):
        with pytest.raises(ValueError, match="centroid"):
            ms.rasterize(np.full(4, 4.0), centroid, ms.Alignment(), (16, 16))

    @pytest.mark.parametrize("fields, problem", [
        (dict(r=np.nan), "scale"), (dict(r=np.inf), "scale"),
        (dict(r=0.0), "scale"), (dict(r=-1.0), "scale"),
        (dict(theta=np.nan), "rotation"), (dict(theta=-np.inf), "rotation"),
    ])
    def test_bad_alignment_named(self, fields, problem):
        with pytest.raises(ValueError, match=problem):
            ms.Alignment(**fields)


class TestRadialGrid:
    @pytest.mark.parametrize("k", [37, 360])
    def test_whole_sector_rotation_is_roll(self, k):
        rng = np.random.default_rng(k)
        radii = rng.uniform(8.0, 14.0, size=k)
        grid = ms.geometry.RadialGrid((30.4, 29.7), (60, 60), k, 30.0)
        base = grid_q(grid, radii, 0.0)
        for s in range(0, k, max(1, k // 37)):
            theta = s * 2 * np.pi / k
            rolled = grid_q(grid, np.roll(radii, s), 0.0)
            assert np.array_equal(grid_q(grid, radii, theta), rolled)
            assert s == 0 or not np.array_equal(rolled, base)

    def test_distance_ties_in_flat_order(self):
        # a center on a pixel corner puts four pixels at every distance
        grid = ms.geometry.RadialGrid((20.0, 20.0), (40, 40), 36, 12.0)
        same = np.diff(grid.dist) == 0
        assert np.count_nonzero(same) > 100
        assert np.all(np.diff(grid.dist) >= 0)
        assert np.all(np.diff(grid.flat_index)[same] > 0)

    @pytest.mark.parametrize("k, theta_count", [(360, 72), (48, 72),
                                                (37, 8), (36, 8)])
    def test_one_table_per_fractional_offset(self, k, theta_count):
        center = (24.0, 24.0)
        clump = disk_mask((48, 48), center, 14.0)
        radii = np.full(k, 8.0)
        config = ms.GridSearchConfig(theta_count=theta_count)
        searcher = ms.AlignmentSearcher(center, clump, k, config)
        searcher.search(radii)
        for theta in config.theta_values():
            searcher.grid.mask(radii, 1.0, theta)
        assert len(searcher.grid._tables) == theta_count // np.gcd(
            k, theta_count)

    def test_tables_built_once_per_grid_build(self, monkeypatch):
        """``_sector_table`` builds: once per grid build and table offset,
        across a search and its masks (K=48, T=72: three offsets)."""
        grid_cls = ms.geometry.RadialGrid
        build, table = grid_cls._build, grid_cls._sector_table
        builds, tables = [], []

        def counted_build(grid, reach):
            builds.append(reach)
            build(grid, reach)

        def counted_table(grid, base):
            tables.append((len(builds), base))
            return table(grid, base)

        monkeypatch.setattr(grid_cls, "_build", counted_build)
        monkeypatch.setattr(grid_cls, "_sector_table", counted_table)
        k, center = 48, (24.0, 24.0)
        config = ms.GridSearchConfig(theta_count=72)
        searcher = ms.AlignmentSearcher(center, disk_mask((48, 48), center,
                                                          14.0), k, config)
        radii = bound_radii(k)[2]
        for scale in (1.0, 1.4):
            searcher.search(scale * radii)
            for theta in config.theta_values():
                searcher.grid.mask(scale * radii, 2.0, theta)
        assert len(builds) >= 2
        assert len(tables) == len(set(tables))
        assert {base for _, base in tables} == set(searcher.grid._tables)
        assert len(searcher.grid._tables) == 3
        assert [base for build_no, base in tables
                if build_no == len(builds)] == list(searcher.grid._tables)

    def test_searchers_share_one_rotation_plan(self):
        k = 48
        first = ms.AlignmentSearcher((20.0, 20.0), disk_mask((40, 40),
                                     (20.0, 20.0), 9.0), k)
        second = ms.AlignmentSearcher(
            (31.5, 12.25), disk_mask((64, 32), (31.5, 12.25), 6.0), k,
            ms.GridSearchConfig(r_min=0.5, r_step=0.1))
        assert second._roll_index is first._roll_index
        assert second._offset_rows is first._offset_rows
        assert not first._roll_index.flags.writeable
        assert not any(rows.flags.writeable
                       for _, rows in first._offset_rows)
        thetas = first.config.theta_values()
        for base, rows in first._offset_rows:
            for t in rows:
                shift, own_base = ms.geometry.split_rotation(thetas[t], k)
                assert own_base == base
                assert np.array_equal(first._roll_index[t],
                                      np.roll(np.arange(k), shift)[
                                          np.arange(k + 1) % k])
        assert sorted(np.concatenate([rows for _, rows in
                                      first._offset_rows])) == list(
            range(thetas.size))
        other = ms.AlignmentSearcher((20.0, 20.0), disk_mask((40, 40),
                                     (20.0, 20.0), 9.0), k,
                                     ms.GridSearchConfig(theta_count=36))
        assert other._roll_index.shape == (36, k + 1)


BOUND_CASES = [(36, 8), (37, 8), (48, 72), (360, 72)]


def bound_radii(k):
    """A disk, a mild ripple and a ragged shape, each of length k."""
    rng = np.random.default_rng(k)
    angles = 2 * np.pi * np.arange(k) / k
    return [np.full(k, 9.0),
            9.0 * (1.0 + 0.2 * np.cos(3 * angles + 0.4)),
            rng.uniform(4.0, 12.0, size=k)]


def ceiling_radii(kind, k, rng):
    """Ragged, spiky or round radii of length k, some under a pixel."""
    if kind == "ragged":
        return rng.uniform(0.05, 12.0, size=k)
    if kind == "round":
        return np.full(k, rng.uniform(0.05, 12.0))
    # thin spikes, some along the lattice axes, on a core under a pixel
    radii = np.full(k, rng.uniform(0.05, 2.0))
    axes = [j * k // 4 for j in range(4) if (j * k) % 4 == 0]
    spikes = rng.choice(k, size=int(rng.integers(1, 5)))
    radii[spikes] = rng.uniform(3.0, 16.0)
    radii[axes[:int(rng.integers(0, 3))]] = rng.uniform(3.0, 16.0)
    return radii


class TestSearchBounds:
    """The certificates behind the pruned alignment search and the banded
    probe table."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(3, 360),
           kind=st.sampled_from(["ragged", "round", "spiky"]),
           seed=st.integers(0, 2**32 - 1),
           center=st.tuples(st.floats(30.0, 50.0), st.floats(30.0, 50.0)),
           on_pixel_center=st.booleans(),
           r=st.floats(0.05, 2.0),
           theta_count=st.integers(1, 24))
    def test_area_ceiling_covers_exact_area(self, k, kind, seed, center,
                                            on_pixel_center, r, theta_count):
        rng = np.random.default_rng(seed)
        radii = ceiling_radii(kind, k, rng)
        if on_pixel_center:
            center = (np.floor(center[0]) + 0.5, np.floor(center[1]) + 0.5)
        grid = ms.geometry.RadialGrid(center, (80, 80), k, 1e3)
        ceiling = ms.geometry.area_ceiling(radii, r)
        thetas = ms.GridSearchConfig(theta_count=theta_count).theta_values()
        for theta in [*thetas, rng.uniform(0.0, 2 * np.pi)]:
            exact = np.count_nonzero(grid_q(grid, radii, theta) <= r)
            assert exact <= ceiling, f"theta={theta}"

    @pytest.mark.parametrize("k, theta_count", BOUND_CASES)
    def test_sector_bound_covers_exact_area(self, k, theta_count):
        """The search's area certificate, the polygon's parallel body (one
        rectangle per edge, one sector per convex vertex), covers the exact
        area at every grid scale and rotation."""
        grid = ms.geometry.RadialGrid((30.3, 29.6), (60, 60), k, 26.0)
        config = ms.GridSearchConfig(theta_count=theta_count)
        rs = config.r_values()
        for radii in bound_radii(k):
            ceiling = ms.geometry.area_ceiling(radii, rs)
            for theta in config.theta_values():
                exact = np.count_nonzero(
                    grid_q(grid, radii, theta) <= rs[:, None], axis=1)
                assert np.all(exact <= ceiling), f"theta={theta}"

    def test_area_ceiling_is_elementwise_in_scale(self):
        radii = bound_radii(48)[2]
        rs = ms.GridSearchConfig().r_values()
        assert np.array_equal(ms.geometry.area_ceiling(radii, rs),
                              [ms.geometry.area_ceiling(radii, r)
                               for r in rs])

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(3, 120),
           round_reference=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           center=st.tuples(st.floats(0.0, 59.99), st.floats(0.0, 59.99)),
           r=st.floats(0.3, 2.0),
           theta=st.floats(0.0, 2 * np.pi),
           spread=st.sampled_from([0.0, 1e-3, 0.03, 0.3]))
    def test_inside_near_equals_inside(self, k, round_reference, seed,
                                       center, r, theta, spread):
        rng = np.random.default_rng(seed)
        reference = (np.full(k, rng.uniform(2.0, 12.0)) if round_reference
                     else rng.uniform(2.0, 12.0, size=k))
        # rows scaled as a whole, rows moved per vertex, the reference
        # itself, and rows floored like synthesize's radii
        rows = [reference * (1.0 + spread * rng.standard_normal()),
                reference * (1.0 + spread * rng.standard_normal(k)),
                reference,
                np.maximum(reference * (1.0 - 3.0 * spread), 2.5)]
        grid = ms.geometry.RadialGrid(center, (60, 60), k, 0.0)
        band, band_inside = grid.inside_near(reference, np.stack(rows), r,
                                             theta)
        for row, inside in zip(rows, band_inside):
            got = grid.mask(reference, r, theta)
            got[grid.flat_index[band]] = inside
            assert np.array_equal(got, grid.mask(row, r, theta))

    @pytest.mark.parametrize("k, theta_count", BOUND_CASES)
    def test_core_is_inside_at_every_rotation(self, k, theta_count):
        grid = ms.geometry.RadialGrid((30.3, 29.6), (60, 60), k, 26.0)
        config = ms.GridSearchConfig(theta_count=theta_count)
        for radii in bound_radii(k):
            for r in config.r_values():
                core, _ = grid.annulus(r * radii.min(), r * radii.max())
                assert core > 0
                for theta in config.theta_values():
                    q = grid_q(grid, radii, theta, slice(0, core))
                    assert np.all(q <= r), f"r={r} theta={theta}"

    @pytest.mark.parametrize("k, theta_count", BOUND_CASES)
    def test_inside_skips_only_the_core(self, k, theta_count):
        """``mask`` evaluates only the annulus, and the core it skips is
        inside; banded batches are covered by the inside_near tests."""
        grid = ms.geometry.RadialGrid((30.3, 29.6), (60, 60), k, 26.0)
        config = ms.GridSearchConfig(theta_count=theta_count)
        width, height = grid.dims
        for radii in bound_radii(k):
            for r in config.r_values()[::8]:
                for theta in config.theta_values():
                    lo, stop = grid.annulus(r * radii.min(), r * radii.max())
                    full = grid_q(grid, radii, theta)[:stop] <= r
                    assert 0 < lo <= stop
                    assert np.all(full[:lo]), f"r={r} theta={theta}"
                    want = np.zeros(width * height, dtype=bool)
                    want[grid.flat_index[:stop][full]] = True
                    assert np.array_equal(grid.mask(radii, r, theta), want)


GROWTH_CENTERS = [(0.0, 0.0), (29.5, 0.25), (23.37, 31.81)]
GROWTH_KS = [36, 37, 48, 360]
GROWTH_DIMS = (60, 48)


def grid_pair(center, k):
    """A fresh grid started tiny and the same grid built at full extent."""
    small = ms.geometry.RadialGrid(center, GROWTH_DIMS, k, 0.0)
    full = ms.geometry.RadialGrid(center, GROWTH_DIMS, k, 1000.0)
    assert full.reach == np.inf and small.size < 20
    return small, full


def assert_prefix(small, full, bases):
    n = small.size
    assert np.array_equal(small.flat_index, full.flat_index[:n])
    assert np.array_equal(small.dist, full.dist[:n])
    for base in bases:
        for got, want in zip(small._sector_table(base),
                             full._sector_table(base)):
            assert np.array_equal(got, want[:n])


class TestGridGrowth:
    """A grid grown on demand is a bitwise prefix of the full grid."""

    @pytest.mark.parametrize("center", GROWTH_CENTERS)
    @pytest.mark.parametrize("k", GROWTH_KS)
    def test_grown_tables_equal_full_grid(self, center, k):
        small, full = grid_pair(center, k)
        bases = sorted({ms.geometry.split_rotation(t, k)[1]
                        for t in ms.GridSearchConfig().theta_values()})
        # tables built before growth are dropped and rebuilt from the larger
        # grid; the rebuilt tables must still equal the full grid's prefix
        for base in bases[:2]:
            small._sector_table(base)
        for extent in (3.0, 4.5, 11.0, 30.0, 90.0):
            assert small.annulus(extent, extent) == full.annulus(extent,
                                                                 extent)
            assert_prefix(small, full, bases)
        assert small.reach == np.inf and small.size == full.size

    @pytest.mark.parametrize("center", GROWTH_CENTERS)
    @pytest.mark.parametrize("k", GROWTH_KS)
    def test_core_stop_grows_first(self, center, k):
        """The annulus's core stop is taken on the grown grid: its reach
        covers the core."""
        small, full = grid_pair(center, k)
        for extent in (5.0, 17.5, 40.0):
            assert small.annulus(extent, 1.25 * extent) == full.annulus(
                extent, 1.25 * extent)
        assert_prefix(small, full, [0.0])

    @pytest.mark.parametrize("center", GROWTH_CENTERS)
    @pytest.mark.parametrize("k", GROWTH_KS)
    def test_inside_near_grows_first(self, center, k):
        small, full = grid_pair(center, k)
        reference = bound_radii(k)[1]
        radii = reference * np.array([[0.9], [1.0], [1.1]])
        theta = 0.3
        for got, want in zip(small.inside_near(reference, radii, 1.2, theta),
                             full.inside_near(reference, radii, 1.2, theta)):
            assert got.size and np.array_equal(got, want)
        assert_prefix(small, full, [ms.geometry.split_rotation(theta, k)[1]])

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(radii=st.lists(st.floats(1.0, 9.0), min_size=5, max_size=40),
           axes=st.tuples(st.floats(0.2, 14.0), st.floats(0.2, 14.0)),
           tilt=st.floats(0.0, np.pi),
           center=st.tuples(st.floats(0.0, 31.99), st.floats(0.0, 31.99)),
           r_min=st.floats(0.3, 1.0),
           n_scales=st.integers(1, 6),
           theta_count=st.integers(1, 12))
    def test_small_searcher_matches_brute_force(
            self, radii, axes, tilt, center, r_min, n_scales, theta_count):
        # clumps clipped at the canvas edge, and single-pixel ones that no
        # shape fits (the infeasible fallback)
        radii = np.asarray(radii)
        clump = ellipse_mask((32, 32), center, axes[0], axes[1], tilt)
        clump[int(center[1]), int(center[0])] = True
        config = ms.GridSearchConfig(r_min=r_min,
                                     r_max=r_min + 0.25 * (n_scales - 0.5),
                                     r_step=0.25, theta_count=theta_count)
        searcher = ms.AlignmentSearcher(center, clump, radii.size, config)
        # restart from a grid that holds only the nearest pixels
        searcher.grid = ms.geometry.RadialGrid(center, (32, 32), radii.size,
                                               0.0)
        searcher._synced = -1   # the background of the replaced grid is stale
        assert searcher.search(radii) == brute_force_align(
            radii, center, clump, config.r_values(), config.theta_values(),
            ms.rasterize, ms.Alignment)

class TestUnion:
    def test_idempotent(self):
        m = disk_mask((32, 32), (16, 16), 6)
        assert np.array_equal(ms.union([m, m]), m)

    def test_disjoint_sum(self):
        a = disk_mask((64, 32), (12, 16), 5)
        b = disk_mask((64, 32), (48, 16), 5)
        assert ms.union([a, b]).sum() == a.sum() + b.sum()

    def test_empty_list(self):
        with pytest.raises(ms.EmptyInput):
            ms.union([])

    def test_dimension_mismatch(self):
        with pytest.raises(ms.DimensionMismatch):
            ms.union([np.zeros((4, 4), bool), np.zeros((5, 4), bool)])

    def test_contains_inputs(self):
        rng = np.random.default_rng(1)
        a = rng.random((16, 16)) < 0.3
        b = rng.random((16, 16)) < 0.3
        u = ms.union([a, b])
        assert not np.any(a & ~u) and not np.any(b & ~u)


class TestAlign:
    def test_self_alignment(self):
        center = (40.0, 40.0)
        clump = disk_mask((80, 80), center, 18.0)
        radii = ms.sample_shape_vector(clump, center, 360)
        result = ms.align(radii, center, clump)
        assert abs(result.r - 1.0) <= 0.05 + 1e-9

    def test_concentric_disks_max_scale(self):
        center = (40.0, 40.0)
        clump = disk_mask((80, 80), center, 20.0)
        radii = np.full(360, 10.0)
        result = ms.align(radii, center, clump)
        assert result.r == pytest.approx(2.0)

    def test_rotated_ellipse(self):
        center = (48.0, 48.0)
        clump = ellipse_mask((96, 96), center, 24.0, 10.0, rotation=np.pi / 4)
        k = 180
        angles = 2 * np.pi * np.arange(k) / k
        # shape: the same ellipse axis-aligned, slightly shrunk
        radii = 0.9 * (24.0 * 10.0) / np.hypot(10.0 * np.cos(angles),
                                               24.0 * np.sin(angles))
        result = ms.align(radii, center, clump)
        step = 2 * np.pi / 72
        # the ellipse has two-fold symmetry
        dist = min(abs(result.theta - np.pi / 4) % np.pi,
                   np.pi - abs(result.theta - np.pi / 4) % np.pi)
        assert dist <= step + 1e-9

    def test_matches_brute_force(self):
        # table offsets per search: 2 for K=36 against 8 rotations, 8 for
        # the coprime K=37, 3 for K=48 against 72
        rng = np.random.default_rng(17)
        for k, theta_count in ((36, 8), (37, 8), (48, 72)):
            config = ms.GridSearchConfig(r_min=0.5, r_max=1.5, r_step=0.25,
                                         theta_count=theta_count)
            r_values = config.r_values()
            theta_values = config.theta_values()
            for trial in range(6):
                center = (24.0 + rng.uniform(-2, 2),
                          24.0 + rng.uniform(-2, 2))
                clump = ellipse_mask((48, 48), center,
                                     rng.uniform(10, 16), rng.uniform(7, 12),
                                     rotation=rng.uniform(0, np.pi))
                radii = rng.uniform(5.0, 9.0) * np.ones(k) \
                    * (1.0 + 0.15 * np.cos(2 * np.pi * np.arange(k) / k * 2
                                           + rng.uniform(0, 6)))
                fast = ms.AlignmentSearcher(center, clump, k, config)
                got = fast.search(radii)
                expected = brute_force_align(radii, center, clump, r_values,
                                             theta_values, ms.rasterize,
                                             ms.Alignment)
                assert got == expected, f"k={k} trial {trial}"

    def test_winner_below_largest_feasible_scale(self):
        # small shapes on a fine scale grid: a rotation that fits only at
        # a smaller scale can still cover the most pixels
        below = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            k = int(rng.choice([12, 36, 37]))
            config = ms.GridSearchConfig(r_min=0.5, r_max=2.0, r_step=0.01,
                                         theta_count=int(rng.choice([8, 12])))
            center = (12.0 + rng.uniform(-0.5, 0.5),
                      12.0 + rng.uniform(-0.5, 0.5))
            clump = ellipse_mask((24, 24), center, rng.uniform(3, 7),
                                 rng.uniform(2, 5),
                                 rotation=rng.uniform(0, np.pi))
            radii = rng.uniform(1.5, 4.0, size=k)
            got = ms.align(radii, center, clump, config)
            assert got == brute_force_align(
                radii, center, clump, config.r_values(),
                config.theta_values(), ms.rasterize, ms.Alignment), seed
            # feasibility is a prefix of the scales, so some rotation fits
            # above the winner's scale iff one fits at the next scale up
            rs = config.r_values()
            above = rs[rs > got.r + 1e-9]
            below += above.size > 0 and any(
                not np.any(ms.rasterize(radii, center,
                                        ms.Alignment(float(above[0]), theta),
                                        (24, 24)) & ~clump)
                for theta in config.theta_values())
        assert below >= 2

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(radii=st.lists(st.floats(1.0, 9.0), min_size=5, max_size=40),
           axes=st.tuples(st.floats(1.0, 14.0), st.floats(1.0, 14.0)),
           tilt=st.floats(0.0, np.pi),
           offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           r_min=st.floats(0.3, 1.0),
           n_scales=st.integers(1, 6),
           r_step=st.sampled_from([0.02, 0.1, 0.25]),
           theta_count=st.integers(1, 12))
    def test_search_matches_brute_force_property(
            self, radii, axes, tilt, offset, r_min, n_scales, r_step,
            theta_count):
        radii = np.asarray(radii)
        center = (16.0 + offset[0], 16.0 + offset[1])
        clump = ellipse_mask((32, 32), center, axes[0], axes[1], tilt)
        config = ms.GridSearchConfig(
            r_min=r_min, r_max=r_min + r_step * (n_scales - 0.5),
            r_step=r_step, theta_count=theta_count)
        assert ms.align(radii, center, clump, config) == brute_force_align(
            radii, center, clump, config.r_values(), config.theta_values(),
            ms.rasterize, ms.Alignment)

    def test_equal_area_prefers_larger_scale(self):
        # only the centroid pixel fits; rotations with an edge (not a
        # vertex) towards the 4-neighbours reach one scale step further
        clump = np.zeros((32, 32), dtype=bool)
        clump[16, 16] = True
        radii = np.full(36, 1.0)
        config = ms.GridSearchConfig()
        result = ms.align(radii, (16.5, 16.5), clump)
        assert result == brute_force_align(
            radii, (16.5, 16.5), clump, config.r_values(),
            config.theta_values(), ms.rasterize, ms.Alignment)
        assert result.r == pytest.approx(1.0) and result.theta > 0.0

    def test_far_background_limits_scale(self):
        # a needle in a needle-shaped clump: the background past the
        # clump's tips, far beyond the background nearest the centroid,
        # bounds the aligned rotation's scale
        center = (80.0, 80.0)
        clump = ellipse_mask((160, 160), center, 40.0, 5.0)
        k = 36
        angles = 2 * np.pi * np.arange(k) / k
        radii = 90.0 / np.hypot(3.0 * np.cos(angles), 30.0 * np.sin(angles))
        config = ms.GridSearchConfig(r_min=1.0, r_max=1.6, r_step=0.05,
                                     theta_count=24)
        result = ms.align(radii, center, clump, config)
        assert result == brute_force_align(
            radii, center, clump, config.r_values(), config.theta_values(),
            ms.rasterize, ms.Alignment)
        assert result.r < 1.5

    def test_grid_grown_between_searches(self):
        # a mask grows the grid past the background the last search saw;
        # the next search must scan the new pixels too
        center = (80.0, 80.0)
        clump = ellipse_mask((160, 160), center, 40.0, 5.0)
        k = 36
        angles = 2 * np.pi * np.arange(k) / k
        needle = 90.0 / np.hypot(3.0 * np.cos(angles), 30.0 * np.sin(angles))
        config = ms.GridSearchConfig(r_min=1.0, r_max=1.6, r_step=0.05,
                                     theta_count=24)
        searcher = ms.AlignmentSearcher(center, clump, k, config)
        searcher.search(np.full(k, 2.0))
        searcher.grid.mask(needle, 1.6, 0.0)
        assert searcher.search(needle) == ms.align(needle, center, clump,
                                                   config)

    def test_feasible_result_is_subset(self):
        center = (40.0, 40.0)
        clump = ellipse_mask((80, 80), center, 22.0, 14.0, rotation=0.3)
        radii = np.full(90, 9.0)
        result = ms.align(radii, center, clump)
        mask = ms.rasterize(radii, center, result, (80, 80))
        assert not np.any(mask & ~clump)

    def test_infeasible_fallback(self):
        # clump too small for the shape at the smallest scale
        center = (16.0, 16.0)
        clump = disk_mask((32, 32), center, 2.0)
        radii = np.full(36, 30.0)
        result = ms.align(radii, center, clump)
        assert result.r == pytest.approx(0.3)
        config = ms.GridSearchConfig()
        assert result == brute_force_align(
            radii, center, clump, config.r_values(), config.theta_values(),
            ms.rasterize, ms.Alignment)
        # an elongated shape over a thin clump: the rotation decides how
        # many pixels spill outside
        center = (20.0, 20.0)
        clump = ellipse_mask((40, 40), center, 9.0, 2.0, rotation=0.7)
        for k, theta_count in ((36, 24), (37, 8), (48, 72)):
            angles = 2 * np.pi * np.arange(k) / k
            radii = 30.0 / np.hypot(np.cos(angles), 3.0 * np.sin(angles))
            config = ms.GridSearchConfig(r_min=0.5, r_max=1.0, r_step=0.25,
                                         theta_count=theta_count)
            result = ms.align(radii, center, clump, config)
            assert result.theta != 0.0
            assert result == brute_force_align(
                radii, center, clump, config.r_values(),
                config.theta_values(), ms.rasterize, ms.Alignment), f"k={k}"

    def test_neighbors_order(self):
        clump = disk_mask((48, 48), (24.0, 24.0), 14.0)
        config = ms.GridSearchConfig(r_min=0.5, r_max=1.0, r_step=0.25,
                                     theta_count=4)
        searcher = ms.AlignmentSearcher((24.0, 24.0), clump, 36, config)
        rs, thetas = config.r_values(), config.theta_values()

        def pairs(alignment):
            return [(a.r, a.theta) for a in searcher.neighbors(alignment)]

        # larger scale, smaller scale, next rotation, previous rotation
        assert pairs(ms.Alignment(r=rs[1], theta=thetas[1])) == [
            (rs[2], thetas[1]), (rs[0], thetas[1]),
            (rs[1], thetas[2]), (rs[1], thetas[0])]
        # no scale step past either end; rotations wrap around
        assert pairs(ms.Alignment(r=rs[0], theta=thetas[0])) == [
            (rs[1], thetas[0]), (rs[0], thetas[1]), (rs[0], thetas[3])]
        assert pairs(ms.Alignment(r=rs[2], theta=thetas[3])) == [
            (rs[1], thetas[3]), (rs[2], thetas[0]), (rs[2], thetas[2])]

    def test_centroid_outside_clump(self):
        clump = disk_mask((32, 32), (16.0, 16.0), 5.0)
        with pytest.raises(ms.CentroidOutsideMask):
            ms.align(np.full(36, 4.0), (2.0, 2.0), clump)

    # on the background, off the canvas, or not finite
    @pytest.mark.parametrize("point", [
        (2.0, 2.0), (-0.5, 16.0), (32.0, 16.0), (16.0, 32.5),
        (np.nan, 16.0), (16.0, np.inf), (-np.inf, 16.0), (np.inf, np.nan)])
    def test_one_centroid_rule(self, point):
        """Scenes, searchers and the ray sampler reject the same points."""
        clump = disk_mask((32, 32), (16.0, 16.0), 5.0)
        for build in (lambda: ms.ClumpScene(clump, [point]),
                      lambda: ms.AlignmentSearcher(point, clump, 36),
                      lambda: ms.sample_shape_vector(clump, point, 36)):
            with pytest.raises(ms.CentroidOutsideMask):
                build()


MASKS = arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 24)))
# header pieces, well-formed and not, joined by random separators
HEADER_TOKENS = st.one_of(
    st.sampled_from([b"P5", b"P2", b"P6", b"P", b"#", b"# note\n", b"0",
                     b"-1", b"1", b"3", b"255", b"256", b"1e3", b"0x10",
                     b"x", b"\xff", b"4000000000", b"1" * 24]),
    st.binary(max_size=4))


class TestNetpbm:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(mask=MASKS)
    def test_pgm_round_trip_property(self, tmp_path_factory, mask):
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        ms.write_pgm(path, mask)
        got = ms.read_pgm(path)
        assert got.dtype == bool and np.array_equal(got, mask)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(mask=MASKS, maxval=st.integers(1, 255), data=st.data())
    def test_ascii_pgm_round_trip_property(self, tmp_path_factory, mask,
                                           maxval, data):
        values = np.where(mask, data.draw(arrays(
            np.int64, mask.shape, elements=st.integers(1, maxval))), 0)
        height, width = mask.shape
        text = f"P2\n# written by hand\n{width} {height}\n{maxval}\n" + \
            "\n".join(" ".join(map(str, row)) for row in values) + "\n"
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        path.write_text(text)
        assert np.array_equal(ms.read_pgm(path), mask)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(tokens=st.lists(HEADER_TOKENS, max_size=6),
           seps=st.lists(st.sampled_from([b" ", b"\n", b"\t", b"", b"#"]),
                         min_size=6, max_size=6),
           tail=st.binary(max_size=24))
    def test_header_fuzz_raises_only_dataset_io_error(
            self, tmp_path_factory, tokens, seps, tail):
        blob = b"".join(t + sep for t, sep in zip(tokens, seps)) + tail
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        path.write_bytes(blob)
        try:
            mask = ms.read_pgm(path)
        except ms.DatasetIOError:
            return
        assert mask.dtype == bool and mask.ndim == 2 and mask.size > 0

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(size=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           tokens=st.lists(HEADER_TOKENS, max_size=10))
    def test_ascii_raster_fuzz_raises_only_dataset_io_error(
            self, tmp_path_factory, size, tokens):
        header = f"P2\n{size[0]} {size[1]}\n255\n".encode()
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        path.write_bytes(header + b" ".join(tokens))
        try:
            mask = ms.read_pgm(path)
        except ms.DatasetIOError:
            return
        assert mask.shape == (size[1], size[0])

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        mask = rng.random((19, 27)) < 0.4
        path = tmp_path / "m.pgm"
        ms.write_pgm(path, mask)
        assert np.array_equal(ms.read_pgm(path), mask)

    def test_ascii_pgm(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 255 0\n7 0 255\n")
        mask = ms.read_pgm(path)
        assert np.array_equal(mask, [[False, True, False],
                                     [True, False, True]])

    def test_nonzero_is_foreground(self, tmp_path):
        path = tmp_path / "m.pgm"
        header = b"P5\n2 2\n255\n"
        path.write_bytes(header + bytes([0, 1, 128, 255]))
        assert np.array_equal(ms.read_pgm(path),
                              [[False, True], [True, True]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ms.DatasetIOError):
            ms.read_pgm(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("size", [b"-3 4", b"4 -3", b"0 0", b"0 4"])
    def test_non_positive_size(self, tmp_path, size):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n")
        with pytest.raises(ms.DatasetIOError):
            ms.read_pgm(path)

    def test_oversized_header(self, tmp_path):
        # the header promises 1.6e19 pixels; nothing that large is allocated
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4000000000 4000000000\n255\n")
        with pytest.raises(ms.DatasetIOError, match="truncated raster"):
            ms.read_pgm(path)

    def test_ppm_write(self, tmp_path):
        rgb = np.zeros((4, 5, 3), dtype=np.uint8)
        rgb[1, 2] = (255, 10, 20)
        path = tmp_path / "o.ppm"
        ms.write_ppm(path, rgb)
        data = path.read_bytes()
        assert data.startswith(b"P6\n5 4\n255\n")
        assert len(data) == len(b"P6\n5 4\n255\n") + 60
