import numpy as np
import pytest

import multishape as ms
from conftest import disk_mask, ellipse_mask
from oracles import brute_force_align, fill_polygon_oracle, radial_vertices


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
        rng = np.random.default_rng(17)
        config = ms.GridSearchConfig(r_min=0.5, r_max=1.5, r_step=0.25,
                                     theta_count=8)
        r_values = config.r_values()
        theta_values = config.theta_values()
        for trial in range(6):
            center = (24.0 + rng.uniform(-2, 2), 24.0 + rng.uniform(-2, 2))
            clump = ellipse_mask((48, 48), center,
                                 rng.uniform(10, 16), rng.uniform(7, 12),
                                 rotation=rng.uniform(0, np.pi))
            k = 36
            radii = rng.uniform(5.0, 9.0) * np.ones(k) \
                * (1.0 + 0.15 * np.cos(2 * np.pi * np.arange(k) / k * 2
                                       + rng.uniform(0, 6)))
            fast = ms.AlignmentSearcher(center, clump, k, config,
                                        radius_bound=float(radii.max()))
            got = fast.search(radii)
            expected = brute_force_align(radii, center, clump, r_values,
                                         theta_values, ms.rasterize,
                                         ms.Alignment)
            assert got == expected, f"trial {trial}"

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

    def test_centroid_outside_clump(self):
        clump = disk_mask((32, 32), (16.0, 16.0), 5.0)
        with pytest.raises(ms.CentroidOutsideMask):
            ms.align(np.full(36, 4.0), (2.0, 2.0), clump)


class TestNetpbm:
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

    def test_ppm_write(self, tmp_path):
        rgb = np.zeros((4, 5, 3), dtype=np.uint8)
        rgb[1, 2] = (255, 10, 20)
        path = tmp_path / "o.ppm"
        ms.write_ppm(path, rgb)
        data = path.read_bytes()
        assert data.startswith(b"P6\n5 4\n255\n")
        assert len(data) == len(b"P6\n5 4\n255\n") + 60
