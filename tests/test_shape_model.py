import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multishape as ms
from multishape.shape_model import RADIUS_FLOOR
from conftest import disk_family_examples, disk_mask, ellipse_mask
from oracles import full_ray_walk, ray_rectangle_exit


def example_set(rows, weights=None):
    examples = [ms.ShapeExample(f"s{i}", 0, np.asarray(r, dtype=float))
                for i, r in enumerate(rows)]
    return ms.WeightedExampleSet(examples, weights=weights)


class TestSampling:
    def test_disk_radii(self):
        center = (32.0, 32.0)
        mask = disk_mask((64, 64), center, 10.0)
        radii = ms.sample_shape_vector(mask, center, 4)
        assert np.allclose(radii, 10.0, atol=0.5)

    def test_rectangle_matches_ray_oracle(self):
        width, height = 64, 48
        cx, cy = 31, 23
        mask = np.zeros((height, width), dtype=bool)
        mask[cy - 5:cy + 6, cx - 10:cx + 11] = True
        centroid = (cx + 0.5, cy + 0.5)
        radii = ms.sample_shape_vector(mask, centroid, 4)
        expected = [
            ray_rectangle_exit(centroid[0], centroid[1], a,
                               cx - 10, cx + 11, cy - 5, cy + 6)
            for a in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
        ]
        assert np.allclose(expected, [10.5, 5.5, 10.5, 5.5])
        assert np.all(np.abs(radii - np.asarray(expected)) <= 0.5)

    def test_centroid_on_background_rejected(self):
        mask = disk_mask((64, 64), (32.0, 32.0), 10.0)
        with pytest.raises(ms.CentroidOutsideMask):
            ms.sample_shape_vector(mask, (2.0, 2.0), 8)

    def test_single_pixel_mask_degenerate(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[8, 8] = True
        with pytest.raises(ms.DegenerateMask):
            ms.sample_shape_vector(mask, (8.5, 8.5), 8)

    # (mask, centroid) pairs whose rays end in awkward places
    WALK_CASES = {
        "top_left_edges": lambda dims: (disk_mask(dims, (3.5, 4.5), 9.0),
                                        (3.5, 4.5)),
        "bottom_right_edges": lambda dims: (
            ellipse_mask(dims, (35.2, 26.7), 12.0, 6.0, 0.4), (35.2, 26.7)),
        # a disk with a bite, so rays leave the mask and re-enter it
        "concave": lambda dims: (
            disk_mask(dims, (20.0, 15.0), 12.0)
            & ~disk_mask(dims, (27.0, 12.0), 6.0), (14.3, 15.6)),
        # a second blob past the first, near the canvas corner
        "detached": lambda dims: (
            disk_mask(dims, (12.0, 12.0), 5.0)
            | disk_mask(dims, (36.0, 27.0), 2.5), (12.7, 11.2)),
    }

    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_bounded_walk_matches_full_canvas_walk(self, case):
        mask, centroid = self.WALK_CASES[case]((40, 30))
        for k in (7, 72):
            assert np.array_equal(ms.sample_shape_vector(mask, centroid, k),
                                  full_ray_walk(mask, centroid, k,
                                                ms.shape_model.RAY_STEP))

    def test_positive_radii(self):
        mask = disk_mask((48, 48), (24.0, 24.0), 7.0)
        radii = ms.sample_shape_vector(mask, (24.0, 24.0), 36)
        assert np.all(radii > 0)

    def test_farthest_sample_on_box_edge(self):
        # ray 1 (cos = -0.4999999999999998) reaches x = 0.0 exactly, the
        # box's left edge, at step 7, while its computed exit distance is
        # 6.999999999999999 steps: a walk that starts at floor(exit / step)
        # misses the farthest hit
        mask = np.zeros((10, 8), dtype=bool)
        mask[2, 1] = mask[2, 2] = mask[5, 0] = True
        centroid = (1.7499999999999991, 2.5)
        radii = ms.sample_shape_vector(mask, centroid, 3)
        assert radii[1] == 3.5
        assert np.array_equal(radii, full_ray_walk(mask, centroid, 3,
                                                   ms.shape_model.RAY_STEP))

    def test_degenerate_names_lowest_ray(self):
        # ray 2 runs out of steps within the first walk block, ray 0 (whose
        # box exit is ~70 steps out) only in a later one
        mask = np.zeros((12, 48), dtype=bool)
        mask[6, 4] = True
        mask[2:4, 30:40] = True
        with pytest.raises(ms.DegenerateMask, match=r"^ray 0 found"):
            ms.sample_shape_vector(mask, (4.5, 6.5), 8)

    @staticmethod
    @st.composite
    def masks_and_centroids(draw):
        """Blobs that may be detached or clipped at canvas edges and corners,
        plus stray pixels, with a centroid anywhere on the foreground."""
        width, height = draw(st.integers(1, 32)), draw(st.integers(1, 28))
        mask = np.zeros((height, width), dtype=bool)
        for _ in range(draw(st.integers(1, 3))):
            x, y = draw(st.integers(-6, width)), draw(st.integers(-6, height))
            w, h = draw(st.integers(1, 14)), draw(st.integers(1, 14))
            if draw(st.booleans()):
                mask[max(y, 0):y + h, max(x, 0):x + w] = True
            else:
                mask |= disk_mask((width, height), (x + 0.5 * w, y + 0.5 * h),
                                  0.5 * min(w, h))
        for _ in range(draw(st.integers(0, 4))):
            mask[draw(st.integers(0, height - 1)),
                 draw(st.integers(0, width - 1))] = True
        foreground = np.argwhere(mask)
        if not foreground.size:
            mask[0, 0] = True
            foreground = np.argwhere(mask)
        py, px = foreground[draw(st.integers(0, len(foreground) - 1))]
        # px + offset must still floor to px
        offset = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)
        centroid = (px + draw(offset), py + draw(offset))
        return mask, centroid

    @settings(max_examples=250, deadline=None, derandomize=True,
              database=None)
    @given(case=masks_and_centroids(), k=st.sampled_from([3, 37, 48, 360]))
    def test_matches_full_walk_property(self, case, k):
        mask, centroid = case
        expected = full_ray_walk(mask, centroid, k, ms.shape_model.RAY_STEP)
        if expected.all():
            assert np.array_equal(ms.sample_shape_vector(mask, centroid, k),
                                  expected)
        else:
            lowest = int(np.flatnonzero(expected == 0)[0])
            with pytest.raises(ms.DegenerateMask, match=rf"^ray {lowest} "):
                ms.sample_shape_vector(mask, centroid, k)


class TestWeightedMean:
    def test_uniform_average(self):
        s = example_set([[1, 1, 1, 1], [3, 3, 3, 3]])
        assert np.allclose(ms.weighted_mean(s), [2, 2, 2, 2])

    def test_weighted_average(self):
        s = example_set([[1, 1, 1, 1], [3, 3, 3, 3]], weights=[3.0, 1.0])
        # (3*1 + 1*3) / 4 per entry
        assert np.allclose(ms.weighted_mean(s), [1.5, 1.5, 1.5, 1.5])

    def test_single_example_identity(self):
        s = example_set([[2.0, 5.0, 4.0]], weights=[7.0])
        assert np.allclose(ms.weighted_mean(s), [2.0, 5.0, 4.0])

    def test_empty_set(self):
        with pytest.raises(ms.EmptyExampleSet):
            ms.weighted_mean(example_set([]))

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(5, 15, size=(6, 10))
        w = rng.uniform(1, 4, size=6)
        a = ms.weighted_mean(example_set(rows, weights=w))
        b = ms.weighted_mean(example_set(rows, weights=17.0 * w))
        assert np.allclose(a, b, rtol=1e-12, atol=0)


class TestCovariance:
    def test_identical_examples_zero(self):
        s = example_set([[4, 4, 4], [4, 4, 4], [4, 4, 4]])
        cov = ms.covariance(s, ms.weighted_mean(s))
        assert np.allclose(cov, 0.0)

    def test_hand_computed_uniform(self):
        s = example_set([[1, 1, 1], [3, 3, 3]])
        cov = ms.covariance(s, ms.weighted_mean(s))
        assert np.allclose(cov, np.ones((3, 3)))

    def test_weights_enter_through_mean_only(self):
        s = example_set([[1, 1, 1], [3, 3, 3]], weights=[3.0, 1.0])
        mean = ms.weighted_mean(s)
        assert np.allclose(mean, [1.5, 1.5, 1.5])
        # scatter around the weighted mean, divided by the example count
        dev = np.array([[1, 1, 1], [3, 3, 3]]) - mean
        expected = (np.outer(dev[0], dev[0]) + np.outer(dev[1], dev[1])) / 2
        assert np.allclose(ms.covariance(s, mean), expected)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(9)
        rows = rng.uniform(5, 15, size=(7, 12))
        s = example_set(rows, weights=rng.uniform(1, 3, size=7))
        cov = ms.covariance(s, ms.weighted_mean(s))
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


class TestBuildModel:
    def test_single_direction_gives_t1(self):
        base = np.full(6, 10.0)
        direction = np.array([1.0, -1, 1, -1, 1, -1])
        rows = [base + a * direction for a in (-2, -1, 1, 2)]
        model = ms.build_model(example_set(rows))
        assert model.t == 1

    def test_cumulative_fraction_rule(self):
        # eigenvalue spectrum (0.7, 0.2, 0.1): fractions 0.7, 0.9, 1.0
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        lams = np.zeros(8)
        lams[:3] = [0.7, 0.2, 0.1]
        cov = q @ np.diag(lams) @ q.T
        # build examples whose empirical covariance is exactly cov/1: use
        # symmetric pairs along scaled eigenvectors
        n = 6
        rows = []
        for j, lam in enumerate(lams[:3]):
            v = q[:, j] * np.sqrt(lam * n / 2.0)
            rows.append(20.0 + v)
            rows.append(20.0 - v)
        model = ms.build_model(example_set(rows), variance_threshold=0.995)
        assert model.t == 3
        model = ms.build_model(example_set(rows), variance_threshold=0.85)
        assert model.t == 2
        model = ms.build_model(example_set(rows), variance_threshold=0.65)
        assert model.t == 1

    def test_rank_deficient(self):
        with pytest.raises(ms.RankDeficient):
            ms.build_model(example_set([[5, 5, 5], [5, 5, 5], [5, 5, 5]]))

    def test_orthonormal_basis(self, small_model):
        gram = small_model.basis.T @ small_model.basis
        assert np.max(np.abs(gram - np.eye(small_model.t))) <= 1e-8

    def test_eigenvalues_sorted(self, small_model):
        ev = small_model.eigenvalues
        assert np.all(ev[:-1] >= ev[1:])
        assert np.all(ev > 0)

    def test_sign_convention_and_determinism(self):
        examples = disk_family_examples(seed=8)
        a = ms.build_model(ms.WeightedExampleSet(examples))
        b = ms.build_model(ms.WeightedExampleSet(examples))
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        peaks = a.basis[np.argmax(np.abs(a.basis), axis=0), np.arange(a.t)]
        assert np.all(peaks > 0)

    def test_reconstruction_with_all_modes(self):
        examples = disk_family_examples(count=5, seed=4)
        model = ms.build_model(ms.WeightedExampleSet(examples),
                               variance_threshold=1.0)
        for ex in examples:
            coeffs = model.basis.T @ (ex.radii - model.mean)
            recon = model.mean + model.basis @ coeffs
            assert np.linalg.norm(recon - ex.radii) <= 1e-6


class TestSynthesize:
    def test_zero_coefficients_give_mean(self, small_model):
        shape = ms.synthesize(small_model, np.zeros(small_model.t))
        assert np.array_equal(shape, np.maximum(small_model.mean, 1.0))

    def test_basis_column_readout(self, small_model):
        x = np.zeros(small_model.t)
        x[0] = 1.0
        shape = ms.synthesize(small_model, x)
        expected = np.maximum(small_model.mean + small_model.basis[:, 0], 1.0)
        assert np.allclose(shape, expected)

    def test_coefficient_clamping(self, small_model):
        lam = small_model.eigenvalues[0]
        x_big = np.zeros(small_model.t)
        x_box = np.zeros(small_model.t)
        x_big[0] = 10.0 * np.sqrt(lam)
        x_box[0] = 3.0 * np.sqrt(lam)
        assert np.array_equal(ms.synthesize(small_model, x_big),
                              ms.synthesize(small_model, x_box))

    def test_radius_floor(self, small_model):
        # a mean below the floor on every other ray: those radii are floored
        mean = small_model.mean.copy()
        mean[::2] = 0.25
        model = dataclasses.replace(small_model, mean=mean)
        shape = ms.synthesize(model, np.zeros(model.t))
        assert np.all(shape[::2] == RADIUS_FLOOR)
        assert np.array_equal(shape[1::2], mean[1::2])

    def test_dimension_mismatch(self, small_model):
        with pytest.raises(ms.DimensionMismatch):
            ms.synthesize(small_model, np.zeros(small_model.t + 1))
        with pytest.raises(ms.DimensionMismatch):
            ms.synthesize(small_model, np.zeros((2, 3, small_model.t)))

    def test_batch_rows_match_single_rows(self, small_model, tmp_path):
        # a loaded model holds its basis transposed (Fortran order)
        ms.save_model(small_model, tmp_path / "m.json")
        loaded = ms.load_model(tmp_path / "m.json")
        rng = np.random.default_rng(5)
        for model in (small_model, loaded):
            # some rows beyond the coefficient box, so clipping is covered
            batch = rng.normal(size=(40, model.t)) * 2.0 * np.sqrt(
                model.eigenvalues)
            shapes = ms.synthesize(model, batch)
            assert shapes.shape == (40, model.k)
            for row, shape in zip(batch, shapes):
                assert np.array_equal(ms.synthesize(model, row), shape)
                # the plain matrix-vector product of one row
                clipped = ms.clamp_coefficients(model, row)
                assert np.array_equal(
                    np.maximum(model.mean + model.basis @ clipped, 1.0), shape)


class TestSerialization:
    def test_round_trip(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        ms.save_model(small_model, path)
        loaded = ms.load_model(path)
        assert loaded.k == small_model.k and loaded.t == small_model.t
        assert np.array_equal(loaded.mean, small_model.mean)
        assert np.array_equal(loaded.basis, small_model.basis)
        assert np.array_equal(loaded.eigenvalues, small_model.eigenvalues)
        assert loaded.variance_fraction == small_model.variance_fraction
        assert np.array_equal(loaded.weights, small_model.weights)

    def test_schema_fields(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        ms.save_model(small_model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"k", "t", "mean", "eigenvalues", "basis",
                            "variance_fraction", "weights"}
        # column-major basis: t columns of k entries
        assert len(doc["basis"]) == small_model.t
        assert len(doc["basis"][0]) == small_model.k
        # full float precision survives the round trip
        assert doc["mean"][0] == small_model.mean[0]

    def test_unreadable_path_rejected(self, tmp_path):
        # a missing file and a directory are the package's I/O error
        for path in (str(tmp_path / "none.json"), str(tmp_path)):
            with pytest.raises(ms.DatasetIOError, match=re.escape(path)):
                ms.load_model(path)

    def test_unknown_field_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        ms.save_model(small_model, path)
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ms.DatasetIOError, match="extra"):
            ms.load_model(path)
