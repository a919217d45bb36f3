import json

import numpy as np
import pytest

import multishape as ms
from conftest import disk_family_examples, disk_mask, ellipse_mask
from oracles import full_ray_walk, ray_rectangle_exit


def example_set(rows, weights=None, step=0.1):
    examples = [ms.ShapeExample(f"s{i}", 0, np.asarray(r, dtype=float))
                for i, r in enumerate(rows)]
    return ms.WeightedExampleSet(examples, weights=weights, step=step)


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
        s = example_set([[4, 4], [4, 4], [4, 4]])
        cov = ms.covariance(s, ms.weighted_mean(s))
        assert np.allclose(cov, 0.0)

    def test_hand_computed_uniform(self):
        s = example_set([[0, 0], [2, 2]])
        cov = ms.covariance(s, ms.weighted_mean(s))
        assert np.allclose(cov, [[1, 1], [1, 1]])

    def test_weights_enter_through_mean_only(self):
        s = example_set([[0, 0], [2, 2]], weights=[3.0, 1.0])
        mean = ms.weighted_mean(s)
        assert np.allclose(mean, [0.5, 0.5])
        # scatter around the weighted mean, divided by the example count
        dev = np.array([[0, 0], [2, 2]]) - mean
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
            ms.build_model(example_set([[5, 5], [5, 5], [5, 5]]))

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
        x = np.zeros(small_model.t)
        shape = ms.synthesize(small_model, x, radius_floor=5.0)
        assert np.all(shape >= 5.0)

    def test_dimension_mismatch(self, small_model):
        with pytest.raises(ms.DimensionMismatch):
            ms.synthesize(small_model, np.zeros(small_model.t + 1))


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

    def test_unknown_field_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        ms.save_model(small_model, path)
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ms.DatasetIOError, match="extra"):
            ms.load_model(path)
