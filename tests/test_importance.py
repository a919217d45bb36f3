import numpy as np
import pytest

import multishape as ms

K = 48
ANGLES = 2.0 * np.pi * np.arange(K) / K


def disk_vector(radius):
    return np.full(K, float(radius))


def ellipse_vector(a, b, rotation=0.0):
    rel = ANGLES - rotation
    return a * b / np.hypot(b * np.cos(rel), a * np.sin(rel))


def pair_from_vectors(vectors, centroids, dims, scene_id):
    masks = [ms.rasterize(v, c, ms.Alignment(), dims)
             for v, c in zip(vectors, centroids)]
    scene = ms.ClumpScene(clump=ms.union(masks), centroids=centroids,
                          scene_id=scene_id)
    return ms.TrainingPair(scene=scene, shapes=list(vectors))


def quick_evolution(max_iters=4, fraction=0.001):
    return ms.EvolutionConfig(max_outer_iterations=max_iters,
                              energy_threshold_fraction=fraction)


@pytest.fixture(scope="module")
def two_family_dataset():
    dims = (80, 80)
    center = [(40.0, 40.0)]
    pairs = [
        pair_from_vectors([disk_vector(13.0)], center, dims, "disk_a"),
        pair_from_vectors([disk_vector(15.0)], center, dims, "disk_b"),
        pair_from_vectors([disk_vector(17.0)], center, dims, "disk_c"),
        pair_from_vectors([ellipse_vector(19.0, 9.5)], center, dims, "ell_a"),
        pair_from_vectors([ellipse_vector(21.0, 10.5)], center, dims, "ell_b"),
        pair_from_vectors([ellipse_vector(23.0, 11.5)], center, dims, "ell_c"),
    ]
    return pairs


@pytest.fixture(scope="module")
def two_object_dataset():
    dims = (64, 64)
    return [
        pair_from_vectors([ellipse_vector(15.0, 9.0),
                           ellipse_vector(12.0, 10.0, 1.0)],
                          [(28.0, 32.0), (38.0, 32.0)], dims, "two_a"),
        pair_from_vectors([disk_vector(10.0),
                           ellipse_vector(14.0, 8.0, 0.5)],
                          [(26.0, 30.0), (38.0, 34.0)], dims, "two_b"),
    ]


# learn's result and its build_model count on each fixture dataset under
# the settings of test_revisited_states_evolved_once; each update is
# (cycle, pair, example, scene_id, object_id, weight, before, after)
LEARN_PINS = {
    "two_family_dataset": (38, [2.5, 1.0, 2.0, 1.0, 1.5, 5.0], [
        (0, 2, 2, "disk_c", 0, 1.5, 24, 4),
        (0, 4, 4, "ell_b", 0, 1.5, 236, 184),
        (0, 5, 5, "ell_c", 0, 1.5, 304, 242),
        (0, 5, 5, "ell_c", 0, 2.0, 242, 172),
        (0, 5, 5, "ell_c", 0, 2.5, 172, 16),
        (1, 0, 0, "disk_a", 0, 1.5, 126, 8),
        (1, 0, 0, "disk_a", 0, 2.0, 8, 6),
        (1, 2, 2, "disk_c", 0, 2.0, 16, 2),
        (1, 5, 5, "ell_c", 0, 3.0, 302, 296),
        (1, 5, 5, "ell_c", 0, 3.5, 296, 236),
        (1, 5, 5, "ell_c", 0, 4.0, 236, 234),
        (1, 5, 5, "ell_c", 0, 4.5, 234, 160),
        (1, 5, 5, "ell_c", 0, 5.0, 160, 84),
        (2, 0, 0, "disk_a", 0, 2.5, 182, 126),
    ]),
    "two_object_dataset": (17, [2.0, 1.0, 1.5, 1.5], [
        (0, 1, 3, "two_b", 1, 1.5, 84, 82),
        (1, 0, 0, "two_a", 0, 1.5, 57, 51),
        (1, 0, 0, "two_a", 0, 2.0, 51, 36),
        (1, 1, 2, "two_b", 0, 1.5, 111, 79),
    ]),
}


class TestTerminatedEnergy:
    def test_zero_for_ideal_scene(self):
        vec = disk_vector(12.0)
        pair = pair_from_vectors([vec], [(30.0, 30.0)], (60, 60), "ideal")
        model = ms.ShapeModel(mean=vec, basis=np.full((K, 1), 1 / np.sqrt(K)),
                              eigenvalues=np.array([1.0]),
                              variance_fraction=1.0, k=K, t=1)
        assert ms.terminated_energy(pair, model, quick_evolution()) == 0

    def test_deterministic(self, two_family_dataset):
        pair = two_family_dataset[0]
        examples = ms.importance.dataset_examples(two_family_dataset)
        model = ms.build_model(examples, variance_threshold=0.5)
        cfg = quick_evolution()
        assert ms.terminated_energy(pair, model, cfg) \
            == ms.terminated_energy(pair, model, cfg)

    def test_dimension_mismatch(self, two_family_dataset):
        pair = two_family_dataset[0]
        short = np.full(K // 2, 10.0)
        model = ms.ShapeModel(mean=short,
                              basis=np.full((K // 2, 1), np.sqrt(2.0 / K)),
                              eigenvalues=np.array([1.0]),
                              variance_fraction=1.0, k=K // 2, t=1)
        with pytest.raises(ms.DimensionMismatch):
            ms.terminated_energy(pair, model, quick_evolution())


class TestLearn:
    def test_zero_updates_when_already_ideal(self):
        # two training shapes symmetric around the mean, both objects at the
        # same centroid, clump drawn from the mean itself: the initial model
        # reaches zero energy immediately and no weight bump can strictly
        # improve it (an asymmetric mean only fits worse)
        dims = (64, 64)
        center = (32.0, 32.0)
        mean_vec = disk_vector(12.0)
        wobble = 0.8 * np.cos(3 * ANGLES)
        clump = ms.rasterize(mean_vec, center, ms.Alignment(), dims)
        scene = ms.ClumpScene(clump=clump, centroids=[center, center],
                              scene_id="ideal")
        pair = ms.TrainingPair(scene=scene,
                               shapes=[mean_vec + wobble, mean_vec - wobble])
        cfg = ms.LearningConfig(step=0.1, max_cycles=3,
                                variance_threshold=0.9,
                                evolution=quick_evolution(max_iters=6,
                                                          fraction=0.05))
        weights, model, history = ms.learn([pair], cfg)
        assert history == []
        assert np.array_equal(weights, np.ones(2))

    def test_learn_determinism(self):
        dims = (64, 64)
        center = [(32.0, 32.0)]
        mean_vec = disk_vector(12.0)
        wobble = 0.8 * np.cos(3 * ANGLES)
        clump = ms.rasterize(mean_vec, center[0], ms.Alignment(), dims)
        scene = ms.ClumpScene(clump=clump, centroids=[center[0], center[0]],
                              scene_id="ideal")
        pair = ms.TrainingPair(scene=scene,
                               shapes=[mean_vec + wobble, mean_vec - wobble])
        cfg = ms.LearningConfig(step=0.1, max_cycles=2,
                                variance_threshold=0.9,
                                evolution=quick_evolution(max_iters=5))
        w1, m1, h1 = ms.learn([pair], cfg)
        w2, m2, h2 = ms.learn([pair], cfg)
        assert np.array_equal(w1, w2)
        assert h1 == h2
        assert np.array_equal(m1.mean, m2.mean)

    def test_revisited_states_evolved_once(self, two_family_dataset,
                                           monkeypatch):
        # these settings revisit 12 (pair, weights) states in 61 scorings
        cfg = ms.LearningConfig(step=0.5, max_tries_per_example=5,
                                max_cycles=4, variance_threshold=0.5,
                                evolution=quick_evolution())
        expected = ms.learn(two_family_dataset, cfg)
        runs = []
        evolve = ms.importance.evolve

        def counted(scene, model, *args):
            runs.append((scene.scene_id, model.weights.tobytes()))
            return evolve(scene, model, *args)

        monkeypatch.setattr(ms.importance, "evolve", counted)
        weights, model, history = ms.learn(two_family_dataset, cfg)
        assert len(set(runs)) == len(runs)
        assert np.array_equal(weights, expected[0])
        assert history == expected[2]

    @pytest.mark.parametrize("dataset_name", sorted(LEARN_PINS))
    def test_pinned_result_and_builds(self, dataset_name, request,
                                      monkeypatch):
        dataset = request.getfixturevalue(dataset_name)
        builds, pinned_weights, pinned_updates = LEARN_PINS[dataset_name]
        cfg = ms.LearningConfig(step=0.5, max_tries_per_example=5,
                                max_cycles=4, variance_threshold=0.5,
                                evolution=quick_evolution())
        calls = []
        build_model = ms.importance.build_model

        def counted(*args):
            calls.append(args)
            return build_model(*args)

        monkeypatch.setattr(ms.importance, "build_model", counted)
        weights, model, history = ms.learn(dataset, cfg)
        # one build for the start model and one per tried bump
        assert len(calls) == builds
        assert weights.tolist() == pinned_weights
        assert [(u.cycle, u.pair_index, u.example_index, u.scene_id,
                 u.object_id, u.weight, u.energy_before, u.energy_after)
                for u in history] == pinned_updates
        # the model returned is the one built from the weights returned;
        # compared within one process, as eigh's last bits follow the BLAS
        examples = ms.importance.dataset_examples(dataset, step=cfg.step)
        rebuilt = build_model(
            ms.WeightedExampleSet(examples.examples, weights),
            cfg.variance_threshold)
        for name in ("mean", "basis", "eigenvalues", "weights",
                     "variance_fraction", "t"):
            assert np.array_equal(getattr(model, name),
                                  getattr(rebuilt, name)), name

    def test_two_family_learning(self, two_family_dataset):
        cfg = ms.LearningConfig(step=0.5, max_tries_per_example=4,
                                max_cycles=3, variance_threshold=0.5,
                                evolution=quick_evolution())
        before_model = ms.build_model(
            ms.importance.dataset_examples(two_family_dataset, step=cfg.step),
            variance_threshold=cfg.variance_threshold)
        weights, model, history = ms.learn(two_family_dataset, cfg)
        assert len(history) > 0
        # committed updates strictly decreased the processed pair's energy
        for update in history:
            assert update.energy_after < update.energy_before
        # weights only ever grow and stay >= 1
        assert np.all(weights >= 1.0)
        bumped = {u.example_index for u in history}
        untouched = np.setdiff1d(np.arange(len(weights)), sorted(bumped))
        assert np.all(weights[untouched] == 1.0)
        assert np.all(weights[sorted(bumped)] > 1.0)
        # the pair holding the final commit keeps its improvement: the model
        # has not changed since, so its terminated energy is the recorded one
        last = history[-1]
        pair = two_family_dataset[last.pair_index]
        e_final = ms.terminated_energy(pair, model, cfg.evolution)
        assert e_final == last.energy_after
        e_initial = ms.terminated_energy(pair, before_model, cfg.evolution)
        assert e_final <= e_initial

    def test_empty_dataset(self):
        with pytest.raises(ms.EmptyDataset):
            ms.learn([], ms.LearningConfig())

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            ms.LearningConfig(step=0.0)

    def test_identical_examples_rank_deficient(self):
        dims = (64, 64)
        center = [(32.0, 32.0)]
        vec = disk_vector(12.0)
        clump = ms.rasterize(vec, center[0], ms.Alignment(), dims)
        scene = ms.ClumpScene(clump=clump, centroids=[center[0], center[0]],
                              scene_id="flat")
        pair = ms.TrainingPair(scene=scene, shapes=[vec, vec.copy()])
        with pytest.raises(ms.RankDeficient):
            ms.learn([pair], ms.LearningConfig(evolution=quick_evolution()))
