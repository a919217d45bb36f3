import numpy as np
import pytest

import multishape as ms
from conftest import disk_mask
from oracles import naive_mask_energy


def manual_model(mean, columns, eigenvalues):
    """Assemble a ShapeModel directly from orthonormal columns."""
    basis = np.stack(columns, axis=1)
    return ms.ShapeModel(
        mean=np.asarray(mean, dtype=float),
        basis=basis,
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        variance_fraction=1.0,
        k=len(mean),
        t=basis.shape[1],
    )


def uniform_mode_model(k, mean_radius, eigenvalue=400.0):
    """One mode that scales all radii together (unit-norm column)."""
    return manual_model(np.full(k, mean_radius),
                        [np.full(k, 1.0 / np.sqrt(k))],
                        [eigenvalue])


def scene_from_radii(radii, centroid, dims, scene_id="toy"):
    clump = ms.rasterize(radii, centroid, ms.Alignment(), dims)
    return ms.ClumpScene(clump=clump, centroids=[centroid], scene_id=scene_id)


class TestEnergy:
    def test_mask_energy_examples(self):
        clump = np.zeros((10, 10), dtype=bool)
        clump[2:7, 3:8] = True
        empty = np.zeros_like(clump)
        assert ms.mask_energy(clump, clump) == 0
        assert ms.mask_energy(empty, clump) == clump.sum()

    def test_mask_energy_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a = rng.random((9, 11)) < rng.uniform(0.2, 0.8)
            b = rng.random((9, 11)) < rng.uniform(0.2, 0.8)
            assert ms.mask_energy(a, b) == naive_mask_energy(a, b)

    def test_ideal_scene_energy_zero(self):
        k = 72
        radii = 12.0 + 2.0 * np.cos(3 * np.linspace(0, 2 * np.pi, k,
                                                    endpoint=False))
        model = uniform_mode_model(k, 0.0)
        model.mean = radii
        scene = scene_from_radii(radii, (24.0, 24.0), (48, 48))
        e = ms.energy(scene, model, np.zeros(1), [ms.Alignment()])
        assert e == 0

    def test_two_object_energy_matches_pixel_oracle(self):
        k = 36
        model = uniform_mode_model(k, 8.0)
        c1, c2 = (20.0, 24.0), (34.0, 24.0)
        clump = disk_mask((56, 48), (27.0, 24.0), 16.0)
        scene = ms.ClumpScene(clump=clump, centroids=[c1, c2])
        x = np.array([4.0, -2.0])
        aligns = [ms.Alignment(r=1.1, theta=0.2), ms.Alignment(r=0.9, theta=1.0)]
        got = ms.energy(scene, model, x, aligns)
        masks = [
            ms.rasterize(ms.synthesize(model, x[i:i + 1]), c, aligns[i],
                         scene.dims)
            for i, c in enumerate([c1, c2])
        ]
        union = masks[0] | masks[1]
        assert got == naive_mask_energy(union, clump)

    def test_dimension_mismatch(self):
        k = 36
        model = uniform_mode_model(k, 8.0)
        scene = scene_from_radii(np.full(k, 8.0), (24.0, 24.0), (48, 48))
        with pytest.raises(ms.DimensionMismatch):
            ms.energy(scene, model, np.zeros(2), [ms.Alignment()])


class TestGradient:
    def test_flat_direction_zero(self):
        # mean below the radius floor: every probe synthesizes the same shape
        k = 36
        model = manual_model(np.full(k, 0.4),
                             [np.full(k, 1.0 / np.sqrt(k))], [1e-4])
        scene = scene_from_radii(np.full(k, 6.0), (24.0, 24.0), (48, 48))
        g = ms.gradient_fd(scene, model, np.zeros(1), [ms.Alignment()], h=0.1)
        assert g[0] == 0.0

    def test_matches_energy_table(self):
        k = 72
        model = uniform_mode_model(k, 14.0)
        scene = scene_from_radii(np.full(k, 17.0), (30.0, 30.0), (60, 60))
        aligns = [ms.Alignment()]
        h = 2.0
        x0 = 5.0
        table = {dx: ms.energy(scene, model, np.array([x0 + dx]), aligns)
                 for dx in (-h, 0.0, h)}
        g = ms.gradient_fd(scene, model, np.array([x0]), aligns, h=h)
        assert g[0] == (table[h] - table[-h]) / (2 * h)

    def test_h_doubling_on_quadratic_region(self):
        # energy is near-quadratic in the uniform mode inside a bigger disk
        k = 90
        model = uniform_mode_model(k, 20.0, eigenvalue=900.0)
        clump = disk_mask((96, 96), (48.0, 48.0), 32.0)
        scene = ms.ClumpScene(clump=clump, centroids=[(48.0, 48.0)])
        aligns = [ms.Alignment()]
        x = np.array([0.0])
        h1 = 2.0 * np.sqrt(k)   # one pixel of radius change
        g1 = ms.gradient_fd(scene, model, x, aligns, h=h1)
        g2 = ms.gradient_fd(scene, model, x, aligns, h=2 * h1)
        assert abs(g2[0] - g1[0]) <= 0.05 * abs(g1[0])


class TestProbeTable:
    @pytest.mark.parametrize("mult", [1.0, 2.0, 4.0])
    def test_matches_energy(self, tiny_model, tiny_dataset, mult):
        # every +-h entry of the batched table equals the reference energy
        cfg = ms.EvolutionConfig(max_outer_iterations=3)
        h = mult * cfg.fd_step
        t = tiny_model.t
        for scene in tiny_dataset[:4]:
            masks, state = ms.evolve(scene, tiny_model, cfg)
            engine = ms.evolution._SceneEngine(scene, tiny_model, cfg)
            x = state.x.reshape(scene.n_objects, t)
            # evolve returns the masks at state.x
            fit = ms.evolution._Fit(
                c=x / engine.sqrt_ev,
                x=x,
                radii=tuple(ms.synthesize(tiny_model, row) for row in x),
                alignments=tuple(state.alignments),
                masks=tuple(m.reshape(-1) for m in masks),
                energy=state.energy)
            table = engine._probe_table(fit, h)
            for i in range(scene.n_objects):
                for j in range(t):
                    for col, sign in ((2 * j, 1.0), (2 * j + 1, -1.0)):
                        probe = x.copy()
                        probe[i, j] += sign * h * engine.sqrt_ev[j]
                        expected = ms.energy(scene, tiny_model,
                                             probe.reshape(-1),
                                             state.alignments)
                        assert table[i, col] == expected, (scene.scene_id,
                                                           i, col)


class TestRevise:
    def test_recomputes_only_what_changed(self, tiny_model, tiny_dataset):
        scene = tiny_dataset[4]
        engine = ms.evolution._SceneEngine(scene, tiny_model,
                                           ms.EvolutionConfig())
        fit = engine.initial_fit()
        c = fit.c.copy()
        c[1, 0] += 0.5
        reshaped = engine.revise(fit, c=c)
        alignments = list(fit.alignments)
        alignments[2] = ms.Alignment(r=alignments[2].r + 0.05,
                                     theta=alignments[2].theta)
        realigned = engine.revise(fit, alignments=alignments)
        for moved, changed in ((reshaped, 1), (realigned, 2)):
            for i in range(scene.n_objects):
                assert (moved.masks[i] is fit.masks[i]) == (i != changed)
            assert moved.energy == ms.energy(scene, tiny_model,
                                             moved.x.reshape(-1),
                                             list(moved.alignments))
        assert [r is f for r, f in zip(reshaped.radii, fit.radii)] \
            == [True, False, True]
        assert all(r is f for r, f in zip(realigned.radii, fit.radii))


class TestPlateauWalk:
    def test_alignment_escape(self):
        # a disk fit one scale step too large; the only mode is too weak to
        # move any pixel, so no coordinate probe helps and the walk must
        # step the scale back
        k = 72
        model = manual_model(np.full(k, 12.0),
                             [np.full(k, 1.0 / np.sqrt(k))], [1e-10])
        scene = scene_from_radii(np.full(k, 12.0), (30.0, 30.0), (60, 60))
        cfg = ms.EvolutionConfig()
        engine = ms.evolution._SceneEngine(scene, model, cfg)
        aligned = engine.initial_fit()
        rs = cfg.grid.r_values()
        r_idx = int(np.argmin(np.abs(rs - aligned.alignments[0].r)))
        off = engine.revise(aligned, alignments=[ms.Alignment(
            r=float(rs[r_idx + 1]), theta=aligned.alignments[0].theta)])
        assert off.energy > aligned.energy
        walk = engine.plateau_walk(off)
        assert walk is not None
        fit, step_scale = walk
        assert step_scale == 0.0
        assert fit.alignments == aligned.alignments
        assert fit.energy == aligned.energy
        assert np.array_equal(fit.x, off.x)


class TestGoldenTrace:
    """Pinned runs: per-row (iteration, energy, accepted) and the result."""

    CASES = {
        # trust-region steps, plateau coordinate moves, an exhausted walk
        "tiny1": dict(
            scene=1, config=dict(max_outer_iterations=200),
            rows=[(1, 367, True), (2, 246, True), (3, 170, True),
                  (4, 170, False), (5, 133, True), (6, 133, False),
                  (7, 133, False), (8, 133, False), (9, 126, True),
                  (10, 126, False), (11, 121, True), (12, 118, True),
                  (13, 117, True), (14, 117, False), (15, 116, True),
                  (16, 115, True), (17, 112, True), (18, 111, True),
                  (19, 110, True), (20, 109, True), (21, 108, True),
                  (22, 108, False), (23, 108, False), (24, 108, False),
                  (25, 108, False), (26, 108, False), (27, 108, False),
                  (28, 108, False), (29, 108, False)],
            halted="no_decrease", iteration=29, energy=108,
            alignments=[(1.1, 0.2617993877991494),
                        (1.05, 0.6108652381980153)]),
        # a refresh adopted at equal energy
        "tiny2": dict(
            scene=2, config=dict(),
            rows=[(1, 91, True), (2, 91, False), (3, 66, True),
                  (4, 66, False), (5, 50, True)],
            halted="energy_threshold", iteration=5, energy=50,
            alignments=[(0.8, 1.1344640137963142),
                        (0.7, 3.6651914291880923)]),
        "tiny3": dict(
            scene=3, config=dict(),
            rows=[(1, 94, False), (2, 92, True), (3, 75, True),
                  (4, 55, True), (5, 40, True)],
            halted="energy_threshold", iteration=5, energy=40,
            alignments=[(0.9000000000000001, 1.658062789394613),
                        (0.65, 0.8726646259971648)]),
        # a refresh adopted at lower energy
        "tiny5": dict(
            scene=5, config=dict(),
            rows=[(1, 141, True), (2, 84, True), (3, 53, True)],
            halted="energy_threshold", iteration=3, energy=53,
            alignments=[(0.7, 0.6108652381980153), (0.8, 2.356194490192345),
                        (0.75, 6.19591884457987)]),
        "tiny2_exact_hessian": dict(
            scene=2, config=dict(exact_fd_hessian=True),
            rows=[(1, 120, True), (2, 99, True), (3, 99, False),
                  (4, 54, True)],
            halted="energy_threshold", iteration=4, energy=54,
            alignments=[(0.8500000000000001, 1.2217304763960306),
                        (0.75, 0.4363323129985824)]),
        # the scene of TestEvolve.test_exact_fd_hessian_path
        "disk_exact_hessian": dict(
            scene=None,
            config=dict(max_outer_iterations=30, exact_fd_hessian=True),
            rows=[],
            halted="energy_threshold", iteration=0, energy=0,
            alignments=[(1.3, 0.0)]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned_run(self, tiny_model, tiny_dataset, name):
        case = self.CASES[name]
        if case["scene"] is None:
            k = 48
            model = uniform_mode_model(k, 10.0, eigenvalue=100.0)
            scene = scene_from_radii(np.full(k, 13.0), (30.0, 30.0), (60, 60))
        else:
            model, scene = tiny_model, tiny_dataset[case["scene"]]
        _, state = ms.evolve(scene, model,
                             ms.EvolutionConfig(**case["config"]))
        assert [(row.iteration, row.energy, row.accepted)
                for row in state.trace] == case["rows"]
        assert state.halted_reason == case["halted"]
        assert state.iteration == case["iteration"]
        assert state.energy == case["energy"]
        assert [(a.r, a.theta) for a in state.alignments] \
            == case["alignments"]


class TestTrustRegion:
    def test_interior_newton(self):
        g = np.array([2.0, 0.0, 0.0])
        p = ms.trust_region_step(g, np.eye(3), 10.0)
        assert np.allclose(p, [-2.0, 0.0, 0.0])

    def test_boundary_clip(self):
        g = np.array([2.0, 0.0, 0.0])
        p = ms.trust_region_step(g, np.eye(3), 1.0)
        assert np.allclose(p, [-1.0, 0.0, 0.0])

    def test_zero_gradient_raises(self):
        with pytest.raises(ms.ZeroGradient):
            ms.trust_region_step(np.zeros(3), np.eye(3), 1.0)

    def test_norm_bound_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a = rng.normal(size=(dim, dim))
            hess = (a + a.T) / 2          # possibly indefinite
            g = rng.normal(size=dim)
            delta = float(rng.uniform(0.05, 3.0))
            p = ms.trust_region_step(g, hess, delta)
            assert np.linalg.norm(p) <= delta + 1e-9

    def test_beats_ball_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            hess = a @ a.T + 0.2 * np.eye(5)
            g = rng.normal(size=5)
            delta = float(rng.uniform(0.3, 2.0))
            p = ms.trust_region_step(g, hess, delta)
            m_p = g @ p + 0.5 * p @ hess @ p
            dirs = rng.normal(size=(2000, 5))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = delta * rng.uniform(0, 1, size=2000) ** 0.2
            samples = dirs * radii[:, None]
            m_samples = samples @ g + 0.5 * np.einsum(
                "ij,jk,ik->i", samples, hess, samples)
            assert m_p <= m_samples.min() + 1e-6

    def test_indefinite_uses_cauchy(self):
        hess = np.diag([1.0, -2.0])
        g = np.array([1.0, 1.0])
        p = ms.trust_region_step(g, hess, 1.0)
        gnorm = np.linalg.norm(g)
        cauchy = -(1.0 / gnorm) * g    # g@H@g = -1 < 0, full boundary step
        assert np.allclose(p, cauchy)


class TestHessian:
    def test_empty_history_identity(self):
        assert np.array_equal(ms.hessian_approx([], 4), np.eye(4))

    def test_sr1_recovers_quadratic(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        a = a @ a.T + np.eye(5)
        history = []
        x = np.zeros(5)
        for _ in range(12):
            step = rng.normal(size=5)
            history.append((step, 2.0 * a @ step))
            x = x + step
        h = ms.hessian_approx(history, 5)
        err = np.linalg.norm(h - 2.0 * a) / np.linalg.norm(2.0 * a)
        assert err <= 0.10

    def test_sr1_skip_rule_no_blowup(self):
        approx = ms.Sr1Hessian(3)
        s = np.array([1.0, 0.0, 0.0])
        approx.update(s, approx.matrix @ s)   # residual zero: skipped
        assert np.array_equal(approx.matrix, np.eye(3))

    def test_fd_hessian_matches_table(self):
        k = 48
        cols = [np.full(k, 1.0 / np.sqrt(k)),
                np.tile([1.0, -1.0], k // 2) / np.sqrt(k)]
        model = manual_model(np.full(k, 12.0), cols, [400.0, 400.0])
        scene = scene_from_radii(np.full(k, 14.0), (30.0, 30.0), (60, 60))
        aligns = [ms.Alignment()]

        def f(x):
            return ms.energy(scene, model, x, aligns)

        h = 3.0
        x0 = np.array([2.0, -1.0])
        got = ms.fd_hessian(f, x0, h)
        e = np.eye(2) * h
        d00 = (f(x0 + e[0]) - 2 * f(x0) + f(x0 - e[0])) / h ** 2
        d11 = (f(x0 + e[1]) - 2 * f(x0) + f(x0 - e[1])) / h ** 2
        d01 = (f(x0 + e[0] + e[1]) - f(x0 + e[0] - e[1])
               - f(x0 - e[0] + e[1]) + f(x0 - e[0] - e[1])) / (4 * h * h)
        assert np.array_equal(got, np.array([[d00, d01], [d01, d11]]))
        assert np.array_equal(got, got.T)

    def test_fd_hessian_quadratic_exact(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return float(x @ a @ x)

        got = ms.fd_hessian(f, np.array([0.3, -0.7]), 0.25)
        assert np.allclose(got, 2.0 * a, atol=1e-9)


class TestEvolve:
    def test_immediate_halt_when_threshold_met(self):
        k = 72
        radii = 12.0 + np.cos(2 * np.linspace(0, 2 * np.pi, k, endpoint=False))
        model = uniform_mode_model(k, 0.0)
        model.mean = radii
        scene = scene_from_radii(radii, (24.0, 24.0), (48, 48))
        masks, state = ms.evolve(scene, model)
        assert state.halted_reason == "energy_threshold"
        assert state.iteration == 0
        assert state.trace == []
        assert state.energy == 0
        assert np.array_equal(masks[0], scene.clump)

    def test_zero_gradient_halt(self):
        k = 36
        model = manual_model(np.full(k, 0.4),
                             [np.full(k, 1.0 / np.sqrt(k))], [1e-6])
        scene = scene_from_radii(np.full(k, 6.0), (24.0, 24.0), (48, 48))
        masks, state = ms.evolve(scene, model)
        assert state.halted_reason == "zero_gradient"

    def test_exact_shape_in_training_set(self):
        # the training family contains the clump's own shape; evolution must
        # reach the threshold and reproduce the clump closely
        k = 72
        angles = 2 * np.pi * np.arange(k) / k
        target = 26.0 + 3.0 * np.cos(2 * angles + 0.4)
        rng = np.random.default_rng(10)
        rows = [target] + [
            rng.uniform(21, 31) + rng.uniform(0, 4) * np.cos(2 * angles
                                                             + rng.uniform(0, 6))
            for _ in range(7)
        ]
        model = ms.build_model(ms.WeightedExampleSet(
            [ms.ShapeExample(f"e{i}", 0, r) for i, r in enumerate(rows)]))
        scene = scene_from_radii(target, (48.0, 48.0), (96, 96))
        masks, state = ms.evolve(scene, model, ms.EvolutionConfig())
        assert state.energy <= 0.05 * scene.clump_area
        assert ms.dsc(masks[0], scene.clump) >= 0.95

    def test_self_segmentation_disk(self, tiny_model, tiny_dataset):
        scene = tiny_dataset[4]
        cfg = ms.EvolutionConfig(max_outer_iterations=120)
        masks, state = ms.evolve(scene, tiny_model, cfg)
        assert state.energy <= 0.05 * scene.clump_area \
            or state.halted_reason in ("no_decrease", "max_iterations")
        dscs = [ms.dsc(m, t) for m, t in zip(masks, scene.truth)]
        assert np.mean(dscs) >= 0.80

    def test_invariants_on_run(self, tiny_model, tiny_dataset):
        scene = tiny_dataset[5]
        cfg = ms.EvolutionConfig(max_outer_iterations=60)
        masks, state = ms.evolve(scene, tiny_model, cfg)
        # accepted energies strictly decreasing
        accepted = [row.energy for row in state.trace if row.accepted]
        assert all(a > b for a, b in zip(accepted, accepted[1:]))
        # steps stay inside the trust region; plateau-walk rows are bounded
        # by the coarsest probe scale instead
        for row in state.trace:
            assert row.step_norm <= max(row.delta, 4 * cfg.fd_step) + 1e-9
        # coefficient box
        bounds = np.tile(tiny_model.coefficient_bounds(), scene.n_objects)
        assert np.all(np.abs(state.x) <= bounds + 1e-12)
        # energy recomputation is exact
        assert ms.energy(scene, tiny_model, state.x, state.alignments) \
            == state.energy
        # halting always terminates within the budget
        assert state.iteration <= cfg.max_outer_iterations
        assert state.halted_reason in ("energy_threshold", "no_decrease",
                                       "max_iterations", "zero_gradient")

    def test_deterministic_traces(self, tiny_model, tiny_dataset):
        scene = tiny_dataset[3]
        cfg = ms.EvolutionConfig(max_outer_iterations=40)
        masks_a, state_a = ms.evolve(scene, tiny_model, cfg)
        masks_b, state_b = ms.evolve(scene, tiny_model, cfg)
        assert state_a.trace == state_b.trace
        assert np.array_equal(state_a.x, state_b.x)
        assert state_a.alignments == state_b.alignments
        for a, b in zip(masks_a, masks_b):
            assert np.array_equal(a, b)

    def test_exact_fd_hessian_path(self):
        k = 48
        model = uniform_mode_model(k, 10.0, eigenvalue=100.0)
        scene = scene_from_radii(np.full(k, 13.0), (30.0, 30.0), (60, 60))
        cfg = ms.EvolutionConfig(max_outer_iterations=30, exact_fd_hessian=True)
        masks, state = ms.evolve(scene, model, cfg)
        assert state.energy <= 0.05 * scene.clump_area

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ms.EvolutionConfig(fd_step=0.0)
        with pytest.raises(ValueError):
            ms.EvolutionConfig(shrink_ratio_threshold=0.9,
                               grow_ratio_threshold=0.5)
