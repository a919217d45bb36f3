import hashlib
import json

import numpy as np
import pytest

import multishape as ms
from multishape.synthgen import MAX_CANVAS_SIDE, MAX_SCENE_PIXELS


SMALL = dict(n_objects=(2, 3), base_radius=(8.0, 12.0), canvas=(96, 96), k=72)


class TestGeneration:
    def test_deterministic(self):
        cfg = ms.GeneratorConfig(seed=5, **SMALL)
        a = ms.generate_scene(cfg, 3)
        b = ms.generate_scene(cfg, 3)
        assert np.array_equal(a.clump, b.clump)
        assert a.centroids == b.centroids
        for ta, tb in zip(a.truth, b.truth):
            assert np.array_equal(ta, tb)

    def test_default_masks_pinned(self):
        # SHA-256 of np.packbits of every clump and truth mask, scene by
        # scene; any drift in the generator or the rasterizer moves it
        digest = hashlib.sha256()
        for scene in ms.generate_batch(ms.GeneratorConfig(seed=1), 20):
            for mask in (scene.clump, *scene.truth):
                digest.update(np.packbits(mask))
        assert digest.hexdigest() == (
            "b21d36f1cda4398b4843dd602f5842f8780615e245ad04e8b185420b5268a82b")

    def test_different_indices_differ(self):
        cfg = ms.GeneratorConfig(seed=5, **SMALL)
        a = ms.generate_scene(cfg, 0)
        b = ms.generate_scene(cfg, 1)
        assert not np.array_equal(a.clump, b.clump)

    def test_clump_is_union_of_truths(self):
        cfg = ms.GeneratorConfig(seed=9, **SMALL)
        for i in range(5):
            scene = ms.generate_scene(cfg, i)
            assert np.array_equal(scene.clump, ms.union(scene.truth))

    def test_far_spacing_gives_disjoint_objects(self):
        cfg = ms.GeneratorConfig(seed=2, n_objects=(2, 2),
                                 base_radius=(6.0, 8.0),
                                 eccentricity=(1.0, 1.2),
                                 centroid_spacing=(10.0, 10.0),
                                 canvas=(256, 256), k=72)
        for i in range(5):
            scene = ms.generate_scene(cfg, i)
            inter = scene.truth[0] & scene.truth[1]
            assert not inter.any()

    def test_centroids_on_clump_batch(self):
        cfg = ms.GeneratorConfig(seed=7, **SMALL)
        scenes = ms.generate_batch(cfg, 100)
        for scene in scenes:
            for cx, cy in scene.centroids:
                assert scene.clump[int(np.floor(cy)), int(np.floor(cx))]

    def test_canvas_too_small(self):
        cfg = ms.GeneratorConfig(seed=0, base_radius=(30.0, 40.0),
                                 eccentricity=(1.5, 2.0), canvas=(64, 64))
        with pytest.raises(ms.CanvasTooSmall):
            ms.generate_scene(cfg, 0)

    def test_overlap_monotone_in_spacing(self):
        def mean_overlap(spacing):
            cfg = ms.GeneratorConfig(seed=13, n_objects=(2, 2),
                                     base_radius=(8.0, 12.0),
                                     centroid_spacing=(spacing, spacing),
                                     canvas=(128, 128), k=72)
            scenes = ms.generate_batch(cfg, 100)
            areas = [int((s.truth[0] & s.truth[1]).sum()) for s in scenes]
            return float(np.mean(areas))

        tight, medium, loose = (mean_overlap(s) for s in (0.7, 1.2, 1.8))
        assert tight > medium > loose

    def test_representation_closure(self):
        cfg = ms.GeneratorConfig(seed=21, **SMALL)
        scenes = ms.generate_batch(cfg, 8)
        for scene in scenes:
            for mask, centroid in zip(scene.truth, scene.centroids):
                radii = ms.sample_shape_vector(mask, centroid, 72)
                redrawn = ms.rasterize(radii, centroid, ms.Alignment(),
                                       scene.dims)
                assert ms.dsc(redrawn, mask) >= 0.97


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        scenes = ms.generate_batch(cfg, 4)
        ms.export_dataset(scenes, tmp_path)
        loaded = ms.import_dataset(tmp_path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert a.scene_id == b.scene_id
            assert np.array_equal(a.clump, b.clump)
            assert all(np.array_equal(x, y) for x, y in zip(a.truth, b.truth))
            assert np.allclose(a.centroids, b.centroids, atol=1e-9)

    def test_manifest_mismatch(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        ms.export_dataset([ms.generate_scene(cfg, 0)], tmp_path)
        scene_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        manifest = json.loads((scene_dir / "scene.json").read_text())
        manifest["centroids"].append([1.0, 1.0])
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        with pytest.raises(ms.ManifestMismatch):
            ms.import_dataset(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ms.DatasetIOError, match="no scenes found"):
            ms.import_dataset(tmp_path)

    def test_repeated_scene_id(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        ms.export_dataset(ms.generate_batch(cfg, 2), tmp_path)
        path = tmp_path / "scene_0001" / "scene.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "scene_id": "scene_0000"}))
        with pytest.raises(ms.DatasetIOError,
                           match="'scene_0000' names more than one scene"):
            ms.import_dataset(tmp_path)

    def test_scene_past_the_pixel_ceiling(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        ms.export_dataset([ms.generate_scene(cfg, 0)], tmp_path)
        scene_dir = tmp_path / "scene_0000"
        path = scene_dir / "scene.json"
        doc = json.loads(path.read_text())
        side = MAX_CANVAS_SIDE
        # one more object than fits the ceiling at the largest canvas
        doc.update(dims=[side, side], truth_count=0,
                   centroids=[[1.0, 1.0]] * (MAX_SCENE_PIXELS // side**2 + 1))
        path.write_text(json.dumps(doc))
        # the manifest is refused before clump.pgm is read
        (scene_dir / "clump.pgm").unlink()
        with pytest.raises(ms.DatasetIOError) as err:
            ms.import_dataset(tmp_path)
        assert "scene.json" in str(err.value)
        assert str(MAX_SCENE_PIXELS) in str(err.value)

    def test_scene_past_the_side_ceiling(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        ms.export_dataset([ms.generate_scene(cfg, 0)], tmp_path)
        scene_dir = tmp_path / "scene_0000"
        path = scene_dir / "scene.json"
        # one object on a canvas one pixel wider than the side ceiling, far
        # below the pixel ceiling, with a clump.pgm of those dims
        dims = [MAX_CANVAS_SIDE + 1, 6]
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "dims": dims, "truth_count": 0,
                                    "centroids": [[0.5, 0.5]]}))
        ms.write_pgm(scene_dir / "clump.pgm",
                     np.ones(dims[::-1], dtype=bool))
        with pytest.raises(ms.DatasetIOError) as err:
            ms.import_dataset(tmp_path)
        assert "scene.json" in str(err.value)
        assert str(MAX_CANVAS_SIDE) in str(err.value)

    def test_missing_clump_named(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        ms.export_dataset([ms.generate_scene(cfg, 0)], tmp_path)
        scene_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        (scene_dir / "clump.pgm").unlink()
        with pytest.raises(ms.DatasetIOError) as err:
            ms.import_dataset(tmp_path)
        assert "clump.pgm" in str(err.value)

    def test_missing_truth_named(self, tmp_path):
        cfg = ms.GeneratorConfig(seed=4, **SMALL)
        ms.export_dataset([ms.generate_scene(cfg, 0)], tmp_path)
        scene_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        (scene_dir / "truth_0.pgm").unlink()
        with pytest.raises(ms.DatasetIOError) as err:
            ms.import_dataset(tmp_path)
        assert "truth_0.pgm" in str(err.value)
