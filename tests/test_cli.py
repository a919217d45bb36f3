import json
from pathlib import Path

import numpy as np
import pytest

import multishape as ms
from multishape.cli import main

SMALL_ARGS = [
    "--generator.n_objects", "2,2",
    "--generator.base_radius", "8,12",
    "--generator.canvas", "96,96",
    "--k", "72",
    "--evolution.max_outer_iterations", "40",
]


def tree_bytes(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pipeline(tmp_path, tag, seed="5"):
    data = tmp_path / f"data_{tag}"
    out = tmp_path / f"seg_{tag}"
    model = tmp_path / f"model_{tag}.json"
    report = tmp_path / f"report_{tag}.json"
    assert main(["generate", "--out", str(data), "--count", "4",
                 "--seed", seed] + SMALL_ARGS) == 0
    assert main(["train", "--dataset", str(data), "--out", str(model)]
                + SMALL_ARGS) == 0
    assert main(["segment", "--model", str(model), "--dataset", str(data),
                 "--out", str(out)] + SMALL_ARGS) == 0
    assert main(["evaluate", "--pred", str(out), "--dataset", str(data),
                 "--report", str(report), "--csv", str(report) + ".csv"]
                + SMALL_ARGS) == 0
    return data, model, out, report


class TestGenerate:
    def test_deterministic_trees(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["generate", "--count", "3", "--seed", "7"] + SMALL_ARGS
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_unknown_config_key_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key=1\n")
        code = main(["generate", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "no_such_key" in err

    def test_unwritable_dir_exit3(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(["generate", "--out", str(target / "sub"), "--count", "1"]
                    + SMALL_ARGS)
        assert code == 3

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a = tmp_path / "a"
        b = tmp_path / "b"
        monkeypatch.setenv("MULTISHAPE_SEED", "99")
        assert main(["generate", "--out", str(a), "--count", "2",
                     "--seed", "5"] + SMALL_ARGS) == 0
        monkeypatch.delenv("MULTISHAPE_SEED")
        assert main(["generate", "--out", str(b), "--count", "2",
                     "--seed", "99"] + SMALL_ARGS) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_json_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k": 72,
            "generator": {"n_objects": [2, 2], "base_radius": [8, 12],
                          "canvas": [96, 96], "seed": 3},
        }))
        assert main(["generate", "--out", str(tmp_path / "d"), "--count", "2",
                     "--config", str(cfg)]) == 0


class TestTrain:
    def test_identical_disks_rank_deficient_exit2(self, tmp_path, capsys):
        dims = (64, 64)
        center = (32.0, 32.0)
        radii = np.full(72, 10.0)
        mask = ms.rasterize(radii, center, ms.Alignment(), dims)
        scenes = [ms.ClumpScene(clump=mask.copy(), centroids=[center],
                                truth=[mask.copy()], scene_id=f"s{i:02d}")
                  for i in range(10)]
        data = tmp_path / "flat"
        ms.export_dataset(scenes, data)
        code = main(["train", "--dataset", str(data),
                     "--out", str(tmp_path / "m.json"), "--k", "72"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_train_twice_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "4",
                     "--seed", "8"] + SMALL_ARGS) == 0
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        assert main(["train", "--dataset", str(data), "--out", str(m1)]
                    + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(m2)]
                    + SMALL_ARGS) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_degenerate_mask_names_scene_and_object(self, tmp_path, capsys):
        dims = (64, 64)
        center = (32.0, 32.0)
        radii = np.full(72, 10.0)
        mask = ms.rasterize(radii, center, ms.Alignment(), dims)
        sliver = np.zeros(dims, dtype=bool)
        sliver[32, 32] = True
        scene = ms.ClumpScene(clump=mask | sliver, centroids=[center, (32.5, 32.5)],
                              truth=[mask, sliver], scene_id="thin")
        data = tmp_path / "thin_data"
        ms.export_dataset([scene], data)
        code = main(["train", "--dataset", str(data),
                     "--out", str(tmp_path / "m.json"), "--k", "72"])
        assert code == 2
        err = capsys.readouterr().err
        assert "thin" in err and "object 1" in err

    def test_learn_importance_outputs(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "4",
                     "--seed", "6"] + SMALL_ARGS) == 0
        model = tmp_path / "m.json"
        code = main(["train", "--dataset", str(data), "--out", str(model),
                     "--learn-importance",
                     "--learning.max_cycles", "1",
                     "--learning.max_tries_per_example", "1",
                     "--learning.max_outer_iterations", "10",
                     "--learning.step", "0.5"] + SMALL_ARGS)
        assert code == 0
        doc = json.loads(model.read_text())
        assert len(doc["weights"]) == 8
        assert all(w >= 1.0 for w in doc["weights"])
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["learned_importance"] is True
        assert len(manifest["examples"]) == 8
        history_path = tmp_path / "m.json.history.jsonl"
        if history_path.exists():
            for line in history_path.read_text().splitlines():
                record = json.loads(line)
                assert record["energy_after"] < record["energy_before"]

    def test_fold_selection_counts(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "10",
                     "--seed", "2"] + SMALL_ARGS) == 0
        model = tmp_path / "m.json"
        assert main(["train", "--dataset", str(data), "--out", str(model),
                     "--folds", "5", "--fold", "0"] + SMALL_ARGS) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert len(manifest["training_scenes"]) == 2
        assert main(["train", "--dataset", str(data), "--out", str(model),
                     "--folds", "5", "--fold", "0", "--invert"]
                    + SMALL_ARGS) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert len(manifest["training_scenes"]) == 8


class TestMalformedFiles:
    """Malformed dataset and model files are I/O errors: exit 3."""

    SCENE_EDITS = {
        "invalid_json": lambda doc: "{not json",
        "no_centroids": lambda doc: json.dumps(
            {k: v for k, v in doc.items() if k != "centroids"}),
        "dims_mismatch": lambda doc: json.dumps({**doc, "dims": [95, 96]}),
    }
    MODEL_EDITS = {
        "invalid_json": lambda doc: "[1, 2",
        "no_mean": lambda doc: json.dumps(
            {k: v for k, v in doc.items() if k != "mean"}),
        "nan_mean": lambda doc: json.dumps(
            {**doc, "mean": [float("nan")] + doc["mean"][1:]}),
        "inf_basis": lambda doc: json.dumps(
            {**doc, "basis": [[float("inf")] + doc["basis"][0][1:]]
             + doc["basis"][1:]}),
        "nan_eigenvalues": lambda doc: json.dumps(
            {**doc, "eigenvalues": [float("nan")] + doc["eigenvalues"][1:]}),
        "negative_eigenvalues": lambda doc: json.dumps(
            {**doc, "eigenvalues": [-1.0] + doc["eigenvalues"][1:]}),
        "zero_eigenvalues": lambda doc: json.dumps(
            {**doc, "eigenvalues": doc["eigenvalues"][:-1] + [0.0]}),
    }

    @staticmethod
    def dataset(tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "3"] + SMALL_ARGS) == 0
        return data

    @pytest.mark.parametrize("case", sorted(SCENE_EDITS))
    def test_bad_scene_json_exit3(self, tmp_path, capsys, case):
        data = self.dataset(tmp_path)
        path = data / "scene_0000" / "scene.json"
        path.write_text(self.SCENE_EDITS[case](json.loads(path.read_text())))
        code = main(["train", "--dataset", str(data),
                     "--out", str(tmp_path / "m.json")] + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "scene.json" in err

    @pytest.mark.parametrize("case", sorted(MODEL_EDITS))
    def test_bad_model_exit3(self, tmp_path, capsys, case):
        data = self.dataset(tmp_path)
        model = tmp_path / "m.json"
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        model.write_text(self.MODEL_EDITS[case](json.loads(model.read_text())))
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(tmp_path / "seg")] + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "m.json" in err
        # a bad value names its field
        field = case.rpartition("_")[2]
        assert field == "json" or field in err


class TestSegment:
    def test_missing_model_exit3(self, tmp_path):
        code = main(["segment", "--model", str(tmp_path / "none.json"),
                     "--dataset", str(tmp_path), "--out",
                     str(tmp_path / "o")])
        assert code == 3

    def test_k_mismatch_exit2(self, tmp_path, capsys):
        data, model, _, _ = run_pipeline(tmp_path, "k")
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(tmp_path / "o2"), "--k", "90"])
        assert code == 2
        err = capsys.readouterr().err
        assert "72" in err and "90" in err

    def test_outputs_and_quality(self, tmp_path):
        data, model, out, report = run_pipeline(tmp_path, "q")
        traces = sorted(out.glob("*_trace.json"))
        assert len(traces) == 4
        reasons = []
        for trace_path in traces:
            doc = json.loads(trace_path.read_text())
            assert set(doc) == {"iterations", "final_energy", "halted_reason"}
            assert doc["halted_reason"] in ("energy_threshold", "no_decrease",
                                            "max_iterations", "zero_gradient")
            reasons.append(doc["halted_reason"])
            for row in doc["iterations"]:
                assert set(row) == {"k", "energy", "delta", "step_norm",
                                    "accepted"}
        # easy synthetic scenes reach the energy threshold
        assert "energy_threshold" in reasons
        assert len(sorted(out.glob("*_obj*.pgm"))) == 8
        assert len(sorted(out.glob("*_overlay.ppm"))) == 4
        summary = json.loads((out / "segment_summary.json").read_text())
        assert summary["mean_dsc"] >= 0.85

    def test_parallel_jobs_identical(self, tmp_path):
        data, model, out, _ = run_pipeline(tmp_path, "j")
        out2 = tmp_path / "seg_j2"
        assert main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(out2), "--jobs", "2"] + SMALL_ARGS) == 0
        assert tree_bytes(out) == tree_bytes(out2)


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "3",
                     "--seed", "4"] + SMALL_ARGS) == 0
        pred = tmp_path / "pred"
        pred.mkdir()
        for scene in ms.import_dataset(data):
            for i, mask in enumerate(scene.truth):
                ms.write_pgm(pred / f"{scene.scene_id}_obj{i}.pgm", mask)
        report = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(pred), "--dataset", str(data),
                     "--report", str(report)] + SMALL_ARGS) == 0
        doc = json.loads(report.read_text())
        agg = doc["aggregate"]
        assert agg["tpr"]["mean"] == 1.0
        assert agg["tnr"]["mean"] == 1.0
        assert agg["fpr"]["mean"] == 0.0
        assert agg["fnr"]["mean"] == 0.0
        assert agg["dsc"]["mean"] == 1.0

    def test_empty_predictions(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "4"] + SMALL_ARGS) == 0
        pred = tmp_path / "pred"
        pred.mkdir()
        for scene in ms.import_dataset(data):
            empty = np.zeros(scene.clump.shape, dtype=bool)
            for i in range(scene.n_objects):
                ms.write_pgm(pred / f"{scene.scene_id}_obj{i}.pgm", empty)
        report = tmp_path / "r.json"
        assert main(["evaluate", "--pred", str(pred), "--dataset", str(data),
                     "--report", str(report)] + SMALL_ARGS) == 0
        doc = json.loads(report.read_text())
        assert doc["aggregate"]["tpr"]["mean"] == 0.0
        assert doc["aggregate"]["fnr"]["mean"] == 1.0

    def test_count_mismatch_names_scene(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "1",
                     "--seed", "4"] + SMALL_ARGS) == 0
        scene = ms.import_dataset(data)[0]
        pred = tmp_path / "pred"
        pred.mkdir()
        ms.write_pgm(pred / f"{scene.scene_id}_obj0.pgm", scene.truth[0])
        code = main(["evaluate", "--pred", str(pred), "--dataset", str(data),
                     "--report", str(tmp_path / "r.json")] + SMALL_ARGS)
        assert code == 2
        assert scene.scene_id in capsys.readouterr().err

    def test_report_rerun_byte_identical(self, tmp_path):
        data, model, out, report = run_pipeline(tmp_path, "det")
        report2 = tmp_path / "report2.json"
        assert main(["evaluate", "--pred", str(out), "--dataset", str(data),
                     "--report", str(report2)] + SMALL_ARGS) == 0
        assert report.read_bytes() == report2.read_bytes()

    def test_csv_matches_json(self, tmp_path):
        import csv as csv_mod
        data, model, out, report = run_pipeline(tmp_path, "csv")
        doc = json.loads(report.read_text())
        with open(str(report) + ".csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        by_scene = {s["scene_id"]: s for s in doc["scenes"]}
        assert len(rows) == sum(len(s["objects"]) for s in doc["scenes"])
        for row in rows:
            scene = by_scene[row["scene_id"]]
            obj = scene["objects"][int(row["object_id"])]
            assert float(row["dsc"]) == obj["dsc"]
            assert float(row["overlapping_degree"]) == obj["overlapping_degree"]
            assert float(row["tpr"]) == scene["tpr"]
            assert float(row["fnr"]) == scene["fnr"]
