import json
import shutil
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import multishape as ms
import multishape.cli
from multishape.cli import _fail, main
from multishape.synthgen import MAX_CANVAS_SIDE, MAX_SCENE_PIXELS

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


def repeat_scene_id(data):
    """Give scene_0001 the scene_id of scene_0000."""
    path = data / "scene_0001" / "scene.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "scene_id": "scene_0000"}))


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

    def test_holds_one_scene_at_a_time(self, tmp_path, capsys):
        # 30 default-scale scenes: about 3 MB when each is written as it
        # is generated, about 12 MB when all are held first
        tracemalloc.start()
        try:
            assert main(["generate", "--out", str(tmp_path / "data"),
                         "--count", "30", "--seed", "7"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6e6
        assert capsys.readouterr().out.startswith("generated 30 scenes")
        assert len(ms.import_dataset(tmp_path / "data")) == 30

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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_count_exit2(self, tmp_path, capsys, count):
        out = tmp_path / "d"
        code = main(["generate", "--out", str(out), "--count", count]
                    + SMALL_ARGS)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: --count")
        assert not out.exists()

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

    def test_seed_flag_outranks_generator_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MULTISHAPE_SEED", raising=False)
        trees = {}
        for tag, seeds in (("both", ["--seed", "5", "--generator.seed", "6"]),
                           ("5", ["--generator.seed", "5"]),
                           ("6", ["--generator.seed", "6"])):
            out = tmp_path / tag
            assert main(["generate", "--out", str(out), "--count", "2"]
                        + seeds + SMALL_ARGS) == 0
            trees[tag] = tree_bytes(out)
        assert trees["both"] == trees["5"] != trees["6"]

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

    def test_repeated_scene_id_exit3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "8"] + SMALL_ARGS) == 0
        repeat_scene_id(data)
        capsys.readouterr()
        model = tmp_path / "m.json"
        code = main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "'scene_0000'" in err
        assert not model.exists()

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

    @pytest.mark.parametrize("flags", [["--fold", "2"], ["--invert"],
                                       ["--fold", "0", "--invert"]])
    def test_fold_without_folds_exit2(self, tmp_path, capsys, flags):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "3",
                     "--seed", "2"] + SMALL_ARGS) == 0
        model = tmp_path / "m.json"
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + flags + SMALL_ARGS) == 2
        assert capsys.readouterr().err.startswith("error:config: --fold")
        assert not model.exists()


class TestMalformedFiles:
    """Malformed dataset and model files are I/O errors: exit 3."""

    SCENE_EDITS = {
        "invalid_json": lambda doc: "{not json",
        "no_centroids": lambda doc: json.dumps(
            {k: v for k, v in doc.items() if k != "centroids"}),
        "empty_centroids": lambda doc: json.dumps(
            {**doc, "centroids": [], "truth_count": 0}),
        "dims_mismatch": lambda doc: json.dumps({**doc, "dims": [95, 96]}),
        # numbers past the finite, whole-for-an-int rule
        "inf_dims": lambda doc: json.dumps(
            {**doc, "dims": [float("inf"), 96]}),
        "inf_truth_count": lambda doc: json.dumps(
            {**doc, "truth_count": float("inf")}),
        "inf_centroid": lambda doc: json.dumps(
            {**doc, "centroids": [[float("inf"), 5]] + doc["centroids"][1:]}),
        "nan_centroid": lambda doc: json.dumps(
            {**doc, "centroids": [[float("nan"), 5]] + doc["centroids"][1:]}),
        "fractional_dims": lambda doc: json.dumps(
            {**doc, "dims": [96.5, 96]}),
        # a scene_id names output files, so it must be one file name
        "parent_scene_id": lambda doc: json.dumps(
            {**doc, "scene_id": "../evil"}),
        "nested_scene_id": lambda doc: json.dumps(
            {**doc, "scene_id": "a/b"}),
        "dot_scene_id": lambda doc: json.dumps({**doc, "scene_id": "."}),
        "empty_scene_id": lambda doc: json.dumps({**doc, "scene_id": ""}),
        "nul_scene_id": lambda doc: json.dumps({**doc, "scene_id": "a\0b"}),
        "number_scene_id": lambda doc: json.dumps({**doc, "scene_id": 7}),
        # a truth_count that is negative or disagrees with the centroids
        "negative_truth_count": lambda doc: json.dumps(
            {**doc, "truth_count": -1}),
        "mismatched_truth_count": lambda doc: json.dumps(
            {**doc, "truth_count": len(doc["centroids"]) + 1}),
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
        "string_mean": lambda doc: json.dumps(
            {**doc, "mean": ["wide"] + doc["mean"][1:]}),
        "ragged_basis": lambda doc: json.dumps(
            {**doc, "basis": doc["basis"] + [doc["basis"][0][:-1]]}),
        # fields that disagree in shape with each other
        "empty_shapes": lambda doc: json.dumps(
            {**doc, "t": 0, "basis": [], "eigenvalues": []}),
        "text_k": lambda doc: json.dumps({**doc, "k": "abc"}),
        "text_t": lambda doc: json.dumps({**doc, "t": "abc"}),
        "text_weights": lambda doc: json.dumps(
            {**doc, "weights": ["heavy"] + doc["weights"][1:]}),
        "list_variance_fraction": lambda doc: json.dumps(
            {**doc, "variance_fraction": [0.5]}),
        # one basis column scaled by 3: finite, but not orthonormal
        "scaled_basis": lambda doc: json.dumps(
            {**doc, "basis": [[3.0 * v for v in doc["basis"][0]]]
             + doc["basis"][1:]}),
        "unknown_extra": lambda doc: json.dumps({**doc, "extra": 1}),
        "inf_k": lambda doc: json.dumps({**doc, "k": float("inf")}),
        "fractional_k": lambda doc: json.dumps({**doc, "k": doc["k"] + 0.5}),
        "inf_variance_fraction": lambda doc: json.dumps(
            {**doc, "variance_fraction": float("inf")}),
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

    @pytest.mark.parametrize("command", ["train", "segment", "evaluate"])
    def test_resized_truth_exit3(self, tmp_path, capsys, command):
        data = self.dataset(tmp_path)
        model, pred = tmp_path / "m.json", tmp_path / "pred"
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        pred.mkdir()
        for scene in ms.import_dataset(data):
            for i, mask in enumerate(scene.truth):
                ms.write_pgm(pred / f"{scene.scene_id}_obj{i}.pgm", mask)
        ms.write_pgm(data / "scene_0001" / "truth_1.pgm",
                     np.ones((10, 10), dtype=bool))
        capsys.readouterr()
        out = tmp_path / "out"
        args = {"train": ["--out", str(out)],
                "segment": ["--model", str(model), "--out", str(out)],
                "evaluate": ["--pred", str(pred), "--report", str(out)]}
        code = main([command, "--dataset", str(data), *args[command]]
                    + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:")
        assert "scene_0001" in err and "truth_1.pgm" in err
        if command == "segment":
            # only the scene with the resized mask fails
            summary = json.loads((out / "segment_summary.json").read_text())
            halts = {s["scene_id"]: s["halted_reason"]
                     for s in summary["scenes"]}
            assert halts["scene_0001"] == "error"
            assert halts["scene_0000"] != "error"
        else:
            assert not out.exists()

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


def error_types():
    """Every package error class, the base included."""
    return sorted((cls for cls in vars(ms.errors).values()
                   if isinstance(cls, type)
                   and issubclass(cls, ms.MultishapeError)),
                  key=lambda cls: cls.__name__)


class TestFail:
    """``cli._fail`` maps I/O errors to exit 3 and all others to exit 2."""

    @pytest.mark.parametrize("error", error_types() + [OSError],
                             ids=lambda cls: cls.__name__)
    def test_exit_code_and_category(self, capsys, error):
        io = issubclass(error, (ms.DatasetIOError, OSError))
        assert _fail(error("boom"), "scene_0001: ") == (3 if io else 2)
        category = "io" if io else "config"
        assert capsys.readouterr().err \
            == f"error:{category}: scene_0001: boom\n"


class TestSegment:
    def test_missing_model_exit3(self, tmp_path, capsys):
        model = str(tmp_path / "none.json")
        code = main(["segment", "--model", model,
                     "--dataset", str(tmp_path), "--out",
                     str(tmp_path / "o")])
        assert code == 3
        assert model in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exit2(self, tmp_path, capsys, jobs):
        # checked before the (missing) model is read, which would exit 3
        out = tmp_path / "o"
        code = main(["segment", "--model", str(tmp_path / "none.json"),
                     "--dataset", str(tmp_path), "--out", str(out),
                     "--jobs", jobs])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: --jobs")
        assert not out.exists()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_scene_isolated(self, tmp_path, capsys, jobs):
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "5",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        # scene 1: a centroid on the background corner; scene 2: a NaN
        # centroid; scene 3: a directory in place of scene.json
        for scene_id, centroid in (("scene_0001", [0.5, 0.5]),
                                   ("scene_0002", [float("nan"), 5.0])):
            path = data / scene_id / "scene.json"
            doc = json.loads(path.read_text())
            doc["centroids"][0] = centroid
            path.write_text(json.dumps(doc))
        (data / "scene_0003" / "scene.json").unlink()
        (data / "scene_0003" / "scene.json").mkdir()
        out = tmp_path / "seg"
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(out), "--jobs", jobs] + SMALL_ARGS)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: scene_0001: centroid")
        assert "error:internal" not in err
        assert [line.split(":")[1] for line in err.splitlines()] \
            == ["config", "io", "io"]
        summary = json.loads((out / "segment_summary.json").read_text())
        scenes = {s["scene_id"]: s for s in summary["scenes"]}
        assert sorted(scenes) == [f"scene_{i:04d}" for i in range(5)]
        assert "not on clump foreground" in scenes["scene_0001"]["error"]
        assert "malformed scene manifest" in scenes["scene_0002"]["error"]
        assert "cannot read" in scenes["scene_0003"]["error"]
        for scene_id in ("scene_0001", "scene_0002", "scene_0003"):
            assert scenes[scene_id]["halted_reason"] == "error"
            assert not (out / f"{scene_id}_trace.json").exists()
        for scene_id in ("scene_0000", "scene_0004"):
            assert scenes[scene_id]["halted_reason"] != "error"
            assert (out / f"{scene_id}_trace.json").exists()
        assert summary["mean_dsc"] >= 0.85

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_output_fails_alone(self, tmp_path, capsys, jobs):
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "4",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        # a directory where scene_0001's first mask goes: the rename of its
        # temporary file fails with an OSError
        out = tmp_path / "seg"
        (out / "scene_0001_obj0.pgm").mkdir(parents=True)
        capsys.readouterr()
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(out), "--jobs", jobs] + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "scene_0001_obj0.pgm" in err
        summary = json.loads((out / "segment_summary.json").read_text())
        halts = {s["scene_id"]: s["halted_reason"] for s in summary["scenes"]}
        assert halts.pop("scene_0001") == "error"
        assert sorted(halts) == ["scene_0000", "scene_0002", "scene_0003"]
        assert "error" not in halts.values()
        for scene_id in halts:
            assert (out / f"{scene_id}_trace.json").exists()
        assert list(out.glob("*.tmp*")) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_scene_not_scored(self, tmp_path, capsys, jobs):
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "3",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        # a directory where scene_0001's trace goes fails the scene before
        # any of its masks is written
        out = tmp_path / "seg"
        (out / "scene_0001_trace.json").mkdir(parents=True)
        assert main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(out), "--jobs", jobs] + SMALL_ARGS) == 3
        assert list(out.glob("scene_0001_obj*")) == []
        assert (out / "scene_0002_obj0.pgm").exists()
        capsys.readouterr()
        code = main(["evaluate", "--pred", str(out), "--dataset", str(data),
                     "--report", str(tmp_path / "r.json")] + SMALL_ARGS)
        assert code == 2
        err = capsys.readouterr().err
        assert "scene_0001: 0 predictions for 2 truth masks" in err
        assert not (tmp_path / "r.json").exists()

    def test_writes_nothing_outside_out(self, tmp_path, capsys):
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        path = data / "scene_0001" / "scene.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "scene_id": "../evil"}))
        root = tmp_path / "out"
        root.mkdir()
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(root / "seg")] + SMALL_ARGS)
        assert code == 3
        assert "scene_id '../evil'" in capsys.readouterr().err
        assert [p.name for p in root.iterdir()] == ["seg"]
        assert sorted(p.name for p in (root / "seg").iterdir()) == [
            "scene_0000_obj0.pgm", "scene_0000_obj1.pgm",
            "scene_0000_overlay.ppm", "scene_0000_trace.json",
            "segment_summary.json"]

    def test_repeated_scene_id_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "3",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        repeat_scene_id(data)
        # an unreadable manifest still fails only its own scene
        (data / "scene_0002" / "scene.json").write_text("{not json")
        capsys.readouterr()
        out = tmp_path / "seg"
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(out)] + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "'scene_0000'" in err
        assert not out.exists()

    @staticmethod
    def segment_edited_manifest(tmp_path, capsys, **fields):
        """``(exit code, stderr, halt reasons)`` of ``segment`` on two
        scenes, the second with ``fields`` replaced in its scene.json."""
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        path = data / "scene_0001" / "scene.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, **fields}))
        capsys.readouterr()
        out = tmp_path / "seg"
        code = main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(out)] + SMALL_ARGS)
        err = capsys.readouterr().err
        summary = json.loads((out / "segment_summary.json").read_text())
        return code, err, [s["halted_reason"] for s in summary["scenes"]]

    def test_scene_past_the_pixel_ceiling_fails_alone(self, tmp_path,
                                                      capsys):
        code, err, halts = self.segment_edited_manifest(
            tmp_path, capsys, dims=[MAX_SCENE_PIXELS, 1])
        assert code == 3
        # the ceiling, not the dims mismatch with clump.pgm, is reported
        assert err.startswith("error:io:") and "scene.json" in err
        assert str(MAX_SCENE_PIXELS) in err
        assert halts[0] != "error" and halts[1] == "error"

    def test_scene_past_the_side_ceiling_fails_alone(self, tmp_path, capsys):
        code, err, halts = self.segment_edited_manifest(
            tmp_path, capsys, dims=[MAX_CANVAS_SIDE + 1, 6],
            centroids=[[1.0, 1.0]], truth_count=0)
        assert code == 3
        # the side ceiling, not the dims mismatch with clump.pgm
        assert err.startswith("error:io:") and "scene.json" in err
        assert str(MAX_CANVAS_SIDE) in err
        assert halts[0] != "error" and halts[1] == "error"

    def test_jobs_capped_at_scene_count(self, tmp_path, monkeypatch):
        pools = []

        class InlinePool:
            """Records its worker count and runs the work in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(multishape.cli.concurrent.futures,
                            "ProcessPoolExecutor", InlinePool)
        data = tmp_path / "data"
        model = tmp_path / "m.json"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "5"] + SMALL_ARGS) == 0
        assert main(["train", "--dataset", str(data), "--out", str(model)]
                    + SMALL_ARGS) == 0
        assert main(["segment", "--model", str(model), "--dataset", str(data),
                     "--out", str(tmp_path / "seg2"), "--jobs", "64"]
                    + SMALL_ARGS) == 0
        assert pools == [2]
        # one scene runs inline, with no pool at all
        single = tmp_path / "single"
        shutil.copytree(data / "scene_0000", single / "scene_0000")
        out = tmp_path / "seg1"
        assert main(["segment", "--model", str(model), "--dataset",
                     str(single), "--out", str(out), "--jobs", "64"]
                    + SMALL_ARGS) == 0
        assert pools == [2]
        assert (out / "scene_0000_trace.json").exists()

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

    def test_repeated_scene_id_exit3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "4"] + SMALL_ARGS) == 0
        pred = tmp_path / "pred"
        pred.mkdir()
        for scene in ms.import_dataset(data):
            for i, mask in enumerate(scene.truth):
                ms.write_pgm(pred / f"{scene.scene_id}_obj{i}.pgm", mask)
        repeat_scene_id(data)
        capsys.readouterr()
        report = tmp_path / "r.json"
        code = main(["evaluate", "--pred", str(pred), "--dataset", str(data),
                     "--report", str(report)] + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "'scene_0000'" in err
        assert not report.exists()

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

    def test_resized_prediction_exit3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "2",
                     "--seed", "4"] + SMALL_ARGS) == 0
        pred = tmp_path / "pred"
        pred.mkdir()
        for scene in ms.import_dataset(data):
            for i, mask in enumerate(scene.truth):
                ms.write_pgm(pred / f"{scene.scene_id}_obj{i}.pgm", mask)
        ms.write_pgm(pred / "scene_0001_obj0.pgm",
                     np.ones((10, 10), dtype=bool))
        capsys.readouterr()
        report = tmp_path / "r.json"
        code = main(["evaluate", "--pred", str(pred), "--dataset", str(data),
                     "--report", str(report)] + SMALL_ARGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and "scene_0001_obj0.pgm" in err
        assert not report.exists()

    def test_pred_not_a_directory_exit3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--count", "1",
                     "--seed", "4"] + SMALL_ARGS) == 0
        pred = tmp_path / "pred.pgm"
        pred.write_bytes(b"")
        for path in (pred, tmp_path / "none"):
            code = main(["evaluate", "--pred", str(path), "--dataset",
                         str(data), "--report", str(tmp_path / "r.json")]
                        + SMALL_ARGS)
            assert code == 3
            assert capsys.readouterr().err.startswith("error:io:")
        assert not (tmp_path / "r.json").exists()

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
