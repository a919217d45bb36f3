"""The benchmark's three workloads.

Each workload builds its inputs in :meth:`setup`, runs one operation per
:meth:`run` call and verifies that operation's output in :meth:`check`,
which returns a list of problems (empty when the output is correct).
``ops()`` yields the closed-loop request sequence.  A plain run stops only
after a whole ``ROUND`` of requests; a traced run takes the first
``TRACE_OPS`` of them, so its counts repeat exactly.

- ``segment_default``: library ``evolve`` on the pinned default-scale
  scenes (generator seed 7, indices 0..19) with the criterion-2 mixed model
  (scenes 500..529).  The workload seed orders the requests.
- ``learn_toy``: library ``learn`` on the criterion-7 toy, repeated.
- ``dataset_cli``: ``generate``, ``train`` and ``evaluate --csv`` through
  the CLI, one fresh process per command, on 100 scenes generated from the
  workload seed.  Evaluate scores the truth masks as predictions.
"""

from __future__ import annotations

import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import multishape as ms

HERE = os.path.dirname(os.path.abspath(__file__))

HALT_REASONS = ("energy_threshold", "no_decrease", "max_iterations",
                "zero_gradient")


def fingerprint(masks, state, truth):
    """Behaviour of one evolve run: energy, halt, iterations, mean DSC."""
    return {
        "final_energy": int(state.energy),
        "halted_reason": state.halted_reason,
        "iterations": int(state.iteration),
        "dsc": float(np.mean([ms.dsc(m, t) for m, t in zip(masks, truth)])),
    }


def sample_examples(scenes, k):
    return ms.WeightedExampleSet([
        ms.ShapeExample(scene.scene_id, i,
                        ms.sample_shape_vector(mask, centroid, k))
        for scene in scenes
        for i, (mask, centroid) in enumerate(zip(scene.truth,
                                                 scene.centroids))])


class SegmentDefault:
    name = "segment_default"
    in_process = True
    GENERATOR_SEED = 7
    POOL = 20
    TRAIN_START, TRAIN_COUNT = 500, 30
    ROUND = POOL
    TRACE_OPS = POOL
    EVOLVES_PER_OP = 1

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.reference = reference.get(self.name, {})
        self.dsc = []
        self.fingerprint_diffs = 0

    def setup(self):
        gen = ms.GeneratorConfig(seed=self.GENERATOR_SEED)
        train = [ms.generate_scene(gen, self.TRAIN_START + i)
                 for i in range(self.TRAIN_COUNT)]
        self.model = ms.build_model(sample_examples(train, gen.k))
        self.scenes = [ms.generate_scene(gen, i) for i in range(self.POOL)]
        self.config = ms.EvolutionConfig()

    def ops(self):
        order = np.random.default_rng(self.seed).permutation(self.POOL)
        while True:
            yield from (int(i) for i in order)

    def run(self, index):
        return ms.evolve(self.scenes[index], self.model, self.config)

    def check(self, index, output):
        scene = self.scenes[index]
        masks, state = output
        problems = []
        accepted = [row.energy for row in state.trace if row.accepted]
        if any(a <= b for a, b in zip(accepted, accepted[1:])):
            problems.append("accepted energies not strictly decreasing")
        if state.halted_reason not in HALT_REASONS:
            problems.append(f"halt reason {state.halted_reason!r}")
        if len(masks) != scene.n_objects or any(
                np.asarray(m).shape != scene.clump.shape
                or np.asarray(m).dtype != bool for m in masks):
            problems.append("not one clump-shaped boolean mask per object")
            return problems
        observed = fingerprint(masks, state, scene.truth)
        self.dsc.extend(ms.dsc(m, t) for m, t in zip(masks, scene.truth))
        if observed != self.reference.get(scene.scene_id):
            self.fingerprint_diffs += 1
        return problems

    def finish(self):
        return []

    def quality(self):
        return float(np.mean(self.dsc)) if self.dsc else 0.0

    def details(self):
        return {"pool": self.POOL, "generator_seed": self.GENERATOR_SEED,
                "model_t": int(self.model.t)}


def importance_toy():
    """The criterion-7 toy: five near-disks and one ellipse, K=48, 80x80."""
    k = 48
    angles = 2.0 * np.pi * np.arange(k) / k

    def disk(r, wobble=0.0, order=3):
        return r * (1.0 + wobble * np.cos(order * angles))

    def ellipse(a, b):
        return a * b / np.hypot(b * np.cos(angles), a * np.sin(angles))

    def pair(vec, sid):
        center = (40.0, 40.0)
        mask = ms.rasterize(vec, center, ms.Alignment(), (80, 80))
        scene = ms.ClumpScene(clump=mask, centroids=[center], scene_id=sid)
        return ms.TrainingPair(scene=scene, shapes=[vec])

    return [
        pair(disk(12.0), "disk_a"),
        pair(disk(13.5, 0.03), "disk_b"),
        pair(disk(15.0), "disk_c"),
        pair(disk(16.5, 0.03, 4), "disk_d"),
        pair(disk(18.0), "disk_e"),
        pair(ellipse(24.0, 9.0), "ellipse_outlier"),
    ]


class LearnToy:
    name = "learn_toy"
    in_process = True
    ROUND = 1
    TRACE_OPS = 3

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.reference = reference.get(self.name)
        self.fingerprint_diffs = 0
        self.first_weights = None
        self.observed = None
        self.learned_dsc = 0.0

    def setup(self):
        self.dataset = importance_toy()
        self.config = ms.LearningConfig(
            step=0.5, max_tries_per_example=5, max_cycles=4,
            variance_threshold=0.5,
            evolution=ms.EvolutionConfig(max_outer_iterations=4,
                                         energy_threshold_fraction=0.001))
        initial = ms.build_model(
            ms.importance.dataset_examples(self.dataset,
                                           step=self.config.step),
            variance_threshold=self.config.variance_threshold)
        self.energy_before = sum(
            ms.terminated_energy(pair, initial, self.config.evolution)
            for pair in self.dataset)

    def ops(self):
        # the toy is pinned; every request is the same learn call
        while True:
            yield 0

    def run(self, _):
        return ms.learn(self.dataset, self.config)

    def _evaluate(self, model):
        """Terminated energy total and mean DSC of the learned model."""
        total, scores = 0, []
        for pair in self.dataset:
            masks, state = ms.evolve(pair.scene, model, self.config.evolution)
            total += int(state.energy)
            scores.append(ms.dsc(masks[0], pair.scene.clump))
        return total, float(np.mean(scores))

    def check(self, _, output):
        weights, model, history = output
        problems = []
        if not history:
            problems.append("no committed weight update")
        if any(u.energy_after >= u.energy_before for u in history):
            problems.append("a commit did not strictly decrease the energy")
        if np.any(np.asarray(weights) < 1.0):
            problems.append("a weight below 1")
        key = np.asarray(weights, dtype=np.float64).tobytes()
        if self.observed is None:
            # every call learns the same model, so evaluate it once
            energy_after, self.learned_dsc = self._evaluate(model)
            self.first_weights = key
            self.observed = {
                "commits": len(history),
                "energy_before": int(self.energy_before),
                "energy_after": energy_after,
                "weights": [float(w) for w in weights],
            }
        elif key != self.first_weights:
            problems.append("learn is not deterministic across calls")
        if self.observed["energy_after"] > self.energy_before:
            problems.append(f"total energy rose: {self.energy_before} -> "
                            f"{self.observed['energy_after']}")
        if self.observed != self.reference:
            self.fingerprint_diffs += 1
        return problems

    def finish(self):
        return []

    def quality(self):
        return self.learned_dsc

    def details(self):
        observed = self.observed or {}
        return {"learn_energy_before": int(self.energy_before),
                "learn_energy": observed.get("energy_after"),
                "commits": observed.get("commits")}


class DatasetCli:
    """CLI pipeline; each command is a fresh interpreter, as users run it."""

    name = "dataset_cli"
    in_process = False
    SCENES = 100
    ROUND = 1
    TRACE_OPS = 1
    COMMAND_TIMEOUT = 150

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference.get(self.name, {})
        self.fingerprint_diffs = 0
        self.trace_docs = []
        self.command_times = {"generate": [], "train": [], "evaluate": []}
        self.models = []
        self.dsc_means = []
        env = {k: v for k, v in os.environ.items() if k != "MULTISHAPE_SEED"}
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        self.env = env
        self.trace = False
        self.setups = 0

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def setup(self):
        """Export the seed's dataset and the truth-as-prediction masks.

        Each set-up writes into fresh directories, so every repetition does
        the same work; the run removes its work directory at exit.
        """
        self.setups += 1
        self.data, self.pred = f"data{self.setups}", f"pred{self.setups}"
        scenes = ms.generate_batch(ms.GeneratorConfig(seed=self.seed),
                                   self.SCENES)
        ms.export_dataset(scenes, self.path(self.data))
        os.makedirs(self.path(self.pred))
        self.objects = 0
        for scene in scenes:
            for i in range(scene.n_objects):
                shutil.copyfile(
                    self.path(self.data, scene.scene_id, f"truth_{i}.pgm"),
                    self.path(self.pred, f"{scene.scene_id}_obj{i}.pgm"))
                self.objects += 1

    def ops(self):
        count = 0
        while True:
            yield count
            count += 1

    def _command(self, argv, trace_out):
        if trace_out is None:
            cmd = [sys.executable, "-m", "multishape.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   "--trace-out", trace_out, "--"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + argv, env=self.env, cwd=self.workdir,
                              capture_output=True, text=True,
                              timeout=self.COMMAND_TIMEOUT)
        return time.perf_counter() - start, proc

    def run(self, index):
        shutil.rmtree(self.path("gen"), ignore_errors=True)
        commands = (
            ("generate", ["generate", "--out", "gen", "--count",
                          str(self.SCENES), "--seed", str(self.seed)]),
            ("train", ["train", "--dataset", self.data, "--out",
                       "model.json"]),
            ("evaluate", ["evaluate", "--pred", self.pred, "--dataset",
                          self.data, "--report", "report.json", "--csv",
                          "report.csv"]),
        )
        result = {"times": {}, "codes": {}, "errors": {}, "traces": []}
        for name, argv in commands:
            trace_out = (self.path(f"trace_{index}_{name}.json")
                         if self.trace else None)
            elapsed, proc = self._command(argv, trace_out)
            result["times"][name] = elapsed
            result["codes"][name] = proc.returncode
            if proc.returncode != 0:
                result["errors"][name] = proc.stderr.strip()[-300:]
                break
            if trace_out is not None:
                with open(trace_out, encoding="utf-8") as fh:
                    result["traces"].append((name, json.load(fh)))
        return result

    def check(self, index, output):
        problems = [f"{name} exited {code}: {output['errors'].get(name, '')}"
                    for name, code in output["codes"].items() if code != 0]
        if problems or len(output["codes"]) != 3:
            return problems or ["pipeline stopped early"]
        for name, seconds in output["times"].items():
            self.command_times[name].append(seconds)
        self.trace_docs.extend(output["traces"])
        if not self._same_tree(self.path("gen"), self.path(self.data)):
            problems.append("CLI generate differs from the library export")
        with open(self.path("report.json"), encoding="ascii") as fh:
            aggregate = json.load(fh)["aggregate"]
        if aggregate["dsc"]["mean"] != 1.0 or aggregate["tpr"]["mean"] != 1.0:
            problems.append("truth-as-prediction report is not perfect: "
                            f"dsc {aggregate['dsc']['mean']}, "
                            f"tpr {aggregate['tpr']['mean']}")
        self.dsc_means.append(aggregate["dsc"]["mean"])
        with open(self.path("report.csv"), encoding="ascii") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != self.objects:
            problems.append(f"CSV has {rows} rows for {self.objects} objects")
        with open(self.path("model.json"), encoding="ascii") as fh:
            doc = json.load(fh)
        self.models.append((doc["t"], doc["variance_fraction"]))
        return problems

    @staticmethod
    def _same_tree(left, right):
        cmp = filecmp.dircmp(left, right)
        if cmp.left_only or cmp.right_only or cmp.funny_files:
            return False
        _, mismatch, errors = filecmp.cmpfiles(left, right, cmp.common_files,
                                               shallow=False)
        return not mismatch and not errors and all(
            DatasetCli._same_tree(os.path.join(left, d),
                                  os.path.join(right, d))
            for d in cmp.common_dirs)

    def finish(self):
        """Compare every trained model with the reference for this seed.

        The committed reference covers the seeds it lists; for any other
        seed the reference is the library path (sample + build_model) on
        the same scenes.
        """
        if not self.models:
            return []
        ref = self.reference.get(str(self.seed))
        if ref is None:
            ref = reference_model(self.seed, self.SCENES)
        problems = []
        for t, fraction in self.models:
            if t != ref["t"] or abs(fraction - ref["variance_fraction"]) \
                    > 1e-12 * ref["variance_fraction"]:
                problems.append(f"model t={t} variance_fraction={fraction} "
                                f"!= reference {ref}")
        return problems

    def quality(self):
        return float(np.mean(self.dsc_means)) if self.dsc_means else 0.0

    def details(self):
        medians = {f"{name}_s": float(np.median(v))
                   for name, v in self.command_times.items() if v}
        return {"scenes": self.SCENES, "objects": self.objects,
                "command_medians": medians}


def reference_model(seed, count):
    """Model ``t`` and variance fraction by the library path."""
    scenes = ms.generate_batch(ms.GeneratorConfig(seed=seed), count)
    model = ms.build_model(sample_examples(scenes, 360))
    return {"t": int(model.t), "variance_fraction": float(model.variance_fraction)}


WORKLOADS = {cls.name: cls for cls in (SegmentDefault, LearnToy, DatasetCli)}
