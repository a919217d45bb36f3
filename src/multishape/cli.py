"""Command-line pipeline: generate, train, segment, evaluate."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import metrics as metrics_mod
from .config import SEED_ENV_VAR, RunConfig, schema_keys
from .errors import (
    CentroidOutsideMask,
    ConfigError,
    DatasetIOError,
    DegenerateMask,
    MultishapeError,
)
from .evolution import evolve
from .importance import TrainingPair, dataset_examples, learn
from .metrics import bin_by_degree, object_report, pixel_metrics
from .netpbm import atomic_write, read_pgm, write_pgm, write_ppm
from .raster import boundary
from .shape_model import build_model, load_model, sample_shape_vector, save_model
from .synthgen import export_dataset, generate_batch, import_dataset

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

OVERLAY_PALETTE = (
    (255, 80, 80), (80, 220, 80), (110, 110, 255),
    (240, 240, 80), (240, 80, 240), (80, 240, 240),
)
CLUMP_GRAY = 96


def _fail(category, message):
    print(f"error:{category}: {message}", file=sys.stderr)
    return EXIT_CONFIG if category == "config" else EXIT_IO


def _dump_json(path, doc):
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _config_from_args(args):
    return RunConfig.load(path=args.config, overrides=args.overrides)


def _load_scenes(path):
    scenes = sorted(import_dataset(path), key=lambda scene: scene.scene_id)
    if not scenes:
        raise DatasetIOError(f"no scenes found in {path}")
    return scenes


def cmd_generate(args):
    cfg = _config_from_args(args)
    generator = cfg.generator
    # the environment seed has the last word; RunConfig already applied it
    if args.seed is not None and SEED_ENV_VAR not in os.environ:
        generator = replace(generator, seed=args.seed)
    scenes = generate_batch(generator, args.count)
    export_dataset(scenes, args.out)
    print(f"generated {len(scenes)} scenes into {args.out} "
          f"(seed {generator.seed})")
    return EXIT_OK


def _select_fold(scenes, fold, folds, invert):
    if folds is None:
        return scenes
    if fold is None or not 0 <= fold < folds:
        raise ConfigError(f"--fold must be in [0, {folds})")
    chosen = [s for i, s in enumerate(scenes) if i % folds == fold]
    if invert:
        chosen = [s for i, s in enumerate(scenes) if i % folds != fold]
    return chosen


def _sample_examples(scenes, k, step):
    pairs = []
    for scene in scenes:
        if scene.truth is None:
            raise DatasetIOError(
                f"{scene.scene_id}: training needs truth masks")
        shapes = []
        for i, (mask, centroid) in enumerate(zip(scene.truth,
                                                 scene.centroids)):
            try:
                shapes.append(sample_shape_vector(mask, centroid, k))
            except (DegenerateMask, CentroidOutsideMask) as exc:
                raise type(exc)(
                    f"{scene.scene_id} object {i}: {exc}") from exc
        pairs.append(TrainingPair(scene=scene, shapes=shapes))
    return pairs, dataset_examples(pairs, step=step)


def cmd_train(args):
    cfg = _config_from_args(args)
    scenes = _load_scenes(args.dataset)
    selected = _select_fold(scenes, args.fold, args.folds, args.invert)
    if not selected:
        raise ConfigError("fold selection left no training scenes")
    pairs, example_set = _sample_examples(selected, cfg.k, cfg.learning.step)

    history = []
    if args.learn_importance:
        weights, model, history = learn(pairs, cfg.learning)
    else:
        model = build_model(example_set, cfg.variance_threshold)
        weights = example_set.weights

    model.weights = np.asarray(weights, dtype=np.float64)
    save_model(model, args.out)
    manifest = {
        "dataset": os.path.abspath(args.dataset),
        "training_scenes": [s.scene_id for s in selected],
        "examples": [
            {"scene_id": ex.scene_id, "object_id": ex.object_id}
            for ex in example_set.examples
        ],
        "fold": args.fold,
        "folds": args.folds,
        "invert": bool(args.invert),
        "k": cfg.k,
        "t": model.t,
        "variance_threshold": cfg.variance_threshold,
        "learned_importance": bool(args.learn_importance),
    }
    _dump_json(f"{args.out}.manifest.json", manifest)
    if history:
        lines = [json.dumps({
            "cycle": u.cycle, "pair": u.pair_index, "example": u.example_index,
            "scene_id": u.scene_id, "object_id": u.object_id,
            "weight": u.weight, "energy_before": u.energy_before,
            "energy_after": u.energy_after,
        }, sort_keys=True) for u in history]
        atomic_write(f"{args.out}.history.jsonl", "\n".join(lines) + "\n")
    print(f"trained on {len(selected)} scenes, {len(example_set)} examples, "
          f"t={model.t}, variance_fraction={model.variance_fraction:.6f}, "
          f"{len(history)} weight updates")
    return EXIT_OK


def _overlay_image(scene, masks):
    height, width = scene.clump.shape
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    rgb[scene.clump] = CLUMP_GRAY
    for i, mask in enumerate(masks):
        color = OVERLAY_PALETTE[i % len(OVERLAY_PALETTE)]
        rgb[boundary(mask)] = color
    return rgb


def _segment_scene(scene, model, evolution_config, out_dir):
    masks, state = evolve(scene, model, evolution_config)
    for i, mask in enumerate(masks):
        write_pgm(os.path.join(out_dir, f"{scene.scene_id}_obj{i}.pgm"), mask)
    trace_doc = {
        "iterations": [
            {"k": row.iteration, "energy": row.energy, "delta": row.delta,
             "step_norm": row.step_norm, "accepted": row.accepted}
            for row in state.trace
        ],
        "final_energy": state.energy,
        "halted_reason": state.halted_reason,
    }
    _dump_json(os.path.join(out_dir, f"{scene.scene_id}_trace.json"),
               trace_doc)
    write_ppm(os.path.join(out_dir, f"{scene.scene_id}_overlay.ppm"),
              _overlay_image(scene, masks))
    summary = {
        "scene_id": scene.scene_id,
        "final_energy": state.energy,
        "halted_reason": state.halted_reason,
        "iterations": state.iteration,
    }
    if scene.truth is not None:
        summary["dsc"] = [metrics_mod.dsc(m, t)
                          for m, t in zip(masks, scene.truth)]
    return summary


def cmd_segment(args):
    cfg = _config_from_args(args)
    if not os.path.exists(args.model):
        raise DatasetIOError(f"missing model file: {args.model}")
    model = load_model(args.model)
    if model.k != cfg.k:
        raise ConfigError(
            f"model K={model.k} does not match configured K={cfg.k}")
    scenes = _load_scenes(args.dataset)
    os.makedirs(args.out, exist_ok=True)

    jobs = max(1, args.jobs)
    if jobs == 1:
        summaries = [_segment_scene(s, model, cfg.evolution, args.out)
                     for s in scenes]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_segment_scene, s, model, cfg.evolution,
                                   args.out) for s in scenes]
            summaries = [f.result() for f in futures]
    summaries.sort(key=lambda s: s["scene_id"])
    all_dsc = [v for s in summaries for v in s.get("dsc", [])]
    report = {"scenes": summaries}
    if all_dsc:
        report["mean_dsc"] = float(np.mean(all_dsc))
    _dump_json(os.path.join(args.out, "segment_summary.json"), report)
    line = f"segmented {len(scenes)} scenes into {args.out}"
    if all_dsc:
        line += f", mean_dsc={report['mean_dsc']:.4f}"
    print(line)
    return EXIT_OK


def cmd_evaluate(args):
    cfg = _config_from_args(args)
    scenes = _load_scenes(args.dataset)
    scene_rows = []
    all_reports = []
    pixel_values = {"tpr": [], "tnr": [], "fpr": [], "fnr": []}
    for scene in scenes:
        if scene.truth is None:
            raise DatasetIOError(f"{scene.scene_id}: no truth masks")
        predicted = []
        i = 0
        while True:
            path = os.path.join(args.pred, f"{scene.scene_id}_obj{i}.pgm")
            if not os.path.exists(path):
                break
            predicted.append(read_pgm(path))
            i += 1
        if len(predicted) != len(scene.truth):
            raise ConfigError(
                f"{scene.scene_id}: {len(predicted)} predictions for "
                f"{len(scene.truth)} truth masks")
        pix = pixel_metrics(predicted, scene.truth)
        objects = []
        for j, (pred, truth) in enumerate(zip(predicted, scene.truth)):
            others = [t for m, t in enumerate(scene.truth) if m != j]
            rep = object_report(j, pred, truth, others,
                                scene.centroids[j], cfg.k)
            objects.append(rep)
            all_reports.append(rep)
        for name in pixel_values:
            pixel_values[name].append(getattr(pix, name))
        scene_rows.append({
            "scene_id": scene.scene_id,
            "tpr": pix.tpr, "tnr": pix.tnr, "fpr": pix.fpr, "fnr": pix.fnr,
            "objects": [
                {"object_id": r.object_id, "dsc": r.dsc,
                 "overlapping_degree": r.overlapping_degree,
                 "bin": r.bin_index, "isolated": r.isolated}
                for r in objects
            ],
        })

    aggregate = {
        name: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
        for name, vals in pixel_values.items()
    }
    dsc_values = [r.dsc for r in all_reports]
    aggregate["dsc"] = {"mean": float(np.mean(dsc_values)),
                        "std": float(np.std(dsc_values))}
    report = {
        "scenes": scene_rows,
        "aggregate": aggregate,
        "bins": bin_by_degree(all_reports),
    }
    _dump_json(args.report, report)

    if args.csv:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["scene_id", "object_id", "dsc",
                         "overlapping_degree", "bin", "isolated",
                         "tpr", "tnr", "fpr", "fnr"])
        for row in scene_rows:
            for obj in row["objects"]:
                writer.writerow([
                    row["scene_id"], obj["object_id"],
                    repr(obj["dsc"]), repr(obj["overlapping_degree"]),
                    obj["bin"], int(obj["isolated"]),
                    repr(row["tpr"]), repr(row["tnr"]),
                    repr(row["fpr"]), repr(row["fnr"]),
                ])
        atomic_write(args.csv, text.getvalue())
    print(f"evaluated {len(scenes)} scenes; "
          f"dsc mean={aggregate['dsc']['mean']:.4f}")
    return EXIT_OK


class _OverrideAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        overrides = getattr(namespace, "overrides", None) or {}
        overrides[option_string.lstrip("-")] = values
        namespace.overrides = overrides


def _add_common(parser):
    parser.add_argument("--config", default=None,
                        help="JSON or key=value configuration file")
    for key in schema_keys():
        parser.add_argument(f"--{key}", action=_OverrideAction,
                            metavar="VALUE", dest="overrides",
                            help=argparse.SUPPRESS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multishape",
        description="Segment overlapping objects by evolving radial shape "
                    "hypotheses against a clump mask.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="build a shape model from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--learn-importance", action="store_true")
    p.add_argument("--fold", type=int, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--invert", action="store_true",
                   help="train on the complement of the selected fold")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment every scene of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        return _fail("config", exc)
    except (DatasetIOError, OSError) as exc:
        return _fail("io", exc)
    except MultishapeError as exc:
        return _fail("config", exc)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error:internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
