"""Command-line pipeline: generate, train, segment, evaluate."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys

import numpy as np

from . import metrics as metrics_mod
from .config import RunConfig, schema_keys
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
from .netpbm import atomic_write, write_json, write_pgm, write_ppm
from .raster import boundary
from .shape_model import build_model, load_model, sample_shape_vector, save_model
from .synthgen import (
    export_dataset,
    generate_scene,
    import_dataset,
    import_scene,
    read_mask,
    scene_dirs,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

OVERLAY_PALETTE = (
    (255, 80, 80), (80, 220, 80), (110, 110, 255),
    (240, 240, 80), (240, 80, 240), (80, 240, 240),
)
CLUMP_GRAY = 96
# pixel rates in report and CSV column order
RATES = ("tpr", "tnr", "fpr", "fnr")


def _fail(exc, prefix=""):
    """Report ``exc`` as a config or I/O error and return its exit code."""
    category = "io" if isinstance(exc, (DatasetIOError, OSError)) else "config"
    print(f"error:{category}: {prefix}{exc}", file=sys.stderr)
    return EXIT_CONFIG if category == "config" else EXIT_IO


def _config_from_args(args):
    return RunConfig.load(path=args.config, overrides=args.overrides)


def _load_scenes(path):
    return sorted(import_dataset(path), key=lambda scene: scene.scene_id)


def cmd_generate(args):
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    # --seed outranks --generator.seed; RunConfig applies MULTISHAPE_SEED last
    overrides = dict(args.overrides or {})
    if args.seed is not None:
        overrides["generator.seed"] = args.seed
    generator = RunConfig.load(path=args.config, overrides=overrides).generator
    # one scene at a time: memory does not grow with --count
    export_dataset((generate_scene(generator, i) for i in range(args.count)),
                   args.out)
    print(f"generated {args.count} scenes into {args.out} "
          f"(seed {generator.seed})")
    return EXIT_OK


def _select_fold(scenes, fold, folds, invert):
    if folds is None:
        if fold is not None or invert:
            raise ConfigError("--fold and --invert need --folds")
        return scenes
    if fold is None or not 0 <= fold < folds:
        raise ConfigError(f"--fold must be in [0, {folds})")
    return [s for i, s in enumerate(scenes) if (i % folds == fold) != invert]


def _sample_examples(scenes, k):
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
    return pairs, dataset_examples(pairs)


def cmd_train(args):
    cfg = _config_from_args(args)
    scenes = _load_scenes(args.dataset)
    selected = _select_fold(scenes, args.fold, args.folds, args.invert)
    if not selected:
        raise ConfigError("fold selection left no training scenes")
    pairs, example_set = _sample_examples(selected, cfg.generator.k)

    history = []
    if args.learn_importance:
        _, model, history = learn(pairs, cfg.learning)
    else:
        model = build_model(example_set, cfg.learning.variance_threshold)

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
        "k": cfg.generator.k,
        "t": model.t,
        "variance_threshold": cfg.learning.variance_threshold,
        "learned_importance": bool(args.learn_importance),
    }
    write_json(f"{args.out}.manifest.json", manifest)
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


def _segment_scene(scene_dir, model, evolution_config, out_dir):
    """Load and segment one scene; a package error fails only this scene.

    Returns ``(summary, error)``, where ``error`` is the caught
    :class:`MultishapeError` or None.
    """
    try:
        scene = import_scene(scene_dir)
        return _write_segmentation(scene, model, evolution_config,
                                   out_dir), None
    except MultishapeError as exc:
        summary = {"scene_id": os.path.basename(scene_dir),
                   "halted_reason": "error", "error": str(exc)}
        return summary, exc


def _write_segmentation(scene, model, evolution_config, out_dir):
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
    write_json(os.path.join(out_dir, f"{scene.scene_id}_trace.json"),
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
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _config_from_args(args)
    model = load_model(args.model)
    if model.k != cfg.generator.k:
        raise ConfigError(f"model K={model.k} does not match configured "
                          f"K={cfg.generator.k}")
    scenes = scene_dirs(args.dataset)
    os.makedirs(args.out, exist_ok=True)

    # at most one worker per scene; fork starts them all at the first submit
    workers = min(args.jobs, len(scenes))
    if workers == 1:
        results = [_segment_scene(s, model, cfg.evolution, args.out)
                   for s in scenes]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            futures = [pool.submit(_segment_scene, s, model, cfg.evolution,
                                   args.out) for s in scenes]
            results = [f.result() for f in futures]
    results.sort(key=lambda result: result[0]["scene_id"])
    summaries = [summary for summary, _ in results]
    all_dsc = [v for s in summaries for v in s.get("dsc", [])]
    report = {"scenes": summaries}
    if all_dsc:
        report["mean_dsc"] = float(np.mean(all_dsc))
    write_json(os.path.join(args.out, "segment_summary.json"), report)
    failed = [(summary["scene_id"], exc) for summary, exc in results
              if exc is not None]
    line = f"segmented {len(scenes)} scenes into {args.out}"
    if failed:
        line += f", {len(failed)} failed"
    if all_dsc:
        line += f", mean_dsc={report['mean_dsc']:.4f}"
    print(line)
    # name the scene unless the message already does
    codes = [_fail(exc, "" if scene_id in str(exc) else f"{scene_id}: ")
             for scene_id, exc in failed]
    return codes[0] if codes else EXIT_OK


def _read_predictions(pred_dir, scene):
    """The masks ``<scene>_obj<i>.pgm`` for i = 0, 1, ..., one per truth."""
    predicted = []
    while os.path.exists(path := os.path.join(
            pred_dir, f"{scene.scene_id}_obj{len(predicted)}.pgm")):
        predicted.append(read_mask(path, scene.clump.shape))
    if len(predicted) != len(scene.truth):
        raise ConfigError(
            f"{scene.scene_id}: {len(predicted)} predictions for "
            f"{len(scene.truth)} truth masks")
    return predicted


def _stats(values):
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def cmd_evaluate(args):
    cfg = _config_from_args(args)
    if not os.path.isdir(args.pred):
        raise DatasetIOError(f"--pred {args.pred} is not a directory")
    # one row per scene: its pixel rates and its objects' reports
    rows = []
    for scene in _load_scenes(args.dataset):
        if scene.truth is None:
            raise DatasetIOError(f"{scene.scene_id}: no truth masks")
        predicted = _read_predictions(args.pred, scene)
        pix = pixel_metrics(predicted, scene.truth)
        rows.append({
            "scene_id": scene.scene_id,
            **{name: getattr(pix, name) for name in RATES},
            "objects": [object_report(j, pred, truth,
                                      scene.truth[:j] + scene.truth[j + 1:],
                                      scene.centroids[j], cfg.generator.k)
                        for j, (pred, truth)
                        in enumerate(zip(predicted, scene.truth))],
        })
    reports = [r for row in rows for r in row["objects"]]
    aggregate = {name: _stats([row[name] for row in rows]) for name in RATES}
    aggregate["dsc"] = _stats([r.dsc for r in reports])
    write_json(args.report, {
        "scenes": [{**row, "objects": [
            {"object_id": r.object_id, "dsc": r.dsc,
             "overlapping_degree": r.overlapping_degree,
             "bin": r.bin_index, "isolated": r.isolated}
            for r in row["objects"]]} for row in rows],
        "aggregate": aggregate,
        "bins": bin_by_degree(reports),
    })

    if args.csv:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["scene_id", "object_id", "dsc", "overlapping_degree",
                         "bin", "isolated", *RATES])
        writer.writerows(
            [row["scene_id"], r.object_id, repr(r.dsc),
             repr(r.overlapping_degree), r.bin_index, int(r.isolated),
             *(repr(row[name]) for name in RATES)]
            for row in rows for r in row["objects"])
        atomic_write(args.csv, text.getvalue())
    print(f"evaluated {len(rows)} scenes; "
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
    except (MultishapeError, ValueError, OSError) as exc:
        return _fail(exc)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error:internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
