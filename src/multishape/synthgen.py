"""Deterministic generator of overlapping-object scenes with ground truth.

Objects are harmonically perturbed ellipses encoded as radial shape vectors,
so every generated shape is star shaped about its centroid and lives near a
low-dimensional linear shape space.  The clump mask is the union of the
per-object truth masks; centroids are the true generation centers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import CanvasTooSmall, DatasetIOError, ManifestMismatch
from .geometry import TWO_PI
from .netpbm import atomic_write, read_pgm, write_pgm
from .raster import Alignment, rasterize, union
from .scene import ClumpScene
from .shape_model import DEFAULT_K, RADIUS_FLOOR

SCENE_JSON_FORMAT = 1
HARMONIC_ORDERS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class GeneratorConfig:
    """Ranges driving the synthetic scene generator."""

    seed: int = 0
    n_objects: tuple = (2, 6)
    base_radius: tuple = (20.0, 40.0)
    eccentricity: tuple = (1.0, 2.0)
    boundary_noise_amplitude: float = 0.08
    centroid_spacing: tuple = (0.8, 1.6)
    canvas: tuple = (256, 256)
    k: int = DEFAULT_K

    def __post_init__(self):
        for name in ("n_objects", "base_radius", "eccentricity",
                     "centroid_spacing"):
            lo, hi = getattr(self, name)
            if lo > hi or lo <= 0:
                raise ValueError(f"{name} range must be ordered and positive")
        if not 0.0 <= self.boundary_noise_amplitude < 1.0:
            raise ValueError("boundary_noise_amplitude must be in [0, 1)")
        if self.k < 3:
            raise ValueError("k must be at least 3")

    def validate_canvas(self):
        need = 2.0 * self.base_radius[1] * self.eccentricity[1]
        if min(self.canvas) < need:
            raise CanvasTooSmall(
                f"canvas {self.canvas} cannot hold shapes of extent {need:.1f}")


def _uniform(rng, bounds):
    return float(rng.uniform(bounds[0], bounds[1]))


def _object_radii(cfg, rng):
    """Radial boundary of one harmonically perturbed ellipse."""
    base = _uniform(rng, cfg.base_radius)
    ecc = _uniform(rng, cfg.eccentricity)
    orientation = rng.uniform(0.0, TWO_PI)
    semi_major = base * ecc
    semi_minor = base

    angles = TWO_PI * np.arange(cfg.k) / cfg.k
    rel = angles - orientation
    radial = (semi_major * semi_minor
              / np.hypot(semi_minor * np.cos(rel), semi_major * np.sin(rel)))

    raw = rng.uniform(0.0, 1.0, size=len(HARMONIC_ORDERS))
    total = cfg.boundary_noise_amplitude * rng.uniform(0.5, 1.0)
    amps = total * raw / raw.sum() if raw.sum() > 0 else np.zeros_like(raw)
    phases = rng.uniform(0.0, TWO_PI, size=len(HARMONIC_ORDERS))
    ripple = np.zeros(cfg.k)
    for order, amp, phase in zip(HARMONIC_ORDERS, amps, phases):
        ripple += amp * np.cos(order * angles + phase)
    return np.maximum(radial * (1.0 + ripple), RADIUS_FLOOR)


def generate_scene(cfg, index):
    """Deterministic scene for (cfg.seed, index), truth masks included."""
    cfg.validate_canvas()
    rng = np.random.default_rng((cfg.seed, index))
    width, height = cfg.canvas
    count = int(rng.integers(cfg.n_objects[0], cfg.n_objects[1] + 1))

    shapes = [_object_radii(cfg, rng) for _ in range(count)]
    margins = [float(r.max()) + 2.0 for r in shapes]
    if any(2 * m >= min(width, height) for m in margins):
        raise CanvasTooSmall("generated shape does not fit the canvas")

    centroids = []
    for i in range(count):
        if i == 0:
            cx = width / 2.0 + rng.uniform(-8.0, 8.0)
            cy = height / 2.0 + rng.uniform(-8.0, 8.0)
        else:
            anchor = int(rng.integers(0, i))
            spacing = _uniform(rng, cfg.centroid_spacing)
            mean_radius = 0.5 * (float(np.mean(shapes[i]))
                                 + float(np.mean(shapes[anchor])))
            direction = rng.uniform(0.0, TWO_PI)
            cx = centroids[anchor][0] + spacing * mean_radius * np.cos(direction)
            cy = centroids[anchor][1] + spacing * mean_radius * np.sin(direction)
        m = margins[i]
        cx = float(np.clip(cx, m, width - m))
        cy = float(np.clip(cy, m, height - m))
        centroids.append((cx, cy))

    truths = [rasterize(shapes[i], centroids[i], Alignment(), cfg.canvas)
              for i in range(count)]
    return ClumpScene(
        clump=union(truths),
        centroids=centroids,
        truth=truths,
        scene_id=f"scene_{index:04d}",
    )


def generate_batch(cfg, count, start=0):
    return [generate_scene(cfg, start + i) for i in range(count)]


def export_dataset(scenes, directory):
    """Write one subdirectory per scene: clump.pgm, truth_<i>.pgm, scene.json."""
    os.makedirs(directory, exist_ok=True)
    for scene in scenes:
        scene_dir = os.path.join(directory, scene.scene_id)
        os.makedirs(scene_dir, exist_ok=True)
        write_pgm(os.path.join(scene_dir, "clump.pgm"), scene.clump)
        for i, mask in enumerate(scene.truth or []):
            write_pgm(os.path.join(scene_dir, f"truth_{i}.pgm"), mask)
        width, height = scene.dims
        doc = {
            "format": SCENE_JSON_FORMAT,
            "scene_id": scene.scene_id,
            "dims": [width, height],
            "centroids": [[x, y] for x, y in scene.centroids],
            "truth_count": len(scene.truth or []),
        }
        atomic_write(os.path.join(scene_dir, "scene.json"),
                     json.dumps(doc, sort_keys=True, indent=1) + "\n")


def import_dataset(directory):
    """Load every scene subdirectory, sorted by name."""
    try:
        entries = sorted(e for e in os.listdir(directory)
                         if os.path.isdir(os.path.join(directory, e)))
    except OSError as exc:
        raise DatasetIOError(f"cannot list {directory}: {exc}") from exc
    scenes = []
    for entry in entries:
        scene_dir = os.path.join(directory, entry)
        manifest_path = os.path.join(scene_dir, "scene.json")
        if not os.path.exists(manifest_path):
            continue
        with open(manifest_path, "r", encoding="ascii") as fh:
            try:
                doc = json.load(fh)
                centroids = [(float(x), float(y)) for x, y in doc["centroids"]]
                dims = tuple(int(v) for v in doc["dims"])
                truth_count = int(doc.get("truth_count", 0))
            except (ValueError, TypeError, KeyError) as exc:
                raise DatasetIOError(
                    f"{manifest_path}: malformed scene manifest: "
                    f"{type(exc).__name__}: {exc}") from exc
        clump_path = os.path.join(scene_dir, "clump.pgm")
        if not os.path.exists(clump_path):
            raise DatasetIOError(f"missing clump mask: {clump_path}")
        clump = read_pgm(clump_path)
        if dims != clump.shape[::-1]:
            raise DatasetIOError(
                f"{entry}: scene.json dims {list(dims)} but clump.pgm is "
                f"{clump.shape[1]}x{clump.shape[0]}")
        if truth_count and truth_count != len(centroids):
            raise ManifestMismatch(
                f"{entry}: {len(centroids)} centroids but "
                f"{truth_count} truth masks")
        truths = None
        if truth_count:
            truths = []
            for i in range(truth_count):
                path = os.path.join(scene_dir, f"truth_{i}.pgm")
                if not os.path.exists(path):
                    raise DatasetIOError(f"missing truth mask: {path}")
                truths.append(read_pgm(path))
        scenes.append(ClumpScene(
            clump=clump,
            centroids=centroids,
            truth=truths,
            scene_id=doc.get("scene_id", entry),
        ))
    return scenes
