"""Deterministic generator of overlapping-object scenes with ground truth.

Objects are harmonically perturbed ellipses encoded as radial shape vectors,
so every generated shape is star shaped about its centroid and lives near a
low-dimensional linear shape space.  The clump mask is the union of the
per-object truth masks; centroids are the true generation centers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CanvasTooSmall, DatasetIOError, ManifestMismatch
from .geometry import TWO_PI, ray_angles
from .netpbm import finite_number, read_pgm, write_json, write_pgm
from .raster import Alignment, rasterize, union
from .scene import ClumpScene
from .shape_model import DEFAULT_K, RADIUS_FLOOR

SCENE_JSON_FORMAT = 1
HARMONIC_ORDERS = (2, 3, 4, 5, 6)

# Ceilings within which the precision bounds of multishape.geometry hold.
MAX_CANVAS_SIDE = 10**4
MAX_K = 10**4
# Ceiling on a scene's object count: each object gets a canvas-sized mask.
MAX_OBJECTS = 10**3
# Ceiling on a scene's objects times canvas pixels, its truth masks' size.
MAX_SCENE_PIXELS = 10**9


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
            if not 0 < lo <= hi:
                raise ValueError(f"{name} range must be ordered and positive")
        if not 0.0 <= self.boundary_noise_amplitude < 1.0:
            raise ValueError("boundary_noise_amplitude must be in [0, 1)")
        if not self.n_objects[1] <= MAX_OBJECTS:
            raise ValueError(f"n_objects may be at most {MAX_OBJECTS}")
        if not 3 <= self.k <= MAX_K:
            raise ValueError(f"k must be in [3, {MAX_K}]")
        if not max(self.canvas) <= MAX_CANVAS_SIDE:
            raise ValueError(f"canvas sides must be at most {MAX_CANVAS_SIDE}")
        if self.n_objects[1] * math.prod(self.canvas) > MAX_SCENE_PIXELS:
            raise ValueError(f"n_objects times canvas pixels may be at most "
                             f"{MAX_SCENE_PIXELS}")

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

    angles = ray_angles(cfg.k)
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


def generate_batch(cfg, count):
    return [generate_scene(cfg, i) for i in range(count)]


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
        write_json(os.path.join(scene_dir, "scene.json"), doc)


def scene_dirs(directory):
    """Sorted paths of the subdirectories of ``directory`` with a scene.json.

    The dataset rules live here.  A directory with no scene, and two
    readable manifests that name one scene_id (the id names every output
    file of its scene), are a :class:`DatasetIOError`.  A manifest that
    cannot be read is skipped here; it fails only its own scene, when
    :func:`import_scene` reads it.
    """
    try:
        entries = sorted(e for e in os.listdir(directory)
                         if os.path.isdir(os.path.join(directory, e)))
    except OSError as exc:
        raise DatasetIOError(f"cannot list {directory}: {exc}") from exc
    paths = [os.path.join(directory, e) for e in entries
             if os.path.exists(os.path.join(directory, e, "scene.json"))]
    if not paths:
        raise DatasetIOError(f"no scenes found in {directory}")
    seen = set()
    for scene_dir in paths:
        try:
            scene_id = read_manifest(scene_dir)[3]
        except DatasetIOError:
            continue
        if scene_id in seen:
            raise DatasetIOError(
                f"{directory}: scene_id {scene_id!r} names more than one scene")
        seen.add(scene_id)
    return paths


def read_manifest(scene_dir):
    """``(centroids, dims, truth_count, scene_id)`` of a scene.json, checked.

    The scene_id defaults to the directory's name.  Every problem is a
    :class:`DatasetIOError`, among them a scene with no centroid, one past
    ``MAX_SCENE_PIXELS`` and one with a side past ``MAX_CANVAS_SIDE``,
    found before any mask is read.
    """
    entry = os.path.basename(scene_dir)
    manifest_path = os.path.join(scene_dir, "scene.json")
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        centroids = [(finite_number(float, x), finite_number(float, y))
                     for x, y in doc["centroids"]]
        dims = tuple(finite_number(int, v) for v in doc["dims"])
        truth_count = finite_number(int, doc.get("truth_count", 0))
        scene_id = doc.get("scene_id", entry)
    except OSError as exc:
        raise DatasetIOError(f"cannot read {manifest_path}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise DatasetIOError(
            f"{manifest_path}: malformed scene manifest: "
            f"{type(exc).__name__}: {exc}") from exc
    # the id names the scene's output files, so it may name no directory
    if not isinstance(scene_id, str) or scene_id in ("", ".", "..") or any(
            c in scene_id for c in "/\\\0"):
        raise DatasetIOError(
            f"{manifest_path}: scene_id {scene_id!r} is not a file name")
    if not centroids:
        raise DatasetIOError(f"{manifest_path}: scene has no centroids")
    if len(centroids) * math.prod(dims) > MAX_SCENE_PIXELS:
        raise DatasetIOError(
            f"{manifest_path}: {len(centroids)} objects times dims "
            f"{list(dims)} pass the ceiling of {MAX_SCENE_PIXELS} pixels")
    if any(side > MAX_CANVAS_SIDE for side in dims):
        raise DatasetIOError(
            f"{manifest_path}: dims {list(dims)} pass the ceiling of "
            f"{MAX_CANVAS_SIDE} pixels per side")
    if truth_count and truth_count != len(centroids):
        raise ManifestMismatch(
            f"{manifest_path}: {len(centroids)} centroids but "
            f"{truth_count} truth masks")
    return centroids, dims, truth_count, scene_id


def read_mask(path, shape):
    """The PGM mask at ``path``, which must be of ``shape``, the shape of
    its scene's clump.pgm; a mask of another size is a
    :class:`DatasetIOError` naming the file."""
    mask = read_pgm(path)
    if mask.shape != shape:
        raise DatasetIOError(
            f"{path}: mask is {mask.shape[1]}x{mask.shape[0]} but the "
            f"scene's clump.pgm is {shape[1]}x{shape[0]}")
    return mask


def import_scene(scene_dir):
    """Load one scene directory written by :func:`export_dataset`."""
    centroids, dims, truth_count, scene_id = read_manifest(scene_dir)
    # read_pgm reports a missing or unreadable mask as a DatasetIOError
    clump = read_pgm(os.path.join(scene_dir, "clump.pgm"))
    if dims != clump.shape[::-1]:
        raise DatasetIOError(
            f"{os.path.basename(scene_dir)}: scene.json dims {list(dims)} "
            f"but clump.pgm is {clump.shape[1]}x{clump.shape[0]}")
    truths = None
    if truth_count:
        truths = [read_mask(os.path.join(scene_dir, f"truth_{i}.pgm"),
                            clump.shape)
                  for i in range(truth_count)]
    return ClumpScene(
        clump=clump,
        centroids=centroids,
        truth=truths,
        scene_id=scene_id,
    )


def import_dataset(directory):
    """Load every scene subdirectory, sorted by name."""
    return [import_scene(scene_dir) for scene_dir in scene_dirs(directory)]
