"""Radial shape vectors and the PCA shape space built from weighted examples.

A shape vector stores K distances from an object's centroid to its boundary
at the angles 2*pi*k/K.  The shape space is spanned by the weighted mean of
the collected examples plus the leading eigenvectors of their covariance:
any vector mean + basis @ coeffs is a valid shape hypothesis, with the
coefficients boxed to +-3 standard deviations per mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CentroidOutsideMask,
    DatasetIOError,
    DegenerateMask,
    DimensionMismatch,
    EmptyExampleSet,
    RankDeficient,
)
from .geometry import TWO_PI
from .netpbm import atomic_write

DEFAULT_K = 360
DEFAULT_VARIANCE_THRESHOLD = 0.995
RADIUS_FLOOR = 1.0
COEFF_SIGMA_BOX = 3.0
RAY_STEP = 0.5
# largest |B^T B - I| entry a loaded basis may have (saved ones: ~1e-15)
ORTHONORMAL_TOL = 1e-8

MODEL_JSON_KEYS = {
    "k", "t", "mean", "eigenvalues", "basis", "variance_fraction", "weights",
}


@dataclass(frozen=True)
class ShapeExample:
    """One training shape with its provenance."""

    scene_id: str
    object_id: int
    radii: np.ndarray


@dataclass
class WeightedExampleSet:
    """Training examples with per-example importance weights.

    Weights start at 1 and are only ever increased in steps of ``step``.
    """

    examples: list
    weights: np.ndarray = None
    step: float = 0.1

    def __post_init__(self):
        if self.weights is None:
            self.weights = np.ones(len(self.examples))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.weights) != len(self.examples):
            raise DimensionMismatch(
                f"{len(self.weights)} weights for {len(self.examples)} examples")
        if self.step <= 0:
            raise ValueError("weight step must be positive")
        if len(self.examples) and np.any(self.weights < 1.0):
            raise ValueError("weights must be >= 1")

    def __len__(self):
        return len(self.examples)

    def matrix(self):
        """Stack the example radii into an (n, K) array."""
        if not self.examples:
            raise EmptyExampleSet("no shape examples")
        return np.stack([np.asarray(ex.radii, dtype=np.float64)
                         for ex in self.examples])


@dataclass
class ShapeModel:
    """Mean shape plus an orthonormal eigenbasis of boundary variation."""

    mean: np.ndarray
    basis: np.ndarray          # (k, t), eigenvectors as columns
    eigenvalues: np.ndarray    # (t,), non-increasing, positive
    variance_fraction: float
    k: int
    t: int
    weights: np.ndarray = field(default=None, repr=False)

    def coefficient_bounds(self):
        """Per-mode half-width of the plausible coefficient box."""
        return COEFF_SIGMA_BOX * np.sqrt(self.eigenvalues)


def sample_shape_vector(mask, centroid, k=DEFAULT_K):
    """Sample the radial shape vector of a mask about a centroid.

    Walks each of the k rays in half-pixel steps until it passes the mask's
    bounding-box corner farthest from the centroid, beyond which no sample
    can hit foreground, and records the distance of the farthest foreground
    sample, i.e. the outermost foreground-to-background transition.  Every
    returned entry is strictly positive.
    """
    mask = np.asarray(mask, dtype=bool)
    if k < 3:
        raise ValueError("k must be at least 3")
    height, width = mask.shape
    cx, cy = float(centroid[0]), float(centroid[1])
    px, py = int(np.floor(cx)), int(np.floor(cy))
    if not (0 <= px < width and 0 <= py < height) or not mask[py, px]:
        raise CentroidOutsideMask(f"centroid ({cx}, {cy}) is not on foreground")

    angles = TWO_PI * np.arange(k) / k
    cols = np.flatnonzero(mask.any(axis=0))
    rows = np.flatnonzero(mask.any(axis=1))
    far = np.hypot(max(cx - cols[0], cols[-1] + 1 - cx),
                   max(cy - rows[0], rows[-1] + 1 - cy))
    # samples past the farthest box corner cannot hit foreground; that
    # corner is never farther than the canvas diagonal
    count = min(np.ceil(far / RAY_STEP),
                np.ceil(np.hypot(width, height) / RAY_STEP))
    steps = np.arange(1, int(count) + 1)
    t = RAY_STEP * steps
    x = cx + np.cos(angles)[:, None] * t[None, :]
    y = cy + np.sin(angles)[:, None] * t[None, :]
    ix = np.floor(x).astype(np.int64)
    iy = np.floor(y).astype(np.int64)
    valid = (ix >= 0) & (ix < width) & (iy >= 0) & (iy < height)
    hit = np.zeros_like(valid)
    hit[valid] = mask[iy[valid], ix[valid]]
    # farthest foreground sample per ray; rays never re-enter the canvas
    any_hit = hit.any(axis=1)
    if not any_hit.all():
        bad = int(np.nonzero(~any_hit)[0][0])
        raise DegenerateMask(f"ray {bad} found no foreground beyond the centroid")
    last = hit.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
    return t[last]


def weighted_mean(example_set):
    """Importance-weighted mean shape: sum(w_i * s_i) / sum(w_i)."""
    mat = example_set.matrix()
    w = example_set.weights
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return (w[:, None] * mat).sum(axis=0) / w.sum()


def covariance(example_set, mean):
    """Scatter of deviations from the given mean, divided by the example count.

    The weights influence the statistics only through the mean; the sum of
    outer products itself is unweighted.
    """
    mat = example_set.matrix()
    dev = mat - np.asarray(mean, dtype=np.float64)[None, :]
    return dev.T @ dev / mat.shape[0]


def build_model(example_set, variance_threshold=DEFAULT_VARIANCE_THRESHOLD):
    """Build the shape model from weighted examples.

    Keeps the smallest number of leading eigenvectors whose cumulative
    eigenvalue fraction strictly exceeds ``variance_threshold`` (all of them
    when the threshold is 1.0).  Eigenvector signs are fixed by making each
    column's largest-magnitude entry positive.
    """
    if len(example_set) < 2:
        raise EmptyExampleSet("need at least 2 examples to build a model")
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError("variance_threshold must be in (0, 1]")
    mean = weighted_mean(example_set)
    cov = covariance(example_set, mean)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    eigvals[(eigvals < 0.0) & (eigvals >= -1e-10)] = 0.0
    positive = eigvals > 1e-12
    if not positive.any():
        raise RankDeficient("all examples are identical; covariance has no rank")
    eigvals = eigvals[positive]
    eigvecs = eigvecs[:, positive]

    total = eigvals.sum()
    fractions = np.cumsum(eigvals) / total
    above = np.nonzero(fractions > variance_threshold)[0]
    t = int(above[0]) + 1 if above.size else eigvals.size

    basis = eigvecs[:, :t].copy()
    flip = basis[np.argmax(np.abs(basis), axis=0), np.arange(t)] < 0
    basis[:, flip] *= -1.0
    return ShapeModel(
        mean=mean,
        basis=basis,
        eigenvalues=eigvals[:t].copy(),
        variance_fraction=float(fractions[t - 1]),
        k=mean.size,
        t=t,
        weights=example_set.weights.copy(),
    )


def clamp_coefficients(model, coeffs):
    """Clip raw coefficients into the +-3 sigma box of the model."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    bound = model.coefficient_bounds()
    return np.clip(coeffs, -bound, bound)


def synthesize(model, coeffs, radius_floor=RADIUS_FLOOR):
    """Shape for a raw coefficient vector: mean + basis @ clip(coeffs).

    Radii are floored at ``radius_floor`` so the synthesized polygon stays
    simple and strictly positive.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (model.t,):
        raise DimensionMismatch(
            f"coefficient length {coeffs.shape} does not match t={model.t}")
    shape = model.mean + model.basis @ clamp_coefficients(model, coeffs)
    return np.maximum(shape, radius_floor)


def save_model(model, path):
    """Serialize a model to the single-document JSON schema."""
    doc = {
        "k": int(model.k),
        "t": int(model.t),
        "mean": model.mean.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "basis": model.basis.T.tolist(),   # column-major: one list per column
        "variance_fraction": float(model.variance_fraction),
        "weights": [] if model.weights is None else model.weights.tolist(),
    }
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _float_array(value):
    return np.asarray(value, dtype=np.float64)


def load_model(path):
    """Load a model serialized by :func:`save_model`."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DatasetIOError(f"{path}: invalid model JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetIOError(f"{path}: model JSON must be an object")
    unknown = set(doc) - MODEL_JSON_KEYS
    if unknown:
        raise DatasetIOError(f"{path}: unknown model fields: {sorted(unknown)}")
    missing = MODEL_JSON_KEYS - set(doc)
    if missing:
        raise DatasetIOError(f"{path}: missing model fields: {sorted(missing)}")

    def field(name, convert):
        try:
            return convert(doc[name])
        except (TypeError, ValueError) as exc:
            raise DatasetIOError(
                f"{path}: model field {name} has the wrong type: {exc}") from exc

    mean = field("mean", _float_array)
    basis = field("basis", _float_array).T
    eigenvalues = field("eigenvalues", _float_array)
    k, t = field("k", int), field("t", int)
    if mean.shape != (k,) or basis.shape != (k, t) or eigenvalues.shape != (t,):
        raise DatasetIOError(f"{path}: model field shapes are inconsistent")
    for name, values in (("mean", mean), ("basis", basis),
                         ("eigenvalues", eigenvalues)):
        if not np.all(np.isfinite(values)):
            raise DatasetIOError(f"{path}: non-finite value in model {name}")
    if np.any(eigenvalues <= 0):
        raise DatasetIOError(f"{path}: non-positive model eigenvalues")
    if np.any(np.abs(basis.T @ basis - np.eye(t)) > ORTHONORMAL_TOL):
        raise DatasetIOError(f"{path}: model basis columns are not orthonormal")
    weights = field("weights", _float_array)
    return ShapeModel(
        mean=mean,
        basis=basis,
        eigenvalues=eigenvalues,
        variance_fraction=field("variance_fraction", float),
        k=k,
        t=t,
        weights=weights if weights.size else None,
    )
