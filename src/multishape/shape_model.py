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
from functools import partial

import numpy as np

from .errors import (
    CentroidOutsideMask,
    DatasetIOError,
    DegenerateMask,
    DimensionMismatch,
    EmptyExampleSet,
    RankDeficient,
    finite_arithmetic,
)
from .geometry import on_foreground, ray_angles, shape_radii
from .netpbm import finite_number, write_json
from .raster import as_mask

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

    The package's one check of a training set: every example's radii pass
    :func:`multishape.geometry.shape_radii` with the first example's K (a
    bad one raises ``ValueError`` naming its scene and object), and the
    weights are finite and at least 1; importance learning only ever
    raises them.  The set keeps its checked (n, K) radii and its weights
    as read-only copies.
    """

    examples: list
    weights: np.ndarray = None

    def __post_init__(self):
        n = len(self.examples)
        weights = np.array(np.ones(n) if self.weights is None
                           else self.weights, dtype=np.float64)
        if weights.shape != (n,):
            raise DimensionMismatch(f"weights {weights.shape} for {n} examples")
        # a NaN weight fails both comparisons
        if not np.all((weights >= 1.0) & (weights < np.inf)):
            raise ValueError("weights must be finite and at least 1")
        rows = []
        for ex in self.examples:
            try:
                rows.append(shape_radii(
                    ex.radii, rows[0].size if rows else None))
            except ValueError as exc:
                raise ValueError(f"example {ex.scene_id!r} object "
                                 f"{ex.object_id}: {exc}") from exc
        self._matrix = np.array(rows, dtype=np.float64)
        for array in (weights, self._matrix):
            array.setflags(write=False)
        self.weights = weights

    def __len__(self):
        return len(self.examples)

    def matrix(self):
        """The checked example radii, a read-only (n, K) array."""
        if not self.examples:
            raise EmptyExampleSet("no shape examples")
        return self._matrix


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

    Ray i samples the points ``centroid + RAY_STEP * s * (cos, sin)`` of
    its angle at steps s = 1, 2, ... and records the distance of its
    farthest foreground sample, i.e. the outermost foreground-to-background
    transition.  A sample past the ray's exit from the mask's bounding box
    ``[x0, x1) x [y0, y1)`` lies on a pixel outside the box, so it cannot
    hit foreground: each ray starts at step ``ceil(exit / RAY_STEP) + 1``
    (one step of slack for rounding) and walks inward.  The exit is never
    farther than the box corner farthest from the centroid.  The walk runs
    in blocks of doubling length over the rays not yet resolved, and a ray
    is resolved at its first foreground sample, which is its farthest one.
    Every returned entry is strictly positive; a ray with no foreground
    sample raises :class:`DegenerateMask`, naming the lowest such ray.
    """
    mask = as_mask(mask)
    angles = ray_angles(k)
    cx, cy = float(centroid[0]), float(centroid[1])
    if not on_foreground(mask, cx, cy):
        raise CentroidOutsideMask(f"centroid ({cx}, {cy}) is not on foreground")

    cos, sin = np.cos(angles), np.sin(angles)
    cols = np.flatnonzero(mask.any(axis=0))
    rows = np.flatnonzero(mask.any(axis=1))
    x0, x1, y0, y1 = cols[0], cols[-1] + 1, rows[0], rows[-1] + 1
    # slab distance at which each ray leaves the box; the centroid's pixel
    # is in the box, so both are >= 0
    exit_x = np.divide(np.where(cos > 0, x1 - cx, x0 - cx), cos,
                       out=np.full(k, np.inf), where=cos != 0)
    exit_y = np.divide(np.where(sin > 0, y1 - cy, y0 - cy), sin,
                       out=np.full(k, np.inf), where=sin != 0)
    top = (np.ceil(np.minimum(exit_x, exit_y) / RAY_STEP) + 1).astype(np.int64)
    # every walked sample is less than a pixel (plus rounding) beyond the
    # box, so a background margin of 2 holds all of their pixels
    margin = 2
    window = np.zeros((y1 - y0 + 2 * margin, x1 - x0 + 2 * margin),
                      dtype=bool)
    window[margin:-margin, margin:-margin] = mask[y0:y1, x0:x1]

    radii = np.zeros(k)
    active = np.arange(k)
    block = 16
    while active.size:
        # steps top, top - 1, ... of each active ray; steps below 1 repeat
        # step 1, which keeps the first hit (and its step) unchanged
        steps = np.maximum(top[active, None] - np.arange(block), 1)
        t = RAY_STEP * steps
        ix = np.floor(cx + cos[active, None] * t).astype(np.int64)
        iy = np.floor(cy + sin[active, None] * t).astype(np.int64)
        hit = window[iy - (y0 - margin), ix - (x0 - margin)]
        found = hit.any(axis=1)
        first = np.argmax(hit[found], axis=1)
        radii[active[found]] = t[found][np.arange(first.size), first]
        top[active] -= block
        active = active[~found & (top[active] >= 1)]
        block *= 2
    if not radii.all():
        bad = int(np.flatnonzero(radii == 0)[0])
        raise DegenerateMask(f"ray {bad} found no foreground beyond the centroid")
    return radii


@finite_arithmetic("example radii and weights")
def weighted_mean(example_set):
    """Importance-weighted mean shape: sum(w_i * s_i) / sum(w_i)."""
    mat = example_set.matrix()
    w = example_set.weights
    return (w[:, None] * mat).sum(axis=0) / w.sum()


def covariance(example_set, mean):
    """Scatter of deviations from the given mean, divided by the example count.

    The weights influence the statistics only through the mean; the sum of
    outer products itself is unweighted.
    """
    mat = example_set.matrix()
    dev = mat - shape_radii(mean, mat.shape[1])[None, :]
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


def synthesize(model, coeffs):
    """Shape for a raw coefficient vector: mean + basis @ clip(coeffs).

    ``coeffs`` may also be an ``(n, t)`` batch, giving one shape per row;
    each row equals the shape of that row alone, bitwise.  Radii are
    floored at ``RADIUS_FLOOR`` so the synthesized polygon stays simple and
    strictly positive.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != model.t:
        raise DimensionMismatch(
            f"coefficient length {coeffs.shape} does not match t={model.t}")
    clipped = clamp_coefficients(model, coeffs)
    shape = model.mean + np.matmul(model.basis, clipped[..., None])[..., 0]
    return np.maximum(shape, RADIUS_FLOOR)


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
    write_json(path, doc)


def _float_array(value):
    return np.asarray(value, dtype=np.float64)


def load_model(path):
    """Load a model serialized by :func:`save_model`.

    A file that cannot be read or parsed, or that breaks the schema, raises
    :class:`DatasetIOError` naming ``path``.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc
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
    whole = partial(finite_number, int)
    k, t = field("k", whole), field("t", whole)
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
        variance_fraction=field("variance_fraction",
                                partial(finite_number, float)),
        k=k,
        t=t,
        weights=weights if weights.size else None,
    )
