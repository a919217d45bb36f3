"""Pixel-level and object-level segmentation metrics.

The false-negative rate multi-counts pixels shared by several objects:
each object's missed pixels are counted against that object's own truth
mask, so in overlapping scenes TPR != 1 - FNR by design.  The true-positive
rate is computed on the union of the masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyTruth
from .geometry import ray_angles
from .raster import union
from .shape_model import DEFAULT_K, sample_shape_vector

DEGREE_BIN_EDGES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ObjectReport:
    """Per-object segmentation quality and boundary occlusion."""

    object_id: int
    dsc: float
    overlapping_degree: float
    bin_index: int
    isolated: bool


@dataclass(frozen=True)
class PixelReport:
    tpr: float
    tnr: float
    fpr: float
    fnr: float


def pixel_metrics(predicted, truth):
    """TPR/TNR/FPR/FNR for one scene of paired masks.

    Predictions and truths are matched by list position.  FNR multi-counts
    overlap pixels per object; all other rates use mask unions.
    """
    if len(predicted) != len(truth):
        raise DimensionMismatch(
            f"{len(predicted)} predictions for {len(truth)} truths")
    if not truth:
        raise EmptyTruth("no ground-truth masks")
    # union checks the masks within each list
    pred_union = union(predicted)
    truth_union = union(truth)
    if pred_union.shape != truth_union.shape:
        raise DimensionMismatch(
            f"mask {pred_union.shape} vs {truth_union.shape}")
    fn_pixels = 0
    truth_pixels = 0
    for p, g in zip(predicted, truth):
        p = np.asarray(p, dtype=bool)
        g = np.asarray(g, dtype=bool)
        fn_pixels += int(np.count_nonzero(g & ~p))
        truth_pixels += int(np.count_nonzero(g))

    tp = int(np.count_nonzero(pred_union & truth_union))
    truth_area = int(np.count_nonzero(truth_union))
    neg_area = truth_union.size - truth_area
    tn = int(np.count_nonzero(~pred_union & ~truth_union))

    tpr = tp / truth_area if truth_area else 0.0
    tnr = tn / neg_area if neg_area else 0.0
    fnr = fn_pixels / truth_pixels if truth_pixels else 0.0
    return PixelReport(tpr=tpr, tnr=tnr, fpr=1.0 - tnr, fnr=fnr)


def dsc(predicted, truth):
    """Dice similarity coefficient; two empty masks count as a perfect 1."""
    predicted = np.asarray(predicted, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if predicted.shape != truth.shape:
        raise DimensionMismatch(f"{predicted.shape} vs {truth.shape}")
    inter = int(np.count_nonzero(predicted & truth))
    total = int(np.count_nonzero(predicted)) + int(np.count_nonzero(truth))
    if total == 0:
        return 1.0
    return 2.0 * inter / total


def overlapping_degree(object_truth, other_truths, centroid, k=DEFAULT_K):
    """Fraction of an object's boundary samples occluded by its neighbours.

    Boundary samples come from the radial sampler; a sample is occluded when
    its pixel lies inside the union of the other objects' truth masks.  The
    result lives in [0, 1): a fully occluded boundary reports (k-1)/k.
    """
    object_truth = np.asarray(object_truth, dtype=bool)
    radii = sample_shape_vector(object_truth, centroid, k)
    if not other_truths:
        return 0.0
    others = union(other_truths)
    if others.shape != object_truth.shape:
        raise DimensionMismatch(
            f"mask {others.shape} vs {object_truth.shape}")
    angles = ray_angles(k)
    x = centroid[0] + radii * np.cos(angles)
    y = centroid[1] + radii * np.sin(angles)
    height, width = object_truth.shape
    ix = np.clip(np.floor(x).astype(np.int64), 0, width - 1)
    iy = np.clip(np.floor(y).astype(np.int64), 0, height - 1)
    occluded = int(np.count_nonzero(others[iy, ix]))
    return min(occluded, k - 1) / k


def degree_bin(degree):
    """Index of the overlapping-degree bin; degree 0 joins the first bin."""
    for b in range(len(DEGREE_BIN_EDGES) - 2, -1, -1):
        if degree >= DEGREE_BIN_EDGES[b]:
            return b
    return 0


def object_report(object_id, predicted, truth, other_truths, centroid,
                  k=DEFAULT_K):
    degree = overlapping_degree(truth, other_truths, centroid, k)
    return ObjectReport(
        object_id=object_id,
        dsc=dsc(predicted, truth),
        overlapping_degree=degree,
        bin_index=degree_bin(degree),
        isolated=degree == 0.0,
    )


def bin_by_degree(reports):
    """Aggregate per-object DSC into the four overlapping-degree bins.

    Returns one dict per bin with the bin bounds, the population count, the
    number of isolated objects folded into the first bin, and mean/std DSC
    (omitted when the bin is empty, never NaN).
    """
    bins = []
    for b in range(len(DEGREE_BIN_EDGES) - 1):
        members = [r.dsc for r in reports if r.bin_index == b]
        entry = {
            "lo": DEGREE_BIN_EDGES[b],
            "hi": DEGREE_BIN_EDGES[b + 1],
            "count": len(members),
            "isolated": sum(1 for r in reports
                            if r.bin_index == b and r.isolated),
        }
        if members:
            entry["mean_dsc"] = float(np.mean(members))
            entry["std_dsc"] = float(np.std(members))
        bins.append(entry)
    return bins
