"""Clump scenes: the binary evidence mask plus per-object centroids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CentroidOutsideMask, DimensionMismatch
from .geometry import on_foreground


@dataclass
class ClumpScene:
    """A clump mask, the centroids of the objects inside it, and optional
    per-object ground-truth masks.

    The clump mask is the re-labeled evidence: every pixel belonging to any
    of the overlapping objects is foreground, background is 0.
    """

    clump: np.ndarray
    centroids: list
    truth: list = None
    scene_id: str = "scene"

    def __post_init__(self):
        self.clump = np.asarray(self.clump, dtype=bool)
        self.centroids = [(float(x), float(y)) for x, y in self.centroids]
        if not self.centroids:
            raise DimensionMismatch("a scene needs at least one centroid")
        for i, (x, y) in enumerate(self.centroids):
            if not on_foreground(self.clump, x, y):
                raise CentroidOutsideMask(
                    f"{self.scene_id}: centroid {i} at ({x}, {y}) "
                    "is not on clump foreground")
        if self.truth is not None:
            if len(self.truth) != len(self.centroids):
                raise DimensionMismatch(
                    f"{self.scene_id}: {len(self.truth)} truth masks for "
                    f"{len(self.centroids)} centroids")
            self.truth = [np.asarray(t, dtype=bool) for t in self.truth]
            for t in self.truth:
                if t.shape != self.clump.shape:
                    raise DimensionMismatch(
                        f"{self.scene_id}: truth mask {t.shape} vs clump "
                        f"{self.clump.shape}")

    @property
    def n_objects(self):
        return len(self.centroids)

    @property
    def dims(self):
        height, width = self.clump.shape
        return (width, height)

    @property
    def clump_area(self):
        return int(np.count_nonzero(self.clump))
