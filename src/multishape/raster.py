"""Rasterization of radial shapes and boolean mask operations.

Masks are boolean numpy arrays of shape (height, width); ``mask[y, x]`` is
the pixel whose center is (x + 0.5, y + 0.5).  The rasterizer fills the
closed polygon through the K scaled and rotated boundary points with the
even-odd rule, counting pixel centers that land exactly on an edge as
inside.  Because the polygon's boundary is single-valued in the polar angle
(positive radii at strictly increasing angles), that fill equals the set of
pixel centers whose distance to the centroid does not exceed the boundary
chord at their angle, which is how it is computed here; geometry outside the
canvas is clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput
from .geometry import REACH_MARGIN, RadialGrid


@dataclass(frozen=True)
class Alignment:
    """Similarity adjustment of a shape: scale multiplier and rotation."""

    r: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("scale must be positive")


def rasterize(radii, centroid, alignment, dims):
    """Fill the radial shape at the centroid into a (height, width) mask."""
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii <= 0):
        raise ValueError("radii must be strictly positive")
    width, height = int(dims[0]), int(dims[1])
    reach = alignment.r * float(radii.max()) + REACH_MARGIN
    grid = RadialGrid(centroid, (width, height), radii.size, reach)
    mask = grid.mask(radii, alignment.r, alignment.theta)
    return mask.reshape(height, width)


def union(masks):
    """Pixelwise OR of a non-empty list of same-sized masks."""
    if not len(masks):
        raise EmptyInput("union of an empty mask list")
    first = np.asarray(masks[0], dtype=bool)
    out = first.copy()
    for m in masks[1:]:
        m = np.asarray(m, dtype=bool)
        if m.shape != first.shape:
            raise DimensionMismatch(f"mask {m.shape} vs {first.shape}")
        out |= m
    return out


def boundary(mask):
    """Foreground pixels with at least one 4-neighbour outside the mask."""
    mask = np.asarray(mask, dtype=bool)
    interior = np.zeros_like(mask)
    interior[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[:-2, 1:-1] & mask[2:, 1:-1]
        & mask[1:-1, :-2] & mask[1:-1, 2:]
    )
    return mask & ~interior
