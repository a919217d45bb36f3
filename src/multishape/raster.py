"""Rasterization of radial shapes and boolean mask operations.

Masks are boolean numpy arrays of shape (height, width); ``mask[y, x]`` is
the pixel whose center is (x + 0.5, y + 0.5).  The rasterizer fills the
closed polygon through the K scaled and rotated boundary points with the
even-odd rule, counting pixel centers that land exactly on an edge as
inside.  Because the polygon's boundary is single-valued in the polar angle
(positive radii at strictly increasing angles), that fill equals the set of
pixel centers whose distance to the centroid does not exceed the boundary
chord at their angle.

That is the package's one containment rule (see :mod:`multishape.geometry`).
:func:`rasterize` fills one shape with :func:`multishape.geometry.box_mask`,
pixel for pixel as a :class:`multishape.geometry.RadialGrid` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput
from .geometry import box_mask, shape_radii


@dataclass(frozen=True)
class Alignment:
    """Similarity adjustment of a shape: scale multiplier and rotation."""

    r: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(
                f"scale must be finite and positive, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"rotation must be finite, got {self.theta}")


def rasterize(radii, centroid, alignment, dims):
    """Fill the radial shape at the centroid into a (height, width) mask."""
    radii = shape_radii(radii)
    if not np.all(np.isfinite(centroid)):
        raise ValueError(f"centroid must be finite, got {centroid}")
    return box_mask(centroid, dims, radii, alignment.r, alignment.theta)


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
