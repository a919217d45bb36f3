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

:func:`as_mask` is the package's one mask door: every mask that enters from
outside passes it, in :class:`multishape.ClumpScene`,
:func:`multishape.write_pgm`, :func:`boundary`, :func:`union`,
:func:`multishape.mask_energy`, :func:`multishape.dsc`,
:func:`multishape.pixel_metrics`, :func:`multishape.overlapping_degree`,
:func:`multishape.sample_shape_vector` and
:class:`multishape.AlignmentSearcher` (and so :func:`multishape.align`).
A mask that is not 2-D, or not of its partner's shape, raises
:class:`multishape.DimensionMismatch` naming its shape.  The evolution
engine keeps its masks flat over the clump's pixels and passes them on as
(height, width) views.
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


def as_mask(mask, like=None):
    """``mask`` as a bool (height, width) array, checked.

    Raises :class:`multishape.DimensionMismatch` naming the shape unless the
    mask is 2-D with no zero side and, when ``like`` (a mask already
    checked) is given, of its shape.  A bool array comes back as it is,
    without a copy.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or 0 in mask.shape:
        raise DimensionMismatch(f"mask must be 2-D, not empty: {mask.shape}")
    if like is not None and mask.shape != like.shape:
        raise DimensionMismatch(f"mask {mask.shape} vs {like.shape}")
    return mask


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
    first = as_mask(masks[0])
    out = first.copy()
    for m in masks[1:]:
        out |= as_mask(m, first)
    return out


def boundary(mask):
    """Foreground pixels with at least one 4-neighbour outside the mask."""
    mask = as_mask(mask)
    interior = np.zeros_like(mask)
    interior[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[:-2, 1:-1] & mask[2:, 1:-1]
        & mask[1:-1, :-2] & mask[1:-1, 2:]
    )
    return mask & ~interior
