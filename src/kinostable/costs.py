"""The three orientation cost functions.

Each shape descriptor is the orientation minimizing one of these costs:

* ``pc``    - sum of squared distances to the best line with that orientation
              (the line through the centroid),
* ``obb``   - area of the bounding box aligned with that orientation,
* ``strip`` - width of the covering strip with that orientation.

Costs are plain nonnegative floats; zero is allowed (collinear frames).

``candidate_costs`` is the one cost kernel: each frame of a block at its
own row of orientations, every kind in one call.  Box and strip share the
extents across each orientation (``geometry.extents``); ``extent_cost``
turns extents into either cost, also on the hull extents of large frames.
``pc`` is the summed squared offsets across each orientation
(``summed_squares``).  ``frame_costs`` is the kernel's one-column call for
every kind; the chaser scores its orientations with it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError
from .geometry import Frames, extents


class DescriptorKind(str, Enum):
    PC = "pc"
    OBB = "obb"
    STRIP = "strip"

    @classmethod
    def _missing_(cls, value):
        # Enum re-raises a ValueError from here as it is
        raise DomainError(f"unknown descriptor kind {value!r}; choose from pc, obb, strip")


def extent_cost(kind: DescriptorKind, along, across):
    """The strip width (the extent ``across`` an orientation) or the box area
    (that times the extent ``along`` it)."""
    return across if kind is DescriptorKind.STRIP else along * across


def frame_costs(points: np.ndarray, kinds, betas) -> list[np.ndarray]:
    """Cost of every frame of a (B, n, 2) block at its own orientation
    ``betas[b]``, one (B,) array per kind in ``kinds``: the one-column call
    of ``candidate_costs``."""
    betas = np.asarray(betas, dtype=float)[:, None]
    return [table[:, 0] for table in candidate_costs(points, kinds, betas)]


def cost(points, kind: DescriptorKind, alpha: float) -> float:
    """Cost of one frame at one orientation: the one-frame call of ``frame_costs``."""
    return float(frame_costs(Frames.of(points).points, (kind,), [alpha])[0][0])


def cost_pc(points, alpha: float) -> float:
    """Sum of squared perpendicular distances to the centroid line at ``alpha``.

    The centroid line minimizes this sum over all lines with the given
    orientation, so this is the minimum over that whole family.
    """
    return cost(points, DescriptorKind.PC, alpha)


def cost_obb(points, alpha: float) -> float:
    """Area of the bounding box with axes at ``alpha`` and ``alpha`` + pi/2."""
    return cost(points, DescriptorKind.OBB, alpha)


def cost_strip(points, alpha: float) -> float:
    """Width of the thinnest strip oriented along ``alpha`` (extent perpendicular to it)."""
    return cost(points, DescriptorKind.STRIP, alpha)


def summed_squares(centered: np.ndarray, across: np.ndarray) -> np.ndarray:
    """The ``pc`` cost of each frame of a centered (B, n, 2) block across each
    of its own (B, 2, m) directions: (B, m), each one (1, n) @ (n, 1) product."""
    d = np.swapaxes(centered @ across, 1, 2)
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0]


def candidate_costs(points: np.ndarray, kinds, alphas: np.ndarray) -> list[np.ndarray]:
    """Cost of each frame of a (B, n, 2) block at each orientation of its own
    row of ``alphas`` (B, m), one (B, m) table per kind in ``kinds``, with
    ``np.cos`` and ``np.sin`` directions."""
    kinds = [DescriptorKind(k) for k in kinds]
    c, s = np.cos(alphas), np.sin(alphas)
    across = np.stack([-s, c], axis=1)
    if DescriptorKind.PC in kinds:
        pc = summed_squares(points - points.mean(axis=1, keepdims=True), across)
    if DescriptorKind.OBB in kinds or DescriptorKind.STRIP in kinds:
        width = extents(points, across)
    along = extents(points, np.stack([c, s], axis=1)) if DescriptorKind.OBB in kinds else None
    return [pc if kind is DescriptorKind.PC else extent_cost(kind, along, width) for kind in kinds]


def costs_at(points, kind: DescriptorKind, alphas: np.ndarray) -> np.ndarray:
    """Vectorized cost evaluation over many orientations of one frame: the
    one-frame call of ``candidate_costs``.

    Equal to ``cost`` per angle up to a wide product's last bit against a
    one-column one; used by the grid oracle.
    """
    alphas = np.asarray(alphas, dtype=float)
    return candidate_costs(Frames.of(points).points, (kind,), alphas[None])[0][0]
