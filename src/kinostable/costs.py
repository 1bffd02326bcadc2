"""The three orientation cost functions.

Each shape descriptor is the orientation minimizing one of these costs:

* ``pc``    - sum of squared distances to the best line with that orientation
              (the line through the centroid),
* ``obb``   - area of the bounding box aligned with that orientation,
* ``strip`` - width of the covering strip with that orientation.

Costs are plain nonnegative floats; zero is allowed (collinear frames).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .geometry import as_points


class DescriptorKind(str, Enum):
    PC = "pc"
    OBB = "obb"
    STRIP = "strip"


def _spread(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """max - min of each frame of a (B, n, 2) block projected onto each column
    of its own (2, m) direction matrix: the point-by-direction matrix product."""
    proj = points @ directions
    return proj.max(axis=1) - proj.min(axis=1)


def frame_costs(points: np.ndarray, kinds, betas) -> list[np.ndarray]:
    """Cost of every frame of a (B, n, 2) block at its own orientation
    ``betas[b]``, one (B,) array per kind in ``kinds``.

    The directions come from ``math.cos`` and ``math.sin``; box and strip
    share one projection across the orientation.
    """
    kinds = [DescriptorKind(k) for k in kinds]
    cs = [(math.cos(a), math.sin(a)) for a in np.asarray(betas, dtype=float).tolist()]
    across = np.array([[[-s], [c]] for c, s in cs])
    out = []
    if DescriptorKind.PC in kinds:
        d = (points - points.mean(axis=1, keepdims=True)) @ across
        pc = (np.swapaxes(d, 1, 2) @ d)[:, 0, 0]
    if DescriptorKind.OBB in kinds or DescriptorKind.STRIP in kinds:
        ext_v = _spread(points, across)[:, 0]
    for kind in kinds:
        if kind is DescriptorKind.PC:
            out.append(pc)
        elif kind is DescriptorKind.STRIP:
            out.append(ext_v)
        else:
            out.append(_spread(points, np.array([[[c], [s]] for c, s in cs]))[:, 0] * ext_v)
    return out


def cost(points, kind: DescriptorKind, alpha: float) -> float:
    """Cost of one frame at one orientation: the one-frame call of ``frame_costs``."""
    return float(frame_costs(as_points(points)[None], (kind,), [alpha])[0][0])


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


def candidate_costs(points: np.ndarray, kind: DescriptorKind, alphas: np.ndarray) -> np.ndarray:
    """Cost of each frame of a (B, n, 2) block at each orientation of its own
    row of ``alphas`` (B, m), with ``np.cos`` and ``np.sin`` directions."""
    kind = DescriptorKind(kind)
    c, s = np.cos(alphas), np.sin(alphas)
    if kind is DescriptorKind.PC:
        centered = points - points.mean(axis=1, keepdims=True)
        sq = np.swapaxes(centered, 1, 2) @ centered
        sxx, sxy, syy = (sq[:, a, b, None] for a, b in ((0, 0), (0, 1), (1, 1)))
        # perpendicular direction (-sin, cos) against the scatter matrix
        return sxx * s * s - 2.0 * sxy * s * c + syy * c * c
    ext_v = _spread(points, np.stack([-s, c], axis=1))
    if kind is DescriptorKind.STRIP:
        return ext_v
    return _spread(points, np.stack([c, s], axis=1)) * ext_v


def costs_at(points, kind: DescriptorKind, alphas: np.ndarray) -> np.ndarray:
    """Vectorized cost evaluation over many orientations of one frame: the
    one-frame call of ``candidate_costs``.

    Equal to ``cost`` per angle up to the last bit of the cosines and sines
    (and, for ``pc``, the scatter-matrix form); used by the grid oracle.
    """
    alphas = np.asarray(alphas, dtype=float)
    return candidate_costs(as_points(points)[None], kind, alphas[None])[0]
