"""Globally optimal per-frame descriptors.

The box and strip optima are found among convex hull edge orientations: in
the plane, a minimum-area box has a side flush with a hull edge, and a
thinnest strip has a boundary containing one.  Each candidate's extents come
from projecting every point on frames of at most 64 points, and from the
extreme hull vertices above that (``geometry.hull_extents``, O(h) for h hull
vertices); one extent array perpendicular to the candidate serves both the
strip width and the box area.  The principal axis comes from
the 2x2 scatter matrix in closed form.  ``oracle_argmin`` is an independent
dense-angle-grid search used as ground truth in tests, never inside a
tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import canonical
from .costs import DescriptorKind, costs_at
from .errors import DegenerateInputError, DomainError
from .geometry import as_points, hull_extents, hull_of

_EIGEN_TIE_REL = 1e-9
_COST_TIE_REL = 1e-9


@dataclass(frozen=True)
class OptimalDescriptor:
    """An optimal orientation with its cost and the tied co-optima.

    ``isotropic`` marks the principal-axis degenerate case in which every
    orientation has the same cost; ``alpha`` then defaults to 0.
    """

    kind: DescriptorKind
    alpha: float
    cost: float
    all_optima: tuple[float, ...] = field(default=())
    isotropic: bool = False


def hull_edge_orientations(points) -> np.ndarray:
    """Canonical orientations of the hull edges, sorted and deduplicated."""
    hull = hull_of(points)
    if len(hull) == 2:
        e = hull[1] - hull[0]
        return np.array([canonical(math.atan2(e[1], e[0]))])
    edges = np.roll(hull, -1, axis=0) - hull
    angles = np.array([canonical(math.atan2(e[1], e[0])) for e in edges])
    return np.unique(angles)


def _argmin_with_ties(angles: np.ndarray, values: np.ndarray) -> tuple[float, float, tuple[float, ...]]:
    order = np.lexsort((angles, values))
    best = order[0]
    cmin = float(values[best])
    tol = _COST_TIE_REL * (abs(cmin) + 1e-300)
    tied = angles[values <= cmin + tol]
    return float(angles[best]), cmin, tuple(float(a) for a in np.sort(tied))


def _hull_optima(frame, kinds: tuple[DescriptorKind, ...]) -> list[OptimalDescriptor]:
    """Box and/or strip optima among one set of hull edge candidates."""
    angles = hull_edge_orientations(frame)
    extents = hull_extents(frame, angles)
    out = []
    for kind in kinds:
        if extents is None:
            values = costs_at(as_points(frame), kind, angles)
        else:
            ext_u, ext_v = extents
            values = ext_v if kind is DescriptorKind.STRIP else ext_u * ext_v
        alpha, cmin, ties = _argmin_with_ties(angles, values)
        out.append(OptimalDescriptor(kind, alpha, cmin, ties))
    return out


def optimal_box_and_strip(frame) -> tuple[OptimalDescriptor, OptimalDescriptor]:
    """Both hull-edge optima from a single hull computation."""
    box, strip = _hull_optima(frame, (DescriptorKind.OBB, DescriptorKind.STRIP))
    return box, strip


def optimal_pc(frame) -> OptimalDescriptor:
    """First principal axis from the 2x2 scatter matrix of centered coordinates.

    When the two eigenvalues agree within a relative tie tolerance the frame
    is isotropic: every orientation is optimal, and alpha defaults to 0.
    """
    pts = as_points(frame)
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 points")
    centered = pts - pts.mean(axis=0)
    sq = centered.T @ centered
    sxx, sxy, syy = float(sq[0, 0]), float(sq[0, 1]), float(sq[1, 1])
    mean = 0.5 * (sxx + syy)
    half_gap = math.hypot(0.5 * (sxx - syy), sxy)
    lam_min = max(mean - half_gap, 0.0)
    if 2.0 * half_gap <= _EIGEN_TIE_REL * (sxx + syy + 1e-300):
        return OptimalDescriptor(DescriptorKind.PC, 0.0, lam_min, (0.0,), isotropic=True)
    alpha = canonical(0.5 * math.atan2(2.0 * sxy, sxx - syy))
    return OptimalDescriptor(DescriptorKind.PC, alpha, lam_min, (alpha,))


def optimal(frame, kind: DescriptorKind) -> OptimalDescriptor:
    """The optimal orientation of ``frame`` for one descriptor kind."""
    kind = DescriptorKind(kind)
    if kind is DescriptorKind.PC:
        return optimal_pc(frame)
    return _hull_optima(frame, (kind,))[0]


def oracle_argmin(frame, kind: DescriptorKind, grid_size: int = 8192) -> OptimalDescriptor:
    """Brute-force argmin of the cost over a uniform orientation grid.

    Independent of the hull/eigen solvers: every grid orientation is
    evaluated directly.  Test oracle only.
    """
    if grid_size < 4:
        raise DomainError("grid_size must be at least 4")
    pts = as_points(frame)
    kind = DescriptorKind(kind)
    angles = np.arange(grid_size, dtype=float) * (math.pi / grid_size)
    values = costs_at(pts, kind, angles)
    alpha, cmin, ties = _argmin_with_ties(angles, values)
    return OptimalDescriptor(kind, alpha, cmin, ties)
