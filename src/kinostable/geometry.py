"""Planar primitives: point-set frames, convex hulls, extents, diametric boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import canonical
from .errors import DegenerateInputError

# Brute-force pairwise search is exact and fast at this size; larger frames
# go through the hull first (the farthest pair is always a pair of hull
# vertices, and the per-pair arithmetic is identical).
_BRUTE_FORCE_LIMIT = 64


def as_points(obj) -> np.ndarray:
    """Coerce a Frame or array-like into an (n, 2) float array."""
    if isinstance(obj, Frame):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateInputError(f"expected an (n, 2) point array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class Frame:
    """A snapshot of n >= 2 planar points, not all coincident."""

    points: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DegenerateInputError(f"frame needs an (n, 2) point array, got shape {pts.shape}")
        if len(pts) < 2:
            raise DegenerateInputError("frame needs at least 2 points")
        if not np.isfinite(pts).all():
            raise DegenerateInputError("frame contains non-finite coordinates")
        if bool((pts == pts[0]).all()):
            raise DegenerateInputError("all points coincide; every descriptor is undefined")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    @cached_property
    def hull(self) -> np.ndarray:
        """The frame's convex hull, built once on first use."""
        return convex_hull(self.points)


def hull_of(points) -> np.ndarray:
    """Convex hull of a point set; a Frame's own hull is built at most once."""
    return points.hull if isinstance(points, Frame) else convex_hull(points)


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order, collinear vertices dropped.

    Monotone chain on exactly compared, lexicographically sorted coordinates.
    Collinear input yields the degenerate 2-vertex hull (segment endpoints).
    """
    pts = as_points(points)
    uniq = sorted({(float(x), float(y)) for x, y in pts})
    if len(uniq) == 1:
        raise DegenerateInputError("all points coincide; hull is undefined")
    if len(uniq) == 2:
        return np.array(uniq, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def extent(points, theta: float) -> float:
    """Width of the point set along direction ``theta``: max projection spread."""
    pts = as_points(points)
    u = np.array([math.cos(theta), math.sin(theta)])
    proj = pts @ u
    return float(proj.max() - proj.min())


@dataclass(frozen=True)
class DiametricBox:
    """Box aligned with a farthest point pair.

    ``alpha`` is the pair's orientation, ``diameter`` its length, ``width``
    the extent perpendicular to it, and ``aspect`` = width / diameter in
    [0, 1].
    """

    alpha: float
    diameter: float
    width: float
    aspect: float = field(default=0.0)


def _pair_distances(points) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-pair candidates (the hull above the brute-force limit) and their squared distances."""
    pts = as_points(points)
    cand = pts if len(pts) <= _BRUTE_FORCE_LIMIT else hull_of(points)
    diff = cand[:, None, :] - cand[None, :, :]
    return cand, np.einsum("ijk,ijk->ij", diff, diff)


def diametric_box(points) -> DiametricBox:
    """Diametric box of a frame.

    Ties between equally far pairs break to the smallest canonical
    orientation, then the lexicographically smallest candidate index pair,
    so replays are deterministic.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 points")
    cand, d2 = _pair_distances(points)
    dmax2 = float(d2.max())
    if dmax2 == 0.0:
        raise DegenerateInputError("all points coincide; diametric box is undefined")
    ii, jj = np.nonzero(d2 == dmax2)
    best_alpha = None
    best_pair = None
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i >= j:
            continue
        a = canonical(math.atan2(cand[j, 1] - cand[i, 1], cand[j, 0] - cand[i, 0]))
        if best_alpha is None or a < best_alpha or (a == best_alpha and (i, j) < best_pair):
            best_alpha = a
            best_pair = (i, j)
    assert best_alpha is not None
    diameter = math.sqrt(dmax2)
    perp = np.array([-math.sin(best_alpha), math.cos(best_alpha)])
    proj = pts @ perp
    width = float(proj.max() - proj.min())
    aspect = min(width / diameter, 1.0)
    return DiametricBox(alpha=best_alpha, diameter=diameter, width=width, aspect=aspect)


def frame_diameter(points) -> float:
    """Largest pairwise distance in the frame."""
    _, d2 = _pair_distances(points)
    return float(math.sqrt(float(d2.max())))
