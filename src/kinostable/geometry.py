"""Planar primitives: point-set frames, convex hulls, extents, diametric boxes.

Two paths compute the hull-only quantities, chosen here and nowhere else by
frame size:

* at most ``_BRUTE_FORCE_LIMIT`` points: the full matrix of pairwise
  squared distances gives the diameter, and the box and strip candidate
  costs project every point (``costs.costs_at``);
* above it: one rotating-calipers pass over the convex hull (Toussaint,
  1983) gives the antipodal vertex pairs, the only pairs that can be
  diametral, and the extreme hull vertices give every candidate's extents
  (``hull_extents``).  Both are O(h) in time and memory for h hull
  vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import canonical
from .errors import DegenerateInputError

# At most this many points, the diameter comes from every pairwise distance
# and the candidate extents from projecting every point: no hull is needed,
# and at n = 8 that measured faster than building one.  Larger frames use
# only the hull's antipodal pairs and extreme vertices, with the same
# per-pair and per-vertex arithmetic: the diameter and the diametric box
# are exactly those of all hull pairs, and a candidate's extents differ
# from projecting every point only where a non-vertex point rounds past
# the extreme vertex (a few ulp of the coordinates).
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


def _edge_angles(hull: np.ndarray) -> np.ndarray:
    """Direction angles of the hull edges, nondecreasing along the hull.

    Edge k runs from vertex k to vertex k+1.  Vertex k is extreme for the
    outward normals from ``theta[k-1] - pi/2`` to ``theta[k] - pi/2``.  The
    running maximum only absorbs last-bit disorder of ``np.arctan2`` between
    nearly parallel edges; callers allow one vertex of slack either way.
    """
    edges = np.roll(hull, -1, axis=0) - hull
    return np.maximum.accumulate(np.unwrap(np.arctan2(edges[:, 1], edges[:, 0])))


def _extreme_vertices(theta: np.ndarray, phi) -> np.ndarray:
    """Index of a hull vertex extreme in each direction ``phi``, exact up to
    one vertex either way."""
    x = theta[0] + np.mod(np.asarray(phi) + 0.5 * math.pi - theta[0], 2.0 * math.pi)
    return np.searchsorted(theta, x) % len(theta)


def _antipodal_pairs(hull: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i <= j) of hull vertices that can be antipodal.

    One rotating-calipers pass: vertex i is antipodal to the vertices from
    the one farthest from edge i-1 to the one farthest from edge i.  Every
    range is widened by one vertex each side (the pointers are exact only up
    to one vertex) and capped at the whole hull, so the pairs are a superset
    of the diametral ones, O(h) of them.
    """
    h = len(hull)
    theta = _edge_angles(hull)
    far = _extreme_vertices(theta, theta + 0.5 * math.pi)  # farthest from edge k
    first = np.roll(far, 1) - 1
    count = np.minimum((far - np.roll(far, 1)) % h + 3, h)
    owner = np.repeat(np.arange(h), count)
    step = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    other = (np.repeat(first, count) + step) % h
    return np.minimum(owner, other), np.maximum(owner, other)


def _pair_distances(points) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None, np.ndarray]:
    """Farthest-pair candidates, their index pairs and squared distances.

    At most ``_BRUTE_FORCE_LIMIT`` points: every point, no index pairs and
    the full matrix.  Above it: the hull vertices, the antipodal index pairs
    ``(i, j)`` and one squared distance per pair.
    """
    pts = as_points(points)
    if len(pts) <= _BRUTE_FORCE_LIMIT:
        diff = pts[:, None, :] - pts[None, :, :]
        return pts, None, np.einsum("ijk,ijk->ij", diff, diff)
    hull = hull_of(points)
    i, j = _antipodal_pairs(hull)
    diff = hull[i] - hull[j]
    return hull, (i, j), np.einsum("ij,ij->i", diff, diff)


def hull_extents(points, alphas) -> tuple[np.ndarray, np.ndarray] | None:
    """Extents along each orientation in ``alphas`` and perpendicular to it.

    Above ``_BRUTE_FORCE_LIMIT`` points, each extent is read off the hull
    vertices extreme in the two opposite directions (a window of three
    vertices around each pointer), in O(h) time and memory.  At or below
    the limit it returns None: the caller projects every point instead.
    """
    pts = as_points(points)
    if len(pts) <= _BRUTE_FORCE_LIMIT:
        return None
    hull = hull_of(points)
    theta = _edge_angles(hull)
    alphas = np.asarray(alphas, dtype=float)
    c, s = np.cos(alphas), np.sin(alphas)

    def spread(direction: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """max - min of the hull projected onto ``direction[k]``, at angle ``phi[k]``.

        Each projection is a 1x2 by 2x1 product, the arithmetic of the
        point-by-direction matrix product in ``costs.costs_at``, so tied
        candidates compare the same way on both paths.
        """

        def proj(k: np.ndarray) -> np.ndarray:
            return (hull[k % len(hull)][:, None, :] @ direction[:, :, None])[:, 0, 0]

        top = _extreme_vertices(theta, phi)
        bottom = _extreme_vertices(theta, phi + math.pi)
        return (np.maximum.reduce([proj(top + d) for d in (-1, 0, 1)])
                - np.minimum.reduce([proj(bottom + d) for d in (-1, 0, 1)]))

    return (spread(np.column_stack([c, s]), alphas),
            spread(np.column_stack([-s, c]), alphas + 0.5 * math.pi))


def diametric_box(points) -> DiametricBox:
    """Diametric box of a frame.

    Ties between equally far pairs break to the smallest canonical
    orientation, then the lexicographically smallest candidate index pair,
    so replays are deterministic.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 points")
    cand, pairs, d2 = _pair_distances(points)
    dmax2 = float(d2.max())
    if dmax2 == 0.0:
        raise DegenerateInputError("all points coincide; diametric box is undefined")
    hits = np.nonzero(d2 == dmax2)
    ii, jj = hits if pairs is None else (pairs[0][hits], pairs[1][hits])
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
    _, _, d2 = _pair_distances(points)
    return float(math.sqrt(float(d2.max())))
