"""Planar primitives: point-set frames, convex hulls, extents, diametric boxes.

Two paths compute the hull-only quantities, chosen here and nowhere else by
frame size:

* at most ``_BRUTE_FORCE_LIMIT`` points: the full matrix of pairwise
  squared distances gives the diameter, and the box and strip candidate
  costs project every point (``costs.candidate_costs``);
* above it: one rotating-calipers pass over the convex hull (Toussaint,
  1983) gives the antipodal vertex pairs, the only pairs that can be
  diametral, and the extreme hull vertices give every candidate's extents
  (``extents_on_hull``).  Both are O(h) in time and memory for h hull
  vertices.

Every quantity is computed for a block of frames at once (``Frames``, a
(B, n, 2) array): the trackers, the descriptor command and the
normalization walk a run block by block, and the per-frame functions
(``diametric_box``, ``frame_diameter``) are the one-frame call of the same
block code.  ``block_size`` caps a block so that no per-block temporary
exceeds ``_BLOCK_BYTES``; only O(B) arrays outlive a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import canonical_array
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

# Largest per-block temporary, in bytes: the two (B, n, n) arrays of pair
# coordinate differences up to the limit, the (B, n, 2) positions above it.
_BLOCK_BYTES = 1 << 20

_NON_FINITE = "frame contains non-finite coordinates"
_COINCIDENT = "all points coincide; every descriptor is undefined"


def block_size(n: int) -> int:
    """How many frames of ``n`` points one block holds."""
    per_frame = 16 * n * (n if n <= _BRUTE_FORCE_LIMIT else 1)
    return max(1, _BLOCK_BYTES // per_frame)


def frame_faults(points: np.ndarray) -> dict[int, str]:
    """Index and message of every frame of a (B, n, 2) block that ``Frame``
    rejects (a frame with a non-finite coordinate reports that first)."""
    finite = np.isfinite(points).all(axis=(1, 2))
    coincide = (points == points[:, :1]).all(axis=(1, 2))
    return {int(i): _COINCIDENT if finite[i] else _NON_FINITE
            for i in np.flatnonzero(coincide | ~finite)}


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
        fault = frame_faults(pts[None]).get(0)
        if fault is not None:
            raise DegenerateInputError(fault)
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


class Frames:
    """A block of B frames of n points each: ``points`` has shape (B, n, 2).

    Each frame's hull is built on first use, once.  A block is not checked:
    ``Trajectory.frame_blocks`` checks the frames it makes as ``Frame`` does.
    """

    def __init__(self, points: np.ndarray, frame: Frame | None = None):
        self.points = points
        self._frame = frame  # a one-frame block of a Frame shares its hull
        self._hulls: list[np.ndarray | None] = [None] * len(points)

    @classmethod
    def of(cls, points) -> Frames:
        """The one-frame block of a Frame or an (n, 2) point array."""
        return cls(as_points(points)[None], points if isinstance(points, Frame) else None)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    def hull(self, b: int) -> np.ndarray:
        if self._frame is not None:
            return self._frame.hull
        hull = self._hulls[b]
        if hull is None:
            hull = self._hulls[b] = convex_hull(self.points[b])
        return hull


def _chain(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """One monotone chain: the points kept with a strict left turn at each."""
    out: list[tuple[float, float]] = []
    for p in points:
        px, py = p
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order, collinear vertices dropped.

    Monotone chain on exactly compared, lexicographically sorted coordinates.
    Collinear input yields the degenerate 2-vertex hull (segment endpoints).
    """
    pts = as_points(points)
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) == 1:
        raise DegenerateInputError("all points coincide; hull is undefined")
    if len(uniq) == 2:
        return np.array(uniq, dtype=float)
    return np.array(_chain(uniq)[:-1] + _chain(uniq[::-1])[:-1], dtype=float)


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


def _brute_distances(points: np.ndarray) -> np.ndarray:
    """Squared distance of every point pair of every frame: (B, n, n).

    dx*dx + dy*dy, two products and one sum, rounded as the per-pair
    ``einsum`` over the (dx, dy) axis rounds them, five times faster.
    """
    x, y = points[:, :, 0], points[:, :, 1]
    dx = x[:, :, None] - x[:, None, :]
    dy = y[:, :, None] - y[:, None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _hull_distances(hull: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The antipodal index pairs ``(i, j)`` of a hull and their squared distances."""
    i, j = _antipodal_pairs(hull)
    diff = hull[i] - hull[j]
    return i, j, np.einsum("ij,ij->i", diff, diff)


def extents_on_hull(hull: np.ndarray, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Extents of a hull along each orientation in ``alphas`` and perpendicular
    to it, from a window of three vertices around each extreme-vertex pointer:
    O(h) time and memory."""
    theta = _edge_angles(hull)
    alphas = np.asarray(alphas, dtype=float)
    c, s = np.cos(alphas), np.sin(alphas)

    def spread(direction: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """max - min of the hull projected onto ``direction[k]``, at angle ``phi[k]``.

        Each projection is a 1x2 by 2x1 product, the arithmetic of the
        point-by-direction matrix product in ``costs.candidate_costs``, so
        tied candidates compare the same way on both paths.
        """

        def proj(k: np.ndarray) -> np.ndarray:
            return (hull[k % len(hull)][:, None, :] @ direction[:, :, None])[:, 0, 0]

        top = _extreme_vertices(theta, phi)
        bottom = _extreme_vertices(theta, phi + math.pi)
        return (np.maximum.reduce([proj(top + d) for d in (-1, 0, 1)])
                - np.minimum.reduce([proj(bottom + d) for d in (-1, 0, 1)]))

    return (spread(np.column_stack([c, s]), alphas),
            spread(np.column_stack([-s, c]), alphas + 0.5 * math.pi))


def _diametral_hits(frames: Frames):
    """Every farthest pair ``i < j`` of every frame: (frame index, i, j,
    pair vector from i to j), and the squared diameter of each frame.

    At most ``_BRUTE_FORCE_LIMIT`` points the pairs index the frame's
    points, above it the frame's hull vertices.
    """
    if frames.n_points <= _BRUTE_FORCE_LIMIT:
        pts = frames.points
        d2 = _brute_distances(pts)
        dmax2 = d2.max(axis=(1, 2))
        if (dmax2 == 0.0).any():
            raise DegenerateInputError("all points coincide; diametric box is undefined")
        t, i, j = np.nonzero(d2 == dmax2[:, None, None])
        keep = i < j
        t, i, j = t[keep], i[keep], j[keep]
        return t, i, j, pts[t, j] - pts[t, i], dmax2
    rows = []
    for b in range(len(frames)):
        hull = frames.hull(b)
        i, j, d2 = _hull_distances(hull)
        dmax2 = d2.max()
        hits = np.flatnonzero(d2 == dmax2)
        i, j = i[hits], j[hits]
        keep = i < j
        i, j = i[keep], j[keep]
        rows.append((np.full(len(i), b), i, j, hull[j] - hull[i], dmax2))
    t, i, j, vec, dmax2 = zip(*rows)
    return (np.concatenate(t), np.concatenate(i), np.concatenate(j),
            np.concatenate(vec), np.array(dmax2))


def diametric_boxes(frames: Frames) -> DiametricBox:
    """Diametric box of every frame of a block, as one DiametricBox whose
    fields are (B,) arrays.

    Ties between equally far pairs break to the smallest canonical
    orientation, then the lexicographically smallest candidate index pair,
    so replays are deterministic.
    """
    if frames.n_points < 2:
        raise DegenerateInputError("need at least 2 points")
    t, i, j, vec, dmax2 = _diametral_hits(frames)
    a = canonical_array(np.array([math.atan2(y, x) for x, y in vec.tolist()]))
    order = np.lexsort((j, i, a, t))
    first = order[np.r_[True, t[order][1:] != t[order][:-1]]]
    alpha = a[first]
    diameter = np.sqrt(dmax2)
    perp = np.array([[-math.sin(v), math.cos(v)] for v in alpha.tolist()])
    proj = frames.points @ perp[:, :, None]
    width = proj.max(axis=(1, 2)) - proj.min(axis=(1, 2))
    aspect = width / diameter
    return DiametricBox(alpha=alpha, diameter=diameter, width=width,
                        aspect=np.where(1.0 < aspect, 1.0, aspect))


def diametric_box(points) -> DiametricBox:
    """Diametric box of a frame: the one-frame call of ``diametric_boxes``."""
    box = diametric_boxes(Frames.of(points))
    return DiametricBox(float(box.alpha[0]), float(box.diameter[0]),
                        float(box.width[0]), float(box.aspect[0]))


def frame_diameters(frames: Frames) -> np.ndarray:
    """Largest pairwise distance of every frame of a block."""
    if frames.n_points <= _BRUTE_FORCE_LIMIT:
        return np.sqrt(_brute_distances(frames.points).max(axis=(1, 2)))
    return np.sqrt([_hull_distances(frames.hull(b))[2].max() for b in range(len(frames))])


def frame_diameter(points) -> float:
    """Largest pairwise distance in the frame."""
    return float(frame_diameters(Frames.of(points))[0])
