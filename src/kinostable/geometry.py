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
(``diametric_box``, ``frame_diameter``, ``convex_hull``) are the one-frame
call of the same block code.  ``block_size`` caps a block so that no
per-block temporary exceeds ``_BLOCK_BYTES``; only O(B) arrays outlive a
block.  By the same budget, ``trace_block`` caps how many frames check a
chain trace (below) at once, ``table_block`` how many are scored.

Hulls are kinetic in the sense of Basch, Guibas and Hershberger (1997):
the certificates are the monotone chain's own comparisons (Andrew, 1979).
A chain run on a frame whose n points are all distinct records a trace
(``HullTrace``): every turn test (o, a, p) of its lower and upper chains
with its outcome.  The frames after it in its block replay the trace,
taking its hull indices, for as long as each of them satisfies both:

* its points sort in the same order with strictly increasing keys, so the
  chain walks the same sequence of points, with none dropped as equal; and
* every recorded ``(ax-ox)*(py-oy) - (ay-oy)*(px-ox) <= 0.0`` evaluates the
  same, computed with the same float expression (numpy rounds each product
  and difference on its own, as Python does; it fuses none).

The chain would then take exactly the same steps, so the hull indices, and
the vertices ``points[b, idx]``, are bitwise the chain's, -0.0 included.  A
frame that cannot replay runs the chain, index by index, on a block-wide
stable lexicographic presort that keeps the first of equal points, as the
Python ``set`` of coordinate tuples the chain was first written with does.
Both checks are array code over many frames at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import canonical_array, elementwise
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
# coordinate differences up to the limit, the (B, n, 2) positions and the
# (B, 2n) hull index matrix above it.
_BLOCK_BYTES = 1 << 20

# Consecutive frames try to replay a chain trace only in runs of at least
# this many frames that sort the same way.  Recording a trace and checking
# the next frame against it costs about one chain run on a 64-point frame,
# and only the frames left in the run can pay it back: on random walks
# sampled at dt = 1e-3, runs average about 60 frames at 8 points, where
# nearly every frame replays, and about 2 at 64, where most replays fail.
_REPLAY_RUN = 8

_atan2, _sin, _cos = elementwise(math.atan2, 2), elementwise(math.sin), elementwise(math.cos)

_NON_FINITE = "frame contains non-finite coordinates"
_COINCIDENT = "all points coincide; every descriptor is undefined"


def block_size(n: int) -> int:
    """How many frames of ``n`` points one block holds."""
    per_frame = 16 * n * (n if n <= _BRUTE_FORCE_LIMIT else 1)
    return max(1, _BLOCK_BYTES // per_frame)


def trace_block(n: int) -> int:
    """How many frames of ``n`` points check a chain trace at once: the
    check gathers the coordinates of the trace's 12n turn-test points, 96n
    bytes per axis and frame, budgeted at 128n."""
    return max(1, _BLOCK_BYTES // (128 * n))


def table_block(n: int, m: int) -> int:
    """How many frames of ``n`` points ``orientation_costs`` may score at ``m``
    orientations at once: ten (F, m) tables, plus (F, n, m) projections up to the limit."""
    return max(1, _BLOCK_BYTES // (8 * m * (10 + (n if n <= _BRUTE_FORCE_LIMIT else 0))))


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

    @cached_property
    def block(self) -> Frames:
        """The one-frame block of this frame; it holds the hull once built."""
        return Frames(self.points[None])

    @cached_property
    def hull(self) -> np.ndarray:
        """The frame's convex hull, built once on first use."""
        return self.block.hull(0)


class Frames:
    """A block of B frames of n points each: ``points`` has shape (B, n, 2).

    The hulls of all frames are built together on first use, once, each
    frame replaying the chain trace of the last frame before it that ran
    the chain, where the trace certifies it (see the module docstring).  A
    block is not checked: ``Trajectory.frame_blocks`` checks the frames it
    makes as ``Frame`` does.
    """

    def __init__(self, points: np.ndarray):
        self.points = points

    @classmethod
    def of(cls, points) -> Frames:
        """The one-frame block of a Frame or an (n, 2) point array."""
        return points.block if isinstance(points, Frame) else cls(as_points(points)[None])

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    @cached_property
    def hull_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Every frame's hull as point indices: a (B, hmax) matrix whose row
        b holds frame b's ``counts[b]`` vertices counterclockwise, then
        zeros, and the (B,) ``counts``."""
        return _consecutive_hulls(self.points)

    def hull(self, b: int) -> np.ndarray:
        """Frame ``b``'s hull vertices, counterclockwise."""
        idx, counts = self.hull_indices
        return self.points[b, idx[b, :counts[b]]]


class HullTrace:
    """Every comparison of the lower and upper chains of one chain run on a
    frame of n distinct points.

    Column k of ``oap`` holds the point indices (o, a, p) of a turn test
    that pops a from the chain before pushing p, and ``popped[k]`` its
    outcome.  The columns come from each chain's links, one per point: the
    point it was pushed onto (``below``), the one under that (``under``)
    and the point that popped it (``popper``).  A popped point a was tested
    by (below, a, popper); a push of p tested (under, below, p) and kept
    below.  Where no test was made the links read (o, a, a) or (a, a, p):
    a cross of two equal products, or of zeros, is exactly zero, so
    popped.
    """

    def __init__(self, links: list[list[int]]):
        n = len(links[0])
        # each (2n,): the lower chain's links, then the upper chain's
        below, under, popper = np.array(links, dtype=np.intp).reshape(3, 2 * n)
        own = np.arange(n)
        self.oap = np.stack([np.concatenate([below, under]),  # pop tests, then push tests
                             np.concatenate([own, own, below]),
                             np.concatenate([popper, own, own])])
        self.popped = np.concatenate([np.ones(2 * n, dtype=bool), under == below])


def _half_chain(seq: list[int], xs: list[float], ys: list[float],
                below: list[int], under: list[int], popper: list[int]) -> list[int]:
    """One monotone chain over the points ``seq``: the points kept with a
    strict left turn at each.  The chain is a linked stack, ``below[a]``
    the point under a, and records its links in ``HullTrace``'s terms."""
    a = seq[0]
    ax, ay = xs[a], ys[a]
    for p in seq[1:]:
        px, py = xs[p], ys[p]
        o = below[a]
        while o >= 0:
            ox, oy = xs[o], ys[o]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                popper[a] = p
                a, ax, ay = o, ox, oy
                o = below[o]
            else:
                break
        below[p], under[p] = a, o if o >= 0 else a
        a, ax, ay = p, px, py
    out = []
    while a >= 0:
        out.append(a)
        a = below[a]
    return out[::-1]


def _monotone_chain(points: np.ndarray, order: np.ndarray,
                    record: bool) -> tuple[np.ndarray, HullTrace | None]:
    """Andrew's monotone chain on one (n, 2) frame: its hull indices, and
    with ``record`` the trace of the run.

    ``order`` holds the frame's distinct points (the first of equal points)
    in lexicographic order.  Only a frame whose n points are all distinct
    gets a trace, so a frame sorting the same way has the same sequence.
    """
    if len(order) == 1:
        raise DegenerateInputError("all points coincide; hull is undefined")
    if len(order) <= 2:
        return order, None
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    seq = order.tolist()
    n = len(xs)
    # below and under of the lower and upper chain, then their poppers
    links = [[-1] * n for _ in range(4)] + [list(range(n)) for _ in range(2)]
    lower = _half_chain(seq, xs, ys, links[0], links[2], links[4])
    upper = _half_chain(seq[::-1], xs, ys, links[1], links[3], links[5])
    hull = np.array(lower[:-1] + upper[:-1], dtype=np.intp)
    if record and len(seq) == n:
        return hull, HullTrace(links)
    return hull, None


def _presort(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of each frame's points, (B, n), and which
    of them differ from the one before: equal points keep the first, as a
    Python ``set`` of their coordinate tuples does."""
    x, y = points[..., 0], points[..., 1]
    order = np.lexsort((y, x))
    xs, ys = np.take_along_axis(x, order, axis=1), np.take_along_axis(y, order, axis=1)
    fresh = np.ones(order.shape, dtype=bool)
    fresh[:, 1:] = (xs[:, 1:] != xs[:, :-1]) | (ys[:, 1:] != ys[:, :-1])
    return order, fresh


def _agree(points: np.ndarray, oap: np.ndarray, popped: np.ndarray) -> np.ndarray:
    """Whether each frame of a (w, n, 2) block decides every comparison of a
    trace (``oap`` (1 or w, 3, m), ``popped`` (1 or w, m)) as recorded,
    with the chain's float expression: (w,) bool."""
    rows = np.arange(len(points))[:, None]
    x, y = points[..., 0], points[..., 1]
    o, a, p = oap[:, 0], oap[:, 1], oap[:, 2]
    ox, oy = x[rows, o], y[rows, o]  # (w, m) each, as are the differences
    cross = (x[rows, a] - ox) * (y[rows, p] - oy)
    cross -= (y[rows, a] - oy) * (x[rows, p] - ox)
    return ((cross <= 0.0) == popped).all(axis=1)


def _hull_table(size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An empty index matrix and counts for ``size`` hulls of ``n`` points.

    Near-collinear points can round to a chain of up to 2n - 2 vertices,
    some repeated, as they always have; the matrix leaves room for it.
    """
    return np.zeros((size, 2 * n), dtype=np.intp), np.zeros(size, dtype=np.intp)


def _consecutive_hulls(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hull indices of consecutive frames: a frame replays the trace of the
    last frame before it that ran the chain, while all frames in between
    sort the same way and agree with the trace.

    A chain run records a trace only when at least ``_REPLAY_RUN`` frames,
    its own included, sort the same way.  The frames after it are checked
    in windows that double while they agree, up to ``trace_block`` frames,
    so a trace that the next frame breaks costs one frame's check: the
    collinear frames of the stateless-disk sweep break nearly every trace.
    """
    order, fresh = _presort(points)
    size, n = order.shape
    cap = trace_block(n)
    distinct = fresh.all(axis=1)
    same = distinct[1:] & distinct[:-1] & (order[1:] == order[:-1]).all(axis=1)
    ends = np.append(np.flatnonzero(~same) + 1, size).tolist()
    idx, counts = _hull_table(size, n)
    b = 0
    for end in ends:  # frames b .. end - 1 sort the same way
        while b < end:
            hull, trace = _monotone_chain(points[b], order[b][fresh[b]], end - b >= _REPLAY_RUN)
            idx[b, :len(hull)], counts[b] = hull, len(hull)
            b += 1
            width = 1
            while trace is not None and b < end:
                stop = min(end, b + width)
                agree = _agree(points[b:stop], trace.oap[None], trace.popped[None])
                k = len(agree) if agree.all() else int(np.argmin(agree))
                idx[b:b + k, :len(hull)], counts[b:b + k] = hull, len(hull)
                b += k
                if b < stop:
                    break
                width = min(2 * width, cap)
    return idx[:, :counts.max(initial=0)], counts


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order, collinear vertices dropped.

    Monotone chain on exactly compared, lexicographically sorted coordinates.
    Collinear input yields the degenerate 2-vertex hull (segment endpoints).
    """
    return Frames.of(points).hull(0)


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
    a = canonical_array(_atan2(vec[:, 1], vec[:, 0]))
    order = np.lexsort((j, i, a, t))
    first = order[np.r_[True, t[order][1:] != t[order][:-1]]]
    alpha = a[first]
    diameter = np.sqrt(dmax2)
    perp = np.column_stack([-_sin(alpha), _cos(alpha)])
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


def frame_diameters(frames: Frames, rows: np.ndarray | None = None) -> np.ndarray:
    """Largest pairwise distance of every frame of a block, or of its frames ``rows``."""
    rows = np.arange(len(frames)) if rows is None else rows
    if frames.n_points <= _BRUTE_FORCE_LIMIT:
        return np.sqrt(_brute_distances(frames.points[rows]).max(axis=(1, 2)))
    return np.sqrt([_hull_distances(frames.hull(b))[2].max() for b in rows.tolist()])


def frame_diameter(points) -> float:
    """Largest pairwise distance in the frame."""
    return float(frame_diameters(Frames.of(points))[0])
