"""Planar primitives: point-set frames, convex hulls, extents, diametric boxes.

Two paths compute the hull-only quantities, chosen by frame size here and,
for the scored candidate tables, in ``solvers.orientation_costs``:

* at most ``_BRUTE_FORCE_LIMIT`` points: the squared distance of every
  point pair gives the diameter, that of every pair of hull vertices the
  diametral pairs (a farthest pair's points are hull vertices; Shamos,
  1978), and the box and strip candidate costs project every point
  (``costs.candidate_costs`` on ``extents``);
* above it: one rotating-calipers pass over the convex hull (Toussaint,
  1983) gives the antipodal vertex pairs, the only pairs that can be
  diametral, for both, and the extreme hull vertices give every
  candidate's extents (``extents_on_hull``).  Both are O(h) in time and
  memory for h hull vertices.

For the diameter and the diametric box the switch is a speed choice only:
both paths compute each pair's squared distance with the same arithmetic,
and take a farthest pair's vector from its lower end, so a frame's box
depends on its points alone and is bitwise the same on either side.
Candidate extents can differ across it by a few ulp (see ``_BRUTE_FORCE_LIMIT``).

``extents`` is the one max - min of a point projection (candidate costs,
diametric box width, ``extent``).  ``diameter_lower_bounds`` bounds every
frame's diameter from below in O(n) per frame, with ``_brute_distances``'
per-pair arithmetic, so the scan for the smallest diameter
(``chasing.min_diameter``) diameters only the frames whose bound is below
the smallest diameter found.

Every quantity is computed for a block of frames at once (``Frames``, a
(B, n, 2) array): the trackers, the descriptor command and the
normalization walk a run block by block, and the per-frame functions
(``diametric_box``, ``frame_diameter``, ``convex_hull``, ``extent``) are the
one-frame call of the same block code on ``Frames.of``, which checks their
input as ``Frame`` does; blocks are not checked.  ``block_size`` sizes a
block by the arrays that live as long as it does, O(n) per frame: the
positions and the hull index matrix stay within ``_BLOCK_BYTES``.  Larger
temporaries are made a chunk of frames at a time by the same budget: the
(F, n, n) pair matrices up to the limit (``pair_block``), the hull
certificates and chain passes (below, ``chain_block``) and the scored
orientation tables (``table_block``).
Only O(B) arrays outlive a block.

Hulls are kinetic in the sense of Basch, Guibas and Hershberger (1997).  A
frame keeps the hull of the last frame before it in its block that ran
Andrew's monotone chain (1979) while a certificate holds: every point but
an edge's two ends lies strictly left of every hull edge, by the chain's
own float expression ``(ax-ox)*(py-oy) - (ay-oy)*(px-ox)``, which must
exceed Shewchuk's static error bound (1997) ``(3 + 16 eps) eps (|l| +
|r|)``, ``l`` and ``r`` its two rounded products.  The hull is then
exactly unchanged, and is rotated to start at the frame's
lexicographically smallest point, one of its vertices, as the chain
starts.  The chain's float decisions agree: its pop test of a vertex over
the vertex before it is a certified test, so no vertex is popped, and its
test of an interior point pushed directly onto a vertex is a certified
test negated, so the next vertex pops it.  The frame takes the chain's
indices, and its vertices ``points[b, idx]`` are bitwise the chain's, -0.0
included; a duplicate of a vertex, or a point on an edge, fails the
certificate.  The chain's tests among interior points are the ones left
uncertified: where two interior points lie within a few ulps of each
other, such a test can round the wrong way, and a chain run on the whole
frame then keeps one of them as a vertex, with an ulp-long edge, where the
certified hull leaves it out.

A frame that fails runs the chain, on only the points the failed
certificate could not place strictly inside the old hull (every vertex
among them), and its hull certifies the frames after it.  Frames are
checked in windows that double while they certify, within the budget; a
frame whose (h, n) test alone exceeds the budget runs the chain.

The chain runs on runs of consecutive frames at once
(``_monotone_chains``): one stable sort orders the points of every frame
of a run, keeping the first of equal points, as the Python ``set`` of
coordinate tuples it was first written with does.  Up to
``_BRUTE_FORCE_LIMIT`` points each frame's chain is then the Python list
stack (``_half_chain``) on its own points.  Above it numpy passes over the
frames of the run make the chain's turn decisions in bulk wherever the
static bound makes them exact: each pass deletes every point whose turn
between its current neighbours is certainly negative, and the passes stop
when one deletes nothing, so every turn left is certainly positive and
the chain is the exact one, which is the stack's.  A half chain with a
turn within the bound, or with a vertex whose first stack test (against
the vertex before it and the point after it) is within it, runs the
stack on all its points instead, so near-collinear, lattice, duplicate
and ulp-twin frames keep the stack's bytes.  The switch sits at the limit
because the passes cost some hundred numpy calls per run, more than the
stack spends on the 8- and 64-point frames of random walks, while above
it the stack's n interpreted steps per frame are the largest per-frame
cost.

A run is one frame long after a certificate held; otherwise it is as long
as the frames chained since one last held, so a stretch of F frames that
no hull certifies (collinear frames with 2-vertex hulls, a point kept on a
hull edge or a duplicated vertex, frames over the budget) costs O(log F)
certificate checks instead of F: runs of 1, 1, 2, 4, ... frames.  Each
frame of a run chains only the points the failed certificate could not
place strictly inside the old hull, where the failed window tested it;
equal points share that mark, so the first of equal points kept is the
same.  An isolated hull change, or two in a row, chains exactly the frames
it did one frame at a time, and every hull is still the chain's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import cos, orientations, sin
from .errors import DegenerateInputError

# At most this many points, the diameter comes from every pairwise distance,
# the diametral pairs from every pair of hull vertices (the hull is built for
# the box and strip candidates anyway), and the candidate extents from
# projecting every point: at n = 8 that measured faster than reading the
# hull's extreme vertices.  Larger frames use only the hull's antipodal pairs
# and extreme vertices, with the same per-pair and per-vertex arithmetic: the
# diameter and the diametric box are bitwise those of the smaller path.  A
# candidate's extents differ from projecting every point where a non-vertex
# point rounds past the extreme vertex, and that tolerance is the contract:
# within 4 ulp of the cost, or of the coordinate scale where the cost is
# rounding noise (``tests/test_hull_linear.py``).  Box and strip candidates
# come from the hull at every size.
_BRUTE_FORCE_LIMIT = 64

# The memory budget, in bytes, of a block's (B, n, 2) positions and of each
# temporary made a chunk of frames at a time.
_BLOCK_BYTES = 1 << 20

# Shewchuk's orientation error bound: where the float cross product exceeds
# this times |l| + |r| in magnitude, its exact sign is its sign (barring
# underflow).
_CCW_BOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53

# The first certificate window after a chain run: a check's fixed cost is
# that of about four more 64-point frames, and on random walks at dt = 1e-3
# a hull certifies about 11 frames at n = 64 and 76 at n = 8.
_FIRST_WINDOW = 8

# The points extreme along x, y, x + y and x - y, among which
# ``diameter_lower_bounds`` measures: at most this many.
_EXTREMES = 8

_NON_FINITE = "frame contains non-finite coordinates"
_COINCIDENT = "all points coincide; every descriptor is undefined"


def block_size(n: int) -> int:
    """How many frames of ``n`` points one block holds: 16n bytes of positions each."""
    return max(1, _BLOCK_BYTES // (16 * n))


def pair_block(n: int) -> int:
    """How many frames of ``n`` points build their (n, n) pair matrices at
    once: two arrays of 8n² bytes each."""
    return max(1, _BLOCK_BYTES // (16 * n * n))


def table_block(n: int, m: int) -> int:
    """How many frames of ``n`` points ``orientation_costs`` may score at ``m``
    orientations at once: ten (F, m) tables and an (F, n, m) projection."""
    return max(1, _BLOCK_BYTES // (8 * m * (10 + n)))


def chain_block(n: int) -> int:
    """How many frames of ``n`` points the turn-deletion passes of
    ``_monotone_chains`` take at once: they hold about 200 bytes per point
    (204 measured at n = 4500 and 150,000)."""
    return max(1, _BLOCK_BYTES // (200 * n))


def certificate_block(h: int, n: int) -> int:
    """How many frames of ``n`` points check a certificate of ``h`` edges at
    once: three (h, n) float arrays and a mask each, budgeted at 32hn
    bytes; 0 where one frame's test exceeds the budget."""
    return _BLOCK_BYTES // (32 * h * n)


def frame_faults(points: np.ndarray) -> dict[int, str]:
    """Index and message of every frame of a (B, n, 2) block that ``Frame``
    rejects (a frame with a non-finite coordinate reports that first)."""
    mask = np.isfinite(points)  # one (B, n, 2) mask at a time, reused
    finite = mask.all(axis=(1, 2))
    coincide = np.equal(points, points[:, :1], out=mask).all(axis=(1, 2))
    return {int(i): _COINCIDENT if finite[i] else _NON_FINITE
            for i in np.flatnonzero(coincide | ~finite)}


@dataclass(frozen=True)
class Frame:
    """A snapshot of n >= 2 planar points, finite and not all coincident.

    The frame keeps a read-only copy of the points it is given.
    """

    points: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float, order="C")
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
    frame keeping the hull of the last frame before it that ran the chain
    where the certificate holds (see the module docstring).  A block is not
    checked: ``Trajectory.frame_blocks`` checks the frames it makes as
    ``Frame`` does.
    """

    def __init__(self, points: np.ndarray):
        self.points = points

    @staticmethod
    def of(points) -> Frames:
        """The one-frame block of a Frame or of an (n, 2) point array, checked
        as ``Frame`` checks it: the one input check of every one-frame call."""
        return (points if isinstance(points, Frame) else Frame(points)).block

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


def _half_chain(seq: list[int], xs: list[float], ys: list[float]) -> list[int]:
    """One monotone chain over the points ``seq``: the points kept with a
    strict left turn at each."""
    out = [seq[0]]
    ax, ay = xs[seq[0]], ys[seq[0]]  # the top of the chain
    for p in seq[1:]:
        px, py = xs[p], ys[p]
        while len(out) > 1:
            o = out[-2]
            ox, oy = xs[o], ys[o]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                out.pop()
                ax, ay = ox, oy
            else:
                break
        out.append(p)
        ax, ay = px, py
    return out


def _certain_turns(o: np.ndarray, a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chain's turn at each ``a`` of the (N, 2) triples ``o, a, p``, and
    whether it exceeds the static error bound, so that its sign is exact."""
    a, p = a - o, p - o
    left = a[:, 0] * p[:, 1]
    right = a[:, 1] * p[:, 0]
    turn = left - right
    np.abs(left, out=left)
    np.abs(right, out=right)
    left += right
    left *= _CCW_BOUND
    return turn, np.abs(turn, out=right) > left


def _certified_chains(points: np.ndarray, order: np.ndarray, fresh: np.ndarray) -> list:
    """Both half chains of every frame of a (F, n, 2) block over its points
    ``order[f, fresh[f]]``, by certified turn deletion: per frame, the lower
    and the upper chain as point indices, each None where a turn it
    depends on was uncertain.

    A pass evaluates the chain's own turn at points between two current
    neighbours and deletes the points whose turn is certainly negative
    (beyond the static bound, barring underflow): such a point lies
    strictly right of a chord of two points around it, so it is no vertex,
    and a chain whose turns are all certainly positive is the exact one.
    The passes stop when one deletes nothing.  The first evaluates every
    point once, on the lower chains; a turn certainly positive there is
    certainly negative on the upper chain, which runs backwards, so that
    chain deletes the point, and a turn within the bound fails both.  The
    points left form one sequence, the lower chains and then the upper
    chains backwards, linked to their current neighbours, and later passes
    evaluate the points whose neighbours changed.

    The stack's own turns can still round the wrong way where the points
    they join are a few ulps apart: its first test of a vertex, against
    the vertex before it and the point after it in the sequence, then
    pops the vertex (``tests/test_blocks.py::twin_after_a_vertex``).  That
    test is made last, on every vertex, and a half chain in which it is
    uncertain fails too.  The seeded fuzz there, ulp twins included, finds
    no other frame where the exact chain and the stack's differ.
    """
    size, n = order.shape
    chain = np.repeat(np.arange(size), np.count_nonzero(fresh, axis=1))
    lower = points.reshape(-1, 2).take((order + n * np.arange(size)[:, None])[fresh], axis=0)
    turn, sure = _certain_turns(lower[:-2], lower[1:-1], lower[2:])
    inner = chain[:-2] == chain[2:]  # neither end of its frame's chain
    uncertain = np.zeros(2 * size, dtype=bool)  # lower chains, then upper chains
    unsure = chain[1:-1][inner & ~sure]
    uncertain[unsure] = uncertain[size + unsure] = True
    sure &= inner
    keep = np.ones((2, len(lower)), dtype=bool)
    keep[0, 1:-1] = ~(sure & (turn < 0.0))
    keep[1, 1:-1] = ~(sure & (turn > 0.0))
    kept = [np.flatnonzero(keep[0]), np.flatnonzero(keep[1])[::-1]]
    src = np.concatenate(kept)  # where each point left is in ``lower``
    succ = np.concatenate((kept[0] + 1, kept[1] - 1))  # ... and the point after it in its chain
    chain = np.concatenate((chain[kept[0]], size + chain[kept[1]]))
    seq = lower.take(src, axis=0)
    inner = np.zeros(len(seq), dtype=bool)
    inner[1:-1] = chain[:-2] == chain[2:]
    prev, next_ = np.arange(-1, len(seq) - 1), np.arange(1, len(seq) + 1)
    alive = np.ones(len(seq), dtype=bool)
    changed = np.zeros(len(seq) + 1, dtype=bool)
    changed[1:-1] = succ[:-1] != src[1:]  # the first pass deleted the points between
    at = np.flatnonzero((changed[:-1] | changed[1:]) & inner)
    while len(at):
        turn, sure = _certain_turns(*(seq.take(i, axis=0) for i in (prev[at], at, next_[at])))
        if not sure.all():
            uncertain[chain[at[~sure]]] = True
        drop = at[sure & (turn < 0.0)]
        if uncertain.any():
            drop = drop[~uncertain[chain[drop]]]
        alive[drop] = False
        # the points either side of each run of deleted points, in sequence order
        left, right = prev[drop], next_[drop]
        left, right = left[alive[left]], right[alive[right]]
        next_[left], prev[right] = right, left
        changed = np.zeros(len(seq), dtype=bool)
        changed[left] = changed[right] = True
        at = np.flatnonzero(changed & inner)
    at = np.flatnonzero(inner & alive)
    _, sure = _certain_turns(seq.take(prev[at], axis=0), seq.take(at, axis=0), lower.take(succ[at], axis=0))
    uncertain[chain[at[~sure]]] = True
    at = np.flatnonzero(alive)
    stretch = np.r_[:size, 2 * size - 1:size - 1:-1]  # the chains in sequence order
    ends = np.cumsum(np.bincount(chain[at], minlength=2 * size)[stretch])
    halves = dict(zip(stretch.tolist(), np.split(order[fresh][src[at]], ends[:-1])))
    return [(None if uncertain[f] else halves[f], None if uncertain[size + f] else halves[size + f])
            for f in range(size)]


def _monotone_chains(points: np.ndarray, keep: np.ndarray | None = None) -> list[np.ndarray]:
    """Andrew's monotone chain on every frame of a (F, n, 2) block, or on
    each frame's points where the (F, n) mask ``keep`` holds: each frame's
    hull indices, counterclockwise from its lexicographically smallest
    point, the first of equal points kept.

    One stable sort orders the points of all F frames, and the first of
    each run of equal points is kept before ``keep`` filters: equal points
    share their mark there (a certificate tests them alike), so the point
    kept is the first of its equals either way.

    Above ``_BRUTE_FORCE_LIMIT`` points a sort by x alone, the same order
    where no two x are equal, replaces the slower lexsort, and numpy
    passes (``_certified_chains``, ``chain_block(n)`` frames at a time)
    make the turn decisions whose sign the static bound makes exact.  A
    half chain with an uncertain one runs the stack, ``_half_chain``, on
    all its points, as every half chain does up to the limit, where the
    passes' hundred-odd numpy calls per run cost more than the stack.
    """
    x, y = points[..., 0], points[..., 1]
    big = points.shape[1] > _BRUTE_FORCE_LIMIT
    rows = np.arange(len(points))[:, None]
    order = np.argsort(x, axis=-1) if big else np.lexsort((y, x), axis=-1)
    xs = x[rows, order]
    if big and (xs[:, 1:] == xs[:, :-1]).any():
        order = np.lexsort((y, x), axis=-1)
        xs = x[rows, order]
    ys = y[rows, order]
    fresh = np.ones(order.shape, dtype=bool)
    fresh[:, 1:] = (xs[:, 1:] != xs[:, :-1]) | (ys[:, 1:] != ys[:, :-1])
    if keep is not None:
        fresh &= keep[rows, order]
    certified = []
    if big:
        step = chain_block(points.shape[1])
        for lo in range(0, len(points), step):
            part = slice(lo, lo + step)
            certified += _certified_chains(points[part], order[part], fresh[part])
    hulls = []
    for f in range(len(points)):
        seq = order[f, fresh[f]]
        if len(seq) == 1:
            raise DegenerateInputError(_COINCIDENT)
        if len(seq) > 2:
            lower, upper = certified[f] if certified else (None, None)
            if lower is None or upper is None:
                seq, xf, yf = seq.tolist(), x[f].tolist(), y[f].tolist()
                lower = _half_chain(seq, xf, yf) if lower is None else lower.tolist()
                upper = _half_chain(seq[::-1], xf, yf) if upper is None else upper.tolist()
                seq = np.array(lower[:-1] + upper[:-1], dtype=np.intp)
            else:
                seq = np.concatenate((lower[:-1], upper[:-1]))
        hulls.append(seq)
    return hulls


def _certify(points: np.ndarray, hull: np.ndarray, smallest: np.ndarray):
    """The certificate of ``hull`` (h >= 3 point indices) on each frame of a
    (w, n, 2) window whose lexicographically smallest points are
    ``smallest``: whether each frame keeps the hull, the hull position of
    its smallest point, and which points lie strictly left of which edge,
    (w, h, n)."""
    ends = points[:, np.concatenate((hull, hull[:1]))]  # (w, h + 1, 2): the edges' ends
    ox, oy = ends[:, :-1, 0, None], ends[:, :-1, 1, None]  # (w, h, 1), as are the edges
    ex, ey = ends[:, 1:, 0, None] - ox, ends[:, 1:, 1, None] - oy
    left = points[:, None, :, 1] - oy  # (w, h, n) from here on
    left *= ex
    right = points[:, None, :, 0] - ox
    right *= ey
    cross = left - right
    np.abs(left, out=left)
    np.abs(right, out=right)
    left += right
    left *= _CCW_BOUND
    strict = cross > left
    # an edge's own two ends cross it at exactly 0.0; every other point must be strict
    keeps = np.count_nonzero(strict.reshape(len(points), -1), axis=1) == len(hull) * (points.shape[1] - 2)
    return keeps, (hull == smallest[:, None]).argmax(axis=1), strict


def _smallest_points(points: np.ndarray) -> np.ndarray:
    """Index of each frame's lexicographically smallest point, the first
    of equal ones: where the chain starts its hull."""
    x, y = points[..., 0], points[..., 1]
    low = x == x.min(axis=1, keepdims=True)
    return np.argmin(np.where(low, y, np.inf), axis=1)


def _consecutive_hulls(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hull indices of consecutive frames: a frame keeps the hull of the
    last frame before it that ran the chain while its certificate holds,
    rotated to start at its smallest point; frames that fail run the chain
    in runs that grow while no certificate holds (see the module
    docstring).

    A (B, hmax) matrix whose row b holds frame b's ``counts[b]`` vertices,
    then zeros.  Near-collinear points can round to a chain of up to
    2n - 2 vertices, some repeated, as they always have; the matrix leaves
    room for it.
    """
    size, n = points.shape[:2]
    idx, counts = np.zeros((size, 2 * n), dtype=np.intp), np.zeros(size, dtype=np.intp)
    smallest = _smallest_points(points)
    b, chained, keep = 0, 0, None  # chained: frames chained since a certificate last held
    while b < size:
        stop = min(size, b + max(1, chained))
        for f, hull in enumerate(_monotone_chains(points[b:stop], keep), b):
            idx[f, :len(hull)], counts[f] = hull, len(hull)
        chained += stop - b
        b, keep = stop, None
        h = len(hull)
        cap = certificate_block(h, n) if h > 2 else 0
        width = min(max(_FIRST_WINDOW, chained), cap)  # rows for a whole next run
        while cap and b < size:
            stop = min(size, b + width)
            keeps, start, strict = _certify(points[b:stop], hull, smallest[b:stop])
            k = len(keeps) if keeps.all() else int(np.argmin(keeps))
            turn = (start[:k, None] + np.arange(h)) % h
            idx[b:b + k, :h], counts[b:b + k] = hull[turn], h
            b += k
            if k:
                chained = 0
            if b < stop:  # the next run chains the points not strictly inside, where tested
                keep = np.ones((min(max(1, chained), size - b), n), dtype=bool)
                inside = strict[k:k + len(keep)].all(axis=1)
                keep[:len(inside)] = ~inside
                break
            width = min(2 * width, cap)
    return idx[:, :counts.max(initial=0)], counts


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order, collinear vertices dropped.

    The one-frame call of the certified block hull (``Frames.hull``; see the
    module docstring), from the lexicographically smallest point.  Collinear
    input yields the degenerate 2-vertex hull (segment endpoints).
    """
    return Frames.of(points).hull(0)


def extents(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """max - min of each frame of a (B, n, 2) block projected onto each column
    of its own (2, m) direction matrix: (B, m), the point-by-direction product."""
    proj = points @ directions
    return proj.max(axis=1) - proj.min(axis=1)


def extent(points, theta: float) -> float:
    """Width of the point set along direction ``theta``: the one-frame,
    one-direction call of ``extents``."""
    u = np.array([[[math.cos(theta)], [math.sin(theta)]]])
    return float(extents(Frames.of(points).points, u)[0, 0])


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

        Each projection is a 1x2 by 2x1 product, which rounds unlike the
        matrix product in ``extents`` in the last bits: of 450,000 hull-edge
        candidate extents of the kinobench big-hull ellipses (seeds 1-5, t =
        0, 0.5, 1) 26 differ, by at most 2 ulp (2.7e-16 relative).  Both
        ends are taken over the six vertices of the two windows: on an
        ulp-thin hull the window around the lowest vertex can hold a higher
        projection than the one around the highest, and the spread of one
        set of values is never negative.
        """

        def proj(k: np.ndarray) -> np.ndarray:
            return (hull[k % len(hull)][:, None, :] @ direction[:, :, None])[:, 0, 0]

        ends = (_extreme_vertices(theta, phi), _extreme_vertices(theta, phi + math.pi))
        window = [proj(k + d) for k in ends for d in (-1, 0, 1)]
        return np.maximum.reduce(window) - np.minimum.reduce(window)

    return (spread(np.column_stack([c, s]), alphas),
            spread(np.column_stack([-s, c]), alphas + 0.5 * math.pi))


def _diametral_hits(frames: Frames):
    """Every farthest pair of hull vertices of every frame: (frame index,
    pair vector), and the squared diameter of each frame.

    A pair's vector runs from its lower end (smaller y, then smaller x), so
    it depends on the pair's two points alone: a - b = -(b - a) in floats,
    up to the sign of a zero component, which does not change the pair's
    orientation (``orientations`` returns +0.0 for a zero one).  A scan of
    every point pair, the pairs of hull vertices and the antipodal pairs
    thus give each pair the same orientation.  Up to
    ``_BRUTE_FORCE_LIMIT`` points the pairs come from the pair matrix of
    each frame's hull vertices, above it from the antipodal pairs; a
    farthest pair's points are hull vertices.
    """
    rows = []
    if frames.n_points <= _BRUTE_FORCE_LIMIT:
        idx, counts = frames.hull_indices
        idx = np.where(np.arange(idx.shape[1]) < counts[:, None], idx, idx[:, :1])  # pad: vertex 0
        step = pair_block(idx.shape[1])
        for lo in range(0, len(idx), step):
            part = idx[lo:lo + step]
            hull = frames.points[np.arange(lo, lo + len(part))[:, None], part]
            d2 = _brute_distances(hull)
            dmax2 = d2.max(axis=(1, 2))
            t, p, q = np.nonzero(d2 == dmax2[:, None, None])
            keep = (p < q) & (q < counts[lo + t])  # each pair once, no padding
            t, p, q = t[keep], p[keep], q[keep]
            rows.append((t + lo, hull[t, p], hull[t, q], dmax2))
    else:
        for f in range(len(frames)):
            hull = frames.hull(f)
            i, j, d2 = _hull_distances(hull)
            dmax2 = d2.max(keepdims=True)
            hits = np.flatnonzero((d2 == dmax2) & (i < j))
            rows.append((np.full(len(hits), f), hull[i[hits]], hull[j[hits]], dmax2))
    t, a, b, dmax2 = (np.concatenate(col) for col in zip(*rows))
    swap = (b[:, 1] < a[:, 1]) | ((b[:, 1] == a[:, 1]) & (b[:, 0] < a[:, 0]))
    return t, np.where(swap[:, None], a - b, b - a), dmax2


def diametric_boxes(frames: Frames) -> DiametricBox:
    """Diametric box of every frame of a block, as one DiametricBox whose
    fields are (B,) arrays.

    Of equally far pairs, a frame takes the smallest canonical orientation,
    so its box depends on its points alone, not on their order or on the
    size switch.  A frame whose squared diameter is 0 (its points coincide,
    or their squared distances all underflow) has none.
    """
    t, vec, dmax2 = _diametral_hits(frames)
    if (dmax2 == 0.0).any():
        raise DegenerateInputError(_COINCIDENT)
    a = orientations(vec)
    order = np.lexsort((a, t))
    first = order[np.r_[True, t[order][1:] != t[order][:-1]]]
    alpha = a[first]
    diameter = np.sqrt(dmax2)
    width = extents(frames.points, np.column_stack([-sin(alpha), cos(alpha)])[:, :, None])[:, 0]
    aspect = width / diameter
    return DiametricBox(alpha=alpha, diameter=diameter, width=width,
                        aspect=np.where(1.0 < aspect, 1.0, aspect))


def diametric_box(points) -> DiametricBox:
    """Diametric box of a frame: the one-frame call of ``diametric_boxes``."""
    box = diametric_boxes(Frames.of(points))
    return DiametricBox(float(box.alpha[0]), float(box.diameter[0]),
                        float(box.width[0]), float(box.aspect[0]))


def frame_diameters(frames: Frames) -> np.ndarray:
    """Largest pairwise distance of every frame of a block: 0.0 where a
    frame's points coincide, at every size."""
    pts = frames.points
    if frames.n_points <= _BRUTE_FORCE_LIMIT:
        step = pair_block(frames.n_points)
        return np.sqrt(np.concatenate([
            _brute_distances(pts[lo:lo + step]).max(axis=(1, 2))
            for lo in range(0, len(frames), step)]))
    spread = ~(pts == pts[:, :1]).all(axis=(1, 2))
    if not spread.all():  # a frame whose points coincide has no hull
        out = np.zeros(len(pts))
        if spread.any():
            out[spread] = frame_diameters(Frames(pts[spread]))
        return out
    return np.sqrt([_hull_distances(frames.hull(b))[2].max() for b in range(len(frames))])


def diameter_lower_bounds(frames: Frames) -> np.ndarray:
    """A lower bound on the diameter of every frame of a block, in O(n)
    per frame.

    Up to ``_EXTREMES`` points it is the diameter.  Above, it is the
    largest of two sets of the frame's pair distances: those among its
    points extreme along x, y, x + y and x - y, and those from the point
    farthest from its first point (two steps of the farthest-point walk,
    which on round and elongated frames alike ends near a farthest pair).
    Every squared distance is dx*dx + dy*dy, rounded as the
    ``_brute_distances`` entry of its pair, the arithmetic of
    ``frame_diameters`` up to the brute-force limit, so each bound is one
    of the distances a frame's diameter is the largest of, and at most it
    exactly.  Above the limit the diameter is the largest distance of the
    hull's antipodal pairs, which is that of all pairs of hull vertices
    (see ``_BRUTE_FORCE_LIMIT``), and the pairs here are of hull points:
    extreme along a direction, or farthest from a point.
    """
    if frames.n_points <= _EXTREMES:
        return frame_diameters(frames)
    pts = frames.points
    x, y = pts[:, :, 0], pts[:, :, 1]
    rows = np.arange(len(pts))

    # each helper's (B, n) temporaries are freed when it returns, one at a time
    def ends(key: np.ndarray) -> list[np.ndarray]:
        return [key.argmin(axis=1), key.argmax(axis=1)]

    # each frame's largest squared distance from its point a[b], and where
    def farthest(xs: np.ndarray, ys: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = xs - xs[rows, a, None]
        d2 *= d2
        dy = ys - ys[rows, a, None]
        dy *= dy
        d2 += dy
        far = d2.argmax(axis=1)
        return d2[rows, far], far

    at = np.column_stack(ends(x) + ends(y) + ends(x + y) + ends(x - y))
    ex, ey = x[rows[:, None], at], y[rows[:, None], at]
    bounds = [farthest(ex, ey, np.full(len(pts), k))[0] for k in range(at.shape[1])]
    bounds.append(farthest(x, y, farthest(x, y, np.zeros(len(pts), dtype=np.intp))[1])[0])
    return np.sqrt(np.max(bounds, axis=0))


def frame_diameter(points) -> float:
    """Largest pairwise distance in the frame."""
    return float(frame_diameters(Frames.of(points))[0])
