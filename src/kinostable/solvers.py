"""Globally optimal per-frame descriptors, solved for a block of frames at once.

The box and strip optima are found among convex hull edge orientations: in
the plane, a minimum-area box has a side flush with a hull edge, and a
thinnest strip has a boundary containing one.  ``orientation_costs`` scores
the candidates for the solves and the tracker's flip sweeps: one call of
the cost kernel ``costs.candidate_costs`` per chunk of frames of at most 64
points, every kind at once; above that, box and strip take their extents
off the extreme hull vertices (``geometry.extents_on_hull``, O(h) for h
hull vertices) through the same ``costs.extent_cost``; ``pc`` projects
every point.  The principal axis comes from the 2x2 scatter matrix in
closed form (``_scatter_axes``), its cost from ``costs.summed_squares``
there: the closed-form smaller eigenvalue cancels on thin clouds.
``block_optima`` solves every frame of a ``geometry.Frames`` block (the
candidate rows padded to the longest); ``optimal``, ``optimal_pc`` and
``optimal_box_and_strip`` are its one-frame call.

``principal_axes`` solves the principal axis of a trajectory at many
samples without building their frames: along a keyframe segment the
scatter matrix is a quadratic in the segment parameter, formed once per
segment in O(n).  A sample keeps that axis when its eigenvalue gap is at
least ``_SEGMENT_GAP_REL`` (1e-3) of the segment's moment scale, which
bounds its error by about 1e3 rounding units of the angle (a few 1e-13
rad); samples nearer isotropy are solved frame by frame by
``block_optima``.

``oracle_argmin`` is an independent dense-angle-grid search used as ground
truth in tests, never inside a tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import atan2, canonical_array, hypot, orientations
from .costs import DescriptorKind, candidate_costs, costs_at, extent_cost, summed_squares
from .errors import DegenerateInputError, DomainError
from .geometry import _BRUTE_FORCE_LIMIT, Frames, as_points, extents_on_hull, table_block

_EIGEN_TIE_REL = 1e-9
_COST_TIE_REL = 1e-9
# A segment-moment axis is kept where its eigenvalue gap is at least this
# share of its segment's moment scale (``principal_axes``).
_SEGMENT_GAP_REL = 1e-3


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


def _edge_candidates(frames: Frames) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical hull-edge orientations of every frame of a block, sorted
    and deduplicated: (angles, pairs, counts), one row of ``angles`` per
    frame, padded after its ``counts[b]`` candidates with zeros to at least
    two columns: a one-column (matrix-vector) product rounds unlike a wider one.

    ``pairs[b, c]`` holds the point indices (tail, head) of the edge that
    candidate c of frame b comes from: of parallel edges, the first in hull
    order.  A 2-vertex (collinear) hull has the one orientation of its
    segment.
    """
    hulls, sizes = frames.hull_indices
    edges = np.where(sizes == 2, 1, sizes)
    start = np.cumsum(edges) - edges  # frame b's edges are flat[start[b]:start[b] + edges[b]]
    row = np.repeat(np.arange(len(frames)), edges)
    k = np.arange(len(row)) - np.repeat(start, edges)
    ends = np.column_stack([hulls[row, k], hulls[row, (k + 1) % sizes[row]]])
    vec = frames.points[row, ends[:, 1]] - frames.points[row, ends[:, 0]]
    flat = orientations(vec)
    # by frame, then orientation, then hull order; the first of equal ones kept
    order = np.lexsort((flat, row))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (flat[order[1:]] != flat[order[:-1]]) | (row[order[1:]] != row[order[:-1]])
    kept = order[keep]
    counts = np.bincount(row[kept], minlength=len(frames))
    at = np.arange(len(kept)) - np.repeat(np.cumsum(counts) - counts, counts)
    angles = np.zeros((len(frames), max(2, counts.max())))
    angles[row[kept], at] = flat[kept]
    pairs = np.zeros(angles.shape + (2,), dtype=np.intp)
    pairs[row[kept], at] = ends[kept]
    return angles, pairs, counts


def hull_edge_orientations(points) -> np.ndarray:
    """Canonical orientations of the hull edges, sorted and deduplicated."""
    angles, _, counts = _edge_candidates(Frames.of(points))
    return angles[0, :counts[0]]


@dataclass(frozen=True)
class BlockOptima:
    """One kind's optimum at every frame of a block: (B,) arrays.

    A box or strip solve also keeps its candidate table: the padded
    ``candidates``, their ``values``, the per-frame ``counts`` and each
    candidate's hull edge as a vertex pair (``pairs``, (B, m, 2) point
    indices), from which ``descriptor`` reads one frame's tied co-optima and
    the topological tracker its steering among them.
    """

    kind: DescriptorKind
    alpha: np.ndarray
    cost: np.ndarray
    isotropic: np.ndarray
    candidates: np.ndarray | None = None
    values: np.ndarray | None = None
    counts: np.ndarray | None = None
    pairs: np.ndarray | None = None

    def tied(self) -> np.ndarray:
        """(B, m) mask of every frame's candidates that tie with its optimum
        within the relative tolerance ``_COST_TIE_REL``."""
        tol = _COST_TIE_REL * (np.abs(self.cost) + 1e-300)
        return self.values <= (self.cost + tol)[:, None]

    def descriptor(self, b: int) -> OptimalDescriptor:
        """Frame ``b``'s optimum with its tied co-optima."""
        alpha, cmin = float(self.alpha[b]), float(self.cost[b])
        if self.values is None:
            return OptimalDescriptor(self.kind, alpha, cmin, (alpha,), bool(self.isotropic[b]))
        tied = self.candidates[b][self.tied()[b]]
        return OptimalDescriptor(self.kind, alpha, cmin, tuple(tied.tolist()))


def orientation_costs(frames: Frames, kinds: tuple[DescriptorKind, ...], angles: np.ndarray,
                      counts: np.ndarray) -> list[np.ndarray]:
    """The cost of every frame of a block at the first ``counts[b]``
    orientations of its own row of ``angles`` (B, m): one (B, m) table per
    kind in ``kinds``, padded with inf.

    Up to ``_BRUTE_FORCE_LIMIT`` points, box and strip project every point,
    (F, n, m) arrays made ``table_block`` frames at a time, every kind in one
    kernel call; above it they read their extents off the extreme hull
    vertices.  ``pc`` projects every point at every size, above the limit
    (where it alone does) ``table_block(n, 1)`` orientations at a time.
    """
    size, m = angles.shape
    pts = frames.points
    brute = frames.n_points <= _BRUTE_FORCE_LIMIT
    table = np.empty((len(kinds), size, m))  # row k: kinds[k]
    kernel = [k for k, kind in enumerate(kinds) if brute or kind is DescriptorKind.PC]
    hull = [k for k in range(len(kinds)) if k not in kernel]
    step, width = table_block(frames.n_points, m), m if brute else table_block(frames.n_points, 1)
    for lo in range(0, size if kernel else 0, step):
        for at in range(0, m, width):
            table[kernel, lo:lo + step, at:at + width] = candidate_costs(
                pts[lo:lo + step], [kinds[k] for k in kernel], angles[lo:lo + step, at:at + width])
    for b in range(size if hull else 0):
        along, across = extents_on_hull(frames.hull(b), angles[b, :counts[b]])
        table[hull, b, :counts[b]] = [extent_cost(kinds[k], along, across) for k in hull]
    table[:, np.arange(m) >= counts[:, None]] = np.inf
    return list(table)


def _hull_optima(frames: Frames, kinds: tuple[DescriptorKind, ...]) -> list[BlockOptima]:
    """Box and/or strip optima of every frame among one set of hull edge candidates.

    The candidates of a frame ascend, so the first minimum of a row is the
    smallest orientation among the tied minima.
    """
    angles, pairs, counts = _edge_candidates(frames)
    rows = np.arange(len(frames))
    out = []
    for kind, values in zip(kinds, orientation_costs(frames, kinds, angles, counts)):
        best = np.argmin(values, axis=1)
        out.append(BlockOptima(kind, angles[rows, best], values[rows, best],
                               np.zeros(len(frames), dtype=bool), angles, values, counts,
                               pairs))
    return out


def _scatter_axes(sxx: np.ndarray, sxy: np.ndarray, syy: np.ndarray):
    """The closed-form principal axis of 2x2 scatter matrices given by their
    entries: (half_gap, isotropic, alpha), where 2 * half_gap is the
    eigenvalue gap.

    When the two eigenvalues agree within the relative tie tolerance
    ``_EIGEN_TIE_REL`` the matrix is isotropic: every orientation is optimal,
    and alpha defaults to 0.
    """
    half_gap = hypot(0.5 * (sxx - syy), sxy)
    isotropic = 2.0 * half_gap <= _EIGEN_TIE_REL * (sxx + syy + 1e-300)
    turn = atan2(2.0 * sxy, sxx - syy)
    alpha = np.where(isotropic, 0.0, canonical_array(0.5 * turn))
    return half_gap, isotropic, alpha


def _pc_optima(frames: Frames) -> BlockOptima:
    """First principal axis of every frame from its 2x2 scatter matrix of
    centered coordinates (``_scatter_axes``), and the ``pc`` cost there."""
    pts = frames.points
    centered = pts - pts.mean(axis=1, keepdims=True)
    sq = np.swapaxes(centered, 1, 2) @ centered
    _, isotropic, alpha = _scatter_axes(sq[:, 0, 0], sq[:, 0, 1], sq[:, 1, 1])
    across = np.stack([-np.sin(alpha), np.cos(alpha)], axis=1)[:, :, None]
    return BlockOptima(DescriptorKind.PC, alpha, summed_squares(centered, across)[:, 0], isotropic)


def block_optima(frames: Frames, kinds) -> list[BlockOptima]:
    """The optimum of every frame of a block for each kind in ``kinds``, in
    that order; box and strip come from one set of hull edge candidates."""
    kinds = tuple(DescriptorKind(k) for k in kinds)
    hull_kinds = tuple(k for k in kinds if k is not DescriptorKind.PC)
    solved = dict(zip(hull_kinds, _hull_optima(frames, hull_kinds))) if hull_kinds else {}
    if DescriptorKind.PC in kinds:
        solved[DescriptorKind.PC] = _pc_optima(frames)
    return [solved[k] for k in kinds]


def _segment_moments(traj, segments: np.ndarray) -> np.ndarray:
    """The scatter coefficients of the keyframe segments of a trajectory: a
    (K - 1, 3, 2, 2) table whose row j holds Caa = A^T A, Cab + Cab^T and
    Cbb = B^T B for the centered keyframes A of j and B of j + 1, for each j
    in ``segments`` (ascending), and zeros elsewhere.

    At most two centered keyframes are held at a time: B serves as the next
    segment's A."""
    pos = traj.positions
    table = np.zeros((len(pos) - 1, 3, 2, 2))
    held = (None, None)
    for j in segments.tolist():
        a = held[1] if held[0] == j else pos[j] - pos[j].mean(axis=0)
        b = pos[j + 1] - pos[j + 1].mean(axis=0)
        cab = a.T @ b
        table[j] = a.T @ a, cab + cab.T, b.T @ b
        held = (j + 1, b)
    return table


def principal_axes(traj, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first principal axis of a trajectory at each of ``times``
    (clamped to [0, horizon]): (alpha, isotropic, the indices of the samples
    solved frame by frame).

    Motion is linear along a keyframe segment, so the centered frame at
    segment parameter s is (1 - s) A + s B for the centered keyframes A and
    B, and its scatter matrix is the quadratic
    S(s) = (1 - s)^2 Caa + s (1 - s) (Cab + Cab^T) + s^2 Cbb
    (``_segment_moments``): O(n) work per keyframe segment, not per sample.
    Each sample's axis comes from S(s) through ``_scatter_axes``, the closed
    form of ``_pc_optima``.

    Evaluating S(s) rounds it by a few ulp of the segment's moment scale
    (the largest entry of |Caa| + |Cab + Cab^T| + |Cbb|, which bounds every
    entry of S on the segment), and an axis moves by at most that error over
    the eigenvalue gap.  So a sample keeps its segment-moment axis only if
    its gap is at least ``_SEGMENT_GAP_REL`` of its segment's scale, which
    bounds the axis error by about 1e3 rounding units (a few 1e-13 rad).
    The per-frame solve rounds each interpolated point by ulps of its
    coordinates, so the two agree that closely only where the coordinates
    are of the order of the cloud's spread (a random walk moved 100 spreads
    from the origin: 5e-14 rad apart; 1e6 spreads: 4e-10 rad).

    Every other sample, and every sample of a one-keyframe trajectory, is
    re-solved from its interpolated frame through ``frame_blocks`` (which
    raises ``DegenerateInputError`` at a frame whose points coincide, where
    S vanishes) and ``block_optima``, so isotropic frames are flagged
    exactly as there.
    """
    times = np.clip(np.asarray(times, dtype=float), 0.0, traj.horizon)
    if len(traj.times) == 1:
        fallback = np.arange(len(times))
        alpha = np.empty(len(times))
        isotropic = np.empty(len(times), dtype=bool)
    else:
        seg, s = traj.segments_at(times)
        table = _segment_moments(traj, np.unique(seg))
        rest = 1.0 - s
        w0, w1, w2 = rest * rest, s * rest, s * s
        sxx, sxy, syy = (w0 * table[seg, 0, p, q] + w1 * table[seg, 1, p, q]
                         + w2 * table[seg, 2, p, q] for p, q in ((0, 0), (0, 1), (1, 1)))
        half_gap, isotropic, alpha = _scatter_axes(sxx, sxy, syy)
        scale = np.abs(table).sum(axis=1).max(axis=(1, 2))
        fallback = np.flatnonzero(~(2.0 * half_gap >= _SEGMENT_GAP_REL * scale[seg]))
    at = 0
    for frames in traj.frame_blocks(times[fallback]):
        pc = block_optima(frames, (DescriptorKind.PC,))[0]
        rows = fallback[at:at + len(frames)]
        alpha[rows], isotropic[rows] = pc.alpha, pc.isotropic
        at += len(frames)
    return alpha, isotropic, fallback


def optimal_box_and_strip(frame) -> tuple[OptimalDescriptor, OptimalDescriptor]:
    """Both hull-edge optima from a single hull computation."""
    box, strip = block_optima(Frames.of(frame), (DescriptorKind.OBB, DescriptorKind.STRIP))
    return box.descriptor(0), strip.descriptor(0)


def optimal_pc(frame) -> OptimalDescriptor:
    """First principal axis of one frame (see ``_pc_optima``)."""
    if len(as_points(frame)) < 2:
        raise DegenerateInputError("need at least 2 points")
    return _pc_optima(Frames.of(frame)).descriptor(0)


def optimal(frame, kind: DescriptorKind) -> OptimalDescriptor:
    """The optimal orientation of ``frame`` for one descriptor kind: the
    one-frame call of ``block_optima``."""
    kind = DescriptorKind(kind)
    if kind is DescriptorKind.PC:
        return optimal_pc(frame)
    return block_optima(Frames.of(frame), (kind,))[0].descriptor(0)


def _argmin_with_ties(angles: np.ndarray, values: np.ndarray) -> tuple[float, float, tuple[float, ...]]:
    order = np.lexsort((angles, values))
    best = order[0]
    cmin = float(values[best])
    tol = _COST_TIE_REL * (abs(cmin) + 1e-300)
    tied = angles[values <= cmin + tol]
    return float(angles[best]), cmin, tuple(float(a) for a in np.sort(tied))


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
