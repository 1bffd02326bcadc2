"""State-aware tracking: the sampled-run core and the flip-sweeping tracker.

Both trackers are steering rules over ``sampled_run``.  The run walks the
samples in blocks of frames (``Trajectory.frame_blocks``): it solves each
block's optima at once, lets the steering rule map the block to output
orientations, and scores them at once.  ``track_topological`` steers to the
optimum with array arithmetic, ``chasing.chase`` toward the diametric pair
at a capped speed, in a loop on floats.

The topological tracker outputs an optimal orientation at every sample.
Box and strip optima lie on hull edge orientations (Freeman and Shapira,
1975), and the solve keeps each candidate's edge as a vertex pair.  Where
several candidates tie with the optimum (within ``solvers._COST_TIE_REL``),
the output is the tied one nearest the previous output: moving among
co-optima is no flip.  When the output jumps between samples from edge A
to edge B, the jump is located at the root of cost_A(t) - cost_B(t), each
cost taken at its own edge's orientation at t, by regula falsi: a round
scores two orientations per jump, with no hull and no solve.  The solve
made at the root for the sweep must find A or B among the co-optima.  A
jump falls back to bisecting the instant where the optimum switches sides
(each round solves every pending midpoint) for ``pc``, which has no edge
candidates, and where the steered pair did not change, A and B tie at the
earlier sample, the costs do not cross, a probed frame is rejected, the
root-finding takes more than ``_ROOT_ROUNDS`` rounds, or the solve at the
root finds a third optimum.  All jumps of a run are located in lockstep.
A jump whose located orientations lie within its drift threshold was fast
continuous drift, and records nothing.  At the located instant the output
conceptually sweeps the arc between the two optima; the sweep direction is
the one whose worst intermediate cost is smaller, and that worst swept
cost/ratio is recorded as a flip event of zero simulated duration.  The
located flips are swept in lockstep too, scored as the solves are scored.

Box orientations are tracked modulo pi/2 (the box cost is pi/2-periodic,
so a quarter-turn relabeling of the axes is not a real flip); axis and
strip orientations are tracked modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angles import (
    BOX_PERIOD,
    ORIENTATION_PERIOD,
    angular_distance,
    angular_distances,
    canonical_array,
    elementwise,
)
from .costs import DescriptorKind, frame_costs
from .errors import DegenerateInputError
from .geometry import Frames, block_size, frame_diameters, frame_faults, table_block
from .ratios import ratios
from .solvers import _COST_TIE_REL, BlockOptima, block_optima, orientation_costs
from .trajectory import Trajectory

# A jump larger than this many dt-steps' worth of plausible optimum drift
# (point speed over diameter) is treated as a flip rather than drift.
_FLIP_SPEED_FACTOR = 10.0
_DIRECTION_GRID = 64
_SWEEP_GRID = 512
_BISECT_ITERS = 80
_REFINE_ITERS = 60
# Regula falsi rounds after the endpoint round before a jump falls back to
# bisection, and the bracket width, relative to its time, that ends them.
_ROOT_ROUNDS = 12
_ROOT_XTOL = 1e-13

_atan2 = elementwise(math.atan2, 2)


def tracking_period(kind: DescriptorKind) -> float:
    return BOX_PERIOD if DescriptorKind(kind) is DescriptorKind.OBB else ORIENTATION_PERIOD


@dataclass(frozen=True)
class FlipEvent:
    """A zero-duration sweep between two tied optima."""

    time: float
    start: float
    end: float
    direction: int  # +1 toward increasing angle, -1 decreasing
    arc_length: float
    worst_orientation: float
    worst_cost: float
    opt_cost: float
    worst_ratio: float


@dataclass
class TrackerOutput:
    """The run table ``sampled_run`` fills: per-sample arrays plus recorded flip sweeps.

    ``track_topological`` fills one table; ``chase`` fills one per extent
    kind, with no flips.  ``beta`` is always canonical modulo ``period``.
    """

    kind: DescriptorKind
    period: float
    times: np.ndarray
    beta: np.ndarray
    opt_alpha: np.ndarray
    cost: np.ndarray
    opt_cost: np.ndarray
    ratio: np.ndarray
    flips: list[FlipEvent] = field(default_factory=list)

    def step_distances(self) -> np.ndarray:
        """Orientation change between consecutive samples, modulo the period."""
        d = np.abs(np.diff(self.beta))
        return np.minimum(d, self.period - d)


def sampled_run(
    traj: Trajectory,
    dt: float,
    kinds: tuple[DescriptorKind, ...],
    period: float,
    steer,
) -> dict[DescriptorKind, TrackerOutput]:
    """Run one steering rule over the samples ``traj.sample_times(dt)``.

    Block by block, the frames' optima for ``kinds`` are solved (box and
    strip together from one hull per frame); ``steer(frames, times, optima,
    prev_beta)``, with ``prev_beta`` the last orientation of the previous
    block (None before the first), returns the block's output orientations,
    which are scored against each kind's optimum.  Only the current block of
    frames is held.  Every returned table shares ``times`` and ``beta``.
    """
    times = traj.sample_times(dt)
    n = len(times)
    beta = np.empty(n)
    # Per kind: optimal orientation, cost of beta, optimal cost, ratio.
    columns = {kind: tuple(np.empty(n) for _ in range(4)) for kind in kinds}

    b = None
    start = 0
    for frames in traj.frame_blocks(times):
        block = slice(start, start + len(frames))
        optima = block_optima(frames, kinds)
        out = steer(frames, times[block], optima, b)
        beta[block] = out
        scored = frame_costs(frames.points, kinds, out)
        for opt, c, (opt_a, out_c, opt_c, r) in zip(optima, scored, columns.values()):
            opt_a[block] = opt.alpha
            out_c[block] = c
            opt_c[block] = opt.cost
            r[block] = ratios(c, opt.cost)
        b = float(out[-1])
        start = block.stop

    return {
        kind: TrackerOutput(
            kind=kind, period=period, times=times, beta=beta,
            opt_alpha=opt_a, cost=out_c, opt_cost=opt_c, ratio=r,
        )
        for kind, (opt_a, out_c, opt_c, r) in columns.items()
    }


def _refine_max(points: np.ndarray, kind, origin: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of each frame's cost at ``origin + x`` over
    x in [lo, hi], for every frame of a (F, n, 2) block in lockstep; each
    cost is locally unimodal there.  Returns the maximizing x and its cost.
    """
    def f(x):
        return frame_costs(points, (kind,), origin + x)[0]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_REFINE_ITERS):
        # where fc >= fd keep [a, d] and probe a new c, else keep [c, b] and probe a new d
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        fx = f(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    x = 0.5 * (a + b)
    return x, f(x)


def _arc_worst(frames: Frames, kind, start: np.ndarray, signed_len: np.ndarray,
               grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The first maximum of each frame's cost along its arc from ``start`` to
    ``start + signed_len``, sampled at ``grid + 1`` orientations: (offsets, costs)."""
    offsets = np.linspace(0.0, signed_len, grid + 1, axis=1)
    values = orientation_costs(frames, (kind,), start[:, None] + offsets,
                               np.full(len(frames), grid + 1))[0]
    rows, best = np.arange(len(frames)), np.argmax(values, axis=1)
    return offsets[rows, best], values[rows, best]


def _sweeps(frames: Frames, kind, period, a_from: np.ndarray, a_to: np.ndarray,
            opt_cost: np.ndarray, times: np.ndarray) -> list[FlipEvent]:
    """The flip sweep of each frame of a block from ``a_from`` to ``a_to``:
    the direction with the smaller sampled worst cost, then the worst cost
    along it, refined around the sampled maximum."""
    start, end = canonical_array(a_from, period), canonical_array(a_to, period)
    gap_up = (end - start) % period
    gap_down = period - gap_up
    _, worst_up = _arc_worst(frames, kind, a_from, gap_up, _DIRECTION_GRID)
    _, worst_down = _arc_worst(frames, kind, a_from, -gap_down, _DIRECTION_GRID)
    signed_len = np.where(worst_up <= worst_down, gap_up, -gap_down)
    off, worst = _arc_worst(frames, kind, a_from, signed_len, _SWEEP_GRID)
    step = np.abs(signed_len) / _SWEEP_GRID
    lo = np.maximum(off - step, np.minimum(0.0, signed_len))
    hi = np.minimum(off + step, np.maximum(0.0, signed_len))
    refine = np.flatnonzero(hi > lo)
    if len(refine):
        off_ref, worst_ref = _refine_max(frames.points[refine], kind, a_from[refine],
                                         lo[refine], hi[refine])
        better = worst_ref > worst[refine]
        off[refine[better]], worst[refine[better]] = off_ref[better], worst_ref[better]
    columns = (times, start, end, np.where(signed_len >= 0.0, 1, -1), np.abs(signed_len),
               canonical_array(a_from + off, period), worst, opt_cost, ratios(worst, opt_cost))
    return [FlipEvent(*row) for row in zip(*(col.tolist() for col in columns))]


class Jump(NamedTuple):
    """An output jump between the samples ``t_lo`` and ``t_hi``: the steered
    orientations at both, the drift threshold its located gap must exceed,
    and the steered hull-edge pairs at both (None for ``pc``)."""

    t_lo: float
    a_lo: float
    t_hi: float
    a_hi: float
    threshold: float
    pair_lo: tuple[int, int] | None = None
    pair_hi: tuple[int, int] | None = None


def _edge_angles(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Canonical orientation of each frame's edge ``pairs[b]`` (tail, head),
    with the arithmetic of ``solvers._edge_candidates``."""
    rows = np.arange(len(points))
    vec = points[rows, pairs[:, 1]] - points[rows, pairs[:, 0]]
    return canonical_array(_atan2(vec[:, 1], vec[:, 0]))


def _edge_crossings(traj: Trajectory, kind, period, t_lo: np.ndarray, t_hi: np.ndarray,
                    pair_lo: np.ndarray, pair_hi: np.ndarray):
    """Where each jump's departing edge A stops being optimal against its
    arriving edge B: the root in (t_lo, t_hi) of f(t) = cost_A(t) - cost_B(t),
    each cost taken at its own edge's orientation at t.

    Regula falsi with the Anderson-Bjorck rule (1973), all jumps in
    lockstep: a round interpolates each bracket to a new time and replaces
    the end whose sign the new value shares; where the same end is replaced
    twice running, the kept end's value is scaled by 1 - f(new) / f(old),
    or halved where that is not positive (the Illinois rule of Dowell and
    Jarratt, 1971).  A jump is found when its bracket is at most
    ``_ROOT_XTOL`` wide, relative to its time, or when its interpolant
    rounds onto an end.  It is not found (``ok`` False) when f(t_lo) is not
    below minus the tie tolerance (``_COST_TIE_REL`` of cost_B): A and B
    tie there, f is flat until A leaves the tie, and regula falsi creeps
    along the flat part; nor when f(t_hi) is not positive, a probed frame
    is rejected, or ``_ROOT_ROUNDS`` rounds do not suffice.  Returns (t,
    start, end, ok, rounds): the end with the smaller |f|, the two edges'
    orientations there modulo ``period``, and the rounds made, the
    endpoint round included.
    """
    size = len(t_lo)

    def score(t, rows):
        """f at each probe, A's and B's orientations there, cost_B, and
        whether the probe's frame is rejected."""
        points = np.concatenate([traj.positions_at_times(t)] * 2)
        ang = _edge_angles(points, np.concatenate([pair_lo[rows], pair_hi[rows]]))
        cost = frame_costs(points, (kind,), ang)[0]
        m = len(rows)
        bad = np.zeros(m, dtype=bool)
        bad[list(frame_faults(points[:m]))] = True
        return cost[:m] - cost[m:], ang[:m], ang[m:], cost[m:], bad

    f, ang_a, ang_b, cost_b, _ = score(np.concatenate([t_lo, t_hi]), np.tile(np.arange(size), 2))
    # row 0 the low end of each bracket, row 1 the high end; ``values`` are
    # f as the Anderson-Bjorck rule scales it, ``residual`` f as probed
    ends, residual = np.stack([t_lo, t_hi]), f.reshape(2, size)
    values = residual.copy()
    angles = np.stack([ang_a.reshape(2, size), ang_b.reshape(2, size)], axis=1)
    ok = (values[0] < -_COST_TIE_REL * (np.abs(cost_b[:size]) + 1e-300)) & (0.0 < values[1])
    side = np.zeros(size, dtype=np.int8)  # the end the last round replaced: -1 low, 1 high
    rounds = 1

    def open_brackets():
        return ok & (ends[1] - ends[0] > _ROOT_XTOL * np.maximum(1.0, np.abs(ends[1])))

    for _ in range(_ROOT_ROUNDS):
        idx = np.flatnonzero(open_brackets())
        lo, hi = ends[:, idx]
        c = hi - values[1, idx] * (hi - lo) / (values[1, idx] - values[0, idx])
        # an interpolant that rounds onto an end has found the root there
        for end, stuck in ((0, ~(lo < c)), (1, ~(c < hi))):
            at = idx[stuck]
            ends[1 - end, at], residual[1 - end, at] = ends[end, at], residual[end, at]
            angles[1 - end, :, at] = angles[end, :, at]
        inside = (lo < c) & (c < hi)
        idx, c = idx[inside], c[inside]
        if not len(idx):
            break
        rounds += 1
        fc, ang_a, ang_b, _, bad = score(c, idx)
        ok[idx[bad]] = False
        up, down = ~bad & (fc > 0.0), ~bad & (fc < 0.0)
        for end, again in ((1, up & (side[idx] == 1)), (0, down & (side[idx] == -1))):
            at = idx[again]
            m = 1.0 - fc[again] / values[end, at]
            values[1 - end, at] *= np.where(m > 0.0, m, 0.5)
        for end, keep in ((1, ~bad & (fc >= 0.0)), (0, ~bad & (fc <= 0.0))):
            at = idx[keep]
            ends[end, at], values[end, at], residual[end, at] = c[keep], fc[keep], fc[keep]
            angles[end, 0, at], angles[end, 1, at] = ang_a[keep], ang_b[keep]
        side[idx[up]], side[idx[down]] = 1, -1
    ok &= ~open_brackets()
    pick = (np.abs(residual[1]) < np.abs(residual[0])).astype(np.intp)
    cols = np.arange(size)
    return (ends[pick, cols], canonical_array(angles[pick, 0, cols], period),
            canonical_array(angles[pick, 1, cols], period), ok, rounds)


def _bisect(traj: Trajectory, kind, period, t_lo, a_lo, t_hi, a_hi):
    """Bisect each jump to the instant where the optimum switches sides:
    every round solves the pending midpoints of all jumps as one block of
    frames, with the arithmetic of one bisection per jump.  Returns the
    narrowed (t_lo, a_lo, t_hi, a_hi), the message of every jump whose
    midpoint was rejected, and the rounds made.
    """
    t_lo, a_lo, t_hi, a_hi = (np.array(x, dtype=float) for x in (t_lo, a_lo, t_hi, a_hi))
    pending = np.ones(len(t_lo), dtype=bool)
    faults: dict[int, str] = {}
    rounds = 0
    for _ in range(_BISECT_ITERS):
        t_mid = 0.5 * (t_lo + t_hi)
        pending &= (t_lo < t_mid) & (t_mid < t_hi)
        idx = np.flatnonzero(pending)
        if not len(idx):
            break
        rounds += 1
        points = traj.positions_at_times(t_mid[idx])
        bad = frame_faults(points)
        for i, message in bad.items():
            faults[int(idx[i])] = message
        if bad:
            keep = np.array([i not in bad for i in range(len(idx))])
            idx, points = idx[keep], points[keep]
            pending[list(faults)] = False
        if not len(idx):
            continue
        a_mid = canonical_array(block_optima(Frames(points), (kind,))[0].alpha, period)
        lower = (angular_distances(a_mid, a_lo[idx], period)
                 <= angular_distances(a_mid, a_hi[idx], period))
        t_lo[idx[lower]], a_lo[idx[lower]] = t_mid[idx[lower]], a_mid[lower]
        t_hi[idx[~lower]], a_hi[idx[~lower]] = t_mid[idx[~lower]], a_mid[~lower]
    return t_lo, a_lo, t_hi, a_hi, faults, rounds


def _locate_flips(traj: Trajectory, kind, period, jumps: list[tuple]) -> list[FlipEvent]:
    """Locate every jump's flip instant and sweep there.

    ``jumps`` holds a ``Jump`` (or its first five fields) per jump, in time
    order.  The jumps are located in consecutive groups of a quarter block,
    because a group holds about four frame-sized arrays per jump at once:
    its flip frames, both edges' probes in the root-finding, and in each
    bisection round the midpoints' positions and hull index rows.  Sixteen
    jumps of a 4000-point cloud, one block, peak at 4.2 MB traced; groups
    of four stay near 1.7 MB.  A rejected midpoint or flip frame raises its
    error where a one-jump-at-a-time location would have: after every
    earlier jump's sweep.
    """
    jumps = [Jump(*jump) for jump in jumps]
    n = traj.n_points
    group = max(1, block_size(n) // 4)
    flips = []
    for start in range(0, len(jumps), group):
        flips += _locate_group(traj, kind, period, jumps[start:start + group])
    return flips


def _locate_group(traj: Trajectory, kind, period, jumps: list[Jump]) -> list[FlipEvent]:
    """``_locate_flips`` on one block of jumps.

    A jump between two different hull-edge pairs A and B is located by
    root-finding (``_edge_crossings``) and confirmed by the solve made at
    the found instant for the sweep: A or B must tie with the optimum
    there.  Every other jump (``pc``, an unchanged pair, a root not found
    or not confirmed) is bisected (``_bisect``).  A jump whose located
    orientations are at most its drift threshold apart was fast continuous
    drift, not a flip, and records nothing.  The located flips are swept in
    lockstep, ``table_block`` of them at a time.
    """
    count = len(jumps)
    t_lo, a_lo, t_hi, a_hi, threshold = (np.array(col, dtype=float)
                                         for col in list(zip(*jumps))[:5])
    limit = np.where(1e-9 > threshold, 1e-9, threshold)
    t_flip, opt_cost = 0.5 * (t_lo + t_hi), np.empty(count)
    points = np.empty((count, traj.n_points, 2))
    located = np.zeros(count, dtype=bool)
    bisect = np.ones(count, dtype=bool)

    edge = np.flatnonzero([j.pair_lo is not None and tuple(j.pair_lo) != tuple(j.pair_hi)
                           for j in jumps])
    if len(edge):
        pair_lo = np.array([jumps[i].pair_lo for i in edge.tolist()], dtype=np.intp)
        pair_hi = np.array([jumps[i].pair_hi for i in edge.tolist()], dtype=np.intp)
        t, start, end, ok, _ = _edge_crossings(traj, kind, period, t_lo[edge], t_hi[edge],
                                               pair_lo, pair_hi)
        edge, t, start, end, pair_lo, pair_hi = (x[ok] for x in (edge, t, start, end,
                                                                  pair_lo, pair_hi))
    if len(edge):
        frames = Frames(traj.positions_at_times(t))
        opt = block_optima(frames, (kind,))[0]
        tied = opt.tied()
        confirmed = np.zeros(len(edge), dtype=bool)
        for pair in (pair_lo, pair_hi):
            confirmed |= (tied & (opt.pairs == pair[:, None, :]).all(axis=2)).any(axis=1)
        rows = np.flatnonzero(confirmed)
        idx = edge[rows]
        bisect[idx] = False
        t_flip[idx], a_lo[idx], a_hi[idx] = t[rows], start[rows], end[rows]
        opt_cost[idx], points[idx] = opt.cost[rows], frames.points[rows]
        gap = angular_distances(a_lo[idx], a_hi[idx], period)
        located[idx] = ~(gap <= limit[idx])

    faults: dict[int, str] = {}
    idx = np.flatnonzero(bisect)
    if len(idx):
        lo, alo, hi, ahi, bad, _ = _bisect(traj, kind, period, t_lo[idx], a_lo[idx],
                                           t_hi[idx], a_hi[idx])
        faults = {int(idx[i]): message for i, message in bad.items()}
        a_lo[idx], a_hi[idx], t_flip[idx] = alo, ahi, 0.5 * (lo + hi)
        gap = angular_distances(alo, ahi, period)
        stop = min(faults, default=count)
        idx = idx[(idx < stop) & ~(gap <= limit[idx])]
    if len(idx):
        at = traj.positions_at_times(t_flip[idx])
        bad = frame_faults(at)
        if bad:
            raise DegenerateInputError(bad[min(bad)])
        opt_cost[idx], points[idx] = block_optima(Frames(at), (kind,))[0].cost, at
        located[idx] = True

    stop = min(faults, default=count)
    idx = np.flatnonzero(located[:stop])
    size, flips = table_block(traj.n_points, _SWEEP_GRID + 1), []
    for lo in range(0, len(idx), size):
        part = idx[lo:lo + size]
        flips += _sweeps(Frames(points[part]), kind, period, a_lo[part], a_hi[part],
                         opt_cost[part], t_flip[part])
    if faults:
        raise DegenerateInputError(faults[stop])
    return flips


def _steer(opt: BlockOptima, prev_beta, period) -> tuple[np.ndarray, np.ndarray | None]:
    """Each frame's output orientation and, for box and strip, the hull-edge
    pair it comes from: the optimum, or, where several candidates tie with
    it (``BlockOptima.tied``), the tied one nearest the previous output
    modulo ``period``, the first of equally near ones.  Every output is an
    optimal orientation, so moving among co-optima is no flip."""
    b = canonical_array(opt.alpha, period)
    if opt.pairs is None:
        return b, None
    choice = np.argmin(opt.values, axis=1)
    tied = opt.tied()
    multi = np.flatnonzero(tied.sum(axis=1) > 1).tolist()
    if multi:
        candidates = canonical_array(opt.candidates[multi], period).tolist()
        for i, row in zip(multi, candidates):
            ref = prev_beta if i == 0 else float(b[i - 1])
            if ref is None:
                continue
            options = np.flatnonzero(tied[i]).tolist()
            near = [angular_distance(row[j], ref, period) for j in options]
            choice[i] = options[near.index(min(near))]
            b[i] = row[choice[i]]
    return b, opt.pairs[np.arange(len(b)), choice]


def track_topological(
    traj: Trajectory,
    kind: DescriptorKind,
    dt: float,
) -> TrackerOutput:
    """Run the continuous, unbounded-speed tracker over a sampled trajectory."""
    kind = DescriptorKind(kind)
    period = tracking_period(kind)
    # plausible optimum drift over one step, times the frame diameter
    drift = _FLIP_SPEED_FACTOR * dt * traj.max_point_speed()
    jumps: list[Jump] = []
    prev_t, prev_pair = 0.0, None

    def to_optimum(frames, times, optima, prev_beta):
        nonlocal prev_t, prev_pair
        b, pairs = _steer(optima[0], prev_beta, period)
        before = np.concatenate(([b[0] if prev_beta is None else prev_beta], b[:-1]))
        jump = angular_distances(before, b, period)
        # The bounding-box diagonal is at least the diameter, so drift over
        # twice the diagonal stays below the threshold, rounding included: a
        # jump within it is no flip, and only the other jumps need a diameter.
        span = np.ptp(frames.points, axis=1)
        loose = drift / (2.0 * np.sqrt(span[:, 0] * span[:, 0] + span[:, 1] * span[:, 1]))
        loose = np.where(period / 4.0 < loose, period / 4.0, loose)
        rows = np.flatnonzero((jump > 1e-9) & (jump > loose))
        if len(rows):
            threshold = drift / frame_diameters(frames, rows)
            threshold = np.where(period / 4.0 < threshold, period / 4.0, threshold)
            flip = jump[rows] > threshold
            t_before = np.concatenate(([prev_t], times[:-1]))
            ends = [None] * (len(b) + 1) if pairs is None else [prev_pair] + [
                tuple(p) for p in pairs.tolist()]
            for i, th in zip(rows[flip].tolist(), threshold[flip].tolist()):
                jumps.append(Jump(float(t_before[i]), float(before[i]), float(times[i]),
                                  float(b[i]), th, ends[i], ends[i + 1]))
        prev_t = float(times[-1])
        prev_pair = None if pairs is None else tuple(pairs[-1].tolist())
        return b

    try:
        output = sampled_run(traj, dt, (kind,), period, to_optimum)[kind]
    except DegenerateInputError:
        _locate_flips(traj, kind, period, jumps)  # an earlier jump's error comes first
        raise
    output.flips = _locate_flips(traj, kind, period, jumps)
    return output
