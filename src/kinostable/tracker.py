"""State-aware tracking: the sampled-run core and the flip-sweeping tracker.

Both trackers are steering rules over ``sampled_run``.  The run walks the
samples in blocks of frames (``Trajectory.frame_blocks``): it solves each
block's optima at once and lets the steering rule map the block to output
orientations and their costs.  ``track_topological`` steers to the optimum
and its table cost with array arithmetic, ``chasing.chase`` toward the
diametric pair at a capped speed, in a loop on floats.

The topological tracker outputs an optimal orientation at every sample,
and records a flip where the optimum it steers to changes identity, and
nowhere else.  Where several candidates tie with the optimum (within
``solvers._COST_TIE_REL``), the output is the tied one nearest the
previous output: moving among co-optima is no flip.  Box and strip optima
lie on hull edge orientations (Freeman and Shapira, 1975), and their
identity is that edge.  A jump, a sample step where the steered edge
changes from A to B, is located by cost-only root-finding where A stops
being optimal against B, or where A and B tie at the earlier sample,
where A leaves the tie; where a third edge C is optimal at that instant,
it splits into A -> C and C -> B.  The principal axis changes identity
where the scatter matrix is isotropic, at instants found in closed form
from the keyframes.  At a located instant the output conceptually sweeps
the arc between the two optima, in the direction whose worst cost is
smaller, and that worst swept cost/ratio is recorded as a flip event of
zero simulated duration, unless the two optima lie within 1e-9: the
identity then changed continuously, as where a vertex crosses the optimal
edge.  All jumps of a run are located and swept in lockstep.

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
    orientations,
)
from .costs import DescriptorKind, frame_costs
from .errors import DegenerateInputError
from .geometry import Frames, block_size, frame_faults, table_block
from .ratios import ratios, zero_costs
from .solvers import (
    _COST_TIE_REL,
    _EIGEN_TIE_REL,
    BlockOptima,
    _segment_moments,
    block_optima,
    orientation_costs,
)
from .trajectory import Trajectory

_DIRECTION_GRID = 64
_SWEEP_GRID = 512
_GAP_FLOOR = 1e-9  # a flip whose two ends lie at most this far apart records nothing
_REFINE_ITERS = 60
# The bracket width, relative to its time, at which a root is found, and
# the rounds a bracket may go without halving before it takes its midpoint.
_ROOT_XTOL = 1e-13
_STALE_ROUNDS = 8


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
    block (None before the first), returns the block's output orientations
    and their costs, one array per kind.  Only the current block of frames
    is held.  Every returned table shares ``times`` and ``beta``.
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
        out, scored = steer(frames, times[block], optima, b)
        beta[block] = out
        for opt, c, (opt_a, out_c, opt_c, r) in zip(optima, scored, columns.values()):
            opt_a[block], out_c[block], opt_c[block] = opt.alpha, c, opt.cost
            r[block] = ratios(c, opt.cost, zero_costs(frames.points, opt.kind))
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


def _sweeps(kind, period, points: np.ndarray, a_from: np.ndarray, a_to: np.ndarray,
            opt_cost: np.ndarray, times: np.ndarray) -> list[FlipEvent]:
    """The flip sweep at each frame of a (F, n, 2) block from ``a_from`` to
    ``a_to``, ``table_block`` frames at a time: the direction with the
    smaller sampled worst cost, then the worst cost along it, refined around
    the sampled maximum.  A flip whose two ends lie at most ``_GAP_FLOOR``
    apart modulo ``period`` records nothing: the optimum changed identity
    continuously there."""
    keep = np.flatnonzero(~(angular_distances(a_from, a_to, period) <= _GAP_FLOOR))
    size, flips = table_block(points.shape[1], _SWEEP_GRID + 1), []
    for lo in range(0, len(keep), size):
        part = keep[lo:lo + size]
        frames, a_from_p = Frames(points[part]), a_from[part]
        start, end = canonical_array(a_from_p, period), canonical_array(a_to[part], period)
        gap_up = (end - start) % period
        gap_down = period - gap_up
        _, worst_up = _arc_worst(frames, kind, a_from_p, gap_up, _DIRECTION_GRID)
        _, worst_down = _arc_worst(frames, kind, a_from_p, -gap_down, _DIRECTION_GRID)
        signed_len = np.where(worst_up <= worst_down, gap_up, -gap_down)
        off, worst = _arc_worst(frames, kind, a_from_p, signed_len, _SWEEP_GRID)
        step = np.abs(signed_len) / _SWEEP_GRID
        lo_x = np.maximum(off - step, np.minimum(0.0, signed_len))
        hi_x = np.minimum(off + step, np.maximum(0.0, signed_len))
        refine = np.flatnonzero(hi_x > lo_x)
        if len(refine):
            off_ref, worst_ref = _refine_max(frames.points[refine], kind, a_from_p[refine],
                                             lo_x[refine], hi_x[refine])
            better = worst_ref > worst[refine]
            off[refine[better]], worst[refine[better]] = off_ref[better], worst_ref[better]
        zero = zero_costs(frames.points, kind)
        columns = (times[part], start, end, np.where(signed_len >= 0.0, 1, -1),
                   np.abs(signed_len), canonical_array(a_from_p + off, period), worst,
                   opt_cost[part], ratios(worst, opt_cost[part], zero))
        flips += [FlipEvent(*row) for row in zip(*(col.tolist() for col in columns))]
    return flips


class Jump(NamedTuple):
    """A change of the steered edge between the samples ``t_lo`` and ``t_hi``,
    from ``pair_lo`` (A) to ``pair_hi`` (B), each a (tail, head) index pair."""

    t_lo: float
    t_hi: float
    pair_lo: tuple[int, int]
    pair_hi: tuple[int, int]


def _edge_crossings(traj: Trajectory, kind, period, t_lo: np.ndarray, t_hi: np.ndarray,
                    pair_lo: np.ndarray, pair_hi: np.ndarray):
    """Where each jump's departing edge A stops being optimal against its
    arriving edge B: the root in its bracket of g = f = cost_A - cost_B,
    each cost taken at its own edge's orientation at t, or, where A and B
    tie at t_lo (f at least minus ``_COST_TIE_REL`` of cost_B), of
    g = h = f - ``_COST_TIE_REL`` * |cost_B|: where A leaves the tie band,
    which is where ``_steer`` leaves A.

    All jumps are root-found in lockstep, one probe per open bracket a
    round, each scoring two orientations with no hull and no solve.  A probe
    is regula falsi with the Anderson-Bjorck rule (1973), kept
    ``_ROOT_XTOL`` / 2 inside the bracket, relative to its time, so that a
    root at an end closes the bracket at once.  A tie jump bisects instead,
    as regula falsi creeps along the flat part of h, and so does a bracket
    that has not halved in ``_STALE_ROUNDS`` rounds: every bracket closes to
    ``_ROOT_XTOL``.

    Returns (t, start, end, ok, tie, faults, rounds): the end with the
    smaller |g|, the two edges' orientations there modulo ``period``, whether
    the jump is bracketed (g(t_lo) <= 0 < g(t_hi), and for a tie jump A and
    B more than ``_GAP_FLOOR`` apart at t_lo: else they were one box there),
    whether it is a tie jump, each rejected probe's message by row, and the
    rounds made.
    """
    size = len(t_lo)

    def score(t, rows):
        """f at each probe, its tie band, A's and B's orientations there (as
        ``solvers._edge_candidates`` computes them), and the rejected probes."""
        points = np.concatenate([traj.positions_at_times(t)] * 2)
        m, edges = len(rows), np.concatenate([pair_lo[rows], pair_hi[rows]])
        vec = points[np.arange(2 * m), edges[:, 1]] - points[np.arange(2 * m), edges[:, 0]]
        ang = orientations(vec)
        cost = frame_costs(points, (kind,), ang)[0]
        band = _COST_TIE_REL * (np.abs(cost[m:]) + 1e-300)
        return cost[:m] - cost[m:], band, ang[:m], ang[m:], frame_faults(points[:m])

    f, band, ang_a, ang_b, _ = score(np.concatenate([t_lo, t_hi]), np.tile(np.arange(size), 2))
    tie = f[:size] >= -band[:size]
    # row 0 the low end of each bracket, row 1 the high end; ``residual`` is
    # g = f, or h for a tie jump, as probed, ``values`` g as the
    # Anderson-Bjorck rule scales it
    ends = np.stack([t_lo, t_hi]).astype(float)
    residual = (f - np.where(np.tile(tie, 2), band, 0.0)).reshape(2, size)
    values = residual.copy()
    angles = np.stack([ang_a.reshape(2, size), ang_b.reshape(2, size)], axis=1)
    one_box = angular_distances(ang_a[:size], ang_b[:size], period) <= _GAP_FLOOR
    ok = (residual[0] <= 0.0) & (0.0 < residual[1]) & ~(tie & one_box)
    faults = {}
    side = np.zeros(size, dtype=np.int8)  # the end the last probe replaced: -1 low, 1 high
    stale, span = np.zeros(size, dtype=np.intp), ends[1] - ends[0]  # since the last halving
    rounds = 1

    while True:
        idx = np.flatnonzero(ok & (ends[1] - ends[0]
                                   > _ROOT_XTOL * np.maximum(1.0, np.abs(ends[1]))))
        if not len(idx):
            break
        rounds += 1
        (lo, hi), (v_lo, v_hi), was, tied = ends[:, idx], values[:, idx], side[idx], tie[idx]
        nudge = 0.5 * _ROOT_XTOL * np.maximum(1.0, np.abs(hi))
        c = np.minimum(np.maximum(hi - v_hi * (hi - lo) / (v_hi - v_lo), lo + nudge), hi - nudge)
        c = np.where((stale[idx] >= _STALE_ROUNDS) | tied, 0.5 * (lo + hi), c)

        fc, band, ang_a, ang_b, bad = score(c, idx)
        for i, message in bad.items():  # a rejected probe drops its bracket
            faults[int(idx[i])] = message
            ok[idx[i]] = False
        g = fc - np.where(tied, band, 0.0)
        up, down = g > 0.0, g < 0.0
        # where one end is replaced twice running, the other end's value is scaled
        m = 1.0 - g / np.where(up, v_hi, v_lo)
        scale = np.stack([up & (was == 1), down & (was == -1)])
        kept = np.where(scale, np.where(m > 0.0, m, 0.5) * values[:, idx], values[:, idx])
        replace = np.stack([g <= 0.0, g >= 0.0])
        ends[:, idx] = np.where(replace, c, ends[:, idx])
        values[:, idx] = np.where(replace, g, kept)
        residual[:, idx] = np.where(replace, g, residual[:, idx])
        angles[:, :, idx] = np.where(replace[:, None], np.stack([ang_a, ang_b]),
                                     angles[:, :, idx])
        side[idx] = np.where(up, 1, np.where(down, -1, was))
        width = ends[1, idx] - ends[0, idx]
        halved = width <= 0.5 * span[idx]
        span[idx] = np.where(halved, width, span[idx])
        stale[idx] = np.where(halved, 0, stale[idx] + 1)
    pick = (np.abs(residual[1]) < np.abs(residual[0])).astype(np.intp)
    cols = np.arange(size)
    return (ends[pick, cols], canonical_array(angles[pick, 0, cols], period),
            canonical_array(angles[pick, 1, cols], period), ok, tie, faults, rounds)


def _locate_flips(traj: Trajectory, kind, period, jumps: list[Jump]) -> list[FlipEvent]:
    """Locate and sweep the flips of ``jumps`` (in time order), in groups of
    a quarter block: a group holds a few frame-sized arrays per jump at
    once, its probes and the frames at its roots."""
    group = max(1, block_size(traj.n_points) // 4)
    flips = []
    for start in range(0, len(jumps), group):
        flips += _locate_group(traj, kind, period, jumps[start:start + group])
    return flips


def _locate_group(traj: Trajectory, kind, period, jumps: list[Jump]) -> list[FlipEvent]:
    """``_locate_flips`` on one group of jumps.

    Each jump A -> B is root-found (``_edge_crossings``) and the optimum
    solved at its root.  Where A or B ties with it, the jump is a flip there
    from A's orientation to B's.  Where a third edge C is optimal there, the
    jump splits into A -> C before the root and C -> B after it, located in
    the next lockstep pass.  A jump that is not bracketed records nothing:
    A is no worse than B at t_hi, and the steering moved among co-optima.
    A rejected probe raises its error after every earlier jump's sweep, as
    one jump at a time would.
    """
    pending = [(k, *jump) for k, jump in enumerate(jumps)]
    located = []  # (jump, time, start, end, optimal cost, frame) per flip
    faults: dict[int, str] = {}
    while pending:
        order, t_lo, t_hi, pair_lo, pair_hi = (np.array(col) for col in zip(*pending))
        t, start, end, ok, _, bad, _ = _edge_crossings(traj, kind, period, t_lo, t_hi,
                                                       pair_lo, pair_hi)
        for row, message in bad.items():
            faults.setdefault(int(order[row]), message)
        rows = np.flatnonzero(ok)
        pending = []
        if not len(rows):
            break
        frames = Frames(traj.positions_at_times(t[rows]))
        opt = block_optima(frames, (kind,))[0]
        tied = opt.tied()
        hit = np.zeros(len(rows), dtype=bool)
        for pair in (pair_lo[rows], pair_hi[rows]):
            hit |= (tied & (opt.pairs == pair[:, None, :]).all(axis=2)).any(axis=1)
        third = opt.pairs[np.arange(len(rows)), np.argmin(opt.values, axis=1)]
        for i, r in enumerate(rows.tolist()):
            k, root = int(order[r]), float(t[r])
            if hit[i]:
                located.append((k, root, start[r], end[r], opt.cost[i], frames.points[i]))
            else:
                c = tuple(third[i].tolist())
                pending += [(k, float(t_lo[r]), root, tuple(pair_lo[r].tolist()), c),
                            (k, root, float(t_hi[r]), c, tuple(pair_hi[r].tolist()))]

    stop = min(faults, default=len(jumps))
    located = sorted((x for x in located if x[0] < stop), key=lambda x: x[:2])
    flips = []
    if located:
        _, times, start, end, opt_cost, points = (np.array(col) for col in zip(*located))
        flips = _sweeps(kind, period, points, start, end, opt_cost, times)
    if faults:
        raise DegenerateInputError(faults[stop])
    return flips


def _isotropic_instants(traj: Trajectory) -> np.ndarray:
    """The instants, ascending, where the principal axis changes identity:
    where the scatter matrix is isotropic, as ``solvers._scatter_axes`` tests.

    Along a keyframe segment the scatter matrix is the quadratic S(s) of
    ``solvers.principal_axes``, so d = Sxx - Syy, e = Sxy and tr = Sxx + Syy
    are quadratics in s.  The axis, half the angle of (d, 2e), is continuous
    wherever q = d^2 + 4e^2 - (``_EIGEN_TIE_REL`` tr)^2 is positive.  Each
    minimum of q at most 0 is an instant: a real root in (0, 1) of the cubic
    q' where q'' > 0, or a keyframe where q stops falling and starts rising.
    q is evaluated from d, e and tr, far less rounded than its coefficients.
    """
    key = traj.times
    if len(key) < 2:
        return np.empty(0)
    caa, mid, cbb = np.moveaxis(_segment_moments(traj, np.arange(len(key) - 1)), 1, 0)
    # S(s) = (1 - s)^2 Caa + s (1 - s) mid + s^2 Cbb, by ascending power of s
    coef = np.stack([caa, mid - 2.0 * caa, caa - mid + cbb], axis=-1)
    quads = (coef[:, 0, 0] - coef[:, 1, 1], coef[:, 0, 1], coef[:, 0, 0] + coef[:, 1, 1])
    quartic = np.zeros((len(caa), 5))
    for weight, p in zip((1.0, 4.0, -_EIGEN_TIE_REL**2), quads):
        for i in range(3):
            quartic[:, i:i + 3] += weight * p[:, i:i + 1] * p
    slope = quartic[:, 1:] * np.arange(1, 5)
    # the roots of each q', the eigenvalues of its companion matrix; none is
    # sought where q' has no cubic term, as where the points move rigidly
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = -slope[:, 2::-1] / slope[:, 3:]
    companion = np.zeros((len(slope), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0] = np.where(np.isfinite(monic).all(axis=1)[:, None], monic, 0.0)
    roots = np.linalg.eigvals(companion)
    seg, at = np.nonzero((roots.imag == 0.0) & (0.0 < roots.real) & (roots.real < 1.0))
    s = roots.real[seg, at]
    minimum = (slope[seg, 1:] * np.arange(1, 4) * s[:, None] ** np.arange(3)).sum(axis=1) > 0.0
    # interior keyframes that end a falling segment and start a rising one
    kink = np.flatnonzero((slope[:-1].sum(axis=1) <= 0.0) & (slope[1:, 0] >= 0.0)) + 1
    seg, s = np.concatenate([seg[minimum], kink]), np.concatenate([s[minimum], 0.0 * kink])
    d, e, tr = ((p[seg] * s[:, None] ** np.arange(3)).sum(axis=1) for p in quads)
    keep = d * d + 4.0 * e * e <= (_EIGEN_TIE_REL * tr) ** 2
    return np.sort(key[seg[keep]] + s[keep] * (key[seg[keep] + 1] - key[seg[keep]]))


def _isotropic_flips(traj: Trajectory, times: np.ndarray, beta: np.ndarray) -> list[FlipEvent]:
    """The ``pc`` flips of a run with outputs ``beta`` at ``times``: one at
    each isotropic instant between two samples, swept from the output before
    it to the one after it.  A rejected frame raises after earlier sweeps."""
    t = _isotropic_instants(traj)
    before = np.searchsorted(times, t, side="left") - 1
    after = np.searchsorted(times, t, side="right")
    keep = (before >= 0) & (after < len(times))
    t, before, after = t[keep], before[keep], after[keep]
    points = traj.positions_at_times(t)
    faults = frame_faults(points)
    stop = min(faults, default=len(t))
    opt_cost = block_optima(Frames(points[:stop]), (DescriptorKind.PC,))[0].cost
    flips = _sweeps(DescriptorKind.PC, ORIENTATION_PERIOD, points[:stop], beta[before[:stop]],
                    beta[after[:stop]], opt_cost, t[:stop])
    if faults:
        raise DegenerateInputError(faults[stop])
    return flips


def _steer(opt: BlockOptima, prev_beta, period):
    """Each frame's output orientation, its cost (its candidate table entry,
    or the axis's optimal cost) and, for box and strip, its hull-edge pair:
    the optimum, or, where several candidates tie with it
    (``BlockOptima.tied``), the tied one nearest the previous output modulo
    ``period``, the first of equally near ones.  Every output is optimal,
    so moving among co-optima is no flip."""
    b = canonical_array(opt.alpha, period)
    if opt.pairs is None:
        return b, opt.cost, None
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
    rows = np.arange(len(b))
    return b, opt.values[rows, choice], opt.pairs[rows, choice]


def track_topological(
    traj: Trajectory,
    kind: DescriptorKind,
    dt: float,
) -> TrackerOutput:
    """Run the continuous, unbounded-speed tracker over a sampled trajectory."""
    kind = DescriptorKind(kind)
    period = tracking_period(kind)
    jumps: list[Jump] = []
    blocks = []  # pc: the sample times and outputs of every block run
    prev_t, prev_pair = 0.0, None

    def to_optimum(frames, times, optima, prev_beta):
        nonlocal prev_t, prev_pair
        b, cost, pairs = _steer(optima[0], prev_beta, period)
        if pairs is None:
            blocks.append((times, b))
            return b, [cost]
        ends = np.concatenate([pairs[:1] if prev_pair is None else prev_pair[None], pairs])
        t_ends, ends = np.concatenate([[prev_t], times]).tolist(), ends.tolist()
        jumps.extend(Jump(t_ends[i], t_ends[i + 1], tuple(ends[i]), tuple(ends[i + 1]))
                     for i in range(len(b)) if ends[i] != ends[i + 1])
        prev_t, prev_pair = float(times[-1]), pairs[-1]
        return b, [cost]

    def flips():
        if kind is not DescriptorKind.PC:
            return _locate_flips(traj, kind, period, jumps)
        if not blocks:
            return []
        return _isotropic_flips(traj, *(np.concatenate(col) for col in zip(*blocks)))

    try:
        output = sampled_run(traj, dt, (kind,), period, to_optimum)[kind]
    except DegenerateInputError:
        flips()  # an earlier flip's error comes first
        raise
    output.flips = flips()
    return output
