"""State-aware tracking: the sampled-run core and the flip-sweeping tracker.

Both trackers are steering rules over ``sampled_run``.  The run walks the
samples in blocks of frames (``Trajectory.frame_blocks``): it solves each
block's optima at once, lets the steering rule map the block to output
orientations, and scores them at once.  ``track_topological`` steers to the
optimum with array arithmetic, ``chasing.chase`` toward the diametric pair
at a capped speed, in a loop on floats.

The topological tracker outputs the optimal orientation at every sample.
When the optimum jumps between samples, the jump is first localized in time
by bisection to the instant where the departing and arriving optima cost
the same.  All jumps of a run are bisected in lockstep: each round solves
every pending midpoint as one block.  At the located instant the output
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

import numpy as np

from .angles import BOX_PERIOD, ORIENTATION_PERIOD, angular_distances, canonical_array
from .costs import DescriptorKind, frame_costs
from .errors import DegenerateInputError
from .geometry import Frames, block_size, frame_diameters, frame_faults, table_block, trace_block
from .ratios import ratios
from .solvers import block_optima, orientation_costs
from .trajectory import Trajectory

# A jump larger than this many dt-steps' worth of plausible optimum drift
# (point speed over diameter) is treated as a flip rather than drift.
_FLIP_SPEED_FACTOR = 10.0
_DIRECTION_GRID = 64
_SWEEP_GRID = 512
_BISECT_ITERS = 80
_REFINE_ITERS = 60


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


def _locate_flips(traj: Trajectory, kind, period, jumps: list[tuple]) -> list[FlipEvent]:
    """Bisect every jump to the instant where the optimum switches sides,
    then sweep there.

    ``jumps`` holds (t_lo, a_lo, t_hi, a_hi, threshold) per jump, in time
    order.  The jumps are located in consecutive groups of at most one
    block, and at most ``trace_block`` jumps, so that the hull traces they
    carry stay within the block budget.  A rejected midpoint or flip frame
    raises its error where a one-jump-at-a-time bisection would have: after
    every earlier jump's sweep.
    """
    n = traj.n_points
    group = min(block_size(n), trace_block(n))
    flips = []
    for start in range(0, len(jumps), group):
        flips += _locate_group(traj, kind, period, jumps[start:start + group])
    return flips


def _locate_group(traj: Trajectory, kind, period, jumps: list[tuple]) -> list[FlipEvent]:
    """``_locate_flips`` on one block of jumps.

    The bisections run in lockstep: each round solves the pending midpoints
    of all jumps as one block of frames, with the arithmetic of one
    bisection per jump; each jump carries its last midpoint's hull trace
    into the next round, and on to its flip frame.  A jump whose refined
    endpoints collapse below its flip threshold was fast continuous drift,
    not a flip, and records nothing.  The located flips are swept in
    lockstep too, ``table_block`` of them at a time.
    """
    t_lo, a_lo, t_hi, a_hi, threshold = (np.array(col) for col in zip(*jumps))
    pending = np.ones(len(jumps), dtype=bool)
    traces: list = [None] * len(jumps)
    faults: dict[int, str] = {}
    for _ in range(_BISECT_ITERS):
        t_mid = 0.5 * (t_lo + t_hi)
        pending &= (t_lo < t_mid) & (t_mid < t_hi)
        idx = np.flatnonzero(pending)
        if not len(idx):
            break
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
        frames = Frames(points, [traces[i] for i in idx.tolist()])
        a_mid = canonical_array(block_optima(frames, (kind,))[0].alpha, period)
        for i, trace in zip(idx.tolist(), frames.traces):
            traces[i] = trace
        lower = (angular_distances(a_mid, a_lo[idx], period)
                 <= angular_distances(a_mid, a_hi[idx], period))
        t_lo[idx[lower]], a_lo[idx[lower]] = t_mid[idx[lower]], a_mid[lower]
        t_hi[idx[~lower]], a_hi[idx[~lower]] = t_mid[idx[~lower]], a_mid[~lower]
    gap = angular_distances(a_lo, a_hi, period)
    limit = np.where(1e-9 > threshold, 1e-9, threshold)
    t_flip = 0.5 * (t_lo + t_hi)
    stop = min(faults, default=len(jumps))
    idx = np.flatnonzero(~(gap[:stop] <= limit[:stop]))
    points = traj.positions_at_times(t_flip[idx])
    bad = frame_faults(points)
    if bad:
        raise DegenerateInputError(bad[min(bad)])
    size, flips = table_block(traj.n_points, _SWEEP_GRID + 1), []
    for lo in range(0, len(idx), size):
        part = idx[lo:lo + size]
        frames = Frames(points[lo:lo + size], [traces[i] for i in part.tolist()])
        opt = block_optima(frames, (kind,))[0]
        flips += _sweeps(frames, kind, period, a_lo[part], a_hi[part], opt.cost, t_flip[part])
    if faults:
        raise DegenerateInputError(faults[stop])
    return flips


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
    jumps: list[tuple] = []
    prev_t = 0.0

    def to_optimum(frames, times, optima, prev_beta):
        nonlocal prev_t
        b = canonical_array(optima[0].alpha, period)
        before = np.concatenate(([b[0] if prev_beta is None else prev_beta], b[:-1]))
        jump = angular_distances(before, b, period)
        moved = np.flatnonzero(jump > 1e-9)
        if len(moved):
            threshold = drift / frame_diameters(frames)[moved]
            threshold = np.where(period / 4.0 < threshold, period / 4.0, threshold)
            flip = jump[moved] > threshold
            t_before = np.concatenate(([prev_t], times[:-1]))
            for i, th in zip(moved[flip].tolist(), threshold[flip].tolist()):
                jumps.append((float(t_before[i]), float(before[i]), float(times[i]),
                              float(b[i]), th))
        prev_t = float(times[-1])
        return b

    try:
        output = sampled_run(traj, dt, (kind,), period, to_optimum)[kind]
    except DegenerateInputError:
        _locate_flips(traj, kind, period, jumps)  # an earlier jump's error comes first
        raise
    output.flips = _locate_flips(traj, kind, period, jumps)
    return output
