"""State-aware tracking with continuous output and unbounded rotation speed.

The tracker outputs the optimal orientation at every sample.  When the
optimum jumps between samples, the jump is first localized in time by
bisection to the instant where the departing and arriving optima cost the
same.  At that instant the output conceptually sweeps the arc between them;
the sweep direction is the one whose worst intermediate cost is smaller,
and that worst swept cost/ratio is recorded as a flip event of zero
simulated duration.

Box orientations are tracked modulo pi/2 (the box cost is pi/2-periodic,
so a quarter-turn relabeling of the axes is not a real flip); axis and
strip orientations are tracked modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import BOX_PERIOD, ORIENTATION_PERIOD, angular_distance, canonical
from .costs import DescriptorKind, cost, costs_at
from .errors import DomainError
from .geometry import frame_diameter
from .ratios import ratio
from .solvers import optimal
from .trajectory import Trajectory

# A jump larger than this many dt-steps' worth of plausible optimum drift
# (point speed over diameter) is treated as a flip rather than drift.
_FLIP_SPEED_FACTOR = 10.0
_DIRECTION_GRID = 64
_SWEEP_GRID = 512
_BISECT_ITERS = 80


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
    """The run table of either tracker: per-sample arrays plus recorded flip sweeps.

    ``track_topological`` fills one table; ``chase`` fills one per extent
    kind, with no flips.
    """

    kind: DescriptorKind
    dt: float
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
        out = np.empty(max(len(self.beta) - 1, 0))
        for i in range(len(out)):
            out[i] = angular_distance(self.beta[i], self.beta[i + 1], self.period)
        return out


def _refine_max(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] for a locally unimodal f."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _arc_worst(pts, kind, start: float, signed_len: float, grid: int) -> tuple[float, float]:
    """Worst cost along the arc start .. start+signed_len, endpoints included."""
    offsets = np.linspace(0.0, signed_len, grid + 1)
    values = costs_at(pts, kind, start + offsets)
    i = int(np.argmax(values))
    return float(offsets[i]), float(values[i])


def _sweep(pts, kind, period, a_from: float, a_to: float, opt_cost: float,
           time: float) -> FlipEvent:
    gap_up = (canonical(a_to, period) - canonical(a_from, period)) % period
    gap_down = period - gap_up
    _, worst_up = _arc_worst(pts, kind, a_from, gap_up, _DIRECTION_GRID)
    _, worst_down = _arc_worst(pts, kind, a_from, -gap_down, _DIRECTION_GRID)
    signed_len = gap_up if worst_up <= worst_down else -gap_down
    off, worst = _arc_worst(pts, kind, a_from, signed_len, _SWEEP_GRID)
    # Local refinement around the sampled maximum.
    step = abs(signed_len) / _SWEEP_GRID
    lo = max(off - step, min(0.0, signed_len))
    hi = min(off + step, max(0.0, signed_len))
    if hi > lo:
        off_ref, worst_ref = _refine_max(lambda o: cost(pts, kind, a_from + o), lo, hi)
        if worst_ref > worst:
            off, worst = off_ref, worst_ref
    return FlipEvent(
        time=time,
        start=canonical(a_from, period),
        end=canonical(a_to, period),
        direction=1 if signed_len >= 0.0 else -1,
        arc_length=abs(signed_len),
        worst_orientation=canonical(a_from + off, period),
        worst_cost=worst,
        opt_cost=opt_cost,
        worst_ratio=ratio(worst, opt_cost),
    )


def _locate_flip(traj: Trajectory, kind, period, t_lo, a_lo, t_hi, a_hi,
                 threshold: float) -> FlipEvent | None:
    """Bisect to the instant where the optimum switches sides, then sweep there.

    If the refined endpoints collapse below the flip threshold the jump was
    fast continuous drift, not a flip, and nothing is recorded.
    """
    for _ in range(_BISECT_ITERS):
        t_mid = 0.5 * (t_lo + t_hi)
        if not (t_lo < t_mid < t_hi):
            break
        a_mid = canonical(optimal(traj.frame_at(t_mid), kind).alpha, period)
        if angular_distance(a_mid, a_lo, period) <= angular_distance(a_mid, a_hi, period):
            t_lo, a_lo = t_mid, a_mid
        else:
            t_hi, a_hi = t_mid, a_mid
    gap = angular_distance(a_lo, a_hi, period)
    if gap <= max(threshold, 1e-9):
        return None
    t_flip = 0.5 * (t_lo + t_hi)
    frame = traj.frame_at(t_flip)
    opt = optimal(frame, kind)
    return _sweep(frame.points, kind, period, a_lo, a_hi, opt.cost, t_flip)


def track_topological(
    traj: Trajectory,
    kind: DescriptorKind,
    dt: float,
    detect_flips: bool = True,
) -> TrackerOutput:
    """Run the continuous, unbounded-speed tracker over a sampled trajectory.

    ``detect_flips=False`` skips flip localization and sweep accounting,
    leaving just the per-sample optimum (the raw, discontinuous output).
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    kind = DescriptorKind(kind)
    period = tracking_period(kind)
    times = traj.sample_times(dt)
    v_max = traj.max_point_speed()

    n = len(times)
    beta = np.empty(n)
    opt_alpha = np.empty(n)
    opt_cost = np.empty(n)
    out_cost = np.empty(n)
    ratios = np.empty(n)
    flips: list[FlipEvent] = []

    prev_t: float | None = None
    for i, t in enumerate(times):
        frame = traj.frame_at(float(t))
        opt = optimal(frame, kind)
        b = canonical(opt.alpha, period)
        if detect_flips and prev_t is not None:
            jump = angular_distance(beta[i - 1], b, period)
            if jump > 1e-9:
                threshold = _FLIP_SPEED_FACTOR * dt * v_max / frame_diameter(frame)
                threshold = min(threshold, period / 4.0)
                if jump > threshold:
                    flip = _locate_flip(
                        traj, kind, period, prev_t, beta[i - 1], float(t), b, threshold,
                    )
                    if flip is not None:
                        flips.append(flip)
        beta[i] = b
        opt_alpha[i] = opt.alpha
        opt_cost[i] = opt.cost
        out_cost[i] = cost(frame.points, kind, b)
        ratios[i] = ratio(out_cost[i], opt_cost[i])
        prev_t = float(t)

    return TrackerOutput(
        kind=kind, dt=dt, period=period, times=times, beta=beta,
        opt_alpha=opt_alpha, cost=out_cost, opt_cost=opt_cost, ratio=ratios,
        flips=flips,
    )


def intermediate_box_area(a: float, b: float, alpha: float, theta: float) -> float:
    """Area of the box at angle ``theta`` that still covers the intersection
    of two unit-area boxes whose major axes are ``a`` and ``b``, ``alpha`` apart.

    Valid for 0 < alpha < pi/2, 0 <= theta <= alpha, positive axis lengths;
    theta = 0 reproduces the first box (area 1).
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError("axis lengths must be positive")
    if not (0.0 < alpha < math.pi / 2.0):
        raise DomainError("alpha must lie strictly between 0 and pi/2")
    if not (0.0 <= theta <= alpha):
        raise DomainError("theta must lie in [0, alpha]")
    sa = math.sin(alpha)
    return (
        (b * math.sin(alpha - theta) + a * math.sin(theta))
        * (a * math.sin(alpha - theta) + b * math.sin(theta))
        / (a * b * sa * sa)
    )
