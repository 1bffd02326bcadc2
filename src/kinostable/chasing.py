"""Speed-capped chasing tracker.

The tracker maintains an orientation and, at every step, rotates it toward
the current diametric-pair orientation along the shorter arc, never faster
than ``max_turn_rate`` radians per unit time.  The guarantees assume the
trajectory is normalized: points move at most at unit speed and the
diameter never drops below 1 (``normalize_trajectory`` rescales space and
time to enforce both).

The safe-zone instrumentation reports, per sample, the aspect ratio of the
diametric box, the safe half-width ``H`` = c*arcsin(aspect), the jump
allowance ``J`` = (c+2)*arcsin(aspect), and whether the tracker currently
sits inside the safe zone (gap <= H) or the enclosing interval
(gap <= H + J).

One chase path is scored against both the box and the strip optimum.  The
run comes back as one ``TrackerOutput`` per kind, the same run table the
topological tracker fills (with no flip events), beside the safe-zone
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import ORIENTATION_PERIOD, angular_distance, canonical, rotate_toward
from .costs import DescriptorKind, cost_obb, cost_strip
from .errors import DegenerateInputError, DomainError
from .geometry import diametric_box, frame_diameter
from .ratios import ratio
from .solvers import optimal_box_and_strip
from .tracker import TrackerOutput
from .trajectory import Trajectory


@dataclass(frozen=True)
class ChaseParams:
    """Rotation-rate cap (radians per unit time) and safe-zone width factor."""

    max_turn_rate: float = 43.0
    safe_zone_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.max_turn_rate <= 0.0:
            raise DomainError("max_turn_rate must be positive")
        if self.safe_zone_factor < 1.0:
            raise DomainError("safe_zone_factor must be at least 1")


def safe_zone_half_width(aspect: float, factor: float = 3.0) -> float:
    """Half-width of the interval around the target the tracker aims to stay in."""
    if not 0.0 <= aspect <= 1.0:
        raise DomainError("aspect ratio must lie in [0, 1]")
    return factor * math.asin(aspect)


def jump_distance(aspect: float, factor: float = 3.0) -> float:
    """Bound on how far the interval endpoint can move instantaneously."""
    if not 0.0 <= aspect <= 1.0:
        raise DomainError("aspect ratio must lie in [0, 1]")
    return (factor + 2.0) * math.asin(aspect)


def pair_turn_bound(aspect: float, elapsed: float) -> float:
    """Bound on the diametric-pair orientation change over ``elapsed`` time.

    Well-defined while elapsed <= (1 - aspect) / (2 + 2*aspect); assumes
    unit point speed and diameter at least 1.
    """
    if not 0.0 <= aspect <= 1.0:
        raise DomainError("aspect ratio must lie in [0, 1]")
    if elapsed < 0.0:
        raise DomainError("elapsed time must be nonnegative")
    arg = aspect + elapsed * (2.0 + 2.0 * aspect)
    if arg > 1.0:
        raise DomainError(
            f"elapsed={elapsed} exceeds the valid window (1-aspect)/(2+2*aspect)"
        )
    return math.asin(arg)


def aspect_drop_bound(aspect: float, elapsed: float) -> float:
    """Bound on how much the aspect ratio can drop over ``elapsed`` time.

    Well-defined while elapsed <= sin(arcsin(aspect)/2) / 2; same
    normalization assumptions as ``pair_turn_bound``.
    """
    if not 0.0 <= aspect <= 1.0:
        raise DomainError("aspect ratio must lie in [0, 1]")
    if elapsed < 0.0:
        raise DomainError("elapsed time must be nonnegative")
    half = math.sin(0.5 * math.asin(aspect))
    if elapsed > half / 2.0:
        raise DomainError(
            f"elapsed={elapsed} exceeds the valid window sin(arcsin(aspect)/2)/2"
        )
    return aspect - (half - 2.0 * elapsed) / (1.0 + 2.0 * elapsed)


def normalize_trajectory(
    traj: Trajectory, sample_count: int = 1025
) -> tuple[Trajectory, float, float]:
    """Rescale space and time so min sampled diameter is 1 and max speed is 1.

    Returns (normalized trajectory, spatial factor, temporal factor):
    positions were multiplied by the spatial factor and times by the
    temporal one.
    """
    grid = np.union1d(traj.times, np.linspace(0.0, traj.horizon, sample_count))
    min_diam = min(frame_diameter(traj.positions_at(float(t))) for t in grid)
    if min_diam <= 0.0:
        raise DegenerateInputError("trajectory collapses to a single point")
    scale = 1.0 / min_diam
    v_max = traj.max_point_speed() * scale
    time_factor = v_max if v_max > 0.0 else 1.0
    normalized = Trajectory(traj.times * time_factor, traj.positions * scale)
    return normalized, scale, time_factor


@dataclass
class SafeZoneReport:
    """Per-sample safe-zone instrumentation of a chase run."""

    aspect: np.ndarray
    safe_half_width: np.ndarray
    jump_allowance: np.ndarray
    ang_gap: np.ndarray
    in_safe_zone: np.ndarray
    in_interval: np.ndarray


@dataclass
class ChaseResult:
    """A chase run: one orientation path, its safe-zone report, and one run
    table per extent descriptor (box and strip) scoring that path.

    Every table shares the run's ``times`` and ``beta`` arrays and has
    period pi, because the chased orientation is taken modulo pi.
    """

    params: ChaseParams
    times: np.ndarray
    beta: np.ndarray
    safe_zone: SafeZoneReport
    runs: dict[DescriptorKind, TrackerOutput]


_CHASE_COSTS = ((DescriptorKind.OBB, cost_obb), (DescriptorKind.STRIP, cost_strip))


def chase(
    traj: Trajectory,
    params: ChaseParams = ChaseParams(),
    dt: float = 1e-3,
    beta0: float | None = None,
) -> ChaseResult:
    """Run the speed-capped chasing tracker over a (normalized) trajectory.

    The tracker chases the diametric-pair orientation; ``beta0`` defaults to
    that orientation in the first frame, which starts the run in steady
    state.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    times = traj.sample_times(dt)
    n = len(times)
    c = params.safe_zone_factor
    max_step = params.max_turn_rate * dt

    beta_arr = np.empty(n)
    aspect = np.empty(n)
    half_w = np.empty(n)
    jump_d = np.empty(n)
    gap_arr = np.empty(n)
    in_safe = np.zeros(n, dtype=bool)
    in_interval = np.zeros(n, dtype=bool)
    # Per kind: optimal orientation, cost of beta, optimal cost, ratio.
    columns = [tuple(np.empty(n) for _ in range(4)) for _ in _CHASE_COSTS]

    beta = None
    for i, t in enumerate(times):
        frame = traj.frame_at(float(t))
        box = diametric_box(frame)
        alpha = box.alpha
        if beta is None:
            beta = canonical(beta0) if beta0 is not None else alpha
        else:
            beta = rotate_toward(beta, alpha, max_step)
        gap = angular_distance(beta, alpha)
        h = safe_zone_half_width(box.aspect, c)
        j = jump_distance(box.aspect, c)
        beta_arr[i] = beta
        aspect[i] = box.aspect
        half_w[i] = h
        jump_d[i] = j
        gap_arr[i] = gap
        in_safe[i] = gap <= h
        in_interval[i] = gap <= h + j
        optima = optimal_box_and_strip(frame)
        for (_, cost_fn), opt, (opt_a, out_c, opt_c, r) in zip(_CHASE_COSTS, optima, columns):
            opt_a[i] = opt.alpha
            out_c[i] = cost_fn(frame.points, beta)
            opt_c[i] = opt.cost
            r[i] = ratio(out_c[i], opt_c[i])

    report = SafeZoneReport(
        aspect=aspect, safe_half_width=half_w, jump_allowance=jump_d,
        ang_gap=gap_arr, in_safe_zone=in_safe, in_interval=in_interval,
    )
    runs = {
        kind: TrackerOutput(
            kind=kind, period=ORIENTATION_PERIOD, times=times, beta=beta_arr,
            opt_alpha=opt_a, cost=out_c, opt_cost=opt_c, ratio=r,
        )
        for (kind, _), (opt_a, out_c, opt_c, r) in zip(_CHASE_COSTS, columns)
    }
    return ChaseResult(params=params, times=times, beta=beta_arr, safe_zone=report, runs=runs)
