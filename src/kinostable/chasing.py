"""Speed-capped chasing tracker.

The tracker maintains an orientation and, at every step, rotates it toward
the current diametric-pair orientation along the shorter arc, never faster
than ``max_turn_rate`` radians per unit time.  The guarantees assume the
trajectory is normalized: points move at most at unit speed and the
diameter never drops below 1 (``normalize_trajectory`` rescales space and
time to enforce both, with the smallest sampled diameter from
``min_diameter``, which ``verify.min_anchor_diameter`` checks too).

The safe-zone instrumentation reports, per sample, the aspect ratio of the
diametric box, the safe half-width ``H`` = c*arcsin(aspect), the jump
allowance ``J`` = (c+2)*arcsin(aspect), and whether the tracker currently
sits inside the safe zone (gap <= H) or the enclosing interval
(gap <= H + J).  Every bound here takes floats or same-shape arrays.

The chaser is a steering rule over ``tracker.sampled_run``, the same
block-by-block core the topological tracker runs on: per block of frames,
the diametric boxes are solved at once and the capped rotation runs as a
loop on floats.  One chase path is scored against the box and/or the
strip optimum, so the run comes back as one ``TrackerOutput`` per kind
scored (with no flip events) beside the safe-zone report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import ORIENTATION_PERIOD, angular_distances, asin, rotate_toward, sin
from .costs import DescriptorKind, frame_costs
from .errors import DegenerateInputError, DomainError
from .geometry import _EXTREMES, diameter_lower_bounds, diametric_boxes, frame_diameters
from .tracker import TrackerOutput, sampled_run
from .trajectory import DEFAULT_DT, Trajectory

_NORMALIZE_SAMPLES = 1025  # uniform samples ``normalize_trajectory`` adds to the keyframes


@dataclass(frozen=True)
class ChaseParams:
    """Rotation-rate cap (radians per unit time) and safe-zone width factor."""

    max_turn_rate: float = 43.0
    safe_zone_factor: float = 3.0

    def __post_init__(self) -> None:
        # written so that NaN fails every test: NaN compares false
        if not self.max_turn_rate > 0.0:
            raise DomainError("max_turn_rate must be positive")
        if not 1.0 <= self.safe_zone_factor < math.inf:
            raise DomainError("safe_zone_factor must be finite and at least 1")

    @property
    def ratio_cap(self) -> float:
        """The guaranteed bound 4c+6 on the box and strip chase ratios."""
        return 4.0 * self.safe_zone_factor + 6.0


def _check(aspect, elapsed=0.0, window=None, formula=""):
    """Check a bound's inputs; return its validity window ``window(aspect)``."""
    if not np.all((0.0 <= aspect) & (aspect <= 1.0)):  # NaN fails
        raise DomainError("aspect ratio must lie in [0, 1]")
    if np.any(elapsed < 0.0):
        raise DomainError("elapsed time must be nonnegative")
    limit = window(aspect) if window else math.inf
    if np.any(elapsed > limit):
        raise DomainError(f"elapsed={elapsed} exceeds the valid window {formula}")
    return limit


def safe_zone_half_width(aspect, factor: float = ChaseParams.safe_zone_factor):
    """Half-width H = c*arcsin(aspect) of the interval around the target the
    tracker aims to stay in."""
    _check(aspect)
    return factor * asin(aspect)


def jump_distance(aspect, factor: float = ChaseParams.safe_zone_factor):
    """Bound J = (c+2)*arcsin(aspect) on how far the interval endpoint can
    move instantaneously."""
    return safe_zone_half_width(aspect, factor + 2.0)


def pair_turn_window(aspect):
    """Longest elapsed time (1 - aspect) / (2 + 2*aspect) ``pair_turn_bound`` covers."""
    return (1.0 - aspect) / (2.0 + 2.0 * aspect)


def pair_turn_bound(aspect, elapsed):
    """Bound on the diametric-pair orientation change over ``elapsed`` time.

    Well-defined within ``pair_turn_window``; assumes unit point speed and
    diameter at least 1.
    """
    _check(aspect, elapsed, pair_turn_window, "(1-aspect)/(2+2*aspect)")
    # inside the window the argument exceeds 1 by rounding at most
    return asin(np.minimum(aspect + elapsed * (2.0 + 2.0 * aspect), 1.0))


def aspect_drop_window(aspect):
    """Longest elapsed time sin(arcsin(aspect)/2) / 2 ``aspect_drop_bound`` covers."""
    return sin(0.5 * asin(aspect)) / 2.0


def aspect_drop_bound(aspect, elapsed):
    """Bound on how much the aspect ratio can drop over ``elapsed`` time.

    Well-defined within ``aspect_drop_window``; same normalization
    assumptions as ``pair_turn_bound``.
    """
    # sin(arcsin(aspect)/2): doubling undoes the window's halving exactly
    half = 2.0 * _check(aspect, elapsed, aspect_drop_window, "sin(arcsin(aspect)/2)/2")
    return aspect - (half - 2.0 * elapsed) / (1.0 + 2.0 * elapsed)


def min_diameter(traj: Trajectory, times: np.ndarray) -> float:
    """The smallest diameter of the frames at ``times``, ``==`` a full scan.

    Only the first point of each run of adjacent points with ``==``
    keyframe paths is interpolated (two runs at least: no keyframe
    collapses).  Interpolation is elementwise, so points with ``==``
    keyframes get equal coordinates, bitwise up to the sign of a zero,
    which squaring drops: the pair distances are those of all points.

    Each frame first gets a lower bound LB on its diameter D, in O(n)
    (``diameter_lower_bounds``): the distance of one of its own pairs, with
    the arithmetic of ``frame_diameters``, so D >= LB exactly in floats.
    Up to ``geometry._EXTREMES`` points, LB is D.  Above, frames are
    diametered in ascending LB order, in doubling chunks, until the next LB
    is at least the smallest D found: no frame left can be smaller.  LB = 0
    only where D = 0 (the points extreme along x and y coincide, so all
    do), so a collapse raises before any frame is diametered, at every n.
    """
    pos = traj.positions
    # point i + 1 is kept unless it follows point i's path
    keep = np.concatenate(([True], (pos[:, 1:] != pos[:, :-1]).any(axis=(0, 2))))
    if not keep.all():
        traj = Trajectory(traj.times, pos[:, keep])
    lower = np.concatenate([diameter_lower_bounds(frames)
                            for frames in traj.frame_blocks(times, check=False)])
    least = float(lower.min())
    if least <= 0.0:
        raise DegenerateInputError("trajectory collapses to a single point")
    if traj.n_points > _EXTREMES:  # the bounds are not the diameters
        order = np.argsort(lower, kind="stable")
        least, done, size = math.inf, 0, 1
        while done < len(order) and lower[order[done]] < least:
            chunk = np.sort(order[done:done + size])  # in time order, for the hull certificates
            for frames in traj.frame_blocks(times[chunk], check=False):
                least = min(least, float(frame_diameters(frames).min()))
            done, size = done + size, 2 * size
    return least


def normalize_trajectory(traj: Trajectory) -> tuple[Trajectory, float, float]:
    """Rescale space and time so min sampled diameter is 1 and max speed is 1.

    Returns (normalized trajectory, spatial factor, temporal factor):
    positions were multiplied by the spatial factor and times by the
    temporal one.  The minimum diameter is ``min_diameter`` over the
    keyframe times and ``_NORMALIZE_SAMPLES`` uniform samples.
    """
    grid = np.union1d(traj.times, np.linspace(0.0, traj.horizon, _NORMALIZE_SAMPLES))
    scale = 1.0 / min_diameter(traj, grid)
    v_max = traj.max_point_speed() * scale
    time_factor = v_max if v_max > 0.0 else 1.0
    normalized = Trajectory(traj.times * time_factor, traj.positions * scale)
    return normalized, scale, time_factor


@dataclass
class SafeZoneReport:
    """Per-sample safe-zone instrumentation of a chase run: the diametric
    pair's orientation (the ``target`` chased) and aspect, and the bounds
    and gap they give."""

    target: np.ndarray
    aspect: np.ndarray
    safe_half_width: np.ndarray
    jump_allowance: np.ndarray
    ang_gap: np.ndarray
    in_safe_zone: np.ndarray = field(init=False)
    in_interval: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.in_safe_zone = self.ang_gap <= self.safe_half_width
        self.in_interval = self.ang_gap <= self.interval_half_width

    @property
    def interval_half_width(self) -> np.ndarray:
        """H + J = (2c+2)*arcsin(aspect), the gap the enclosing interval allows."""
        return self.safe_half_width + self.jump_allowance


@dataclass
class ChaseResult:
    """A chase run: one orientation path, its safe-zone report, and one run
    table per extent descriptor scored (box, strip or both) on that path.

    Every table shares the run's ``times`` and ``beta`` arrays and has
    period pi, because the chased orientation is taken modulo pi.
    """

    params: ChaseParams
    times: np.ndarray
    beta: np.ndarray
    safe_zone: SafeZoneReport
    runs: dict[DescriptorKind, TrackerOutput]


_EXTENTS = (DescriptorKind.OBB, DescriptorKind.STRIP)


def chase(traj: Trajectory, params: ChaseParams = ChaseParams(), dt: float = DEFAULT_DT,
          kinds: tuple[DescriptorKind, ...] = _EXTENTS) -> ChaseResult:
    """Run the speed-capped chasing tracker over a (normalized) trajectory.

    The tracker chases the diametric-pair orientation, starting on it in the
    first frame so that the run begins in steady state.  The path is scored
    against the optimum of each of ``kinds``, box and strip by default; the
    path does not depend on them.
    """
    kinds = tuple(DescriptorKind(k) for k in kinds)
    if not kinds or not set(kinds) <= set(_EXTENTS):
        raise DomainError("chase runs score box and/or strip costs only")
    max_step = params.max_turn_rate * dt
    zone = []  # per block: the diametric box's orientation and aspect, and the tracker's gap

    def toward_pair(frames, times, optima, prev_beta):
        box = diametric_boxes(frames)
        beta = []
        for alpha in box.alpha.tolist():
            prev_beta = alpha if prev_beta is None else rotate_toward(prev_beta, alpha, max_step)
            beta.append(prev_beta)
        beta = np.array(beta)
        zone.append((box.alpha, box.aspect, angular_distances(beta, box.alpha)))
        return beta, frame_costs(frames.points, kinds, beta)

    runs = sampled_run(traj, dt, kinds, ORIENTATION_PERIOD, toward_pair)
    target, aspect, gap = (np.concatenate(col) for col in zip(*zone))
    c = params.safe_zone_factor
    report = SafeZoneReport(target, aspect, safe_zone_half_width(aspect, c),
                            jump_distance(aspect, c), gap)
    run = runs[kinds[0]]
    return ChaseResult(params, run.times, run.beta, report, runs)
