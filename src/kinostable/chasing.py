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

The chaser is a steering rule over ``tracker.sampled_run``, the same
block-by-block core the topological tracker runs on: per block of frames,
the diametric boxes are solved at once and the capped rotation runs as a
loop on floats.  One chase path is scored against both the box and the
strip optimum, so the run comes back as one ``TrackerOutput`` per kind
(with no flip events) beside the safe-zone report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import ORIENTATION_PERIOD, angular_distance, rotate_toward
from .costs import DescriptorKind
from .errors import DegenerateInputError, DomainError
from .geometry import diametric_boxes, frame_diameters
from .tracker import TrackerOutput, sampled_run
from .trajectory import Trajectory


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
    min_diam = min(float(frame_diameters(frames).min())
                   for frames in traj.frame_blocks(grid, check=False))
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


def chase(
    traj: Trajectory,
    params: ChaseParams = ChaseParams(),
    dt: float = 1e-3,
) -> ChaseResult:
    """Run the speed-capped chasing tracker over a (normalized) trajectory.

    The tracker chases the diametric-pair orientation, starting on it in the
    first frame so that the run begins in steady state.
    """
    c = params.safe_zone_factor
    max_step = params.max_turn_rate * dt
    zone = []  # per block: the SafeZoneReport fields, in order

    def toward_pair(frames, times, optima, prev_beta):
        box = diametric_boxes(frames)
        beta = []
        for alpha in box.alpha.tolist():
            prev_beta = alpha if prev_beta is None else rotate_toward(prev_beta, alpha, max_step)
            beta.append(prev_beta)
        gap = np.array([angular_distance(b, a) for b, a in zip(beta, box.alpha.tolist())])
        h = np.array([safe_zone_half_width(z, c) for z in box.aspect.tolist()])
        j = np.array([jump_distance(z, c) for z in box.aspect.tolist()])
        zone.append((box.aspect, h, j, gap, gap <= h, gap <= h + j))
        return np.array(beta)

    runs = sampled_run(
        traj, dt, (DescriptorKind.OBB, DescriptorKind.STRIP), ORIENTATION_PERIOD, toward_pair,
    )
    report = SafeZoneReport(*(np.concatenate(col) for col in zip(*zone)))
    box_run = runs[DescriptorKind.OBB]
    return ChaseResult(
        params=params, times=box_run.times, beta=box_run.beta, safe_zone=report, runs=runs,
    )
