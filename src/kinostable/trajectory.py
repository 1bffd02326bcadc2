"""Piecewise-linear keyframed motion of a planar point set."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .geometry import _NON_FINITE, Frame, Frames, block_size, frame_faults

# Most samples a sample grid may have: 2^25 float64 times are 256 MiB, and
# a run keeps several more per-sample columns of that size (orientations,
# costs, ratios), so a larger grid cannot be run in memory.
_MAX_SAMPLES = 1 << 25

# The sample step of a run that is not given one: the CLI's ``--dt``,
# ``chasing.chase`` and the verify stages and suite options.
DEFAULT_DT = 1e-3


def check_dt(dt: float) -> None:
    """Reject a sampling step no sample grid can use."""
    if not dt > 0.0:  # NaN included
        raise DomainError("dt must be positive")
    if dt == np.inf:  # the grid would be [0 * inf] = [nan]
        raise DomainError("dt must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Keyframed motion: every point moves linearly between keyframes.

    ``times`` is strictly increasing and starts at 0; its last entry is the
    horizon.  ``positions`` has shape (keyframes, points, 2).  Unlike
    ``Frame``, a trajectory keeps the positions array it is given, when it
    is already a C-contiguous float array, and makes it read-only: keyframes
    can be large (26 MB in ``pc_fast_flip(100)``), so they are not copied.
    """

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(np.asarray(self.times, dtype=float))
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        if times.ndim != 1 or len(times) < 1:
            raise DegenerateInputError("trajectory needs at least one keyframe time")
        if pos.ndim != 3 or pos.shape[0] != len(times) or pos.shape[2] != 2:
            raise DegenerateInputError(
                f"positions must have shape (keyframes, points, 2), got {pos.shape}"
            )
        if pos.shape[1] < 2:
            raise DegenerateInputError("trajectory needs at least 2 points")
        if times[0] != 0.0:
            raise DegenerateInputError("first keyframe time must be 0")
        if not np.isfinite(times).all():
            raise DegenerateInputError("keyframe times must be finite")
        if len(times) > 1 and not (np.diff(times) > 0.0).all():
            raise DegenerateInputError("keyframe times must be strictly increasing")
        faults = frame_faults(pos)
        if _NON_FINITE in faults.values():
            raise DegenerateInputError("keyframes contain non-finite coordinates")
        if faults:
            raise DegenerateInputError(
                f"keyframe at t={times[min(faults)]} has all points coincident")
        times.setflags(write=False)
        pos.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_points(self) -> int:
        return int(self.positions.shape[1])

    def positions_at(self, t: float) -> np.ndarray:
        """Interpolated (n, 2) point positions at time t, clamped to [0, horizon]."""
        return self.positions_at_times(np.array([t], dtype=float))[0]

    def segments_at(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The keyframe segment k and the segment parameter s of each of
        ``times`` (two or more keyframes): the positions at a time are
        (1 - s) * P[k] + s * P[k+1].  s lies in [0, 1] for times in
        [0, horizon]; outside, k is the first or last segment."""
        key = self.times
        k = np.clip(np.searchsorted(key, times, side="right") - 1, 0, len(key) - 2)
        return k, (times - key[k]) / (key[k + 1] - key[k])

    def positions_at_times(self, times: np.ndarray) -> np.ndarray:
        """Interpolated (B, n, 2) point positions at each of ``times``, clamped
        to [0, horizon]: (1 - s) * P[k] + s * P[k+1] on the keyframe segment k
        (``segments_at``); times at or beyond either end take that keyframe."""
        key, pos = self.times, self.positions
        if len(key) == 1:
            return np.repeat(pos[:1], len(times), axis=0)
        k, s = self.segments_at(times)
        s = s[:, None, None]
        out = pos[k]
        out *= 1.0 - s
        later = pos[k + 1]
        later *= s
        out += later
        first = times <= key[0]
        out[first] = pos[0]
        out[~first & (times >= key[-1])] = pos[-1]
        return out

    def frame_at(self, t: float) -> Frame:
        return Frame(self.positions_at(t), time=float(t))

    def frame_blocks(self, times: np.ndarray, check: bool = True) -> Iterator[Frames]:
        """The frames at ``times``, in consecutive blocks of ``block_size`` frames.

        With ``check``, every frame is checked as ``Frame`` checks it: at the
        first frame it rejects, the frames before it come as one last block
        and the next step raises the same DegenerateInputError.
        """
        size = block_size(self.n_points)
        for start in range(0, len(times), size):
            points = self.positions_at_times(times[start:start + size])
            faults = frame_faults(points) if check else {}
            if faults:
                first = min(faults)
                if first:
                    yield Frames(points[:first])
                raise DegenerateInputError(faults[first])
            yield Frames(points)

    def max_point_speed(self) -> float:
        """Largest per-point speed over all keyframe segments (exact for linear motion)."""
        if len(self.times) < 2:
            return 0.0
        dt = np.diff(self.times)
        steps = np.diff(self.positions, axis=0)
        speeds = np.sqrt((steps**2).sum(axis=2)) / dt[:, None]
        return float(speeds.max())

    def sample_times(self, dt: float) -> np.ndarray:
        """Uniform sample grid 0, dt, 2dt, ... including the horizon; [0.0] at horizon 0."""
        check_dt(dt)
        horizon = self.horizon
        steps = np.floor(horizon / dt + 1e-9)  # inf where dt is subnormal
        if steps >= _MAX_SAMPLES:
            raise DomainError(f"dt {dt!r} needs {steps + 1:.3g} samples over the horizon "
                              f"{horizon!r}; at most {_MAX_SAMPLES} are run")
        grid = np.arange(int(steps) + 1, dtype=float) * dt
        if horizon - grid[-1] > dt * 1e-9:
            grid = np.append(grid, horizon)
        return grid
