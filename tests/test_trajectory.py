import numpy as np
import pytest

from kinostable.errors import DegenerateInputError
from kinostable.trajectory import Trajectory


def two_point_drift(duration=1.0):
    start = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    end = start + np.array([2.0, 0.0])
    return Trajectory(np.array([0.0, duration]), np.stack([start, end]))


def test_linear_interpolation_between_keyframes():
    traj = two_point_drift()
    mid = traj.positions_at(0.5)
    assert mid == pytest.approx(np.array([(1.0, 0.0), (2.0, 0.0), (1.0, 1.0)]))
    assert traj.frame_at(0.25).time == 0.25


def test_clamps_outside_horizon():
    traj = two_point_drift()
    assert traj.positions_at(-1.0) == pytest.approx(traj.positions[0])
    assert traj.positions_at(5.0) == pytest.approx(traj.positions[-1])


def test_first_time_must_be_zero():
    pos = np.zeros((2, 2, 2))
    pos[:, 1, 0] = 1.0
    with pytest.raises(DegenerateInputError):
        Trajectory(np.array([0.5, 1.0]), pos)


def test_times_strictly_increasing():
    pos = np.zeros((3, 2, 2))
    pos[:, 1, 0] = 1.0
    with pytest.raises(DegenerateInputError):
        Trajectory(np.array([0.0, 0.7, 0.7]), pos)


@pytest.mark.parametrize("last", [np.inf, np.nan])
def test_times_must_be_finite(last):
    pos = np.zeros((2, 2, 2))
    pos[:, 1, 0] = 1.0
    with pytest.raises(DegenerateInputError, match="keyframe times must be finite"):
        Trajectory(np.array([0.0, last]), pos)


def test_rejects_coincident_keyframe():
    pos = np.zeros((2, 3, 2))
    pos[0, 1, 0] = 1.0  # second keyframe collapses to a point
    with pytest.raises(DegenerateInputError):
        Trajectory(np.array([0.0, 1.0]), pos)


def test_keyframe_faults_report_the_first_coincident_keyframe_and_non_finite_first():
    pos = np.zeros((4, 3, 2))
    pos[0, 1, 0] = pos[2, 2, 1] = 1.0  # keyframes 1 and 3 collapse to a point
    times = np.array([0.0, 0.25, 0.5, 1.0])
    coincident = "^keyframe at t=0.25 has all points coincident$"
    with pytest.raises(DegenerateInputError, match=coincident):
        Trajectory(times, pos)
    pos[2, 0, 0] = np.nan  # a non-finite keyframe is reported before any collapse
    with pytest.raises(DegenerateInputError, match="^keyframes contain non-finite coordinates$"):
        Trajectory(times, pos)


def test_max_point_speed_exact():
    traj = two_point_drift(duration=0.5)
    assert traj.max_point_speed() == pytest.approx(4.0)


def test_sample_times_include_horizon():
    traj = two_point_drift(duration=1.0)
    grid = traj.sample_times(1e-3)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0)
    assert len(grid) == 1001
    ragged = traj.sample_times(0.3)
    assert ragged[-1] == pytest.approx(1.0)
    assert np.all(np.diff(ragged) > 0)


def test_single_keyframe_is_static():
    pos = np.array([[(0.0, 0.0), (1.0, 0.0)]])
    traj = Trajectory(np.array([0.0]), pos)
    assert traj.horizon == 0.0
    assert traj.max_point_speed() == 0.0
    assert traj.positions_at(0.0) == pytest.approx(pos[0])
