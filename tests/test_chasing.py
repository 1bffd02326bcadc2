import math

import numpy as np
import pytest

from kinostable.chasing import (
    ChaseParams,
    aspect_drop_bound,
    chase,
    jump_distance,
    normalize_trajectory,
    pair_turn_bound,
    safe_zone_half_width,
)
from kinostable.costs import DescriptorKind
from kinostable.errors import DomainError
from kinostable.scenarios import random_walk, strip_lower_bound
from kinostable.trajectory import Trajectory


def static_trajectory(points, duration=0.25):
    pos = np.stack([np.asarray(points, float)] * 2)
    return Trajectory(np.array([0.0, duration]), pos)


class TestZoneFunctions:
    def test_safe_zone_values(self):
        assert safe_zone_half_width(0.0, 3.0) == 0.0
        assert safe_zone_half_width(0.5, 3.0) == pytest.approx(math.pi / 2)
        assert safe_zone_half_width(1.0, 3.0) == pytest.approx(3 * math.pi / 2)

    def test_jump_distance_values(self):
        assert jump_distance(0.0, 3.0) == 0.0
        assert jump_distance(0.5, 3.0) == pytest.approx(5 * math.pi / 6)

    def test_jump_halves_under_half_angle_argument(self):
        for z in (0.1, 0.3, 0.7, 0.95):
            nested = jump_distance(math.sin(0.5 * math.asin(z)), 3.0)
            assert nested == pytest.approx(2.5 * math.asin(z))

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_zone_functions_reject_bad_aspect(self, bad):
        with pytest.raises(DomainError):
            safe_zone_half_width(bad, 3.0)
        with pytest.raises(DomainError):
            jump_distance(bad, 3.0)


class TestChangeBounds:
    def test_pair_turn_values(self):
        assert pair_turn_bound(0.0, 0.0) == 0.0
        assert pair_turn_bound(0.5, 1.0 / 6.0) == pytest.approx(math.pi / 2)
        assert pair_turn_bound(0.25, 0.1) == pytest.approx(math.pi / 6)

    def test_pair_turn_domain(self):
        with pytest.raises(DomainError):
            pair_turn_bound(0.5, 0.2)

    def test_aspect_drop_values(self):
        assert aspect_drop_bound(0.0, 0.0) == 0.0
        assert aspect_drop_bound(1.0, 0.0) == pytest.approx(1.0 - math.sqrt(2.0) / 2.0)

    def test_aspect_drop_domain(self):
        with pytest.raises(DomainError):
            aspect_drop_bound(0.5, 0.2)

    def test_immediate_drop_at_most_half(self):
        # sin(arcsin(z)/2) >= z/2 makes the instantaneous drop at most z/2
        for z in np.linspace(0.0, 1.0, 50):
            assert aspect_drop_bound(float(z), 0.0) <= z / 2.0 + 1e-12

    def test_bounds_nondecreasing_in_elapsed(self):
        for z in (0.1, 0.4, 0.8):
            turn_grid = np.linspace(0.0, (1 - z) / (2 + 2 * z), 200)
            turns = [pair_turn_bound(z, float(t)) for t in turn_grid]
            assert np.all(np.diff(turns) >= -1e-12)
            drop_grid = np.linspace(0.0, math.sin(0.5 * math.asin(z)) / 2.0, 200)
            drops = [aspect_drop_bound(z, float(t)) for t in drop_grid]
            assert np.all(np.diff(drops) >= -1e-12)


class TestNormalize:
    def test_identity_when_already_normalized(self):
        pos0 = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.2)])
        pos1 = pos0 + np.array([1.0, 0.0])  # unit speed over unit time
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([pos0, pos1]))
        normalized, scale, time_factor = normalize_trajectory(traj)
        assert scale == pytest.approx(1.0)
        assert time_factor == pytest.approx(1.0)
        assert normalized.horizon == pytest.approx(1.0)

    def test_spatial_rescale(self):
        pos0 = np.array([(0.0, 0.0), (10.0, 0.0), (5.0, 2.0)])
        traj = static_trajectory(pos0, duration=1.0)
        normalized, scale, time_factor = normalize_trajectory(traj)
        assert scale == pytest.approx(0.1)
        assert time_factor == pytest.approx(1.0)  # static: no time rescale
        from kinostable.geometry import frame_diameter

        assert frame_diameter(normalized.positions_at(0.0)) == pytest.approx(1.0)

    def test_temporal_rescale_for_fast_points(self):
        pos0 = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)])
        pos1 = pos0 + np.array([2.0, 0.0])  # speed 2 over unit time
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([pos0, pos1]))
        normalized, scale, time_factor = normalize_trajectory(traj)
        assert time_factor == pytest.approx(2.0)
        assert normalized.horizon == pytest.approx(2.0)
        assert normalized.max_point_speed() == pytest.approx(1.0)


class TestChase:
    def test_static_warm_start_holds_and_stays_cheap(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pts = rng.uniform(-2, 2, (8, 2))
            traj = normalize_trajectory(static_trajectory(pts))[0]
            res = chase(traj, dt=1e-2)
            # warm start: only interpolation-rounding wiggle, no real motion
            assert np.ptp(res.beta) <= 1e-9
            # diametric alignment is at most twice the optimal box area
            assert np.all(res.runs[DescriptorKind.OBB].ratio <= 2.0 + 1e-9)

    def test_rotation_law_is_exact_from_perpendicular_start(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.1)])
        traj = normalize_trajectory(static_trajectory(pts, duration=0.1))[0]
        params = ChaseParams(max_turn_rate=43.0)
        dt = 1e-3
        res = chase(traj, params, dt, beta0=math.pi / 2)
        gaps = res.safe_zone.ang_gap
        step = params.max_turn_rate * dt
        assert gaps[0] == pytest.approx(math.pi / 2)
        for i in range(len(gaps) - 1):
            if gaps[i] > step:
                assert gaps[i] - gaps[i + 1] == pytest.approx(step, abs=1e-12)
            else:
                assert gaps[i + 1] == pytest.approx(0.0, abs=1e-12)

    def test_per_step_rotation_never_exceeds_cap(self):
        traj = normalize_trajectory(random_walk(seed=9, steps=25))[0]
        params = ChaseParams()
        dt = 2e-3
        steps = chase(traj, params, dt).runs[DescriptorKind.OBB].step_distances()
        assert steps.max() <= params.max_turn_rate * dt + 1e-12

    def test_strip_scenario_ratio_within_guarantee(self):
        traj = normalize_trajectory(strip_lower_bound())[0]
        res = chase(traj, ChaseParams(max_turn_rate=43.0, safe_zone_factor=3.0), 1e-3)
        assert np.max(res.runs[DescriptorKind.STRIP].ratio) <= 18.0
        assert np.max(res.runs[DescriptorKind.OBB].ratio) <= 18.0

    def test_safe_zone_flags_are_consistent(self):
        traj = normalize_trajectory(random_walk(seed=2, steps=25))[0]
        res = chase(traj, dt=2e-3)
        sz = res.safe_zone
        assert np.all(sz.in_safe_zone <= sz.in_interval)
        inside = sz.ang_gap <= sz.safe_half_width
        assert np.array_equal(sz.in_safe_zone, inside)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            ChaseParams(max_turn_rate=0.0)
        with pytest.raises(DomainError):
            ChaseParams(safe_zone_factor=0.5)

