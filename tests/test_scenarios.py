import math

import numpy as np
import pytest

from kinostable.angles import canonical
from kinostable.costs import DescriptorKind, cost_obb, cost_strip
from kinostable.errors import DomainError
from kinostable.geometry import frame_diameter
from kinostable.scenarios import (
    build_scenario,
    obb_lower_bound,
    pc_fast_flip,
    pc_flip,
    random_walk,
    stateless_disk,
    strip_lower_bound,
)
from kinostable.solvers import optimal, optimal_pc
from kinostable.verify import measured_axis_speed, min_anchor_diameter

TILTED_ALPHA = 2.0 * math.atan(0.5)


class TestBoxFlipScenario:
    def test_endpoints_select_the_two_boxes(self):
        traj = obb_lower_bound()
        first = optimal(traj.frame_at(0.0), DescriptorKind.OBB)
        last = optimal(traj.frame_at(traj.horizon), DescriptorKind.OBB)
        assert first.alpha == pytest.approx(0.0, abs=1e-12)
        assert first.cost == pytest.approx(2.0)
        assert last.alpha == pytest.approx(TILTED_ALPHA)
        assert last.cost == pytest.approx(2.0)

    def test_static_points_force_expensive_intermediates(self):
        static = obb_lower_bound().positions[0][:4]
        # the two worst orientations, one per rotation direction
        assert cost_obb(static, math.atan(0.5)) == pytest.approx(2.5)
        assert cost_obb(static, -(math.pi / 4 - math.atan(0.5))) == pytest.approx(2.5)


class TestStripFlipScenario:
    def test_unit_square_moment(self):
        traj = strip_lower_bound(start_height=5.0)
        # top points reach height 1 at four fifths of the horizon
        frame = traj.frame_at(0.8 * traj.horizon)
        opt = optimal(frame, DescriptorKind.STRIP)
        assert opt.cost == pytest.approx(1.0)
        assert opt.all_optima == pytest.approx((0.0, math.pi / 2))
        assert cost_strip(frame.points, math.pi / 4) == pytest.approx(math.sqrt(2.0))

    def test_diagonal_ratio_never_below_sqrt2(self):
        traj = strip_lower_bound(start_height=4.0)
        for height in (4.0, 2.5, 1.0, 0.4, 0.1):
            ratio = (1.0 + height) * math.sqrt(2.0) / 2.0 / min(height, 1.0)
            assert ratio >= math.sqrt(2.0) - 1e-12

    def test_rejects_low_start(self):
        with pytest.raises(DomainError):
            strip_lower_bound(start_height=0.5)


class TestAxisFlipScenario:
    def test_crossing_is_isotropic(self):
        traj = pc_flip()
        assert optimal_pc(traj.frame_at(0.0)).alpha == pytest.approx(0.0)
        assert optimal_pc(traj.frame_at(traj.horizon)).alpha == pytest.approx(math.pi / 2)
        crossing = traj.frame_at(2.0 / 3.0 * traj.horizon)
        assert optimal_pc(crossing).isotropic


class TestStatelessFamily:
    def test_full_contraction_forces_the_line(self):
        for phi in (0.0, 0.7, 2.0, 4.5):
            frame = stateless_disk(6, 1.0, phi)
            forced = canonical(math.pi / 2 - phi)
            assert optimal(frame, DescriptorKind.STRIP).alpha == pytest.approx(forced, abs=1e-9)
            assert optimal(frame, DescriptorKind.STRIP).cost == pytest.approx(0.0, abs=1e-12)

    def test_no_contraction_returns_anchor(self):
        frame = stateless_disk(6, 0.0, 1.234)
        anchor = np.array([(0, 0), (1, 0), (0, 1), (0, 0), (1, 0), (0, 1)], float)
        assert frame.points == pytest.approx(anchor)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            stateless_disk(2, 1.0, 0.0)
        with pytest.raises(DomainError):
            stateless_disk(5, 1.5, 0.0)


class TestAxisSpeedEscape:
    def test_axis_outruns_cap_with_unit_diameter(self):
        rate = 30.0
        traj = pc_fast_flip(target_rate=rate)
        assert measured_axis_speed(traj, dt=1e-3) > rate
        assert min_anchor_diameter(traj, dt=1e-3) >= 1.0

    def test_axis_follows_cluster_before_the_orbit(self):
        traj = pc_fast_flip(target_rate=25.0)
        early = optimal_pc(traj.frame_at(0.0))
        assert early.alpha == pytest.approx(math.pi / 2, abs=1e-9)

    def test_points_move_at_most_unit_speed(self):
        traj = pc_fast_flip(target_rate=25.0)
        assert traj.max_point_speed() <= 1.0 + 1e-12

    def test_cluster_stays_tiny(self):
        traj = pc_fast_flip(target_rate=25.0)
        near = traj.positions[0][1]
        cluster = traj.positions[-1][2:]
        assert np.linalg.norm(cluster - near, axis=1).max() < 0.1

    def test_box_chase_is_unaffected_by_the_axis_swing(self):
        from kinostable.chasing import chase, normalize_trajectory

        traj = pc_fast_flip(target_rate=15.0)
        normalized, _, _ = normalize_trajectory(traj, sample_count=257)
        res = chase(normalized, dt=2e-3)
        assert np.max(res.safe_zone.aspect) < 0.5
        assert np.max(res.runs[DescriptorKind.OBB].ratio) < 4.0


class TestRandomWalk:
    def test_seed_reproducibility(self):
        a = random_walk(n=6, steps=12, seed=42)
        b = random_walk(n=6, steps=12, seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.times, b.times)

    def test_speed_cap_per_keyframe(self):
        traj = random_walk(n=6, steps=20, seed=1)
        assert traj.max_point_speed() <= 1.0 + 1e-12

    def test_keyframe_diameter_floor(self):
        traj = random_walk(n=5, steps=30, seed=3)
        for frame in traj.positions:
            assert frame_diameter(frame) >= 1.05 - 1e-12


def test_build_scenario_registry():
    traj = build_scenario("obb-lower-bound", {})
    assert traj.n_points == 5
    with pytest.raises(DomainError):
        build_scenario("no-such-scenario", {})
