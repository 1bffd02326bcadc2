import math
import threading

import numpy as np
import pytest

from kinostable.chasing import normalize_trajectory
from kinostable.ratios import max_ratio, ratio
from kinostable.scenarios import obb_lower_bound, random_walk
from kinostable.costs import DescriptorKind
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory
from kinostable.verify import (
    _parallel_map,
    forced_orientation_winding,
    verify_bound_empirics,
    verify_obb_program,
    verify_trig_bounds,
)

SQRT2 = math.sqrt(2.0)


class TestRatioPolicy:
    def test_plain_quotient(self):
        assert ratio(3.0, 2.0) == 1.5

    def test_zero_over_zero_is_perfect(self):
        assert ratio(0.0, 0.0) == 1.0
        assert ratio(5e-13, 1e-13) == 1.0

    def test_missing_a_zero_optimum_is_infinite(self):
        assert ratio(0.5, 0.0) == math.inf

    def test_scale_invariance_of_run_ratios(self):
        traj = obb_lower_bound()
        scaled = Trajectory(traj.times, traj.positions * 7.5)
        a = max_ratio(track_topological(traj, DescriptorKind.OBB, 5e-3))
        b = max_ratio(track_topological(scaled, DescriptorKind.OBB, 5e-3))
        assert a == pytest.approx(b, rel=1e-9)


class TestProgram:
    def test_global_max_stays_at_five_quarters(self):
        res = verify_obb_program(grid_axis=96, grid_angle=96)
        assert res.max_value <= 1.25 + 1e-3
        assert res.max_value >= 1.2  # the grid does find the ridge

    def test_small_angle_branch_corner(self):
        res = verify_obb_program(grid_axis=64, grid_angle=64, refine_rounds=0)
        assert res.small_angle_max == pytest.approx(0.5 + SQRT2 / 2.0, abs=1e-9)
        c, alpha = res.small_angle_argmax
        assert c == pytest.approx(SQRT2)
        assert alpha == pytest.approx(math.pi / 4)

    def test_argmax_is_feasible(self):
        res = verify_obb_program(grid_axis=96, grid_angle=96)
        a, b, alpha = res.argmax
        assert 1.0 <= a <= b
        assert math.pi / 4 < alpha < math.pi / 2
        assert b <= a * math.cos(alpha) + math.sin(alpha) / a + 1e-9

    def test_nested_grids_are_monotone(self):
        coarse = verify_obb_program(grid_axis=65, grid_angle=65, refine_rounds=0)
        fine = verify_obb_program(grid_axis=129, grid_angle=129, refine_rounds=0)
        assert coarse.max_value <= fine.max_value + 1e-12

    def test_rejects_tiny_grids(self):
        from kinostable.errors import DomainError

        with pytest.raises(DomainError):
            verify_obb_program(grid_axis=8, grid_angle=8)


class TestTrigBounds:
    def test_no_violations_in_bulk_sample(self):
        results = verify_trig_bounds(samples=20_000, seed=5)
        for name, res in results.items():
            assert res.violations == 0, name
            assert res.worst_margin <= 1e-12

    def test_equality_edge_cases(self):
        assert math.sin(1.0 * math.asin(1.0)) == pytest.approx(1.0)
        assert math.sin(2.0 * math.asin(0.0)) == 0.0


class TestBoundEmpirics:
    def test_static_trajectory_has_no_motion(self):
        pts = np.array([(0.0, 0.0), (1.3, 0.0), (0.6, 0.4)])
        traj = Trajectory(np.array([0.0, 0.2]), np.stack([pts, pts]))
        results = verify_bound_empirics([("static", traj)], dt=0.01)
        assert results["pair-turn"].violations == 0
        assert results["aspect-drop"].violations == 0

    def test_flip_scenario_within_bounds(self):
        normalized, _, _ = normalize_trajectory(obb_lower_bound())
        results = verify_bound_empirics([("obb-lb", normalized)], dt=2e-3)
        assert results["pair-turn"].violations == 0
        assert results["aspect-drop"].violations == 0

    def test_random_walks_within_bounds(self):
        named = [
            (f"walk-{s}", normalize_trajectory(random_walk(seed=s, steps=25))[0])
            for s in range(3)
        ]
        results = verify_bound_empirics(named, dt=2e-3)
        assert results["pair-turn"].violations == 0
        assert results["aspect-drop"].violations == 0


def test_forced_orientation_double_cover_small():
    assert abs(forced_orientation_winding(n=5, samples=512)) == 2


def test_parallel_map_is_an_ordered_map_on_the_calling_thread():
    caller = threading.get_ident()
    seen = []

    def fn(x):
        seen.append(threading.get_ident())
        return x * x

    assert _parallel_map(fn, list(range(8))) == [x * x for x in range(8)]
    assert seen == [caller] * 8
