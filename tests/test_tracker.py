import math

import numpy as np
import pytest

from kinostable.angles import BOX_PERIOD, angular_distance
from kinostable.chasing import chase, normalize_trajectory
from kinostable.costs import DescriptorKind, costs_at
from kinostable.errors import DomainError
from kinostable.ratios import max_ratio
from kinostable.scenarios import obb_lower_bound, pc_flip, random_walk, strip_lower_bound
from kinostable.tracker import track_topological

SQRT2 = math.sqrt(2.0)


class TestTopologicalTracker:
    def test_box_flip_scenario_worst_ratio(self):
        out = track_topological(obb_lower_bound(), DescriptorKind.OBB, 1e-3)
        assert max_ratio(out) == pytest.approx(1.25, abs=1e-3)
        assert len(out.flips) == 1
        flip = out.flips[0]
        assert flip.time == pytest.approx(0.625, abs=1e-6)
        assert flip.opt_cost == pytest.approx(2.0, abs=1e-9)
        assert flip.worst_cost == pytest.approx(2.5, abs=1e-6)

    def test_strip_flip_scenario_worst_ratio(self):
        out = track_topological(strip_lower_bound(), DescriptorKind.STRIP, 1e-3)
        assert max_ratio(out) == pytest.approx(SQRT2, abs=1e-3)
        assert out.flips[0].arc_length == pytest.approx(math.pi / 2)

    def test_axis_flip_scenario_is_free(self):
        out = track_topological(pc_flip(), DescriptorKind.PC, 1e-3)
        assert max_ratio(out) == pytest.approx(1.0, abs=1e-6)

    def test_samples_follow_the_optimum(self):
        out = track_topological(obb_lower_bound(), DescriptorKind.OBB, 1e-2)
        assert np.all(out.ratio <= 1.0 + 1e-12)
        assert np.all(out.cost <= out.opt_cost + 1e-12)

    def test_no_teleport_without_recorded_flip(self):
        out = track_topological(obb_lower_bound(), DescriptorKind.OBB, 1e-3)
        times = out.times
        for i, jump in enumerate(out.step_distances()):
            if jump > BOX_PERIOD / 4.0:
                assert any(times[i] <= f.time <= times[i + 1] for f in out.flips)

    def test_flip_sweeps_on_random_walks_stay_under_quarter_more(self):
        for seed in range(6):
            out = track_topological(random_walk(seed=seed, steps=30), DescriptorKind.OBB, 2e-3)
            for flip in out.flips:
                assert flip.worst_ratio <= 1.25 + 1e-3
                # both flip endpoints were optimal at the flip frame
                assert flip.opt_cost > 0.0

    def test_strip_and_axis_runs_on_walks_stay_bounded(self):
        for seed in range(4):
            walk = random_walk(seed=seed, steps=30)
            strip_out = track_topological(walk, DescriptorKind.STRIP, 2e-3)
            assert max_ratio(strip_out) <= SQRT2 + 1e-2
            for flip in strip_out.flips:
                assert flip.worst_ratio <= SQRT2 + 1e-3
            axis_out = track_topological(walk, DescriptorKind.PC, 2e-3)
            assert max_ratio(axis_out) <= 1.0 + 1e-6

    def test_axis_cost_constant_at_degenerate_frame(self):
        # the exactly isotropic crossing frame of the narrowing cloud
        traj = pc_flip()
        crossing = traj.frame_at(2.0 / 3.0 * traj.horizon)
        grid = np.linspace(0.0, math.pi, 512, endpoint=False)
        values = costs_at(crossing.points, DescriptorKind.PC, grid)
        assert values.max() - values.min() <= 1e-9 * values.max()

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            track_topological(pc_flip(), DescriptorKind.PC, 0.0)


def test_box_tracking_ignores_axis_relabeling():
    # a slowly rotating rectangle: the optimal box turns continuously, and the
    # mod-pi/2 view must see no flips even as edge labels swap quarter turns
    base = np.array([(-1.0, -0.3), (1.0, -0.3), (1.0, 0.3), (-1.0, 0.3)])
    keyframes = []
    times = np.linspace(0.0, 1.0, 33)
    for t in times:
        rot = t * math.pi
        R = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
        keyframes.append(base @ R.T)
    from kinostable.trajectory import Trajectory

    out = track_topological(Trajectory(times, np.stack(keyframes)), DescriptorKind.OBB, 1e-2)
    assert len(out.flips) == 0
    assert np.all(out.step_distances() < 0.1)
    assert max_ratio(out) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("run", [
    lambda walk: track_topological(walk, DescriptorKind.OBB, 2e-3),
    lambda walk: track_topological(walk, DescriptorKind.STRIP, 2e-3),
    lambda walk: track_topological(walk, DescriptorKind.PC, 2e-3),
    lambda walk: chase(normalize_trajectory(walk)[0], dt=2e-3).runs[DescriptorKind.OBB],
], ids=["track-obb", "track-strip", "track-pc", "chase"])
def test_step_distances_match_the_pairwise_reference(run):
    out = run(random_walk(seed=6, steps=20, duration=0.4))
    reference = [angular_distance(a, b, out.period) for a, b in zip(out.beta, out.beta[1:])]
    assert np.array_equal(out.step_distances(), reference)
