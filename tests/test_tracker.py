import math

import numpy as np
import pytest

from kinostable import tracker
from kinostable.angles import BOX_PERIOD, angular_distance
from kinostable.chasing import chase, normalize_trajectory
from kinostable.costs import DescriptorKind, costs_at
from kinostable.errors import DomainError
from kinostable.ratios import max_ratio
from kinostable.scenarios import obb_lower_bound, pc_flip, random_walk, strip_lower_bound
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory

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


def test_tied_co_optima_are_held_without_flips():
    # Every box flush with an edge of an acute triangle has twice its area,
    # so the three candidates tie at every sample; steering to the first
    # minimum chattered between them and recorded 506 flips here.
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.45, 0.8)])
    times = np.linspace(0.0, 1.0, 21)
    keys = []
    for t in times:
        c, s = math.cos(2.0 * t), math.sin(2.0 * t)
        keys.append((1.0 + t) * tri @ np.array([[c, s], [-s, c]]))
    out = track_topological(Trajectory(times, np.stack(keys)), DescriptorKind.OBB, 1e-3)
    assert len(out.times) == 1001
    assert out.flips == []
    assert max_ratio(out) <= 1.0 + 1e-9
    assert out.step_distances().max() < 0.01


def recorded_jumps(monkeypatch, traj, kind, dt):
    """The jumps ``track_topological`` hands to ``_locate_flips``, and its flips."""
    jumps = []
    real = tracker._locate_flips

    def record(traj, kind, period, found):
        jumps.extend(found)
        return real(traj, kind, period, found)

    monkeypatch.setattr(tracker, "_locate_flips", record)
    flips = track_topological(traj, kind, dt).flips
    monkeypatch.undo()
    return [tracker.Jump(*j) for j in jumps], flips


def bisected_starts(monkeypatch) -> list:
    """Record the ``t_lo`` of every jump ``_locate_group`` bisects."""
    starts = []
    real = tracker._bisect

    def record(traj, kind, period, t_lo, *rest):
        starts.extend(np.asarray(t_lo).tolist())
        return real(traj, kind, period, t_lo, *rest)

    monkeypatch.setattr(tracker, "_bisect", record)
    return starts


def test_jumps_fall_back_to_bisection(monkeypatch):
    box, walk = DescriptorKind.OBB, random_walk(seed=6)
    jumps, flips = recorded_jumps(monkeypatch, walk, box, 1e-3)
    jump, flip = jumps[0], flips[0]

    def locate(jumps, traj=walk, kind=box):
        starts = bisected_starts(monkeypatch)
        flips = tracker._locate_flips(traj, kind, tracker.tracking_period(kind), jumps)
        monkeypatch.undo()
        return starts, flips

    def same_flip(found, flip=flip):
        assert abs(found.time - flip.time) <= 1e-9
        assert abs(found.worst_ratio - flip.worst_ratio) <= 1e-9

    assert locate([jump]) == ([], [flip])  # root-found and confirmed
    for name, fallback in [
        ("unchanged pair", jump._replace(pair_hi=jump.pair_lo)),
        ("no sign change", jump._replace(pair_lo=jump.pair_hi, pair_hi=jump.pair_lo)),
        ("no pairs", jump._replace(pair_lo=None, pair_hi=None)),
    ]:
        starts, (found,) = locate([fallback])
        assert starts == [jump.t_lo], name
        same_flip(found)
    monkeypatch.setattr(tracker, "_ROOT_ROUNDS", 1)
    starts, (found,) = locate([jump])
    assert starts == [jump.t_lo]  # round cap
    same_flip(found)

    # the box flip scenario's two boxes tie exactly at the sample t = 0.625
    (tied,), (flip,) = recorded_jumps(monkeypatch, obb_lower_bound(), box, 1e-3)
    assert tied.t_lo == 0.625 and tied.pair_lo != tied.pair_hi
    assert locate([tied], traj=obb_lower_bound()) == ([0.625], [flip])

    # walk seed 6 turns its box A -> C at t = 0.8026 and C -> B at t = 0.8182;
    # one jump from A to B crosses their costs where C is optimal
    wide = tracker.Jump(0.801, 0.05751735638258704, 0.819, 0.655429187892012,
                        0.008588141011458054, (6, 0), (3, 5))
    starts, (found,) = locate([wide])
    assert starts == [wide.t_lo]  # a third candidate at the crossing
    assert 0.818 < found.time < 0.819

    # pc has no edge candidates: every jump is bisected
    starts = bisected_starts(monkeypatch)
    flips = track_topological(pc_flip(), DescriptorKind.PC, 1e-3).flips
    assert len(starts) == len(flips) == 1


@pytest.mark.parametrize("traj, kind", [
    (random_walk(seed=6), DescriptorKind.OBB),
    (random_walk(seed=5, n=64), DescriptorKind.OBB),
    (random_walk(seed=5, n=64), DescriptorKind.STRIP),
], ids=["walk6-obb", "walk5-n64-obb", "walk5-n64-strip"])
def test_lockstep_location_equals_one_jump_at_a_time(monkeypatch, traj, kind):
    jumps, flips = recorded_jumps(monkeypatch, traj, kind, 1e-3)
    period = tracker.tracking_period(kind)
    edge = [j for j in jumps if j.pair_lo != j.pair_hi]
    assert len(edge) >= 3
    columns = [np.array(col) for col in zip(*edge)]
    lockstep = tracker._edge_crossings(traj, kind, period, columns[0], columns[2],
                                       np.array(columns[5]), np.array(columns[6]))
    for k, j in enumerate(edge):
        one = tracker._edge_crossings(traj, kind, period, np.array([j.t_lo]), np.array([j.t_hi]),
                                      np.array([j.pair_lo]), np.array([j.pair_hi]))
        for got, alone in zip(lockstep[:4], one[:4]):
            assert got[k] == alone[0]
        assert one[4] <= lockstep[4]  # rounds
    assert lockstep[3].all()
    alone = [f for j in jumps for f in tracker._locate_flips(traj, kind, period, [j])]
    assert flips == alone and flips
