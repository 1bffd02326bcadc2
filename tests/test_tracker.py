import math

import numpy as np
import pytest

from kinostable import tracker
from kinostable.angles import BOX_PERIOD, angular_distance, canonical_array
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


def test_each_kind_of_jump(monkeypatch):
    box = DescriptorKind.OBB
    period = tracker.tracking_period(box)
    walk = random_walk(seed=6)
    jumps, flips = recorded_jumps(monkeypatch, walk, box, 1e-3)

    def same_flips(found, want):
        assert len(found) == len(want)
        for got, flip in zip(found, want):
            assert abs(got.time - flip.time) <= 1e-9
            assert abs(got.worst_ratio - flip.worst_ratio) <= 1e-9

    # a jump is a change of the steered pair; where the pair is unchanged,
    # one edge turned fast, which is continuous, and nothing is recorded
    assert jumps and all(j.pair_lo != j.pair_hi for j in jumps)
    unchanged = [j._replace(pair_hi=j.pair_lo) for j in jumps]
    assert tracker._locate_flips(walk, box, period, unchanged) == []

    # the box flip scenario's two boxes tie exactly at the sample t = 0.625:
    # the flip is where the earlier box leaves the tie band, 1e-9 of the cost 2
    (flip,) = track_topological(obb_lower_bound(), box, 1e-3).flips
    assert flip.time == pytest.approx(0.625 + 6.25e-10, abs=1e-12)
    assert flip.worst_ratio == pytest.approx(1.25, abs=1e-9)

    # walk seed 50 jumps from edge (2, 6) to (6, 5) between t = 0.024 and
    # 0.025; the two boxes tie until t = 0.0244464, where the flip is
    tied = random_walk(n=8, seed=50, steps=20, duration=0.4)
    (jump,) = [j for j in recorded_jumps(monkeypatch, tied, box, 1e-3)[0] if j.t_lo == 0.024]
    assert (jump.pair_lo, jump.pair_hi) == ((2, 6), (6, 5))
    (flip,) = tracker._locate_flips(tied, box, period, [jump])
    assert flip.time == pytest.approx(0.0244464, abs=1e-7)

    # walk seed 6 turns its box A -> C at t = 0.80187 and C -> B at 0.81814;
    # one jump from A to B finds C optimal where A and B cross, and splits
    wide = tracker.Jump(0.801, 0.819, (6, 0), (3, 5))
    between = [f for f in flips if wide.t_lo < f.time < wide.t_hi]
    assert len(between) == 2
    same_flips(tracker._locate_flips(walk, box, period, [wide]), between)

    # pc flips at its isotropic instant, found in closed form
    (flip,) = track_topological(pc_flip(), DescriptorKind.PC, 1e-3).flips
    assert abs(flip.time - 2.0 / 3.0) <= 1e-9


def test_pc_flips_at_an_isotropic_keyframe_and_none_at_rest():
    # the pc_flip cloud narrowing through isotropy exactly at a keyframe,
    # where its width's rate changes: the quartic's minimum is that keyframe
    def cloud(w):
        x, y = w / 2.0, 0.5
        return np.array([(-x, -y), (x, -y), (x, y), (-x, y), (-x, 0.0), (x, 0.0),
                         (0.0, -y), (0.0, y)])

    kinked = Trajectory(np.array([0.0, 0.5, 1.0]), np.stack([cloud(2.0), cloud(1.0), cloud(0.5)]))
    (flip,) = track_topological(kinked, DescriptorKind.PC, 1e-3).flips
    assert flip.time == 0.5 and flip.arc_length == pytest.approx(math.pi / 2)
    # a cloud at rest has a constant quartic, whose derivative has no roots
    still = Trajectory(np.array([0.0, 1.0]), np.stack([cloud(2.0), cloud(2.0)]))
    assert track_topological(still, DescriptorKind.PC, 1e-2).flips == []


def test_tie_flips_do_not_depend_on_dt():
    # walk seed 50 starts two of its jumps between tied boxes; bisecting
    # them put the flips inside the ties, at times that moved with dt
    walk = random_walk(n=8, seed=50, steps=20, duration=0.4)
    coarse, fine = (track_topological(walk, DescriptorKind.OBB, dt).flips for dt in (1e-3, 1e-4))
    assert len(coarse) == len(fine) == 8
    for a, b in zip(coarse, fine):
        assert abs(a.time - b.time) <= 1e-9
        assert abs(a.worst_ratio - b.worst_ratio) <= 1e-9
    assert any(abs(f.time - 0.0244464) <= 1e-7 for f in coarse)
    assert any(abs(f.time - 0.0684110) <= 1e-7 for f in coarse)


@pytest.mark.parametrize("traj, kind", [
    (random_walk(seed=6), DescriptorKind.OBB),
    (random_walk(seed=5, n=64), DescriptorKind.OBB),
    (random_walk(seed=5, n=64), DescriptorKind.STRIP),
], ids=["walk6-obb", "walk5-n64-obb", "walk5-n64-strip"])
def test_lockstep_location_equals_one_jump_at_a_time(monkeypatch, traj, kind):
    jumps, flips = recorded_jumps(monkeypatch, traj, kind, 1e-3)
    period = tracker.tracking_period(kind)
    assert len(jumps) >= 3
    lockstep = tracker._edge_crossings(traj, kind, period,
                                       *(np.array(col) for col in zip(*jumps)))
    for k, j in enumerate(jumps):
        one = tracker._edge_crossings(traj, kind, period, np.array([j.t_lo]), np.array([j.t_hi]),
                                      np.array([j.pair_lo]), np.array([j.pair_hi]))
        for got, alone in zip(lockstep[:5], one[:5]):
            assert got[k] == alone[0]
        assert one[6] <= lockstep[6]  # rounds
    assert lockstep[3].all() and not lockstep[5]  # bracketed, and no probe rejected
    alone = [f for j in jumps for f in tracker._locate_flips(traj, kind, period, [j])]
    assert flips == alone and flips


def test_tracked_samples_score_the_optimum_exactly():
    # The tracker reports the cost of the candidate table entry it steered
    # to, so every sample's ratio is exactly 1, also where the steered box
    # candidate lies at alpha >= pi/2 and is tracked at alpha - pi/2.
    folded = 0
    for n in (8, 64):
        for seed in range(12):
            traj = random_walk(n=n, seed=seed, steps=20, duration=0.4)
            for kind in DescriptorKind:
                out = track_topological(traj, kind, 1e-3)
                assert (out.ratio == 1.0).all(), (n, seed, kind)
                if kind is DescriptorKind.OBB:
                    steered = out.beta == canonical_array(out.opt_alpha, BOX_PERIOD)
                    folded += int((steered & (out.opt_alpha >= math.pi / 2)).sum())
    assert folded
