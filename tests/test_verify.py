import math
import threading

import numpy as np
import pytest

from kinostable.angles import angular_distance
from kinostable.chasing import normalize_trajectory
from kinostable.errors import DomainError
from kinostable.geometry import diametric_boxes
from kinostable.ratios import max_ratio, ratios
from kinostable import verify
from kinostable.scenarios import (
    obb_lower_bound,
    pc_fast_flip,
    pc_flip,
    random_walk,
    stateless_disk,
    strip_lower_bound,
)
from kinostable.costs import DescriptorKind
from kinostable.solvers import block_optima
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory
from kinostable.verify import (
    SuiteOptions,
    SuiteRun,
    _parallel_map,
    _program_objective,
    diametric_samples,
    forced_orientation_winding,
    intermediate_box_area,
    measured_axis_speed,
    min_anchor_diameter,
    swept_box_peak,
    verify_bound_empirics,
    verify_obb_program,
    verify_trig_bounds,
)

SQRT2 = math.sqrt(2.0)


class TestRatioPolicy:
    def test_plain_quotient(self):
        assert ratios(np.array([3.0]), np.array([2.0]), 1e-12).tolist() == [1.5]

    def test_zero_over_zero_is_perfect(self):
        assert ratios(np.array([0.0, 5e-13]), np.array([0.0, 1e-13]), 1e-12).tolist() == [1.0, 1.0]

    def test_missing_a_zero_optimum_is_infinite(self):
        assert ratios(np.array([0.5]), np.array([0.0]), 1e-12).tolist() == [math.inf]

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("scenario, kind, claim, tol", [
        (obb_lower_bound, DescriptorKind.OBB, 1.25, 1e-3),
        (strip_lower_bound, DescriptorKind.STRIP, SQRT2, 1e-3),
        (pc_flip, DescriptorKind.PC, 1.0, 1e-6),
    ], ids=["box", "strip", "axis"])
    def test_forced_flip_ratios_at_every_scale(self, scenario, kind, claim, tol, scale):
        # What counts as a zero optimum is relative to the frame's size, so
        # the box areas of about 1e-16 at scale 1e-8 still flip at 5/4.
        traj = scenario()
        out = track_topological(Trajectory(traj.times, traj.positions * scale), kind, 1e-3)
        assert len(out.flips) == 1
        assert max_ratio(out) == pytest.approx(claim, abs=tol)

    def test_scale_invariance_of_run_ratios(self):
        traj = obb_lower_bound()
        scaled = Trajectory(traj.times, traj.positions * 7.5)
        a = max_ratio(track_topological(traj, DescriptorKind.OBB, 5e-3))
        b = max_ratio(track_topological(scaled, DescriptorKind.OBB, 5e-3))
        assert a == pytest.approx(b, rel=1e-9)


A_HI = math.sqrt(1.0 + SQRT2) + 1e-9
DOMAIN_LO = np.array([1.0, 1.0, math.pi / 4])
DOMAIN_HI = np.array([A_HI, 2.2, math.pi / 2])


def feasible_points(rng, count):
    """Seeded feasible (a, b, alpha) rows, half of them on b = a cos(alpha) + sin(alpha)/a."""
    a = rng.uniform(1.0, A_HI, count)
    alpha = rng.uniform(math.pi / 4, math.pi / 2, count)
    b_max = np.minimum(2.2, a * np.cos(alpha) + np.sin(alpha) / a)
    keep = b_max >= a
    a, alpha, b_max = a[keep], alpha[keep], b_max[keep]
    b = np.where(rng.random(len(a)) < 0.5, b_max, rng.uniform(a, b_max))
    return np.column_stack([a, b, alpha])


class TestProgram:
    def test_box_bound_covers_the_objective(self):
        rng = np.random.default_rng(7)
        points = feasible_points(rng, 200_000)
        # a box around each point, widths 1e-9 to 1 of the domain on each axis;
        # a quarter of them are the point itself, where only rounding separates
        # the bound from the objective (without outward rounding 7 % of those fail)
        width = (DOMAIN_HI - DOMAIN_LO) * 10.0 ** rng.uniform(-9.0, 0.0, points.shape)
        width[: len(points) // 4] = 0.0
        share = rng.random(points.shape)
        lo = np.maximum(DOMAIN_LO, points - share * width)
        hi = np.minimum(DOMAIN_HI, points + (1.0 - share) * width)
        margin = verify._box_bound(lo, hi) - _program_objective(*points.T)
        assert len(points) > 50_000
        assert margin.min() >= 0.0

    def test_global_max_stays_at_five_quarters(self):
        # the maximizer a = b = sqrt(2), cos alpha = 3/5 makes both terms 5/4,
        # with b = a cos(alpha) + sin(alpha)/a tight
        res = verify_obb_program()
        assert 1.25 - 1e-9 <= res.witness <= 1.25 <= res.bound <= 1.25 + 1e-12
        assert res.witness_at == pytest.approx((SQRT2, SQRT2, math.acos(0.6)), abs=1e-9)
        assert res.boxes < verify._PROGRAM_BOXES

    def test_small_angle_branch_corner(self):
        res = verify_obb_program()
        assert res.small_angle_max == 1.2071067811865475
        assert res.small_angle_max == pytest.approx(0.5 + SQRT2 / 2.0, abs=1e-15)
        assert res.small_angle_argmax == (SQRT2, math.pi / 4)

    def test_argmax_is_feasible(self):
        res = verify_obb_program()
        a, b, alpha = res.witness_at
        assert 1.0 <= a <= b
        assert math.pi / 4 < alpha < math.pi / 2
        assert b <= a * np.cos(alpha) + np.sin(alpha) / a  # as the search tests it
        assert res.witness == _program_objective(a, b, alpha)

    def test_a_box_without_a_feasible_point_has_no_bound(self):
        lo, hi = np.array([[1.5, 1.0, 0.8]]), np.array([[1.6, 1.4, 1.0]])  # every b below every a
        assert verify._box_bound(lo, hi).tolist() == [-math.inf]

    def test_the_claim_fails_above_its_cap(self, monkeypatch):
        claim = next(c for c in verify.CLAIMS if c.claim_id == "box-sweep-program-max")
        run = SuiteRun(SuiteOptions(walks=1))
        assert claim.evaluate(run).passed
        monkeypatch.setattr(verify, "PROGRAM_CAP", 1.2499)
        check = claim.evaluate(run)
        assert (check.expected, check.passed) == ("<= 1.2499", False)

    def test_a_nan_bound_fails_the_claim_without_hanging(self, monkeypatch):
        monkeypatch.setattr(verify, "_box_bound", lambda lo, hi: np.full(len(lo), math.nan))
        res = verify_obb_program()
        assert math.isnan(res.bound)
        assert res.boxes <= verify._PROGRAM_BOXES
        claim = next(c for c in verify.CLAIMS if c.claim_id == "box-sweep-program-max")
        check = claim.evaluate(SuiteRun(SuiteOptions(walks=1)))
        assert (check.computed, check.passed) == ("nan", False)


class TestIntermediateBoxArea:
    def test_zero_turn_reproduces_first_box(self):
        for a, b, alpha in [(1.0, 1.2, 0.4), (1.3, 1.4, 0.7), (2.0, 2.0, 1.2)]:
            assert intermediate_box_area(a, b, alpha, 0.0) == pytest.approx(1.0)

    def test_known_halfway_value(self):
        value = intermediate_box_area(1.0, SQRT2, math.pi / 4, math.pi / 8)
        assert value == pytest.approx(0.5 + SQRT2 / 2.0)
        assert value < 1.25

    def test_maximum_sits_at_half_angle(self):
        # finite differences change sign exactly around theta = alpha/2
        a, b, alpha = 1.1, 1.3, 0.9
        h = 1e-6
        half = alpha / 2.0
        before = intermediate_box_area(a, b, alpha, half - h)
        peak = intermediate_box_area(a, b, alpha, half)
        after = intermediate_box_area(a, b, alpha, half + h)
        assert peak >= before and peak >= after
        grid = np.linspace(0.0, alpha, 501)
        vals = [intermediate_box_area(a, b, alpha, t) for t in grid]
        assert grid[int(np.argmax(vals))] == pytest.approx(half, abs=alpha / 500)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 1.0, 0.5, 0.1),
            (1.0, -1.0, 0.5, 0.1),
            (1.0, 1.0, 0.0, 0.0),
            (1.0, 1.0, math.pi / 2, 0.1),
            (1.0, 1.0, 0.5, 0.6),
            (1.0, 1.0, 0.5, -0.01),
        ],
    )
    def test_rejects_out_of_domain(self, args):
        with pytest.raises(DomainError):
            intermediate_box_area(*args)


class TestSweptBoxPeak:
    @pytest.mark.parametrize("a, b, alpha", [
        (1.1, 1.3, 0.9),
        (1.0, SQRT2, math.pi / 4),
        (1.414074, 1.414214, 0.927256),  # near the program's argmax
        (2.0, 2.0, 1.2),
    ])
    def test_peak_is_the_maximum_over_the_sweep(self, a, b, alpha):
        thetas = np.append(np.linspace(0.0, alpha, 2001), alpha / 2.0)
        best = max(intermediate_box_area(a, b, alpha, float(t)) for t in thetas)
        assert swept_box_peak(a, b, math.cos(alpha)) == pytest.approx(best, abs=1e-12)

    def test_program_terms_equal_their_written_out_forms(self):
        a, b, alpha = np.meshgrid(np.linspace(1.0, 1.6, 37), np.linspace(1.0, 2.2, 41),
                                  np.linspace(1e-9, math.pi / 2, 43), indexing="ij")
        turn_ccw = (a + b) ** 2 / (2.0 * a * b * (1.0 + np.cos(alpha)))
        turn_cw = (1.0 + a * b) ** 2 / (2.0 * a * b * (1.0 + np.sin(alpha)))
        small = (1.0 + a) ** 2 / (2.0 * a * (1.0 + np.cos(alpha)))
        assert np.array_equal(swept_box_peak(a, b, np.cos(alpha)), turn_ccw)
        assert np.array_equal(swept_box_peak(1.0, a * b, np.sin(alpha)), turn_cw)
        assert np.array_equal(swept_box_peak(1.0, a, np.cos(alpha)), small)
        assert np.array_equal(_program_objective(a, b, alpha), np.minimum(turn_ccw, turn_cw))


class TestTrigBounds:
    def test_no_violations_in_bulk_sample(self):
        results = verify_trig_bounds(samples=20_000, seed=5)
        for name, res in results.items():
            assert res.violations == 0, name
            assert res.worst_margin <= 1e-12

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(DomainError):
            verify_trig_bounds(samples=samples)

    def test_equality_edge_cases(self):
        assert math.sin(1.0 * math.asin(1.0)) == pytest.approx(1.0)
        assert math.sin(2.0 * math.asin(0.0)) == 0.0


class TestBoundEmpirics:
    def test_static_trajectory_has_no_motion(self):
        pts = np.array([(0.0, 0.0), (1.3, 0.0), (0.6, 0.4)])
        traj = Trajectory(np.array([0.0, 0.2]), np.stack([pts, pts]))
        results = verify_bound_empirics([("static", diametric_samples(traj, 0.01))], dt=0.01)
        assert results["pair-turn"].violations == 0
        assert results["aspect-drop"].violations == 0

    def test_flip_scenario_within_bounds(self):
        normalized, _, _ = normalize_trajectory(obb_lower_bound())
        results = verify_bound_empirics([("obb-lb", diametric_samples(normalized, 2e-3))],
                                        dt=2e-3)
        assert results["pair-turn"].violations == 0
        assert results["aspect-drop"].violations == 0

    def test_random_walks_within_bounds(self):
        named = [
            (f"walk-{s}", diametric_samples(normalize_trajectory(random_walk(seed=s, steps=25))[0],
                                            2e-3))
            for s in range(3)
        ]
        results = verify_bound_empirics(named, dt=2e-3)
        assert results["pair-turn"].violations == 0
        assert results["aspect-drop"].violations == 0


def scalar_bound_empirics(named_trajectories, dt=1e-3, window_steps=(1, 2, 5, 10)):
    """The per-(sample, window) loop verify_bound_empirics replaced, with
    both bounds written out, kept as the reference for the array version."""
    found = {"pair-turn": [0, -math.inf, None], "aspect-drop": [0, -math.inf, None]}
    for name, traj in named_trajectories:
        times = traj.sample_times(dt)
        boxes = [diametric_boxes(frames) for frames in traj.frame_blocks(times)]
        alphas = np.concatenate([b.alpha for b in boxes])
        aspects = np.concatenate([b.aspect for b in boxes])
        for k in window_steps:
            if k >= len(times):
                continue
            elapsed = k * dt
            for i in range(len(times) - k):
                z = float(aspects[i])
                margins = {}
                if elapsed <= (1.0 - z) / (2.0 + 2.0 * z):
                    measured = angular_distance(float(alphas[i]), float(alphas[i + k]))
                    arg = z + (elapsed + 4.0 * dt) * (2.0 + 2.0 * z)
                    margins["pair-turn"] = measured - math.asin(min(arg, 1.0))
                half = math.sin(0.5 * math.asin(z))
                padded = elapsed + 4.0 * dt
                if padded <= half / 2.0:
                    drop = z - float(aspects[i + k])
                    margins["aspect-drop"] = drop - (z - (half - 2.0 * padded) / (1.0 + 2.0 * padded))
                for key, margin in margins.items():
                    entry = found[key]
                    if margin > entry[1]:
                        entry[1:] = margin, (name, float(times[i]), z, elapsed)
                    if margin > 0.0:
                        entry[0] += 1
    return found


def test_bound_empirics_match_the_scalar_loop(monkeypatch):
    run = SuiteRun(SuiteOptions(walks=4))
    reference = scalar_bound_empirics(run.normalized)
    direct = verify_bound_empirics([(name, diametric_samples(t)) for name, t in run.normalized])
    # the suite samples only the trajectory it does not chase; the rest come from the chase runs
    sampled = []
    monkeypatch.setattr(verify, "diametric_samples",
                        lambda traj, dt: sampled.append(traj) or diametric_samples(traj, dt))
    for results in (direct, run.empirics):
        for key, (violations, worst, witness) in reference.items():
            assert (results[key].violations, results[key].worst_margin, results[key].witness) \
                == (violations, worst, witness), key
    assert len(sampled) == 1 and sampled[0] is dict(run.normalized)["pc-flip"]


def test_measured_axis_speed_matches_the_scalar_loop():
    traj = pc_flip()
    times = traj.sample_times(1e-3)
    alphas = np.concatenate([block_optima(frames, (DescriptorKind.PC,))[0].alpha
                             for frames in traj.frame_blocks(times)]).tolist()
    worst = 0.0
    for i in range(len(alphas) - 1):
        step = angular_distance(alphas[i], alphas[i + 1])
        worst = max(worst, step / (times[i + 1] - times[i]))
    assert measured_axis_speed(traj) == worst


def anchor_diameter_by_point_roots(traj, dt):
    """``min_anchor_diameter`` as it was written before: the root of every
    point's squared distance from point 0, summed over the (dx, dy) axis,
    with every point interpolated."""
    worst = math.inf
    for frames in traj.frame_blocks(traj.sample_times(dt), check=False):
        pts = frames.points
        d = np.sqrt(((pts - pts[:, :1]) ** 2).sum(axis=2)).max(axis=1)
        worst = min(worst, float(d.min()))
    return worst


def _repeated_walk():
    """A walk whose points 0, 2 and 7 repeat next to themselves, and 0 and 1
    again further on."""
    walk = random_walk(seed=0)
    return Trajectory(walk.times, walk.positions[:, [0, 0, 1, 2, 2, 2, 3, 0, 4, 5, 1, 6, 7, 7]])


def _signed_zero():
    """Points 0 and 1 follow equal paths, but point 1's x is -0.0 where
    point 0's is 0.0, so the two interpolate to zeros of either sign."""
    x = np.array([[0.0, 0.0], [-0.0, -0.0], [3.0, 1.0], [-1.0, -1.0]])
    y = np.array([[2.0, -1.0], [2.0, -1.0], [0.0, 0.5], [-1.0, -0.0]])
    return Trajectory(np.array([0.0, 1.0]), np.stack([x, y], axis=2).transpose(1, 0, 2))


@pytest.mark.parametrize("traj, dt", [(pc_fast_flip(100.0), 1e-2)]
                         + [(random_walk(seed=seed), 1e-3) for seed in range(5)]
                         + [(pc_fast_flip(100.0), 1e-3), (_repeated_walk(), 1e-3),
                            (_signed_zero(), 1e-3)],
                         ids=["pc-fast-flip"] + [f"walk{seed}" for seed in range(5)]
                         + ["pc-fast-flip-dt1e-3", "repeated-walk", "signed-zero"])
def test_min_anchor_diameter_equals_point_roots(traj, dt):
    # Point 0 heads a run of equal paths on the repeated walk, and has a
    # -0.0 twin, point 1, on the signed-zero input.
    assert min_anchor_diameter(traj, dt) == anchor_diameter_by_point_roots(traj, dt)


def test_min_anchor_diameter_interpolates_one_point_per_path(monkeypatch):
    # the fast flip's 61,498 points follow 4 paths: two anchors, two clumps
    traj, shapes = pc_fast_flip(100.0), []
    real = Trajectory.positions_at_times

    def counted(self, times):
        out = real(self, times)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(Trajectory, "positions_at_times", counted)
    min_anchor_diameter(traj, 1e-3)
    assert traj.n_points == 61_498
    assert sum(shape[0] for shape in shapes) == len(traj.sample_times(1e-3)) == 1001
    assert {shape[1:] for shape in shapes} == {(4, 2)}


def test_forced_orientation_double_cover_small():
    assert abs(forced_orientation_winding(n=5, samples=512)) == 2


def test_forced_orientation_frames_are_the_stateless_disks(monkeypatch):
    # the sweep builds its frames a block at a time; each must be bitwise
    # the checked frame stateless_disk builds one at a time
    solved = []
    monkeypatch.setattr(verify, "block_optima",
                        lambda frames, kinds: solved.append(frames.points) or
                        block_optima(frames, kinds))
    forced_orientation_winding(n=7, samples=300)
    one_by_one = [stateless_disk(7, 1.0, 2.0 * math.pi * k / 300).points for k in range(300)]
    assert np.concatenate(solved).tobytes() == np.stack(one_by_one).tobytes()
    with pytest.raises(DomainError):
        forced_orientation_winding(n=2)


def test_parallel_map_is_an_ordered_map_on_the_calling_thread():
    caller = threading.get_ident()
    seen = []

    def fn(x):
        seen.append(threading.get_ident())
        return x * x

    assert _parallel_map(fn, list(range(8))) == [x * x for x in range(8)]
    assert seen == [caller] * 8
