import math
import threading

import numpy as np
import pytest

from kinostable.angles import angular_distance
from kinostable.chasing import normalize_trajectory
from kinostable.errors import DomainError
from kinostable.geometry import diametric_boxes
from kinostable.ratios import max_ratio, ratio
from kinostable import verify
from kinostable.scenarios import (
    obb_lower_bound,
    pc_fast_flip,
    pc_flip,
    random_walk,
    stateless_disk,
)
from kinostable.costs import DescriptorKind
from kinostable.solvers import block_optima
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory
from kinostable.verify import (
    SuiteOptions,
    SuiteRun,
    _parallel_map,
    _program_grid_max,
    _program_objective,
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


def dense_program_grid_max(a_lo, a_hi, b_lo, b_hi, al_lo, al_hi, grid):
    """Reference for ``_program_grid_max``: the objective on the whole (a, b) mesh
    at each angle, infeasible points masked to -inf, first argmax kept."""
    best_val, best_arg = -math.inf, (math.nan,) * 3
    a_grid = np.linspace(a_lo, a_hi, grid)
    b_grid = np.linspace(b_lo, b_hi, grid)
    aa, bb = np.meshgrid(a_grid, b_grid, indexing="ij")
    for alpha in np.linspace(al_lo, al_hi, grid):
        feasible = (bb >= aa) & (bb <= aa * math.cos(alpha) + math.sin(alpha) / aa)
        if not feasible.any():
            continue
        vals = np.where(feasible, _program_objective(aa, bb, alpha), -math.inf)
        i = int(np.argmax(vals))
        v = float(vals.flat[i])
        if v > best_val:
            best_val = v
            best_arg = (float(aa.flat[i]), float(bb.flat[i]), float(alpha))
    return best_val, best_arg


A_HI = math.sqrt(1.0 + SQRT2) + 1e-9


class TestProgram:
    @pytest.mark.parametrize("window", [
        pytest.param((1.0, A_HI, 1.0, 2.2, math.pi / 4, math.pi / 2, g), id=f"full-{g}")
        for g in (64, 65, 96, 129)
    ] + [
        # the refine window around the ridge a = b = sqrt(2), alpha = atan(4/3)
        pytest.param((1.41, 1.418, 1.41, 1.418, 0.925, 0.929, 48), id="ridge"),
        # alpha near pi/2 bounds b by about 1/a < a: the upper angles have no feasible point
        pytest.param((1.2, 1.6, 1.2, 1.6, 1.2, math.pi / 2, 48), id="empty-angles"),
    ])
    def test_feasible_band_scan_equals_the_dense_masked_scan(self, window):
        val, arg = _program_grid_max(*window)
        assert val > -math.inf
        assert (val, arg) == dense_program_grid_max(*window)

    def test_scan_without_a_feasible_point(self):
        window = (1.5, 1.6, 1.0, 1.4, 0.8, 1.0, 48)  # every b below every a
        for val, arg in (_program_grid_max(*window), dense_program_grid_max(*window)):
            assert val == -math.inf
            assert len(arg) == 3 and all(math.isnan(x) for x in arg)

    def test_global_max_stays_at_five_quarters(self):
        res = verify_obb_program(grid=96)
        assert res.max_value <= 1.25 + 1e-3
        assert res.max_value >= 1.2  # the grid does find the ridge

    def test_small_angle_branch_corner(self):
        res = verify_obb_program(grid=64, refine_rounds=0)
        assert res.small_angle_max == pytest.approx(0.5 + SQRT2 / 2.0, abs=1e-9)
        c, alpha = res.small_angle_argmax
        assert c == pytest.approx(SQRT2)
        assert alpha == pytest.approx(math.pi / 4)

    def test_argmax_is_feasible(self):
        res = verify_obb_program(grid=96)
        a, b, alpha = res.argmax
        assert 1.0 <= a <= b
        assert math.pi / 4 < alpha < math.pi / 2
        assert b <= a * math.cos(alpha) + math.sin(alpha) / a + 1e-9

    def test_nested_grids_are_monotone(self):
        coarse = verify_obb_program(grid=65, refine_rounds=0)
        fine = verify_obb_program(grid=129, refine_rounds=0)
        assert coarse.max_value <= fine.max_value + 1e-12

    def test_rejects_tiny_grids(self):
        from kinostable.errors import DomainError

        with pytest.raises(DomainError):
            verify_obb_program(grid=8)


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


def test_bound_empirics_match_the_scalar_loop():
    corpus = SuiteRun(SuiteOptions(walks=4)).normalized
    results = verify_bound_empirics(corpus)
    reference = scalar_bound_empirics(corpus)
    for key, (violations, worst, witness) in reference.items():
        assert (results[key].violations, results[key].worst_margin, results[key].witness) \
            == (violations, worst, witness), key


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


def anchor_diameter_by_point_roots(traj, dt=1e-3, anchor=0):
    """``min_anchor_diameter`` as it was written before: the root of every
    point's squared distance, summed over the (dx, dy) axis."""
    worst = math.inf
    for frames in traj.frame_blocks(traj.sample_times(dt), check=False):
        pts = frames.points
        d = np.sqrt(((pts - pts[:, anchor:anchor + 1]) ** 2).sum(axis=2)).max(axis=1)
        worst = min(worst, float(d.min()))
    return worst


@pytest.mark.parametrize("traj, dt", [(pc_fast_flip(100.0), 1e-2)]
                         + [(random_walk(seed=seed), 1e-3) for seed in range(5)],
                         ids=["pc-fast-flip"] + [f"walk{seed}" for seed in range(5)])
def test_min_anchor_diameter_equals_point_roots(traj, dt):
    assert min_anchor_diameter(traj, dt) == anchor_diameter_by_point_roots(traj, dt)
    assert min_anchor_diameter(traj, dt, anchor=3) == anchor_diameter_by_point_roots(traj, dt, 3)


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
