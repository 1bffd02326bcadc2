import math

import numpy as np
import pytest

from kinostable.angles import angular_distances, canonical_array
from kinostable.costs import DescriptorKind, cost_pc, cost_strip, costs_at
from kinostable.errors import DegenerateInputError
from kinostable.geometry import Frame, Frames, convex_hull, diametric_box
from kinostable.scenarios import pc_fast_flip, pc_flip, random_walk
from kinostable.solvers import (
    _edge_candidates,
    block_optima,
    hull_edge_orientations,
    optimal,
    optimal_box_and_strip,
    optimal_pc,
    oracle_argmin,
    principal_axes,
)
from kinostable.trajectory import Trajectory

UNIT_SQUARE = Frame([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
BOX_FLIP_STATIC = [(0.0, 0.0), (2.0, 1.0), (0.75, 1.0), (1.25, 0.0)]
TILTED_ALPHA = 2.0 * math.atan(0.5)  # orientation of the second optimal box


def random_frame(rng, n_max=50):
    return rng.uniform(-10, 10, (int(rng.integers(3, n_max + 1)), 2))


class TestOptimalOBB:
    def test_unit_square(self):
        opt = optimal(UNIT_SQUARE, DescriptorKind.OBB)
        assert opt.cost == pytest.approx(1.0)
        assert opt.alpha == pytest.approx(0.0)
        assert opt.all_optima == pytest.approx((0.0, math.pi / 2))

    def test_box_flip_start_configuration(self):
        opt = optimal(Frame(BOX_FLIP_STATIC + [(2.0, 0.0)]), DescriptorKind.OBB)
        assert opt.alpha == pytest.approx(0.0, abs=1e-12)
        assert opt.cost == pytest.approx(2.0)

    def test_box_flip_end_configuration(self):
        opt = optimal(Frame(BOX_FLIP_STATIC + [(1.2, 1.6)]), DescriptorKind.OBB)
        assert opt.alpha == pytest.approx(TILTED_ALPHA)
        assert opt.cost == pytest.approx(2.0)

    def test_collinear_frame_costs_zero(self):
        opt = optimal(Frame([(0.0, 0.0), (2.0, 0.0)]), DescriptorKind.OBB)
        assert opt.cost == 0.0
        assert opt.alpha == 0.0
        tilted = optimal(Frame([(0.0, 0.0), (2.0, 2.0)]), DescriptorKind.OBB)
        assert tilted.cost == pytest.approx(0.0, abs=1e-12)
        assert tilted.alpha == pytest.approx(math.pi / 4)


class TestOptimalStrip:
    def test_unit_square_two_optima(self):
        opt = optimal(UNIT_SQUARE, DescriptorKind.STRIP)
        assert opt.cost == pytest.approx(1.0)
        assert opt.all_optima == pytest.approx((0.0, math.pi / 2))

    def test_collinear_segment(self):
        opt = optimal(Frame([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]), DescriptorKind.STRIP)
        assert opt.alpha == pytest.approx(math.pi / 4)
        assert opt.cost == pytest.approx(0.0, abs=1e-12)

    def test_flat_triangle_against_dense_grid(self):
        frame = Frame([(0.0, 0.0), (4.0, 0.0), (2.0, 1.0)])
        opt = optimal(frame, DescriptorKind.STRIP)
        oracle = oracle_argmin(frame, DescriptorKind.STRIP, 100_000)
        assert opt.alpha == pytest.approx(0.0, abs=1e-12)
        assert opt.cost == pytest.approx(1.0)
        assert opt.cost <= oracle.cost + 1e-12


class TestOptimalPC:
    def test_collinear_line(self):
        opt = optimal_pc(Frame([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]))
        assert opt.alpha == pytest.approx(0.0)
        assert opt.cost == 0.0
        assert not opt.isotropic

    def test_square_is_degenerate(self):
        opt = optimal_pc(UNIT_SQUARE)
        assert opt.isotropic
        assert opt.alpha == 0.0
        assert opt.cost == pytest.approx(1.0)
        grid = costs_at(UNIT_SQUARE.points, DescriptorKind.PC, np.linspace(0, math.pi, 1000))
        assert grid == pytest.approx(np.full_like(grid, opt.cost), abs=1e-12)

    def test_eigen_orientation_matches_dense_argmin(self):
        frame = Frame([(0.0, 0.0), (2.0, 1.0), (4.0, 2.0), (1.0, 3.0)])
        opt = optimal_pc(frame)
        oracle = oracle_argmin(frame, DescriptorKind.PC, 100_000)
        assert opt.cost <= oracle.cost + 1e-12
        assert min(
            abs(opt.alpha - oracle.alpha), math.pi - abs(opt.alpha - oracle.alpha)
        ) < math.pi / 100_000 * 2

    def test_eigen_is_argmin_everywhere(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, math.pi, 2048, endpoint=False)
        for _ in range(25):
            pts = random_frame(rng, n_max=30)
            opt = optimal_pc(Frame(pts))
            values = costs_at(pts, DescriptorKind.PC, grid)
            assert cost_pc(pts, opt.alpha) <= values.min() + 1e-9


class TestOracle:
    def test_unit_square_box_grid(self):
        oracle = oracle_argmin(UNIT_SQUARE, DescriptorKind.OBB, 1024)
        assert oracle.cost == pytest.approx(1.0, abs=1e-6)

    def test_refining_the_grid_never_hurts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            frame = Frame(random_frame(rng, n_max=20))
            coarse = oracle_argmin(frame, DescriptorKind.STRIP, 4)
            fine = oracle_argmin(frame, DescriptorKind.STRIP, 4096)
            assert fine.cost <= coarse.cost + 1e-15

    def test_oracle_close_to_exact_solver(self):
        rng = np.random.default_rng(13)
        frame = Frame(random_frame(rng, n_max=20))
        grid = 2048
        opt = optimal(frame, DescriptorKind.OBB)
        oracle = oracle_argmin(frame, DescriptorKind.OBB, grid)
        # grid miss is bounded by angle resolution times a cost Lipschitz bound
        diam = diametric_box(frame).diameter
        lipschitz = 4.0 * diam * diam
        assert oracle.cost - opt.cost <= 2.0 * (math.pi / grid) * lipschitz
        assert opt.cost <= oracle.cost + 1e-12


def test_solver_never_beaten_by_dense_grid():
    rng = np.random.default_rng(200)
    for _ in range(200):
        frame = Frame(random_frame(rng))
        box, strip = optimal_box_and_strip(frame)
        assert box.cost <= oracle_argmin(frame, DescriptorKind.OBB, 8192).cost + 1e-6
        assert strip.cost <= oracle_argmin(frame, DescriptorKind.STRIP, 8192).cost + 1e-6


def test_strip_at_box_orientation_upper_bounds_optimum():
    rng = np.random.default_rng(77)
    for _ in range(50):
        frame = Frame(random_frame(rng, n_max=25))
        box = optimal(frame, DescriptorKind.OBB)
        strip = optimal(frame, DescriptorKind.STRIP)
        assert strip.cost <= cost_strip(frame.points, box.alpha) + 1e-12


def test_edge_orientations_are_canonical_and_sorted():
    angles = hull_edge_orientations(UNIT_SQUARE)
    assert np.all(angles >= 0.0) and np.all(angles < math.pi)
    assert np.all(np.diff(angles) > 0)


def per_frame_axes(traj, times):
    """The principal axis of every interpolated frame, solved frame by frame."""
    solved = [block_optima(frames, (DescriptorKind.PC,))[0] for frames in traj.frame_blocks(times)]
    return (np.concatenate([pc.alpha for pc in solved]),
            np.concatenate([pc.isotropic for pc in solved]))


@pytest.mark.parametrize("traj, dt", [(pc_fast_flip(25.0), 1e-3), (pc_fast_flip(100.0), 1e-2),
                                      (pc_flip(), 1e-3)]
                         + [(random_walk(seed=seed), 1e-3) for seed in range(4)],
                         ids=["fast-flip-25", "fast-flip-100", "pc-flip"]
                         + [f"walk{seed}" for seed in range(4)])
def test_segment_moment_axes_match_per_frame_solves(traj, dt):
    times = traj.sample_times(dt)
    axes_alpha, axes_isotropic, _ = principal_axes(traj, times)
    alpha, isotropic = per_frame_axes(traj, times)
    assert angular_distances(axes_alpha, alpha).max() <= 1e-10
    assert np.array_equal(axes_isotropic, isotropic)


def test_fast_flip_axes_need_no_per_frame_solve():
    traj = pc_fast_flip(100.0)
    _, _, fallback = principal_axes(traj, traj.sample_times(1e-3))
    assert len(fallback) == 0


def test_pc_flip_falls_back_only_next_to_its_isotropic_instant():
    # the cloud's width 2 - 1.5 t passes its height 1 at t = 2/3
    traj = pc_flip()
    times = traj.sample_times(1e-3)
    axes_alpha, axes_isotropic, fallback = principal_axes(traj, times)
    assert {666, 667} <= set(fallback.tolist())  # the samples around t = 2/3
    assert np.abs(times[fallback] - 2.0 / 3.0).max() < 5e-3
    alpha, isotropic = per_frame_axes(traj, times[fallback])
    assert np.array_equal(axes_alpha[fallback], alpha)
    assert np.array_equal(axes_isotropic[fallback], isotropic)


def test_points_that_coincide_at_a_sample_are_rejected_as_frame_by_frame():
    # two points swap places through each other, meeting at t = 0.5
    start = np.array([(0.0, 0.0), (1.0, 0.0)])
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([start, start[::-1]]))
    times = traj.sample_times(0.1)
    with pytest.raises(DegenerateInputError) as per_frame:
        per_frame_axes(traj, times)
    with pytest.raises(DegenerateInputError) as segments:
        principal_axes(traj, times)
    assert str(segments.value) == str(per_frame.value)


def test_one_keyframe_is_solved_frame_by_frame():
    points = np.array([(0.0, 0.0), (2.0, 0.5), (0.5, 1.0)])
    traj = Trajectory(np.array([0.0]), points[None])
    times = np.array([0.0, 0.5, 1.0])
    axes_alpha, axes_isotropic, fallback = principal_axes(traj, times)
    assert fallback.tolist() == [0, 1, 2]
    alpha, isotropic = per_frame_axes(traj, times)
    assert np.array_equal(axes_alpha, alpha) and np.array_equal(axes_isotropic, isotropic)
    assert axes_alpha[0] == optimal_pc(points).alpha


def edge_orientations(points: np.ndarray) -> np.ndarray:
    """A frame's hull-edge orientations, in hull order."""
    hull = convex_hull(points)
    vec = np.roll(hull, -1, axis=0) - hull
    return canonical_array(np.arctan2(vec[:, 1], vec[:, 0]))


def zero_edge_signs(points: np.ndarray) -> set[bool]:
    """The sign bits of a frame's hull-edge orientations that are 0."""
    angles = edge_orientations(points)
    return set(np.signbit(angles[angles == 0.0]).tolist())


def twenty_gon(head_y: float, flat_top: bool = True) -> np.ndarray:
    """A 20-gon whose bottom edge runs from y = 0.0 to y = ``head_y``
    counterclockwise, with a horizontal top edge if ``flat_top``."""
    theta = -0.5 * math.pi + (np.arange(20) + 0.5) * (math.pi / 10)
    points = np.column_stack([np.cos(theta), np.sin(theta) - math.sin(theta[0])])
    points[19, 1], points[0, 1] = 0.0, head_y
    points[9, 1] = points[10, 1] = max(points[9, 1], points[10, 1])
    if not flat_top:
        points[10, 1] += 0.01
    return points


def assert_block_matches_one_frame_calls(frames: np.ndarray) -> set:
    """Compare a block's candidates with one-frame calls, bitwise, and a
    first candidate 0 with the one ``np.unique`` sorts first; the signs of
    the frames' first candidates where they are 0."""
    angles, pairs, counts = _edge_candidates(Frames(frames))
    signs = set()
    for b, points in enumerate(frames):
        one, one_pairs, (k,) = _edge_candidates(Frames(points[None]))
        assert counts[b] == k
        assert angles[b, :k].tobytes() == one[0, :k].tobytes()  # bitwise, -0.0 included
        assert (pairs[b, :k] == one_pairs[0, :k]).all()
        if angles[b, 0] == 0.0:
            assert angles[b, 0].tobytes() == np.unique(edge_orientations(points))[0].tobytes()
        signs.add(bool(np.signbit(angles[b, 0])) if angles[b, 0] == 0.0 else None)
    return signs


def test_signed_zero_candidates_in_a_block_match_one_frame_calls():
    # each frame's orientation 0 comes from a bottom edge (-0.0 where its
    # head's y is -0.0) and a top edge (0.0); hull sizes differ, so the
    # frames' edges sit at different offsets of the block's flat arrays
    frames = np.array([
        [(0.3, 0.2), (1.0, 0.1), (0.7, 1.0), (0.1, 0.9), (0.5, 0.5)],
        [(0.0, 0.0), (1.0, -0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)],
        [(0.0, -0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)],
        [(0.0, 0.0), (2.0, -0.0), (2.5, 1.0), (1.0, 2.0), (-0.5, 1.0)],
        [(0.0, 0.0), (3.0, -0.0), (3.0, 1.0), (0.0, 1.0), (1.0, 1.0)],
    ])
    assert assert_block_matches_one_frame_calls(frames) == {None, False, True}
    # 20-gons whose zero orientations carry +0.0 only, -0.0 only, both
    # signs, or none, side by side: with 20 candidates np.unique's sort no
    # longer keeps the hull order of 0.0 and -0.0, so only the both-sign
    # frames need it
    mixed = np.array([twenty_gon(0.0), twenty_gon(-0.0, flat_top=False), twenty_gon(-0.0),
                      twenty_gon(0.0, flat_top=False), twenty_gon(0.01, flat_top=False),
                      twenty_gon(-0.0)[::-1]])
    assert [zero_edge_signs(points) for points in mixed] == [
        {False}, {True}, {False, True}, {False}, set(), {False, True}]
    assert all(len(convex_hull(points)) == 20 for points in mixed)
    both = edge_orientations(mixed[2])
    assert np.signbit(both[both == 0.0][0]) != np.signbit(np.unique(both)[0])
    assert assert_block_matches_one_frame_calls(mixed) == {None, False, True}
