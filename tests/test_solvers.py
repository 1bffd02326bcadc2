import math

import numpy as np
import pytest

from kinostable.costs import DescriptorKind, cost_pc, cost_strip, costs_at
from kinostable.geometry import Frame, diametric_box
from kinostable.solvers import (
    hull_edge_orientations,
    optimal,
    optimal_box_and_strip,
    optimal_pc,
    oracle_argmin,
)

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
