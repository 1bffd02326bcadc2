import io
import math

import numpy as np
import pytest

from kinostable.chasing import chase
from kinostable.costs import (
    DescriptorKind,
    candidate_costs,
    cost,
    cost_obb,
    cost_pc,
    cost_strip,
    costs_at,
)
from kinostable.errors import DomainError
from kinostable.geometry import Frames, extent
from kinostable.runio import write_chase_csv
from kinostable.scenarios import obb_lower_bound
from kinostable.solvers import block_optima, optimal
from kinostable.tracker import track_topological

UNIT_SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
COLLINEAR = np.array([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
# static part of the forced box-flip construction: two area-2 optimal boxes
BOX_FLIP_STATIC = np.array([(0.0, 0.0), (2.0, 1.0), (0.75, 1.0), (1.25, 0.0)])


def random_frames(count, seed=0, n_max=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(-5, 5, (rng.integers(3, n_max), 2))


class TestCostPC:
    def test_zero_on_its_own_line(self):
        assert cost_pc(COLLINEAR, 0.0) == 0.0

    def test_perpendicular_line(self):
        # distances 1, 0, 1 from the vertical line through the centroid
        assert cost_pc(COLLINEAR, math.pi / 2) == pytest.approx(2.0)

    def test_square_is_isotropic(self):
        grid = np.linspace(0.0, math.pi, 1000, endpoint=False)
        values = costs_at(UNIT_SQUARE, DescriptorKind.PC, grid)
        assert values == pytest.approx(np.full_like(values, 1.0), abs=1e-12)

    def test_half_turn_periodic(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3, 3, (10, 2))
        for alpha in rng.uniform(0, math.pi, 20):
            assert cost_pc(pts, alpha) == pytest.approx(
                cost_pc(pts, alpha + math.pi), rel=1e-12
            )

    def test_continuous_in_orientation(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, (15, 2))
        grid = np.linspace(0.0, math.pi, 4096)
        values = costs_at(pts, DescriptorKind.PC, grid)
        spread = (pts - pts.mean(axis=0)).max() - (pts - pts.mean(axis=0)).min()
        step = grid[1] - grid[0]
        assert np.abs(np.diff(values)).max() <= step * spread**2 * 4


class TestCostOBB:
    def test_unit_square_axis_aligned(self):
        assert cost_obb(UNIT_SQUARE, 0.0) == pytest.approx(1.0)

    def test_unit_square_diagonal(self):
        assert cost_obb(UNIT_SQUARE, math.pi / 4) == pytest.approx(2.0)

    def test_box_flip_static_points(self):
        assert cost_obb(BOX_FLIP_STATIC, 0.0) == pytest.approx(2.0)

    def test_quarter_turn_periodic(self):
        for pts in random_frames(20, seed=4):
            alpha = float(np.random.default_rng(9).uniform(0, math.pi))
            assert cost_obb(pts, alpha) == pytest.approx(
                cost_obb(pts, alpha + math.pi / 2), rel=1e-12
            )


class TestCostStrip:
    def test_unit_square(self):
        assert cost_strip(UNIT_SQUARE, 0.0) == pytest.approx(1.0)
        assert cost_strip(UNIT_SQUARE, math.pi / 4) == pytest.approx(math.sqrt(2.0))

    def test_collinear_frame_has_zero_width_strip(self):
        assert cost_strip(COLLINEAR, 0.0) == 0.0

    def test_strip_is_box_over_extent(self):
        rng = np.random.default_rng(12)
        for pts in random_frames(30, seed=12):
            alpha = float(rng.uniform(0, math.pi))
            e = extent(pts, alpha)
            if e > 1e-12:
                assert cost_strip(pts, alpha) == pytest.approx(
                    cost_obb(pts, alpha) / e, rel=1e-12
                )


def test_costs_invariant_under_rigid_motion():
    rng = np.random.default_rng(8)
    for pts in random_frames(20, seed=8):
        alpha = float(rng.uniform(0, math.pi))
        rot = float(rng.uniform(0, 2 * math.pi))
        shift = rng.uniform(-50, 50, 2)
        R = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
        moved = pts @ R.T + shift
        for kind in DescriptorKind:
            assert cost(moved, kind, alpha + rot) == pytest.approx(
                cost(pts, kind, alpha), rel=1e-9, abs=1e-9
            )


def test_vectorized_costs_match_scalar():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-2, 2, (17, 2))
    angles = rng.uniform(0, math.pi, 64)
    for kind in DescriptorKind:
        vec = costs_at(pts, kind, angles)
        scal = np.array([cost(pts, kind, float(a)) for a in angles])
        assert vec == pytest.approx(scal, rel=1e-12, abs=1e-12)


# Every entry point that takes a kind, called with one that does not exist.
UNKNOWN_KIND = {
    "DescriptorKind": lambda: DescriptorKind("box"),
    "optimal": lambda: optimal(UNIT_SQUARE, "box"),
    "cost": lambda: cost(UNIT_SQUARE, "box", 0.1),
    "costs_at": lambda: costs_at(UNIT_SQUARE, "box", np.array([0.1])),
    "block_optima": lambda: block_optima(Frames(UNIT_SQUARE[None]), ("box",)),
    "candidate_costs": lambda: candidate_costs(UNIT_SQUARE[None], ("box",), np.array([[0.1]])),
    "track_topological": lambda: track_topological(obb_lower_bound(), "box", 1e-2),
    "chase": lambda: chase(obb_lower_bound(), dt=1e-2, kinds=("box",)),
    "write_chase_csv": lambda: write_chase_csv(io.StringIO(), chase(obb_lower_bound(), dt=1e-2),
                                               "box"),
}


@pytest.mark.parametrize("name", UNKNOWN_KIND)
def test_an_unknown_kind_is_a_domain_error(name):
    message = "^unknown descriptor kind 'box'; choose from pc, obb, strip$"
    with pytest.raises(DomainError, match=message):
        UNKNOWN_KIND[name]()
