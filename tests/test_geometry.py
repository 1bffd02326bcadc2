import math

import numpy as np
import pytest

from kinostable import geometry
from kinostable.chasing import chase
from kinostable.costs import DescriptorKind, cost, cost_obb, cost_pc, cost_strip, costs_at
from kinostable.errors import DegenerateInputError
from kinostable.geometry import (
    DiametricBox,
    Frame,
    convex_hull,
    diametric_box,
    extent,
    frame_diameter,
)
from kinostable.scenarios import random_walk
from kinostable.solvers import (hull_edge_orientations, optimal, optimal_box_and_strip, optimal_pc,
                                oracle_argmin)
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def hull_contains(hull: np.ndarray, p, tol=1e-12) -> bool:
    """Brute-force membership check: p is on the inner side of every edge."""
    if len(hull) == 2:
        a, b = hull
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        t = np.dot(p - a, b - a) / np.dot(b - a, b - a)
        return abs(cross) <= tol and -tol <= t <= 1 + tol
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


class TestFrame:
    def test_needs_two_points(self):
        with pytest.raises(DegenerateInputError):
            Frame([(1.0, 2.0)])

    def test_rejects_all_coincident(self):
        with pytest.raises(DegenerateInputError):
            Frame([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)])

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateInputError):
            Frame([(0.0, 0.0), (np.nan, 1.0)])

    def test_points_are_read_only(self):
        f = Frame(UNIT_SQUARE)
        with pytest.raises(ValueError):
            f.points[0, 0] = 5.0

    def test_keeps_a_copy_and_leaves_the_callers_array_writable(self):
        x = np.array(UNIT_SQUARE)
        f = Frame(x)
        assert x.flags.writeable and not f.points.flags.writeable
        x[0, 0] = 5.0
        assert f.points[0, 0] == 0.0


# Every one-frame entry point, each taking a Frame or an (n, 2) array.
ONE_FRAME_CALLS = {
    "convex_hull": convex_hull,
    "diametric_box": diametric_box,
    "frame_diameter": frame_diameter,
    "extent": lambda p: extent(p, 0.3),
    "cost": lambda p: cost(p, "obb", 0.3),
    "cost_pc": lambda p: cost_pc(p, 0.3),
    "cost_obb": lambda p: cost_obb(p, 0.3),
    "cost_strip": lambda p: cost_strip(p, 0.3),
    "costs_at": lambda p: costs_at(p, "strip", np.array([0.0, 0.3])),
    "optimal-pc": lambda p: optimal(p, "pc"),
    "optimal-obb": lambda p: optimal(p, "obb"),
    "optimal-strip": lambda p: optimal(p, "strip"),
    "optimal_pc": optimal_pc,
    "optimal_box_and_strip": optimal_box_and_strip,
    "hull_edge_orientations": hull_edge_orientations,
    "oracle_argmin": lambda p: oracle_argmin(p, "obb", 64),
}

_SPREAD = np.array([(0.0, 0.0), (2.0, 0.5), (1.0, 2.0), (-0.5, 1.0), (0.5, 0.5)])
DEGENERATE_FRAMES = {
    "nan": np.where(np.arange(10).reshape(5, 2) == 3, np.nan, _SPREAD),
    "inf": np.where(np.arange(10).reshape(5, 2) == 6, np.inf, _SPREAD),
    "one-point": _SPREAD[:1],
    "coincident": np.full((5, 2), 1.5),
    "three-columns": np.column_stack([_SPREAD, _SPREAD[:, :1]]),
}


@pytest.mark.parametrize("frame", DEGENERATE_FRAMES.values(), ids=DEGENERATE_FRAMES)
@pytest.mark.parametrize("call", ONE_FRAME_CALLS.values(), ids=ONE_FRAME_CALLS)
def test_every_one_frame_call_rejects_what_frame_rejects(call, frame):
    with pytest.raises(DegenerateInputError) as expected:
        Frame(frame)
    with pytest.raises(DegenerateInputError) as caught:
        call(frame)
    assert str(caught.value) == str(expected.value)


class TestConvexHull:
    def test_square_is_its_own_hull(self):
        hull = convex_hull(UNIT_SQUARE)
        assert len(hull) == 4
        assert {tuple(v) for v in hull} == {tuple(map(float, p)) for p in UNIT_SQUARE}

    def test_interior_point_excluded(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.1), (1.0, 2.0)])
        hull = convex_hull(pts)
        assert {tuple(v) for v in hull} == {(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)}
        for p in pts:  # brute-force membership oracle
            assert hull_contains(hull, p)

    def test_collinear_degenerates_to_segment(self):
        hull = convex_hull([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert {tuple(v) for v in hull} == {(0.0, 0.0), (2.0, 0.0)}

    def test_all_coincident_raises(self):
        with pytest.raises(DegenerateInputError):
            convex_hull([(3.0, 3.0)] * 4)

    def test_counterclockwise_and_contains_everything(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = rng.uniform(-5, 5, (rng.integers(3, 40), 2))
            hull = convex_hull(pts)
            input_set = {tuple(p) for p in pts}
            assert all(tuple(v) in input_set for v in hull)
            for p in pts:
                assert hull_contains(hull, p, tol=1e-9)
            if len(hull) >= 3:
                area2 = sum(
                    hull[i][0] * hull[(i + 1) % len(hull)][1]
                    - hull[(i + 1) % len(hull)][0] * hull[i][1]
                    for i in range(len(hull))
                )
                assert area2 > 0.0  # counterclockwise orientation

    def test_no_collinear_hull_vertices(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (1.0, 2.0)]
        hull = convex_hull(pts)
        assert len(hull) == 4


class TestExtent:
    def test_axis_aligned_square(self):
        assert extent(UNIT_SQUARE, 0.0) == pytest.approx(1.0)

    def test_square_diagonal(self):
        assert extent(UNIT_SQUARE, math.pi / 4) == pytest.approx(math.sqrt(2.0))

    def test_segment_projects_onto_itself(self):
        pts = [(0.0, 0.0), (3.0, 4.0)]
        assert extent(pts, math.atan2(4.0, 3.0)) == pytest.approx(5.0)

    def test_translation_invariant_rotation_equivariant(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pts = rng.uniform(-4, 4, (12, 2))
            theta = rng.uniform(0, math.pi)
            shift = rng.uniform(-100, 100, 2)
            assert extent(pts + shift, theta) == pytest.approx(extent(pts, theta), rel=1e-9)
            rot = rng.uniform(0, 2 * math.pi)
            R = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
            assert extent(pts @ R.T, theta + rot) == pytest.approx(
                extent(pts, theta), rel=1e-9
            )


class TestDiametricBox:
    def test_flat_triangle(self):
        box = diametric_box([(0.0, 0.0), (2.0, 0.0), (1.0, 0.5)])
        assert box.alpha == pytest.approx(0.0)
        assert box.diameter == pytest.approx(2.0)
        assert box.width == pytest.approx(0.5)
        assert box.aspect == pytest.approx(0.25)

    def test_square_tie_breaks_to_smallest_orientation(self):
        # both diagonals have length sqrt(2); pi/4 < 3*pi/4 wins
        box = diametric_box(UNIT_SQUARE)
        assert box.alpha == pytest.approx(math.pi / 4)
        assert box.diameter == pytest.approx(math.sqrt(2.0))

    def test_collinear_has_zero_aspect(self):
        box = diametric_box([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert box.width == 0.0
        assert box.aspect == 0.0
        # a tilted segment only reaches zero up to one rounding step
        tilted = diametric_box([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert tilted.aspect == pytest.approx(0.0, abs=1e-15)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            pts = rng.uniform(-10, 10, (rng.integers(2, 65), 2))
            box = diametric_box(pts)
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            assert box.diameter == math.sqrt(float(d2.max()))  # same arithmetic path
            assert 0.0 <= box.aspect <= 1.0

    def test_is_dataclass_record(self):
        box = DiametricBox(alpha=0.1, diameter=2.0, width=1.0, aspect=0.5)
        assert box.aspect == 0.5


def test_frame_diameter_matches_box():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, (30, 2))
    assert frame_diameter(pts) == diametric_box(pts).diameter


@pytest.mark.parametrize("run", [
    lambda traj: chase(traj, dt=0.5),
    lambda traj: track_topological(traj, DescriptorKind.OBB, 0.5),
], ids=["chase", "track-obb"])
def test_one_hull_build_per_sample(monkeypatch, run):
    # 300 points is above the brute-force limit, so the diametric pair, the
    # diameter and the edge candidates all read the hull.
    phi = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    ellipse = np.column_stack([3.0 * np.cos(phi), np.sin(phi)])
    c, s = math.cos(0.3), math.sin(0.3)
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([ellipse, ellipse @ [[c, s], [-s, c]]]))
    real, builds = geometry._monotone_chains, []  # the frames chained
    monkeypatch.setattr(geometry, "_monotone_chains",
                        lambda points, keep=None: builds.extend(points) or real(points, keep))
    assert len(run(traj).times) == len(builds) == 3


def test_chase_diametric_pairs_read_the_block_hulls(monkeypatch):
    # Up to the brute-force limit the diametric pairs come from the hull
    # vertices, which the box and strip solve of the same block has built.
    walk = random_walk(n=40, seed=3, steps=10)
    real, blocks = geometry._consecutive_hulls, []
    monkeypatch.setattr(geometry, "_consecutive_hulls",
                        lambda points: blocks.append(len(points)) or real(points))
    assert len(chase(walk, dt=1e-3).times) == sum(blocks) == len(walk.sample_times(1e-3))
