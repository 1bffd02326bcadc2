"""Diametral pairs and the minimum diameter against frozen all-pair scans.

Up to the brute-force limit, ``diametric_boxes`` takes its farthest pairs
from the pair matrix of each frame's hull vertices, and
``normalize_trajectory`` diameters only the grid frames whose lower bound
can still beat the smallest diameter found.  The references here are the
scans they replace, kept as they were written but for taking each pair's
vector from its lower end: the pair matrix of every point of the frame,
and the diameter of every grid frame.  Both must agree bitwise, and so
must the two sides of the size switch.
"""

import numpy as np
import pytest

from kinostable import chasing, geometry
from kinostable.angles import atan2, canonical_array, cos, sin
from kinostable.chasing import normalize_trajectory
from kinostable.errors import DegenerateInputError
from kinostable.geometry import (Frames, diameter_lower_bounds, diametric_boxes, frame_diameter,
                                 frame_diameters)
from kinostable.scenarios import obb_lower_bound, pc_flip, random_walk, strip_lower_bound
from kinostable.trajectory import Trajectory

from test_blocks import DEGENERATE, ellipse_walk, hull_inputs


def all_pair_boxes(points: np.ndarray):
    """The diametric boxes of a (B, n, 2) block from every point pair, with
    the arithmetic and tie rule of the scan the hull pairs replaced, each
    pair's vector taken from its lower end: (alpha, diameter, width,
    aspect)."""
    x, y = points[:, :, 0], points[:, :, 1]
    dx = x[:, :, None] - x[:, None, :]
    dy = y[:, :, None] - y[:, None, :]
    dx *= dx
    dy *= dy
    dx += dy
    dmax2 = dx.max(axis=(1, 2))
    t, i, j = np.nonzero(dx == dmax2[:, None, None])
    keep = i < j
    t, i, j = t[keep], i[keep], j[keep]
    a, b = points[t, i], points[t, j]
    swap = (b[:, 1] < a[:, 1]) | ((b[:, 1] == a[:, 1]) & (b[:, 0] < a[:, 0]))
    vec = np.where(swap[:, None], a - b, b - a) + 0.0  # from the lower end
    a = canonical_array(atan2(vec[:, 1], vec[:, 0]))
    order = np.lexsort((j, i, a, t))
    first = order[np.r_[True, t[order][1:] != t[order][:-1]]]
    alpha = a[first]
    diameter = np.sqrt(dmax2)
    perp = np.column_stack([-sin(alpha), cos(alpha)])
    proj = points @ perp[:, :, None]
    width = proj.max(axis=(1, 2)) - proj.min(axis=(1, 2))
    aspect = width / diameter
    return alpha, diameter, width, np.where(1.0 < aspect, 1.0, aspect)


def assert_boxes_match(points: np.ndarray) -> None:
    box = diametric_boxes(Frames(points))
    for got, ref in zip((box.alpha, box.diameter, box.width, box.aspect), all_pair_boxes(points)):
        assert got.tobytes() == ref.tobytes()  # bitwise, -0.0 included


@pytest.mark.parametrize("n", [8, 64])
def test_hull_pairs_equal_all_pairs_on_walks(n):
    for seed in range(6):
        walk = random_walk(n=n, seed=seed, steps=20, duration=0.4)
        for frames in walk.frame_blocks(walk.sample_times(1e-3)):
            assert_boxes_match(frames.points)


def lattice_frames(rng, count):
    """Small lattice frames: duplicate points, collinear runs, exact ties
    between farthest pairs, and zeros of either sign."""
    for _ in range(count):
        n = int(rng.integers(2, 12))
        pts = rng.integers(-2, 3, (n, 2)).astype(float) * rng.choice([1.0, 0.1, 3.7])
        pts[(pts == 0.0) & (rng.uniform(size=pts.shape) < 0.5)] = -0.0
        if (pts != pts[0]).any():
            yield pts


def test_hull_pairs_equal_all_pairs_on_degenerate_frames():
    rng = np.random.default_rng(21)
    frames = [pts for pts in hull_inputs(rng, 400) if len(pts) <= 64]
    frames += list(lattice_frames(rng, 3000))
    frames += [
        np.array([(0.0, 0.0), (1.0, 0.5)]),  # two points
        np.array([(-0.0, 1.0), (0.0, -0.0)]),
        np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),  # collinear
        np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.5, 2.0)]),  # duplicates
        np.array([(1.0, 0.0), (-1.0, -0.0), (1.0, -0.0), (-1.0, 0.0), (0.0, 0.5)]),
    ]
    for pts in frames:
        assert_boxes_match(pts[None])
    # one block of equal-size frames, so the hull matrix pads rows
    assert_boxes_match(np.stack([pts for pts in frames if len(pts) == 5]))


def coincident(n):
    return np.zeros((n, 2))


def underflowing(n):
    """Three distinct points, repeated to ``n``, whose squared distances all underflow."""
    return np.resize([(0.0, 0.0), (1e-170, 0.0), (0.0, -1e-170)], (n, 2))


@pytest.mark.parametrize("make, n", [(coincident, 8), (underflowing, 8),
                                     (coincident, 80), (underflowing, 80)],
                         ids=["coincident", "underflow", "coincident-80", "underflow-80"])
def test_a_raw_coincident_frame_keeps_its_message(make, n):
    message = "^all points coincide; every descriptor is undefined$"
    with pytest.raises(DegenerateInputError, match=message):
        diametric_boxes(Frames(make(n)[None]))


def size_switch_corpus():
    """Blocks of frames on either side of the size switch: walks at n = 8
    and 64, the degenerate trajectories and random hull inputs."""
    for n in (8, 64):
        for seed in range(6):
            walk = random_walk(n=n, seed=seed, steps=20, duration=0.4)
            yield from walk.frame_blocks(walk.sample_times(1e-3))
    for traj in DEGENERATE.values():
        yield from traj.frame_blocks(traj.sample_times(1e-3), check=False)
    for pts in hull_inputs(np.random.default_rng(5), 200):
        yield Frames(pts[None])


def diametric_bytes(points: np.ndarray):
    """A block's diameters and every field of its diametric boxes, as bytes,
    or the message ``diametric_boxes`` raises."""
    frames = Frames(points)
    diameters = frame_diameters(frames).tobytes()
    try:
        box = diametric_boxes(frames)
    except DegenerateInputError as err:
        return diameters, str(err)
    return diameters, *(f.tobytes() for f in (box.alpha, box.diameter, box.width, box.aspect))


def test_the_size_switch_does_not_change_the_diametric_box(monkeypatch):
    blocks = [frames.points for frames in size_switch_corpus()]
    expected = [diametric_bytes(points) for points in blocks]
    monkeypatch.setattr(geometry, "_BRUTE_FORCE_LIMIT", 0)  # the hull path at every size
    assert [diametric_bytes(points) for points in blocks] == expected


def full_scan_normalization(traj: Trajectory, sample_count: int = 1025):
    """The spatial and temporal factors from the diameter of every grid
    frame, as ``normalize_trajectory`` found them before it pruned."""
    grid = np.union1d(traj.times, np.linspace(0.0, traj.horizon, sample_count))
    min_diam = min(float(frame_diameters(frames).min())
                   for frames in traj.frame_blocks(grid, check=False))
    if min_diam <= 0.0:
        raise DegenerateInputError("trajectory collapses to a single point")
    scale = 1.0 / min_diam
    v_max = traj.max_point_speed() * scale
    return scale, v_max if v_max > 0.0 else 1.0


def crossing() -> Trajectory:
    """Two points at speed 2 in opposite x directions, 1e-6 apart in y,
    passing each other midway between two grid times."""
    x = 1.0 + 1.0 / 1024
    return Trajectory(np.array([0.0, 1.0]), np.array([[(-x, 0.0), (x, 1e-6)],
                                                      [(2.0 - x, 0.0), (x - 2.0, 1e-6)]]))


def scaled(traj: Trajectory, factor: float) -> Trajectory:
    return Trajectory(traj.times, traj.positions * factor)


NORMALIZED = {
    **{f"walk-n{n}-{seed}": (lambda n=n, seed=seed: random_walk(n=n, seed=seed, steps=20,
                                                                 duration=0.4))
       for n in (8, 16, 64) for seed in range(4)},
    "obb-lower-bound": obb_lower_bound,
    "strip-lower-bound": strip_lower_bound,
    "pc-flip": pc_flip,
    "crossing": crossing,
    "walk-1e-150": lambda: scaled(random_walk(n=64, seed=5, steps=20, duration=0.4), 1e-150),
    "walk-1e150": lambda: scaled(random_walk(n=64, seed=5, steps=20, duration=0.4), 1e150),
    "walk-n8-1e-150": lambda: scaled(random_walk(n=8, seed=5, steps=20, duration=0.4), 1e-150),
    "ellipse-n150": lambda: ellipse_walk(150),
}


def test_lower_bounds_never_exceed_the_diameter():
    rng = np.random.default_rng(8)
    blocks = [Frames(pts[None]) for pts in hull_inputs(rng, 300)]
    for traj in (random_walk(n=9, seed=1), random_walk(n=64, seed=7), ellipse_walk(150)):
        blocks += list(traj.frame_blocks(traj.sample_times(1e-2)))
    for frames in blocks:
        lower, diameters = diameter_lower_bounds(frames), frame_diameters(frames)
        assert (lower <= diameters).all()
        if frames.n_points <= 8:
            assert lower.tobytes() == diameters.tobytes()


@pytest.mark.parametrize("name", sorted(NORMALIZED))
def test_pruned_normalization_equals_the_full_scan(monkeypatch, name):
    traj = NORMALIZED[name]()
    diametered, real = [], chasing.frame_diameters
    monkeypatch.setattr(chasing, "frame_diameters",
                        lambda frames: diametered.append(len(frames)) or real(frames))
    normalized, scale, time_factor = normalize_trajectory(traj)
    assert sum(diametered) < 1025 / 4  # the bounds end the scan early
    monkeypatch.undo()
    assert (scale, time_factor) == full_scan_normalization(traj)
    assert type(scale) is float and type(time_factor) is float
    assert normalized.positions.tobytes() == (traj.positions * scale).tobytes()


@pytest.mark.parametrize("n", [3, 12, 80])
def test_a_collapse_between_keyframes_still_raises(n):
    ring = np.column_stack([np.cos(np.arange(n)), np.sin(np.arange(n))])
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([ring, -ring]))  # a point at t = 0.5
    with pytest.raises(DegenerateInputError, match="^trajectory collapses to a single point$"):
        normalize_trajectory(traj)


@pytest.mark.parametrize("n", [8, 80])
def test_coincident_frames_have_diameter_zero_at_every_size(n):
    ring = np.column_stack([np.cos(np.arange(n)), np.sin(np.arange(n))])
    for points in (np.zeros((n, 2)), np.full((n, 2), -0.0)):
        # the block form, which normalization reads, gives 0.0; the one-frame
        # call checks its frame as ``Frame`` does, and rejects it
        assert frame_diameters(Frames(points[None])).tolist() == [0.0]
        with pytest.raises(DegenerateInputError, match="^all points coincide"):
            frame_diameter(points)
    # coincident frames between spread ones, in one block
    block = np.stack([ring, np.zeros((n, 2)), 2.0 * ring, np.full((n, 2), 3.5)])
    got = frame_diameters(Frames(block))
    assert got[[1, 3]].tolist() == [0.0, 0.0]
    assert got[[0, 2]].tobytes() == np.concatenate(
        [frame_diameters(Frames(block[[k]])) for k in (0, 2)]).tobytes()
