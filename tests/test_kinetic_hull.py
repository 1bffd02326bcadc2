"""The block hull: certified hulls against the frozen monotone chain.

A frame keeps the hull of the last frame that ran the chain only when a
certificate holds: every other point lies strictly left of every hull edge,
beyond the error bound of the chain's own float expression, and the frame's
lexicographically smallest point is a hull vertex, where the kept hull is
rotated to start.  The sequences here move points through the events that
break a certificate, or must not: x-order swaps of interior points (none),
a swap of the leftmost hull vertex (a rotation), exact collinearity, duplicate
points, -0.0 coordinates and a frame of two distinct points.  The paper's
constructions make stretches that no hull certifies (collinear frames, edge
midpoints kept on the hull, duplicated vertices), which the chain runs on in
runs of 1, 1, 2, 4, ... frames.  Every frame's hull must equal
``frozen_convex_hull`` bit for bit, whichever way it was built.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kinostable import geometry, verify
from kinostable.chasing import chase
from kinostable.costs import DescriptorKind
from kinostable.geometry import Frames
from kinostable.scenarios import pc_flip, random_walk
from kinostable.tracker import Jump, _locate_flips, track_topological
from kinostable.trajectory import Trajectory

from test_blocks import frozen_convex_hull


STEPS = 32  # frames 0 .. 32; each sequence's event is at frame 16


def lerp(start, end, steps: int = STEPS) -> np.ndarray:
    """``steps + 1`` frames moving every point linearly from ``start`` to
    ``end``; frame k is start + (k / steps) * (end - start)."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    s = (np.arange(steps + 1) / steps)[:, None, None]
    return start + s * (end - start)


SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]


def x_order_swap() -> np.ndarray:
    # two inner points trade x order, tied in x at frame 16
    return lerp(SQUARE + [(1.0, 1.0), (3.0, 2.0)], SQUARE + [(3.0, 1.0), (1.0, 2.0)])


def leftmost_swap() -> np.ndarray:
    # two hull vertices trade the leftmost place, so the hull starts elsewhere
    return lerp([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.5, 4.0), (2.0, 2.0)],
                [(0.5, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0)])


def through_collinear() -> np.ndarray:
    # (2, y) crosses the segment from (0, 0) to (4, 0) at frame 16, on the lattice
    base = [(0.0, 0.0), (4.0, 0.0), (1.0, 3.0), (3.0, 3.0)]
    return lerp(base + [(2.0, -4.0)], base + [(2.0, 4.0)])


def becoming_duplicates() -> np.ndarray:
    # point 5 lands on point 4 at frame 16 and moves on
    return lerp(SQUARE + [(2.0, 1.0), (0.0, 3.0)], SQUARE + [(2.0, 1.0), (4.0, -1.0)])


def negative_zeros() -> np.ndarray:
    # the same moving frame with some zero coordinates signed, frame by frame
    frames = lerp([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (0.5, 0.5), (0.0, 1.0)],
                  [(0.0, 0.0), (2.0, 0.0), (0.0, 3.0), (0.5, 0.5), (0.0, 1.0)])
    flip = np.random.default_rng(1).uniform(size=frames.shape) < 0.5
    return np.where(flip & (frames == 0.0), -0.0, frames)


def two_distinct_between() -> np.ndarray:
    # frame 16 folds every point onto two places
    frames = lerp(SQUARE + [(1.0, 2.0)], SQUARE + [(3.0, 2.0)])
    frames[16] = [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]
    return frames


SEQUENCES = {
    "x-order-swap": x_order_swap,
    "leftmost-swap": leftmost_swap,
    "through-collinear": through_collinear,
    "becoming-duplicates": becoming_duplicates,
    "negative-zeros": negative_zeros,
    "two-distinct-between": two_distinct_between,
}

# The frames of each sequence, as one block, that run the chain: frame 0,
# then each frame whose certificate fails.
CHAIN_FRAMES = {
    # interior points may reorder, and the new leftmost vertex is a rotation
    "x-order-swap": [0],
    "leftmost-swap": [0],
    # point 4 on the edge (0, 0)-(4, 0) at 16 and on (1, 3)-(3, 3) at 28,
    # then outside it at 29
    "through-collinear": [0, 16, 28, 29],
    # a duplicate of an interior point certifies; point 5 on the bottom edge
    # at 24, outside at 25, and (4, 0) on the edge from it to (4, 4) at 32
    "becoming-duplicates": [0, 24, 25, 32],
    # (0, 1) lies on the edge from (0, 2) to (0, 0) in every frame
    "negative-zeros": list(range(STEPS + 1)),
    # a two-point hull certifies nothing
    "two-distinct-between": [0, 16, 17],
}


def assert_frozen(frames: Frames) -> None:
    for b in range(len(frames)):
        got, ref = frames.hull(b), frozen_convex_hull(frames.points[b])
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # bitwise, -0.0 included


def count_chain_runs(monkeypatch) -> list:
    """Patch the block chain to record the (n, 2) view of each frame it
    chains: one entry per chained frame, however the frames were batched."""
    runs = []
    real = geometry._monotone_chains
    monkeypatch.setattr(geometry, "_monotone_chains",
                        lambda points, keep=None: runs.extend(points) or real(points, keep))
    return runs


def chain_frames(frames: Frames, runs: list) -> list[int]:
    """The block frames that the recorded chain runs were made on."""
    base, stride = frames.points.ctypes.data, frames.points.strides[0]
    return [(points.ctypes.data - base) // stride for points in runs]


def test_sequences_break_certificates_where_they_should():
    pts = x_order_swap()
    assert pts[15, 4, 0] < pts[15, 5, 0]
    assert pts[16, 4, 0] == pts[16, 5, 0] and pts[17, 4, 0] > pts[17, 5, 0]
    pts = leftmost_swap()
    assert pts[16, 0, 0] == pts[16, 3, 0] and pts[15, 0, 0] < pts[15, 3, 0]
    pts = through_collinear()
    assert pts[16, 4].tolist() == [2.0, 0.0] and pts[28, 4].tolist() == [2.0, 3.0]
    pts = becoming_duplicates()
    assert (pts[16, 5] == pts[16, 4]).all() and not (pts[15, 5] == pts[15, 4]).all()
    assert pts[24, 5].tolist() == [3.0, 0.0] and pts[32, 5].tolist() == [4.0, -1.0]
    pts = negative_zeros()
    assert np.signbit(pts[pts == 0.0]).any() and not np.signbit(pts[pts == 0.0]).all()
    assert (pts[:, 4, 0] == 0.0).all()
    assert len(np.unique(two_distinct_between()[16], axis=0)) == 2


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_consecutive_frames_match_frozen_chain(monkeypatch, name):
    runs = count_chain_runs(monkeypatch)
    frames = Frames(SEQUENCES[name]())
    assert_frozen(frames)
    assert chain_frames(frames, runs) == CHAIN_FRAMES[name]


def certify(points, hull) -> bool:
    """Whether the (n, 2) frame ``points`` keeps ``hull``."""
    points = np.asarray(points, dtype=float)[None]
    keeps, _, _ = geometry._certify(points, np.asarray(hull), geometry._smallest_points(points))
    return bool(keeps[0])


def test_duplicate_and_edge_points_fail_the_certificate(monkeypatch):
    square = np.array(SQUARE + [(1.0, 2.0)])
    assert certify(square, [0, 1, 2, 3])
    assert certify(np.vstack([square, [(1.0, 2.0)]]), [0, 1, 2, 3])  # interior duplicate
    runs = count_chain_runs(monkeypatch)
    for point in [(4.0, 4.0), (-0.0, 4.0), (4.0, 1.5), (5.0, 2.0)]:  # vertex duplicates,
        frame = np.vstack([square, [point]])  # a point on an edge, one outside
        assert not certify(frame, [0, 1, 2, 3])
        runs.clear()
        frames = Frames(np.stack([np.vstack([square, [(2.0, 2.0)]]), frame]))
        assert_frozen(frames)
        assert chain_frames(frames, runs) == [0, 1]
    runs.clear()
    frames = Frames(np.array([[(0.0, 0.0), (1.0, 1.0)], [(1.0, 1.0), (0.0, 0.0)]]))
    assert_frozen(frames)  # a two-point hull certifies nothing
    assert chain_frames(frames, runs) == [0, 1]


def test_point_within_the_error_bound_runs_the_chain(monkeypatch):
    # (1.5, 0.5 + 2^-53) is exactly left of the edge (0, 0)-(3, 1), by 3 * 2^-53,
    # but its float cross product does not exceed the error bound
    hull = [(0.0, 0.0), (3.0, 1.0), (0.0, 3.0)]
    inner = (1.5, math.nextafter(0.5, 1.0))
    (ox, oy), (ax, ay), (px, py) = hull[0], hull[1], inner
    exact = (Fraction(ax) - Fraction(ox)) * (Fraction(py) - Fraction(oy)) \
        - (Fraction(ay) - Fraction(oy)) * (Fraction(px) - Fraction(ox))
    left, right = (ax - ox) * (py - oy), (ay - oy) * (px - ox)
    assert exact > 0 and 0.0 < left - right <= geometry._CCW_BOUND * (abs(left) + abs(right))
    runs = count_chain_runs(monkeypatch)
    frames = Frames(np.array([hull + [(1.0, 1.0)], hull + [inner]]))
    assert_frozen(frames)
    assert chain_frames(frames, runs) == [0, 1]
    # a point clear of the bound certifies
    runs.clear()
    frames = Frames(np.array([hull + [(1.0, 1.0)], hull + [(1.5, 0.625)]]))
    assert_frozen(frames)
    assert chain_frames(frames, runs) == [0]


def test_new_smallest_vertex_rotates_the_hull(monkeypatch):
    # the smallest point moves from vertex 0 to vertex 3 of the same hull
    first = [(0.0, 1.0), (2.0, 0.0), (3.0, 2.0), (1.0, 3.0), (1.5, 1.5)]
    second = [(0.5, 1.0), (2.0, 0.0), (3.0, 2.0), (0.25, 3.0), (1.5, 1.5)]
    runs = count_chain_runs(monkeypatch)
    frames = Frames(np.array([first, second]))
    idx, counts = frames.hull_indices
    assert idx[0, :counts[0]].tolist() == [0, 1, 2, 3]
    assert idx[1, :counts[1]].tolist() == [3, 0, 1, 2]
    assert_frozen(frames)
    assert chain_frames(frames, runs) == [0]


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_block_splits_match_frozen_chain(monkeypatch, name):
    pts = SEQUENCES[name]()
    traj = Trajectory(np.arange(len(pts), dtype=float), pts)
    # shrink the block budget as seven_frame_blocks does, to 16-frame blocks
    # whose frames still check a certificate one at a time
    size = 16
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", size * 16 * traj.n_points)
    assert geometry.block_size(traj.n_points) == size
    runs = count_chain_runs(monkeypatch)
    times = traj.sample_times(0.25)
    blocks = list(traj.frame_blocks(times))
    assert len(blocks) > 2
    for frames in blocks:
        assert_frozen(frames)
    if name == "negative-zeros":  # a point on an edge in every frame
        assert len(runs) == len(times)
    else:
        assert len(runs) < len(times)


def test_over_budget_certificates_run_the_chain(monkeypatch):
    pts = x_order_swap()
    h, n = 4, pts.shape[1]
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 32 * h * n - 1)
    assert geometry.certificate_block(h, n) == 0
    runs = count_chain_runs(monkeypatch)
    frames = Frames(pts)
    assert_frozen(frames)
    assert len(runs) == len(frames)


@pytest.mark.parametrize("n, seed", [(8, 6), (64, 15)])
def test_sampled_walk_hulls_match_frozen_chain(n, seed):
    traj = random_walk(n=n, seed=seed, steps=10)
    for frames in traj.frame_blocks(traj.sample_times(1e-3)[::7]):
        assert_frozen(frames)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("seed", [4, 27])
def test_walks_workload_hulls_match_frozen_chain(monkeypatch, n, seed):
    # walks shaped as the benchmark's: 20 steps over 0.4 time units, dt = 1e-3
    traj = random_walk(n=n, seed=seed, steps=20, duration=0.4)
    times = traj.sample_times(1e-3)
    runs = count_chain_runs(monkeypatch)
    for frames in traj.frame_blocks(times):
        assert_frozen(frames)
    assert 0 < len(runs) < 0.2 * len(times)


def test_chain_runs_on_few_small_frames(monkeypatch):
    traj = random_walk(n=8, seed=6)
    samples = len(traj.sample_times(1e-3))
    runs = count_chain_runs(monkeypatch)
    out = track_topological(traj, DescriptorKind.OBB, 1e-3)
    assert len(out.flips) > 0  # the count includes the flip location
    assert len(runs) < 0.1 * samples


def test_one_frame_hull_is_the_chain():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    pts[5] = pts[17]  # a duplicate keeps the first
    pts[8] = [-0.0, pts[8, 1]]
    hull = geometry.convex_hull(pts)
    assert hull.tobytes() == frozen_convex_hull(pts).tobytes()
    with pytest.raises(geometry.DegenerateInputError):
        geometry.convex_hull([(1.0, math.pi)] * 3)


def drifting_cloud(n: int = 4000) -> tuple[np.ndarray, Trajectory]:
    """An n-point cloud, an ellipse inside the rectangle of its four
    corners, and its trajectory over one time unit under a small
    translation: every frame's hull is the four corners."""
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 2.0 * math.pi, n - 4)
    inner = np.column_stack([3.0 * np.cos(phi), np.sin(phi)]) * np.sqrt(rng.uniform(0, 1, (n - 4, 1)))
    base = np.vstack([inner, [(-3.1, -1.1), (3.1, -1.1), (3.1, 1.1), (-3.1, 1.1)]])
    return base, Trajectory(np.array([0.0, 1.0]), np.stack([base, base + [0.01, 0.002]]))


def recorded_chain(monkeypatch, base: np.ndarray) -> list:
    """Replace the block chain by a copy of its run on ``base`` for each
    frame it is given, one entry per frame: every frame of the drifting
    cloud has that hull, which the other frames of a block then certify,
    without the chain's per-point Python loop under tracing."""
    (hull,) = geometry._monotone_chains(base[None])
    assert len(hull) == 4
    runs = []
    monkeypatch.setattr(geometry, "_monotone_chains",
                        lambda points, keep=None: runs.extend([1] * len(points))
                        or [hull.copy() for _ in points])
    return runs


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certified_runs_stay_within_the_block_budget(monkeypatch):
    # 4000 points, 300 samples: all positions of the run would take
    # 300 * 4000 * 16 bytes = 19.2 MB at once.  Each block's frames check
    # one 4-edge certificate, certificate_block(4, 4000) = 2 frames at a time.
    base, traj = drifting_cloud()
    dt = 1.0 / 299
    assert len(traj.sample_times(dt)) == 300
    assert geometry.certificate_block(4, 4000) == 2
    blocks = math.ceil(300 / geometry.block_size(4000))
    runs = recorded_chain(monkeypatch, base)
    for run in (lambda: track_topological(traj, DescriptorKind.OBB, dt),
                lambda: chase(traj, dt=dt)):
        runs.clear()
        assert traced_peak(run) < 300 * 4000 * 16 / 3
        assert 0 < len(runs) <= blocks  # every other frame certified


def test_flip_bisections_stay_within_the_block_budget(monkeypatch):
    # A 4000-point cloud whose hull, a 6.2 x 2.2 rectangle, turns into a
    # 2.2 x 6.2 one: the strip flush with the bottom edge and the one flush
    # with the right edge tie at t = 0.5.  Jumps between them are located in
    # groups whose probes are two frames each, the roots' frames swept.
    # Groups of block_size(4000) = 16 jumps would peak above the bound at 32
    # jumps; the budget's groups do not.
    base, _ = drifting_cloud()
    base[:-4] /= 3.0  # the ellipse, inside every rectangle on the way
    tall = base.copy()
    tall[-4:] = [(-1.1, -3.1), (1.1, -3.1), (1.1, 3.1), (-1.1, 3.1)]
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([base, tall]))
    recorded_chain(monkeypatch, base)
    strip = DescriptorKind.STRIP
    bottom, right = (3996, 3997), (3997, 3998)
    _locate_flips(traj, strip, math.pi, [Jump(0.25, 0.75, bottom, right)])  # first-call set-up
    for count in (8, 32):
        jumps = [Jump(0.5 - (k + 1) / (4 * count), 0.5 + 1 / (4 * count), bottom, right)
                 for k in range(count)]
        flips = []
        peak = traced_peak(lambda: flips.extend(_locate_flips(traj, strip, math.pi, jumps)))
        assert len(flips) == count
        assert all(abs(f.time - 0.5) <= 1e-12 and abs(f.worst_ratio - math.sqrt(2.0)) <= 1e-9
                   for f in flips)
        assert peak < 4 * geometry._BLOCK_BYTES, count


# ---------------------------------------------------------------------------
# Stretches no hull certifies: the paper's constructions are degenerate on
# purpose, so the chain runs on runs of frames that double.


def winding_frames(monkeypatch) -> np.ndarray:
    """The 4096 frames ``forced_orientation_winding`` solves: five
    collinear points turning once, whose hulls round to 2 to 6 vertices."""
    blocks, real = [], verify.block_optima
    with monkeypatch.context() as patch:
        patch.setattr(verify, "block_optima",
                      lambda frames, kinds: blocks.append(frames.points) or real(frames, kinds))
        verify.forced_orientation_winding()
    return np.concatenate(blocks)


def pc_flip_frames() -> np.ndarray:
    """``pc_flip`` at dt = 1e-3: edge midpoints on the hull in every frame."""
    traj = pc_flip()
    return traj.positions_at_times(traj.sample_times(1e-3))


def lattice_frames() -> np.ndarray:
    """Frames of 10 points on a 3 x 3 lattice, duplicates and -0.0 included."""
    rng = np.random.default_rng(22)
    pts = rng.integers(-1, 2, size=(3000, 10, 2)).astype(float)
    pts[rng.uniform(size=pts.shape) < 0.5] *= -1.0
    return pts[~(pts == pts[:, :1]).all(axis=(1, 2))]


DEGENERATE = {"winding": winding_frames, "pc-flip": lambda _: pc_flip_frames(),
              "lattice": lambda _: lattice_frames()}


@pytest.mark.parametrize("small_budget", [False, True], ids=["budget", "small-budget"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_sequences_match_frozen_chain(monkeypatch, name, small_budget):
    pts = DEGENERATE[name](monkeypatch)
    if small_budget:  # certificate windows of 1 to 3 frames, shorter than the runs
        monkeypatch.setattr(geometry, "_BLOCK_BYTES", 32 * 3 * pts.shape[1] * 3)
    ref = [frozen_convex_hull(frame).tobytes() for frame in pts]
    whole = Frames(pts)
    splits = np.cumsum(np.random.default_rng(len(pts)).integers(1, 300, size=len(pts)))
    parts = [Frames(part) for part in np.split(pts, splits[splits < len(pts)])]
    assert len(parts) > 2
    got = [frames.hull(b).tobytes() for frames in (whole, *parts) for b in range(len(frames))]
    assert got == ref + ref  # bitwise, -0.0 included
    if name == "winding":
        assert set(whole.hull_indices[1].tolist()) == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("frames", [1, 2, 16, 100, 1001])
def test_an_uncertifiable_stretch_costs_logarithmically_many_certificates(monkeypatch, frames):
    pts = pc_flip_frames()[:frames]
    calls, real = [], geometry._certify
    monkeypatch.setattr(geometry, "_certify", lambda *args: calls.append(1) or real(*args))
    runs = count_chain_runs(monkeypatch)
    assert_frozen(Frames(pts))
    assert len(runs) == frames  # every frame chained: none certifies the next
    # runs of 1, 1, 2, 4, ... frames, each but the last followed by one failed window
    assert len(calls) == math.ceil(math.log2(frames))
