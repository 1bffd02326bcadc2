"""The block hull: replayed chain traces against the frozen monotone chain.

A frame replays the trace of a nearby frame only when it sorts its points
the same way, with no two equal, and decides every recorded comparison the
same way.  The sequences here move points through exactly the events that
break a trace at a sample: x-order swaps (one that moves the hull's first
vertex), exact collinearity, duplicate points, -0.0 coordinates and a frame
of two distinct points.  Every frame's
hull must equal ``frozen_convex_hull`` bit for bit, whichever way it was
built.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from kinostable import geometry
from kinostable.chasing import chase
from kinostable.costs import DescriptorKind
from kinostable.geometry import Frames
from kinostable.scenarios import random_walk
from kinostable.tracker import _locate_flips, track_topological
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


def assert_frozen(frames: Frames) -> None:
    for b in range(len(frames)):
        got, ref = frames.hull(b), frozen_convex_hull(frames.points[b])
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # bitwise, -0.0 included


def count_chain_runs(monkeypatch) -> list:
    runs = []
    real = geometry._monotone_chain
    monkeypatch.setattr(geometry, "_monotone_chain", lambda *args: runs.append(1) or real(*args))
    return runs


def test_sequences_break_replay_where_they_should():
    pts = x_order_swap()
    assert pts[15, 4, 0] < pts[15, 5, 0]
    assert pts[16, 4, 0] == pts[16, 5, 0] and pts[17, 4, 0] > pts[17, 5, 0]
    pts = leftmost_swap()
    assert pts[16, 0, 0] == pts[16, 3, 0] and pts[15, 0, 0] < pts[15, 3, 0]
    assert through_collinear()[16, 4].tolist() == [2.0, 0.0]
    pts = becoming_duplicates()
    assert (pts[16, 5] == pts[16, 4]).all() and not (pts[15, 5] == pts[15, 4]).all()
    pts = negative_zeros()
    assert np.signbit(pts[pts == 0.0]).any() and not np.signbit(pts[pts == 0.0]).all()
    assert len(np.unique(two_distinct_between()[16], axis=0)) == 2


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_consecutive_frames_match_frozen_chain(monkeypatch, name):
    runs = count_chain_runs(monkeypatch)
    frames = Frames(SEQUENCES[name]())
    assert_frozen(frames)
    assert len(runs) < len(frames)  # some frames replayed


def recorded_run(points: np.ndarray):
    """The trace of the chain's run on one (n, 2) frame with ``record``."""
    order, fresh = geometry._presort(points[None])
    hull, trace = geometry._monotone_chain(points, order[0][fresh[0]], True)
    assert points[hull].tobytes() == frozen_convex_hull(points).tobytes()
    return trace


def test_duplicate_and_two_point_frames_store_no_trace():
    for pts in (becoming_duplicates()[16], two_distinct_between()[16]):
        assert recorded_run(pts) is None
    assert isinstance(recorded_run(x_order_swap()[0]), geometry.HullTrace)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_block_splits_match_frozen_chain(monkeypatch, name):
    pts = SEQUENCES[name]()
    traj = Trajectory(np.arange(len(pts), dtype=float), pts)
    # shrink the block budget as seven_frame_blocks does, to runs that still replay
    size = 2 * geometry._REPLAY_RUN
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", size * 16 * traj.n_points ** 2)
    assert geometry.block_size(traj.n_points) == size
    runs = count_chain_runs(monkeypatch)
    times = traj.sample_times(0.25)
    blocks = list(traj.frame_blocks(times))
    assert len(blocks) > 2
    for frames in blocks:
        assert_frozen(frames)
    assert len(runs) < len(times)


@pytest.mark.parametrize("n, seed", [(8, 6), (64, 15)])
def test_sampled_walk_hulls_match_frozen_chain(n, seed):
    traj = random_walk(n=n, seed=seed, steps=10)
    for frames in traj.frame_blocks(traj.sample_times(1e-3)[::7]):
        assert_frozen(frames)


def test_chain_runs_on_few_small_frames(monkeypatch):
    traj = random_walk(n=8, seed=6)
    samples = len(traj.sample_times(1e-3))
    runs = count_chain_runs(monkeypatch)
    out = track_topological(traj, DescriptorKind.OBB, 1e-3)
    assert len(out.flips) > 0  # the count includes the flip bisections
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
    """An n-point cloud in an ellipse, and its trajectory over one time unit
    under a small translation: every frame sorts its points the same way."""
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    base = np.column_stack([3.0 * np.cos(phi), np.sin(phi)]) * np.sqrt(rng.uniform(0, 1, (n, 1)))
    return base, Trajectory(np.array([0.0, 1.0]), np.stack([base, base + [0.01, 0.002]]))


def recorded_chain(monkeypatch, base: np.ndarray) -> list:
    """Replace the chain by a copy of its run on ``base``, counted: a frame
    of the drifting cloud then checks and replays that real trace, and each
    run makes a trace of its own, as the chain does, without the chain's
    per-point Python loop under tracing."""
    order, fresh = geometry._presort(base[None])
    hull, trace = geometry._monotone_chain(base, order[0][fresh[0]], True)
    assert trace is not None
    runs = []
    monkeypatch.setattr(geometry, "_monotone_chain", lambda points, order, record:
                        runs.append(1) or (hull.copy(), copy.deepcopy(trace) if record else None))
    return runs


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replayed_runs_stay_within_the_block_budget(monkeypatch):
    # 4000 points, 300 samples: all positions of the run would take
    # 300 * 4000 * 16 bytes = 19.2 MB at once.  Each block's frames check
    # one trace of 12 * 4000 point indices, trace_block frames at a time.
    base, traj = drifting_cloud()
    dt = 1.0 / 299
    assert len(traj.sample_times(dt)) == 300
    blocks = math.ceil(300 / geometry.block_size(4000))
    runs = recorded_chain(monkeypatch, base)
    for run in (lambda: track_topological(traj, DescriptorKind.OBB, dt),
                lambda: chase(traj, dt=dt)):
        runs.clear()
        assert traced_peak(run) < 300 * 4000 * 16 / 3
        assert 0 < len(runs) <= blocks  # every other frame replayed


def test_flip_bisections_stay_within_the_block_budget(monkeypatch):
    # Jumps of a 4000-point cloud, bisected in groups whose midpoints are
    # one block of frames each.  Groups of block_size(4000) = 16 midpoints
    # would peak above the bound at 32 jumps; trace_block(4000) = 2 do not.
    # The threshold exceeds every gap, so no flip is located or swept.
    base, traj = drifting_cloud()
    recorded_chain(monkeypatch, base)
    box = DescriptorKind.OBB
    _locate_flips(traj, box, math.pi / 2, [(0.0, 0.0, 0.5, 1.0, 10.0)])  # first-call set-up
    for count in (8, 32):
        jumps = [(k / count, 0.0, (k + 1) / count, 1.0, 10.0) for k in range(count)]
        flips = []
        peak = traced_peak(lambda: flips.extend(_locate_flips(traj, box, math.pi / 2, jumps)))
        assert flips == []
        assert peak < 4 * geometry._BLOCK_BYTES, count
