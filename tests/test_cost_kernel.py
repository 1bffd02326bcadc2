"""One cost kernel: the equalities the scoring, the tables and the widths rest on.

``costs.candidate_costs`` scores box, strip and ``pc`` for a block at a row
of orientations per frame; ``frame_costs`` is its one-column call, and
``geometry.extents`` is the one point projection behind every extent.  The
references here are the forms they replaced, kept as they were written:
scoring with ``math.cos`` and ``math.sin`` directions built frame by frame,
and one kernel call per kind.  All must agree bitwise.
"""

import math

import numpy as np
import pytest

from kinostable import geometry
from kinostable.angles import cos, sin
from kinostable.costs import DescriptorKind, candidate_costs, frame_costs
from kinostable.geometry import Frames, diametric_boxes, extents
from kinostable.scenarios import random_walk
from kinostable.solvers import _edge_candidates, orientation_costs

from test_blocks import collinear_mix, ellipse_walk

OBB, STRIP, PC = DescriptorKind.OBB, DescriptorKind.STRIP, DescriptorKind.PC

KERNEL_TRAJECTORIES = {
    "walk-n8": lambda: random_walk(n=8, seed=3, steps=20, duration=0.4),
    "walk-n64": lambda: random_walk(n=64, seed=5, steps=20, duration=0.4),
    "ellipse-n150": lambda: ellipse_walk(150),
}


def math_frame_costs(points: np.ndarray, betas: np.ndarray) -> dict:
    """Box, strip and ``pc`` of every frame at its own orientation, scored
    as before the fold: per-frame ``math`` directions, one (2, 1) matrix each."""
    cs = [(math.cos(a), math.sin(a)) for a in betas.tolist()]
    across = np.array([[[-s], [c]] for c, s in cs])
    along = np.array([[[c], [s]] for c, s in cs])

    def spread(directions):
        proj = points @ directions
        return (proj.max(axis=1) - proj.min(axis=1))[:, 0]

    d = (points - points.mean(axis=1, keepdims=True)) @ across
    width = spread(across)
    return {STRIP: width, OBB: spread(along) * width, PC: (np.swapaxes(d, 1, 2) @ d)[:, 0, 0]}


def sample_blocks(name: str, dt: float = 1e-3):
    traj = KERNEL_TRAJECTORIES[name]()
    return list(traj.frame_blocks(traj.sample_times(dt)))


@pytest.mark.parametrize("name", sorted(KERNEL_TRAJECTORIES))
def test_frame_costs_equal_math_scoring_and_one_kernel_column(name):
    for frames in sample_blocks(name):
        rng = np.random.default_rng(len(frames))
        betas = rng.uniform(-4.0, 4.0, len(frames))
        reference = math_frame_costs(frames.points, betas)
        scored = dict(zip((OBB, STRIP, PC), frame_costs(frames.points, (OBB, STRIP, PC), betas)))
        column = candidate_costs(frames.points, (OBB, STRIP), betas[:, None])
        for kind, values in zip((OBB, STRIP), column):
            assert scored[kind].tobytes() == values[:, 0].tobytes()
        for kind in (OBB, STRIP, PC):
            assert scored[kind].tobytes() == reference[kind].tobytes()
            alone = frame_costs(frames.points, (kind,), betas)[0]
            assert alone.tobytes() == scored[kind].tobytes()


def block_tables(frames: Frames, kinds) -> list[np.ndarray]:
    angles, _, counts = _edge_candidates(frames)
    return orientation_costs(frames, kinds, angles, counts)


@pytest.mark.parametrize("name", sorted(KERNEL_TRAJECTORIES) + ["collinear-mix"])
def test_box_and_strip_table_equals_the_one_kind_tables(monkeypatch, name):
    traj = collinear_mix() if name == "collinear-mix" else KERNEL_TRAJECTORIES[name]()
    times = traj.sample_times(1e-2)
    # blocks of 7 frames, whose tables are scored a frame at a time up to the limit
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 7 * 16 * traj.n_points)
    split, single = False, 0
    for frames in traj.frame_blocks(times):
        angles, _, counts = _edge_candidates(frames)
        split |= geometry.table_block(frames.n_points, angles.shape[1]) < len(frames)
        single += int(np.count_nonzero(counts == 1))
        box, strip = block_tables(frames, (OBB, STRIP))
        assert box.tobytes() == block_tables(frames, (OBB,))[0].tobytes()
        assert strip.tobytes() == block_tables(frames, (STRIP,))[0].tobytes()
        both = block_tables(frames, (STRIP, PC, OBB))
        assert [t.tobytes() for t in both] == [strip.tobytes(),
                                               block_tables(frames, (PC,))[0].tobytes(),
                                               box.tobytes()]
    assert split or traj.n_points > geometry._BRUTE_FORCE_LIMIT
    assert single > 0 or name != "collinear-mix"


@pytest.mark.parametrize("name", sorted(KERNEL_TRAJECTORIES))
def test_diametric_width_is_the_extent_primitive(name):
    for frames in sample_blocks(name, 1e-2):
        box = diametric_boxes(frames)
        for b in range(len(frames)):
            perp = np.array([[[-sin(box.alpha[b])], [cos(box.alpha[b])]]])
            assert extents(frames.points[b:b + 1], perp)[0, 0] == box.width[b]
