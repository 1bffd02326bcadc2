"""One principal-axis cost: the summed squared offsets across the axis.

The optimum a solve reports, the cost a tracker scores and the ``pc``
tables all come from ``costs.candidate_costs``.  The references here are
exact: the scatter matrix of the input floats in ``fractions.Fraction``,
whose smaller eigenvalue is taken in a form that does not cancel.
"""

import io
import math
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from kinostable import geometry
from kinostable.cli import main
from kinostable.costs import DescriptorKind, frame_costs
from kinostable.geometry import Frames
from kinostable.runio import write_trajectory
from kinostable.scenarios import random_walk
from kinostable.solvers import block_optima, optimal_pc, orientation_costs
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory

PC = DescriptorKind.PC
THICKNESSES = (1e-3, 1e-4, 1e-5, 1e-6)
OFFSETS = (3.0, 1e3)


def thin_cloud(seed: int, thickness: float, offset: float) -> np.ndarray:
    """Eight points spread about 1 along a turned line and ``thickness``
    across it, moved ``offset`` from the origin along both axes."""
    rng = np.random.default_rng(seed)
    along, across = rng.uniform(-1.0, 1.0, 8), rng.uniform(-thickness, thickness, 8)
    turn = rng.uniform(0.0, math.pi)
    c, s = math.cos(turn), math.sin(turn)
    return np.column_stack([c * along - s * across, s * along + c * across]) + offset


def exact_pc_optimum(points: np.ndarray) -> float:
    """The smaller scatter eigenvalue of the float points, as
    2 det / (tr + sqrt(disc)) with det, tr and disc = tr^2 - 4 det exact."""
    xy = [(Fraction(x), Fraction(y)) for x, y in points.tolist()]
    mx, my = sum(x for x, _ in xy) / len(xy), sum(y for _, y in xy) / len(xy)
    sxx = sum((x - mx) ** 2 for x, _ in xy)
    syy = sum((y - my) ** 2 for _, y in xy)
    sxy = sum((x - mx) * (y - my) for x, y in xy)
    tr, det = sxx + syy, sxx * syy - sxy * sxy
    return float(2 * det) / (float(tr) + math.sqrt(float(tr * tr - 4 * det)))


CLOUDS = [thin_cloud(seed, thickness, offset)
          for thickness in THICKNESSES for offset in OFFSETS for seed in range(3)]


def descriptor_pc_cost(tmp_path, points: np.ndarray) -> float:
    path = tmp_path / "cloud.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_trajectory(fp, Trajectory(np.array([0.0]), points[None]))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["descriptor", str(path), "--kind", "pc", "--dt", "1"]) == 0
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == 1
    return float(rows[0].split(",")[3])


def test_pc_optima_match_the_exact_eigenvalue_on_thin_clouds(tmp_path):
    solved = block_optima(Frames(np.stack(CLOUDS)), (PC,))[0]
    for b, points in enumerate(CLOUDS):
        exact = exact_pc_optimum(points)
        for got in (float(solved.cost[b]), optimal_pc(points).cost,
                    descriptor_pc_cost(tmp_path, points)):
            assert abs(got - exact) <= 1e-9 * exact, (b, got, exact)


@pytest.mark.parametrize("n", [8, 64])
def test_pc_tracker_scores_its_optimum_at_ratio_one(n):
    for seed in range(4):
        run = track_topological(random_walk(n=n, seed=seed, steps=20, duration=0.4), PC, 1e-3)
        assert np.all(run.ratio == 1.0), seed
        assert np.array_equal(run.cost, run.opt_cost), seed


def test_pc_table_of_a_large_frame_stays_within_the_block_budget():
    # projecting 4000 points onto 513 orientations at once would take
    # 4000 * 513 * 8 bytes = 16.4 MB
    rng = np.random.default_rng(5)
    frames = Frames(rng.normal(size=(1, 4000, 2)) * [3.0, 1.0])
    angles = np.linspace(0.0, math.pi, 513)[None]
    tracemalloc.start()
    try:
        table = orientation_costs(frames, (PC,), angles, np.array([513]))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * geometry._BLOCK_BYTES
    scored = np.array([frame_costs(frames.points, (PC,), angles[:, k])[0][0]
                       for k in range(513)])
    assert np.allclose(table[0], scored, rtol=1e-12, atol=0.0)
