"""The block core: every sample solved, steered and scored in bounded blocks.

``tracker.sampled_run``, ``cli descriptor``, ``normalize_trajectory`` and
the verify sampling stages read their frames through
``Trajectory.frame_blocks``.  These tests hold the block code to the
one-frame calls at every sample (blocks split mid-run and padded candidate
rows included), the lockstep flip location to a one-jump-at-a-time
reference kept here, the degenerate inputs to pinned outputs, and the
block budget to a memory bound.
"""

import hashlib
import io
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from kinostable import chasing, geometry, tracker
from kinostable.angles import angular_distance, canonical
from kinostable.chasing import chase, normalize_trajectory
from kinostable.cli import main
from kinostable.costs import DescriptorKind, cost, costs_at, frame_costs
from kinostable.errors import DegenerateInputError
from kinostable.geometry import (
    Frames,
    convex_hull,
    diametric_box,
    diametric_boxes,
    frame_diameter,
    frame_diameters,
)
from kinostable.runio import write_trajectory
from kinostable.scenarios import obb_lower_bound, random_walk, strip_lower_bound
from kinostable.solvers import block_optima, optimal
from kinostable.ratios import ratios, zero_costs
from kinostable.tracker import (
    _ROOT_XTOL as ROOT_XTOL,
    _STALE_ROUNDS as STALE_ROUNDS,
    FlipEvent,
    _locate_flips,
    track_topological,
    tracking_period,
)
from kinostable.trajectory import Trajectory

KINDS = tuple(DescriptorKind)


# ---------------------------------------------------------------------------
# The monotone chain against a frozen copy of the one it replaced.


def frozen_convex_hull(pts: np.ndarray) -> np.ndarray:
    """The monotone chain as it was written before the faster one."""
    uniq = sorted({(float(x), float(y)) for x, y in pts})
    if len(uniq) == 2:
        return np.array(uniq, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def hull_inputs(rng, count):
    """Random, integer-lattice, near-collinear, duplicate-point and -0.0 clouds."""
    for k in range(count):
        n = int(rng.integers(3, 80))
        style = k % 5
        if style == 0:
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0)
        elif style == 1:
            pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
        elif style == 2:
            t = rng.uniform(-1.0, 1.0, n)
            pts = np.column_stack([t, 0.5 * t + rng.normal(scale=1e-17, size=n)])
        elif style == 3:
            base = rng.normal(size=(max(2, n // 3), 2))
            pts = base[rng.integers(0, len(base), n)]
        else:
            pts = rng.integers(-1, 2, size=(n, 2)).astype(float)
            pts[rng.uniform(size=(n, 2)) < 0.5] *= -1.0  # -0.0 where zero
        if len(np.unique(pts, axis=0)) >= 2:
            yield pts


def test_convex_hull_matches_frozen_chain():
    rng = np.random.default_rng(2026)
    checked = 0
    for pts in hull_inputs(rng, 3000):
        got, ref = convex_hull(pts), frozen_convex_hull(pts)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # bitwise, -0.0 included
        checked += 1
    assert checked > 2900


# ---------------------------------------------------------------------------
# Block results against one-frame calls at every sample.


def ellipse_walk(n: int) -> Trajectory:
    """A turning, stretching ellipse cloud of ``n`` points (above the limit
    when n > 64)."""
    rng = np.random.default_rng(n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    base = np.column_stack([2.0 * np.cos(phi), np.sin(phi)]) * rng.uniform(0.5, 1.0, (n, 1))
    c, s = math.cos(0.7), math.sin(0.7)
    turned = base @ np.array([[c, s], [-s, 1.3 * c]])
    return Trajectory(np.array([0.0, 0.5, 1.0]), np.stack([base, turned, base[::-1] * 0.8]))


def collinear_mix() -> Trajectory:
    """Frames that are collinear (one candidate) next to frames that are not,
    so blocks pad single-candidate rows."""
    line = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    bent = np.array([(0.0, 0.0), (1.0, 1.3), (2.0, 2.0), (3.0, 2.1)])
    return Trajectory(np.array([0.0, 0.3, 0.6]), np.stack([line, bent, line]))


BLOCK_TRAJECTORIES = {
    "walk-n8": lambda: random_walk(n=8, seed=6, steps=10),
    "walk-n64": lambda: random_walk(n=64, seed=15, steps=10),
    "ellipse-n150": lambda: ellipse_walk(150),
    "collinear-mix": collinear_mix,
}


def seven_frame_blocks(monkeypatch, n: int) -> None:
    """Shrink the block budget to 7 frames of ``n`` points, so runs split mid-run."""
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 7 * 16 * n)
    assert geometry.block_size(n) == 7


@pytest.mark.parametrize("name", sorted(BLOCK_TRAJECTORIES))
def test_block_results_equal_one_frame_calls(monkeypatch, name):
    traj = BLOCK_TRAJECTORIES[name]()
    seven_frame_blocks(monkeypatch, traj.n_points)
    times = traj.sample_times(0.01)
    blocks = list(traj.frame_blocks(times))
    assert len(blocks) > 1 and sum(len(f) for f in blocks) == len(times)
    padded = False
    i = 0
    for frames in blocks:
        optima = block_optima(frames, KINDS)
        boxes = diametric_boxes(frames)
        diameters = frame_diameters(frames)
        betas = np.linspace(0.1, 3.0, len(frames))
        scored = frame_costs(frames.points, KINDS, betas)
        counts = optima[1].counts
        padded |= bool((counts < counts.max()).any())
        for b in range(len(frames)):
            frame = traj.frame_at(float(times[i]))
            assert frame.points.tobytes() == frames.points[b].tobytes()
            for kind, opt, costs in zip(KINDS, optima, scored):
                one = optimal(frame, kind)
                assert (float(opt.alpha[b]), float(opt.cost[b])) == (one.alpha, one.cost)
                assert opt.descriptor(b) == one
                assert float(costs[b]) == cost(frame.points, kind, float(betas[b]))
            box = diametric_box(frame)
            assert (box.alpha, box.diameter, box.width, box.aspect) == (
                float(boxes.alpha[b]), float(boxes.diameter[b]),
                float(boxes.width[b]), float(boxes.aspect[b]))
            assert float(diameters[b]) == frame_diameter(frame)
            i += 1
    assert padded


@pytest.mark.parametrize("name", sorted(BLOCK_TRAJECTORIES))
def test_runs_do_not_depend_on_the_block_size(monkeypatch, name):
    traj = BLOCK_TRAJECTORIES[name]()

    def runs():
        out = [track_topological(traj, kind, 0.01) for kind in KINDS]
        res = chase(traj, dt=0.01)
        return [(o.beta.tobytes(), o.cost.tobytes(), o.ratio.tobytes(), o.flips) for o in out] + [
            (r.beta.tobytes(), r.cost.tobytes(), r.ratio.tobytes()) for r in res.runs.values()
        ] + [res.safe_zone.ang_gap.tobytes(), res.safe_zone.in_interval.tobytes()]

    whole = runs()
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 1)  # one frame per block
    assert runs() == whole


# ---------------------------------------------------------------------------
# Lockstep flip location against one jump at a time.


def steer_one(points, kind, period, prev):
    """One frame's output orientation and hull-edge pair (None for pc): the
    optimum, or, among candidates tied with it, the one nearest ``prev``."""
    if kind is DescriptorKind.PC:
        return canonical(optimal(points, kind).alpha, period), None
    opt = block_optima(Frames.of(points), (kind,))[0]
    m, cmin = int(opt.counts[0]), float(opt.cost[0])
    values, angles = opt.values[0, :m].tolist(), opt.candidates[0, :m].tolist()
    tied = [c for c in range(m) if values[c] <= cmin + 1e-9 * (abs(cmin) + 1e-300)]
    best = int(np.argmin(opt.values[0]))
    if len(tied) > 1 and prev is not None:
        near = [angular_distance(canonical(angles[c], period), prev, period) for c in tied]
        best = tied[near.index(min(near))]
    return canonical(angles[best], period), tuple(opt.pairs[0, best].tolist())


def sequential_flips(traj: Trajectory, kind, dt: float):
    """The flips of a run found one jump at a time, with one-frame calls:
    each change of the steered hull-edge pair root-found (``cross_one``),
    each ``pc`` output step searched for an isotropic frame
    (``isotropic_one``), then swept."""
    period = tracking_period(kind)
    flips = []
    prev_t, prev_b, prev_pair = None, None, None
    for t in traj.sample_times(dt).tolist():
        b, pair = steer_one(traj.positions_at(t), kind, period, prev_b)
        if prev_b is not None:
            if kind is DescriptorKind.PC:
                flips += isotropic_one(traj, prev_t, prev_b, t, b)
            elif pair != prev_pair:
                flips += locate_one(traj, kind, period, prev_t, t, prev_pair, pair)
        prev_t, prev_b, prev_pair = t, b, pair
    return flips


def locate_one(traj, kind, period, t_lo, t_hi, pair_lo, pair_hi):
    """One jump's flips: at its root, where A or B is optimal, a flip unless
    its ends lie within 1e-9; where a third edge C is, A -> C and C -> B."""
    found = cross_one(traj, kind, period, t_lo, t_hi, pair_lo, pair_hi)
    if found is None:
        return []
    t, start, end = found
    pts = traj.positions_at(t)
    opt = block_optima(Frames.of(pts), (kind,))[0]
    ends = [tuple(p) for p, tie in zip(opt.pairs[0].tolist(), opt.tied()[0].tolist()) if tie]
    if pair_lo in ends or pair_hi in ends:
        if angular_distance(start, end, period) <= 1e-9:
            return []
        return [sweep_one(pts, kind, period, start, end, float(opt.cost[0]), t)]
    third = tuple(opt.pairs[0, int(np.argmin(opt.values[0]))].tolist())
    return (locate_one(traj, kind, period, t_lo, t, pair_lo, third)
            + locate_one(traj, kind, period, t, t_hi, third, pair_hi))


def cross_one(traj, kind, period, t_lo, t_hi, pair_lo, pair_hi):
    """One jump's root-finding on g = cost_A - cost_B, less the tie band
    where A and B tie at t_lo: Anderson-Bjorck regula falsi, each probe kept
    XTOL / 2 inside the bracket, or the midpoint for a tie and after
    ``STALE_ROUNDS`` rounds without a halving.  (time, start, end) at the
    end with the smaller |g|, or None where g does not change sign or a tie
    starts along one orientation."""

    def score(t):
        pts = traj.positions_at(t)
        ang = [canonical(math.atan2(pts[j, 1] - pts[i, 1], pts[j, 0] - pts[i, 0]))
               for i, j in (pair_lo, pair_hi)]
        c_a, c_b = (cost(pts, kind, a) for a in ang)
        return c_a - c_b, 1e-9 * (abs(c_b) + 1e-300), ang

    (f_lo, band, ang_lo), (f_hi, band_hi, ang_hi) = score(t_lo), score(t_hi)
    tie = f_lo >= -band
    res_lo, res_hi = (f_lo - band, f_hi - band_hi) if tie else (f_lo, f_hi)
    one_box = angular_distance(ang_lo[0], ang_lo[1], period) <= 1e-9
    if not res_lo <= 0.0 < res_hi or (tie and one_box):
        return None
    val_lo, val_hi = res_lo, res_hi
    side, stale, span = 0, 0, t_hi - t_lo
    while t_hi - t_lo > ROOT_XTOL * max(1.0, abs(t_hi)):
        nudge = 0.5 * ROOT_XTOL * max(1.0, abs(t_hi))
        c = min(max(t_hi - val_hi * (t_hi - t_lo) / (val_hi - val_lo), t_lo + nudge),
                t_hi - nudge)
        if stale >= STALE_ROUNDS or tie:
            c = 0.5 * (t_lo + t_hi)
        f, band, ang = score(c)
        g = f - band if tie else f
        if g > 0.0 and side == 1:
            m = 1.0 - g / val_hi
            val_lo *= m if m > 0.0 else 0.5
        if g < 0.0 and side == -1:
            m = 1.0 - g / val_lo
            val_hi *= m if m > 0.0 else 0.5
        if g >= 0.0:
            t_hi, val_hi, res_hi, ang_hi = c, g, g, ang
        if g <= 0.0:
            t_lo, val_lo, res_lo, ang_lo = c, g, g, ang
        side = 1 if g > 0.0 else -1 if g < 0.0 else side
        width = t_hi - t_lo
        stale = 0 if width <= 0.5 * span else stale + 1
        span = width if width <= 0.5 * span else span
    t, ang = (t_hi, ang_hi) if abs(res_hi) < abs(res_lo) else (t_lo, ang_lo)
    return t, canonical(ang[0], period), canonical(ang[1], period)


def isotropic_one(traj, t_lo, b_lo, t_hi, b_hi):
    """A ``pc`` flip between two samples where the frame's scatter matrix is
    isotropic (d^2 + 4e^2 <= (1e-9 tr)^2) at the golden-section minimum of
    that quartic over the step, found from each frame's own points."""
    def q(t):
        pts = traj.positions_at(t)
        c = pts - pts.mean(axis=0)
        sxx, sxy, syy = c[:, 0] @ c[:, 0], c[:, 0] @ c[:, 1], c[:, 1] @ c[:, 1]
        return (sxx - syy) ** 2 + 4.0 * sxy * sxy - (1e-9 * (sxx + syy)) ** 2

    t, value = refine_one(lambda t: -q(t), t_lo, t_hi, iters=80)
    if -value > 0.0 or not t_lo < t < t_hi:
        return []
    pts = traj.positions_at(t)
    return [sweep_one(pts, DescriptorKind.PC, math.pi, b_lo, b_hi,
                      optimal(pts, DescriptorKind.PC).cost, t)]


def refine_one(f, lo, hi, iters=60):
    """Golden-section maximization of one locally unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def arc_worst(pts, kind, start, signed_len, grid):
    offsets = np.linspace(0.0, signed_len, grid + 1)
    values = costs_at(pts, kind, start + offsets)
    i = int(np.argmax(values))
    return float(offsets[i]), float(values[i])


def sweep_one(pts, kind, period, a_from, a_to, opt_cost, time):
    """One flip's sweep, refined with one-frame cost calls."""
    gap_up = (canonical(a_to, period) - canonical(a_from, period)) % period
    gap_down = period - gap_up
    _, worst_up = arc_worst(pts, kind, a_from, gap_up, 64)
    _, worst_down = arc_worst(pts, kind, a_from, -gap_down, 64)
    signed_len = gap_up if worst_up <= worst_down else -gap_down
    off, worst = arc_worst(pts, kind, a_from, signed_len, 512)
    step = abs(signed_len) / 512
    lo = max(off - step, min(0.0, signed_len))
    hi = min(off + step, max(0.0, signed_len))
    if hi > lo:
        off_ref, worst_ref = refine_one(lambda o: cost(pts, kind, a_from + o), lo, hi)
        if worst_ref > worst:
            off, worst = off_ref, worst_ref
    return FlipEvent(
        time=time, start=canonical(a_from, period), end=canonical(a_to, period),
        direction=1 if signed_len >= 0.0 else -1, arc_length=abs(signed_len),
        worst_orientation=canonical(a_from + off, period), worst_cost=worst,
        opt_cost=opt_cost,
        worst_ratio=float(ratios(np.array([worst]), np.array([opt_cost]),
                                 zero_costs(pts[None], kind))[0]),
    )


def symmetric_pc_flip(quarter: int = 62) -> Trajectory:
    """A cloud of 4 * ``quarter`` points, symmetric in both axes, that narrows
    through isotropy as ``pc_flip`` does, above the brute-force limit."""
    u, v = np.random.default_rng(4).uniform(0.1, 1.0, (2, quarter))

    def cloud(w: float) -> np.ndarray:
        return np.concatenate([np.column_stack([sx * w / 2.0 * u, sy * 0.5 * v])
                               for sx in (1.0, -1.0) for sy in (1.0, -1.0)])

    return Trajectory(np.array([0.0, 1.0]), np.stack([cloud(2.0), cloud(0.5)]))


@pytest.mark.parametrize("traj, kind, dt", [
    (random_walk(seed=6), DescriptorKind.OBB, 1e-3),
    (random_walk(seed=6), DescriptorKind.STRIP, 1e-3),
    (random_walk(seed=15), DescriptorKind.OBB, 1e-3),
    (random_walk(seed=15, n=64, steps=20, duration=0.4), DescriptorKind.STRIP, 1e-3),
    (obb_lower_bound(), DescriptorKind.OBB, 1e-3),
    (strip_lower_bound(), DescriptorKind.STRIP, 1e-2),
    (symmetric_pc_flip(), DescriptorKind.PC, 1e-3),
], ids=["walk6-obb", "walk6-strip", "walk15-obb", "walk15-n64-strip", "obb-lower-bound",
        "strip-lower-bound", "pc-n248"])
def test_lockstep_flips_equal_sequential_bisection(request, traj, kind, dt):
    flips = track_topological(traj, kind, dt).flips
    reference = sequential_flips(traj, kind, dt)
    if kind is DescriptorKind.PC:  # closed form against a search of each step
        assert [(f.start, f.end) for f in flips] == [(f.start, f.end) for f in reference]
        for got, want in zip(flips, reference):
            assert abs(got.time - want.time) <= 1e-9
            assert abs(got.worst_ratio - want.worst_ratio) <= 1e-9
    else:
        assert flips == reference
    if request.node.callspec.id == "walk15-obb":
        assert not flips  # its box jumps are all between tied co-optima, held without flips
    else:
        assert flips  # every other input here flips


def test_lockstep_raises_the_earliest_jumps_midpoint_fault(monkeypatch):
    # The box flip scenario, then a right isosceles triangle, whose three
    # flush boxes tie, shrinking through a point at t = 2.5 and opening into
    # an obtuse one.  The second jump starts tied, so its first probe is its
    # midpoint, the coincident frame: it raises after the first jump's flip
    # is swept.
    flip = obb_lower_bound()
    first = []
    monkeypatch.setattr(tracker, "_locate_flips", lambda traj, kind, period, jumps:
                        first.extend(jumps) or [])
    track_topological(flip, DescriptorKind.OBB, 1e-3)
    monkeypatch.undo()
    tri = np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.3), (0.1, 0.2)])
    obtuse = -np.array([(-1.0, 0.0), (1.0, 0.0), (3.0, 1.0), (0.0, 0.3), (0.1, 0.2)])
    traj = Trajectory(np.array([0.0, 1.0, 1.5, 2.0, 3.0, 3.5]),
                      np.stack([*flip.positions, 2.0 * tri, tri, -tri, obtuse]))
    swept = []
    real = tracker._sweeps
    monkeypatch.setattr(tracker, "_sweeps", lambda *args: swept.extend(real(*args)) or swept)
    jumps = [*first, tracker.Jump(1.75, 3.25, (1, 2), (0, 1))]
    with pytest.raises(DegenerateInputError, match="^all points coincide"):
        _locate_flips(traj, DescriptorKind.OBB, math.pi / 2, jumps)
    assert swept == track_topological(flip, DescriptorKind.OBB, 1e-3).flips


# ---------------------------------------------------------------------------
# Degenerate inputs through the CLI.


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, traj):
    path = tmp_path / f"{name}.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_trajectory(fp, traj)
    return str(path)


TRIANGLE = np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
COLLAPSE = Trajectory(np.array([0.0, 1.0]), np.stack([TRIANGLE, -TRIANGLE]))  # a point at t=0.5
COINCIDE = "error: all points coincide; every descriptor is undefined\n"


@pytest.mark.parametrize("argv, message", [
    (["track", "--kind", "obb"], COINCIDE),
    (["track", "--kind", "strip"], COINCIDE),
    (["track", "--kind", "pc"], COINCIDE),
    (["descriptor"], COINCIDE),
    (["chase", "--no-normalize"], COINCIDE),
    (["chase"], "error: trajectory collapses to a single point\n"),
])
def test_interpolated_collapse_exits_two(tmp_path, argv, message):
    path = write(tmp_path, "collapse", COLLAPSE)
    code, out, err = cli_run([argv[0], path, "--dt", "0.01", *argv[1:]])
    assert (code, err) == (2, message)
    if argv[0] == "descriptor":  # the rows before the collapse are written first
        lines = out.splitlines()
        assert lines[-1].startswith("0.49,strip,") and len(lines) == 1 + 3 * 50
    else:
        assert out == ""


DEGENERATE = {
    "two-points": Trajectory(np.array([0.0, 1.0]), np.array(
        [[(0.0, 0.0), (1.0, 0.5)], [(0.3, 1.0), (-0.7, 0.2)]])),
    "collinear3": Trajectory(np.array([0.0, 0.5, 1.0]), np.array(
        [[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
         [(0.0, 0.0), (1.0, -1.0), (2.0, -2.0)],
         [(0.0, 1.0), (1.0, 1.0), (3.0, 1.0)]])),
    "duplicates": Trajectory(np.array([0.0, 1.0]), np.array(
        [[(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.5, 2.0)],
         [(0.0, 0.0), (0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0), (2.0, 0.5)]])),
    "single-keyframe": Trajectory(np.array([0.0]), np.array(
        [[(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0), (1.0, 1.5)]])),
}

OPERATIONS = {
    "track-obb": ["track", "--kind", "obb"],
    "track-strip": ["track", "--kind", "strip"],
    "track-pc": ["track", "--kind", "pc"],
    "descriptor": ["descriptor"],
    "chase-obb": ["chase", "--kind", "obb"],
    "chase-strip": ["chase", "--kind", "strip"],
    "chase-nonorm-obb": ["chase", "--no-normalize", "--kind", "obb"],
    "chase-nonorm-strip": ["chase", "--no-normalize", "--kind", "strip"],
}

# sha256 of stdout at --dt 0.01, pinned from the per-frame implementation.
# Every track-pc and descriptor digest was re-pinned when the principal
# axis's optimal cost became the summed squared offsets at the axis instead
# of the scatter matrix's smaller eigenvalue: only the pc optCost and ratio
# cells (every ratio now exactly 1.0) and the descriptor pc cost cells moved.
# The collinear3 and two-points track-obb, track-strip, descriptor and chase
# digests, and the duplicates track-obb and track-strip digests, were
# re-pinned when candidate tables became at least two columns wide and the
# tracker began reporting the table entry it steered to instead of scoring
# its output again: the box and strip costs of frames with one candidate
# (the collinear ones) moved in the last bits (cost and optCost cells), and
# every tracked ratio became exactly 1.0 (cost and ratio cells).  The
# collinear3, duplicates and two-points chase digests were re-pinned when a
# diametric pair's orientation began to be taken from the pair's lower end
# instead of from its lower point index: the diametric box moved in the
# last bits, and with it the beta, cost, ratio, z, H, J and angGap cells;
# time, optAlpha, optCost and inSafeZone did not.
PINNED = {
    "collinear3": {
        "chase-nonorm-obb": "92417fbe2ca02a46d3e54e90ff5f4f3ecedb1c033ccdebb85e2cca79dbff85b2",
        "chase-nonorm-strip": "d11cd56c283882cc158b4f0ab8acdda5d054b00b74b4f288520b36f42d258197",
        "chase-obb": "6731e9114458341541f72a6561f309d56c37316d4ed572ae3f20fca2f2c9ac7f",
        "chase-strip": "71d18fab495880a828f416c01c06975509772e75d5bb2635218409b390afecd2",
        "descriptor": "0fc3c35fe430271667d4371df205ef6f34365e1301230fd06ddb1a02be061caa",
        "track-obb": "f487aecc9edb727a5490128ddccfc249e884076695915fd3e5f0ca6d4dff8559",
        "track-pc": "29cfaf814ffa291128d0e3939962f2cb2623cb7332fb116473ac0675ab36e594",
        "track-strip": "89a3d0962793fabf15c597fba1d09a362c2acd91d7b599784f5aa5d5a432b2cd",
    },
    "duplicates": {
        "chase-nonorm-obb": "a8e8418e9fb7f4c8914bd60ec7adab2df695fd460e81f31f4c34d2048aad134b",
        "chase-nonorm-strip": "f16ba913dc46623f84435e5ff1185ded6dea9bcac5924a51275ba2d6312f1d51",
        "chase-obb": "b7253528a5fb9b58e5814bf54bb3f9683436e1fa1680474c0d9386d925a15127",
        "chase-strip": "cce837251008285f30cb86d82e4abd4130e3d473bc5634066b10d7627624517b",
        "descriptor": "a9524ff4938707cd932eb8ea87f34e931f8b4b8900b0c740edd0aac239ea67e6",
        # re-pinned when the tracker began holding tied co-optima (the flip
        # rows between them are gone), and again when a jump that starts in
        # a tie began to be located where the tie ends: the flip at
        # t = 0.71125 moved to 0.71168, the one at 0.0883250 by 6e-10
        "track-obb": "20e2e546226c608f7f48c72033dc75edc15b66af4c9559de2fa46400334ee329",
        "track-pc": "4cce4afd00be1b40ff354ff5df7c3c88b3a3abc7aae674b38133804a12d3a115",
        # re-pinned when flips between hull edges began to be root-found (the
        # flip at t = 0.642857 moved in the last bits), and again when a jump
        # that starts in a tie began to be located where the tie ends: the
        # flip at t = 2e-16 moved to 9e-10, the one at 0.642857 in the last bits
        "track-strip": "5014273ccc007828cb9d82cc964e72ccd7b6c216808e92679f985a04cc339fa7",
    },
    "single-keyframe": {
        "chase-nonorm-obb": "05fbff6f0bc6f6b351ab2f42eadf50ef349b646afce2afea1ff8082bc8744fec",
        "chase-nonorm-strip": "00939b15b2eeb1fc3ffb316912eee716912b1af04b4365812fd363564cab4a16",
        "chase-obb": "b2437b6740576c9feda5444b09f952c19e94f1424d25ec3d5e675783885f5da1",
        "chase-strip": "ac116646f88167e861dfee29b17b242231b63e14be1f6f87c628e8a009b8243c",
        "descriptor": "38de851e24c9486b7169bd2d3443f81dc44c1cd94bca717b0eb3ec5d3f10b947",
        "track-obb": "107cc2130a230adab1dd284679e2774da1cddaec9c0bcae52546f1d64471f4ee",
        "track-pc": "3a7b6588de3768a2ef46707d261f3a2f309276bc5767f4682ad23a788cc256dc",
        "track-strip": "a6276bad99446f6400fa8aad7a82e2342d044361b557a615eb58281e5773f42f",
    },
    "two-points": {
        "chase-nonorm-obb": "e0de510be26dc4ab2222b0c3f2a7407b9c5ac51c3a56da2092bc638af46f99d6",
        "chase-nonorm-strip": "b7eb8130520cfb5a7db55ff32517fa1b33d764f725638de084360903d6dc7107",
        "chase-obb": "ffaf89a1057fc322507b66bc7df736e3377446cb8c477e432b6dfc22db873256",
        "chase-strip": "549b66dbe51ade0a987812fc6de58fafa35cc27b4c6e17a6c090f1f4e08506d6",
        "descriptor": "3887358d973e39a237b136b9ba2b039bdc5664f5a54e81cfc127728849cb0b8c",
        "track-obb": "e990603a6e392b255159916c19d99af18d9066f9a8bad36719a7984b8f47b694",
        "track-pc": "e69861421fc669976283f720dc33e4dfe14635dfbf8185d09ecdef6e04859ae8",
        "track-strip": "325bf7fd6c0824112b561bae3ebef881bc9a8716492a412a5f8f96e5e1c46fa3",
    },
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_outputs_are_pinned(tmp_path, name):
    path = write(tmp_path, name, DEGENERATE[name])
    for op, argv in OPERATIONS.items():
        code, out, err = cli_run([argv[0], path, "--dt", "0.01", *argv[1:]])
        assert (code, err) == (0, ""), op
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[name][op], op


# ---------------------------------------------------------------------------
# The block budget bounds memory on large frames.


# 4000 points above the brute-force limit, 300 samples: all positions of a
# run would take 4000 * 300 * 16 bytes = 19.2 MB at once; a third of it bounds
# what a run may hold.
RUN_MEMORY_CAP = 300 * 4000 * 2 * 8 / 3


def large_cloud(monkeypatch) -> np.ndarray:
    """A 4000-point cloud, with the block chain replaced by reading off
    its hull vertices for every frame it is given.  The runs below move it by similarities, so every
    frame's hull is those vertices.  Reading them off keeps the tests to
    seconds under tracing, which the chain's per-point Python objects would
    slow tenfold; the chain's own transient memory is O(n) per frame either
    way."""
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 2.0 * math.pi, 4000)
    base = np.column_stack([3.0 * np.cos(phi), np.sin(phi)]) * np.sqrt(rng.uniform(0, 1, (4000, 1)))
    vertices = np.array([np.flatnonzero((base == v).all(axis=1))[0] for v in convex_hull(base)])
    monkeypatch.setattr(geometry, "_monotone_chains",
                        lambda points, keep=None: [vertices] * len(points))
    return base


def peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_budget_bounds_run_memory(monkeypatch):
    base = large_cloud(monkeypatch)
    c, s = math.cos(0.4), math.sin(0.4)
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([base, base @ [[c, s], [-s, c]]]))
    dt = 1.0 / 299
    assert len(traj.sample_times(dt)) == 300
    for run in (lambda: track_topological(traj, DescriptorKind.OBB, dt),
                lambda: chase(traj, dt=dt)):
        assert peak_bytes(run) < RUN_MEMORY_CAP


def test_normalization_stays_within_the_block_budget(monkeypatch):
    # Halved lower bounds never reach a drifting cloud's diameter, so the
    # scan does not end early: the bounds and the diameters of all 1025 grid
    # frames (65.6 MB of positions) are computed.
    base = large_cloud(monkeypatch)
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([base, base + [5.0, -2.0]]))
    bounds, diameters = chasing.diameter_lower_bounds, chasing.frame_diameters
    diametered = []
    monkeypatch.setattr(chasing, "diameter_lower_bounds", lambda frames: 0.5 * bounds(frames))
    monkeypatch.setattr(chasing, "frame_diameters",
                        lambda frames: diametered.append(len(frames)) or diameters(frames))
    assert peak_bytes(lambda: normalize_trajectory(traj)) < RUN_MEMORY_CAP
    assert sum(diametered) == 1025


def test_flip_sweeps_stay_within_the_block_budget():
    # obb_lower_bound's box flip with 4000 static points added inside the
    # triangle (0, 0), (0.75, 0), (0.75, 1), where no turn test of the moving
    # point changes outcome: most frames replay a chain trace.  Sweeping
    # the flip's 513 orientations by projecting all 4005 points would take
    # 4005 * 513 * 8 bytes = 16.4 MB at once.
    flip = obb_lower_bound()
    u, v = np.random.default_rng(3).uniform(0.02, 0.98, (2, 4000))
    inner = np.column_stack([0.02 + 0.71 * np.maximum(u, v), 0.96 * np.minimum(u, v)])
    traj = Trajectory(flip.times, np.concatenate(
        [flip.positions, np.broadcast_to(inner, (2, 4000, 2))], axis=1))
    tracemalloc.start()
    try:
        out = track_topological(traj, DescriptorKind.OBB, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.flips) == 1
    assert abs(out.flips[0].worst_ratio - 1.25) <= 1e-3
    assert peak < 8 * geometry._BLOCK_BYTES
