"""Numerical re-verification of every closed-form guarantee the trackers rely on.

The claims live in one table, :data:`CLAIMS`: each row has an id, a
description and a check that compares a computed value with its expected
value under a pinned tolerance (or a violation count that must be zero).
The table covers: the constrained max-min program bounding the worst box
sweep by 5/4 (an upper bound certified by interval branch and bound, with
a feasible witness from below), the sine/arcsine inequalities, the empirical
orientation-change and aspect-drop bounds, the worst-case flip ratios of the
three built-in adversarial scenarios, the double-cover winding of the forced
orientation, the principal-axis speed escape, the speed-capped chase
guarantees, and the recorded box sweeps on random walks.  Every stage runs
serially on the calling thread.

The principal-axis speed escape reads the axis of its ~60k-point cluster
off one scatter polynomial per keyframe segment
(``solvers.principal_axes``) instead of solving every sampled frame; only
samples whose eigenvalue gap is below 1e-3 of their segment's moment scale
are solved frame by frame.  Each axis is then within about 1e3 rounding
units (a few 1e-13 rad) of the per-frame solve, and the measured speed
within about that over dt.  Its diameter check interpolates one point per
run of adjacent points with equal keyframe paths, 4 of the cluster's
61,498 at the default rate (``min_anchor_diameter``).  That is exact:
interpolation is elementwise, so points with ``==`` keyframes get equal
coordinates, bitwise up to the sign of a zero, which squaring drops.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import angular_distances, cos, sin, winding_number
from .chasing import (ChaseParams, aspect_drop_bound, aspect_drop_window, chase,
                      normalize_trajectory, pair_turn_bound, pair_turn_window)
from .costs import DescriptorKind
from .errors import DegenerateInputError, DomainError
from .geometry import Frames, block_size, diametric_boxes, farthest, frame_faults
from .ratios import max_ratio
from .scenarios import (
    obb_lower_bound,
    pc_fast_flip,
    pc_flip,
    random_walk,
    strip_lower_bound,
)
from .solvers import block_optima, principal_axes
from .tracker import track_topological
from .trajectory import Trajectory, check_dt

SQRT2 = math.sqrt(2.0)
_TRIG_TOL = 1e-12  # a sampled inequality may miss by this much rounding
_WINDOW_STEPS = (1, 2, 5, 10)  # sample spacings the empirical bounds are checked over
_UNCHASED = "pc-flip"  # the one normalized trajectory the chase claims leave out

# A run's sample times and the diametric pair's orientation and aspect at each.
PairSamples = tuple[np.ndarray, np.ndarray, np.ndarray]


def thread_count() -> int:
    """Always 1; kept because kinobench/run.py records it in its provenance."""
    return 1


def _parallel_map(fn, items):
    """Ordered serial map; kept because kinobench/spans.py times the walk-flip stage by it."""
    return [fn(x) for x in items]


@dataclass(frozen=True)
class ClaimCheck:
    claim_id: str
    description: str
    expected: str
    computed: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    claims: list[ClaimCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def table_lines(self) -> list[str]:
        width = max((len(c.claim_id) for c in self.claims), default=10)
        lines = []
        for c in self.claims:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{mark}] {c.claim_id:<{width}}  expected {c.expected}  got {c.computed}"
                + (f"  ({c.detail})" if c.detail else "")
            )
        return lines

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "claims": [
                {
                    "id": c.claim_id,
                    "description": c.description,
                    "expected": c.expected,
                    "computed": c.computed,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.claims
            ],
        }


# ---------------------------------------------------------------------------
# The constrained max-min program bounding the worst intermediate box.


def intermediate_box_area(a: float, b: float, alpha: float, theta: float) -> float:
    """Area of the box at angle ``theta`` that still covers the intersection
    of two unit-area boxes whose major axes are ``a`` and ``b``, ``alpha`` apart.

    Valid for 0 < alpha < pi/2, 0 <= theta <= alpha, positive axis lengths;
    theta = 0 reproduces the first box (area 1).
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError("axis lengths must be positive")
    if not (0.0 < alpha < math.pi / 2.0):
        raise DomainError("alpha must lie strictly between 0 and pi/2")
    if not (0.0 <= theta <= alpha):
        raise DomainError("theta must lie in [0, alpha]")
    rest, turned, sa = math.sin(alpha - theta), math.sin(theta), math.sin(alpha)
    return (b * rest + a * turned) * (a * rest + b * turned) / (a * b * sa * sa)


def swept_box_peak(a, b, cos_turn):
    """Peak of ``intermediate_box_area`` over the sweep, reached at theta = alpha/2:
    (a+b)^2 / (2ab(1+cos alpha)), given cos alpha (floats or arrays)."""
    return (a + b) ** 2 / (2.0 * a * b * (1.0 + cos_turn))


def _program_objective(a, b, alpha):
    # turning by alpha one way, or by pi/2 - alpha (cosine sin alpha) the other
    return np.minimum(swept_box_peak(a, b, np.cos(alpha)),
                      swept_box_peak(1.0, a * b, np.sin(alpha)))


# Outward rounding of every box bound.  A bound is a sum, product or quotient of
# positive terms, so relative errors add along its longest path: libm's sin and cos
# are within 1 ulp, eps (glibc documents it; hence math's, not numpy's SIMD kernels),
# and every other operation rounds by eps/2.  b_top is 2 eps deep, the peak 4.5 eps
# (g damps r's error: r g'(r)/g(r) = (r-1)/(r+1) < 1), and each product with this
# factor adds eps/2, so 1 + 32 eps covers the 5 eps with room to spare.
_OUTWARD = 1.0 + 32.0 * np.finfo(float).eps
_PRUNE_SLACK = 1e-12  # a box is done once its bound is within this of the best witness
_PROGRAM_BOXES = 200_000  # box budget: past it, the open boxes' bounds are reported
_OCTANTS = np.array([[(k >> j) & 1 for j in range(3)] for k in range(8)], dtype=bool)


def _box_bound(lo, hi):
    """Upper bound of ``_program_objective`` on each box's feasible points
    (rows of (a, b, alpha) ends), -inf on a box without one.  On the angle
    range b <= b_top, and both terms are g(r) / (2(1 + cos turn)) with
    g(r) = r + 2 + 1/r increasing for r >= 1: r = b/a <= b_top/a_lo at cos
    alpha >= cos alpha_hi, and r = ab <= a_hi b_top at sin alpha >= sin alpha_lo."""
    (a_lo, b_lo, al_lo), (a_hi, b_hi, al_hi) = lo.T, hi.T
    b_top = np.minimum(b_hi, (a_hi * cos(al_lo) + sin(al_hi) / a_lo) * _OUTWARD)
    bound = np.minimum(swept_box_peak(1.0, b_top / a_lo, cos(al_hi)),
                       swept_box_peak(1.0, a_hi * b_top, sin(al_lo))) * _OUTWARD
    return np.where(b_top < np.maximum(b_lo, a_lo), -np.inf, bound)


@dataclass(frozen=True)
class ProgramResult:
    bound: float  # certified upper bound of the large-angle branch
    witness: float  # its best value at a feasible box centre, witness_at = (a, b, alpha)
    witness_at: tuple[float, float, float]
    boxes: int
    small_angle_max: float
    small_angle_argmax: tuple[float, float]


def verify_obb_program() -> ProgramResult:
    """Certified upper bound and a feasible witness of the sweep program.

    The large-angle branch maximizes
    min((a+b)^2 / (2ab(1+cos alpha)), (1+ab)^2 / (2ab(1+sin alpha))) subject
    to b <= a*cos(alpha) + sin(alpha)/a, pi/4 < alpha < pi/2, 1 <= a <= b; its
    supremum is 5/4, at a = b = sqrt(2), cos alpha = 3/5.  Branch and bound
    keeps the best objective at a feasible box centre as the witness, and
    splits a box into 8 until its bound is within ``_PRUNE_SLACK`` of it; the
    certified bound is the largest bound of a pruned box.  Past
    ``_PROGRAM_BOXES`` boxes the open ones count as pruned, so a bound that
    does not converge (NaN included) fails instead of looping.  The
    small-angle branch, (1+c)^2 / (2c(1+cos alpha)) over 1 <= c <= sqrt(2),
    0 < alpha <= pi/4, increases in c and alpha: its maximum is the corner.
    """
    # Feasibility forces a <= sqrt(cot(alpha/2)) <= sqrt(1 + sqrt(2)), b < 2.2 on the
    # angle range, and a = b = 1 (objective 1) between the float pi/2 and pi/2.
    lo = np.array([[1.0, 1.0, math.pi / 4]])
    hi = np.array([[math.sqrt(1.0 + SQRT2) + 1e-9, 2.2, math.pi / 2]])
    bound, best, best_at, boxes = -math.inf, -math.inf, (math.nan,) * 3, 0
    while len(lo):
        boxes += len(lo)
        upper = _box_bound(lo, hi)
        mid = 0.5 * (lo + hi)
        a, b, alpha = mid.T
        feasible = (a <= b) & (b <= a * np.cos(alpha) + np.sin(alpha) / a)
        values = np.where(feasible, _program_objective(a, b, alpha), -math.inf)
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_at = float(values[i]), tuple(mid[i].tolist())
        split = ~(upper <= best + _PRUNE_SLACK)  # a NaN bound stays open ...
        split &= boxes + 8 * int(split.sum()) <= _PROGRAM_BOXES  # ... within the budget
        bound = float(np.max(upper[~split], initial=bound))  # NaN propagates
        lo, hi, mid = lo[split, None], hi[split, None], mid[split, None]
        lo = np.where(_OCTANTS, mid, lo).reshape(-1, 3)
        hi = np.where(_OCTANTS, hi, mid).reshape(-1, 3)
    c, turn = SQRT2, math.pi / 4
    return ProgramResult(float(np.maximum(bound, best)), best, best_at, boxes,
                         swept_box_peak(1.0, c, math.cos(turn)), (c, turn))


# ---------------------------------------------------------------------------
# Sine/arcsine inequalities used by the chase analysis.


@dataclass(frozen=True)
class SamplingResult:
    violations: int
    worst_margin: float
    witness: tuple[float, ...] | None = None


def verify_trig_bounds(samples: int = 100_000, seed: int = 0) -> dict[str, SamplingResult]:
    """Sampled checks of sin(lam*arcsin(x)) <=/>= lam*x and the arcsine envelope.

    For 0 <= x <= 1: sin(lam*arcsin x) <= lam*x when lam >= 1 and >= lam*x
    when 0 < lam <= 1; and x <= arcsin(x) <= (arcsin(a)/a)*x for 0 < x <= a <= 1.
    """
    if samples < 1:
        raise DomainError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, samples)
    lam_hi = rng.uniform(1.0, 10.0, samples)
    lam_lo = rng.uniform(1e-6, 1.0, samples)

    out: dict[str, SamplingResult] = {}

    def summarize(margins: np.ndarray, xs, ls) -> SamplingResult:
        worst = float(margins.max())
        bad = margins > _TRIG_TOL
        witness = None
        if bad.any():
            i = int(np.argmax(margins))
            witness = (float(xs[i]), float(ls[i]))
        return SamplingResult(int(bad.sum()), worst, witness)

    out["sine-upper"] = summarize(np.sin(lam_hi * np.arcsin(x)) - lam_hi * x, x, lam_hi)
    out["sine-lower"] = summarize(lam_lo * x - np.sin(lam_lo * np.arcsin(x)), x, lam_lo)

    a = rng.uniform(1e-9, 1.0, samples)
    xa = a * rng.uniform(0.0, 1.0, samples)
    arc = np.arcsin(xa)
    below = xa - arc
    above = arc - np.arcsin(a) / a * xa
    out["arcsine-envelope"] = summarize(np.maximum(below, above), xa, a)
    return out


# ---------------------------------------------------------------------------
# Empirical orientation-change / aspect-drop bounds on sampled trajectories.


def diametric_samples(traj: Trajectory, dt: float = 1e-3) -> PairSamples:
    """The sample times of ``traj`` at ``dt``, and the diametric pair's
    orientation and aspect at each: what ``chase`` steers by and reports
    (``SafeZoneReport.target`` and ``aspect``)."""
    times = traj.sample_times(dt)
    boxes = [diametric_boxes(frames) for frames in traj.frame_blocks(times)]
    return (times, np.concatenate([b.alpha for b in boxes]),
            np.concatenate([b.aspect for b in boxes]))


def verify_bound_empirics(named_samples: list[tuple[str, PairSamples]],
                          dt: float = 1e-3) -> dict[str, SamplingResult]:
    """Check the sampled diametric pair against the turn and drop bounds.

    Each entry names a trajectory and its ``diametric_samples`` at ``dt``.
    Trajectories must already be normalized (unit speed, diameter >= 1).
    Sampling can miss the exact flip instant by up to dt per endpoint, so
    both bounds are evaluated at 4*dt of extra elapsed time, over every
    (sample, window) pair at once; where that padded time leaves the turn
    bound's window, the turn bound is pi/2.
    """
    # per bound: [violations, worst margin, witness]; the witness is the first
    # maximum in (trajectory, window, sample) order
    found = {"pair-turn": [0, -math.inf, None], "aspect-drop": [0, -math.inf, None]}
    for name, (times, alphas, aspects) in named_samples:
        turn_window, drop_window = pair_turn_window(aspects), aspect_drop_window(aspects)
        for k in (k for k in _WINDOW_STEPS if k < len(times)):
            elapsed, n = k * dt, len(times) - k
            padded = elapsed + 4.0 * dt
            i = np.flatnonzero(elapsed <= turn_window[:n])
            bound = np.full(len(i), math.pi / 2.0)  # asin 1 where padded leaves the window
            inside = padded <= turn_window[i]
            bound[inside] = pair_turn_bound(aspects[i][inside], padded)
            turn = angular_distances(alphas[i], alphas[i + k]) - bound
            j = np.flatnonzero(padded <= drop_window[:n])
            drop = (aspects[j] - aspects[j + k]) - aspect_drop_bound(aspects[j], padded)
            for key, margins, at in (("pair-turn", turn, i), ("aspect-drop", drop, j)):
                entry = found[key]
                if len(at) and margins.max() > entry[1]:
                    m = at[int(np.argmax(margins))]
                    entry[1:] = float(margins.max()), (name, float(times[m]),
                                                       float(aspects[m]), elapsed)
                entry[0] += int((margins > 0.0).sum())
    return {key: SamplingResult(*entry) for key, entry in found.items()}


# ---------------------------------------------------------------------------
# Scenario-level measurements.


def measured_axis_speed(traj: Trajectory, dt: float = 1e-3) -> float:
    """Max finite-difference rotation speed of the optimal principal axis.

    The axes come from ``solvers.principal_axes``: one scatter polynomial
    per keyframe segment, O(n) per segment instead of per sample.  A sample
    whose eigenvalue gap is below 1e-3 of its segment's moment scale is
    solved from its interpolated frame as ``block_optima`` solves it (frame
    check included).  Every other axis is within about 1e3 rounding units
    (a few 1e-13 rad) of that per-frame solve, so each step's speed is
    within about twice that over dt of the per-frame one.
    """
    times = traj.sample_times(dt)
    alphas = principal_axes(traj, times)[0]
    speeds = angular_distances(alphas[:-1], alphas[1:]) / np.diff(times)
    return float(speeds.max(initial=0.0))


def min_anchor_diameter(traj: Trajectory, dt: float = 1e-3) -> float:
    """Min over samples of the farthest distance from point 0.

    This is a lower bound on the true diameter at every sample (the
    diameter is the max over all pairs, this is the max over pairs through
    point 0), cheap enough for very large clusters.  The square root is
    taken of each frame's largest dx*dx + dy*dy only: it is correctly
    rounded and monotone, so that is the largest root.

    Only the first point of each run of adjacent points with ``==`` keyframe
    paths is interpolated, point 0 among them.
    Interpolation is elementwise per point, so points whose keyframes
    compare equal get equal coordinates at every sample, bitwise up to the
    sign of a zero, which squaring drops: the result is the same float as
    over all points.  At least two runs are left, since a ``Trajectory``
    has no keyframe whose points all coincide.
    """
    pos = traj.positions
    # point i + 1 is kept unless it follows point i's path
    keep = np.concatenate(([True], (pos[:, 1:] != pos[:, :-1]).any(axis=(0, 2))))
    if not keep.all():
        traj = Trajectory(traj.times, pos[:, keep])
    times = traj.sample_times(dt)
    worst = math.inf
    for frames in traj.frame_blocks(times, check=False):
        pts = frames.points
        d2 = farthest(pts[:, :, 0], pts[:, :, 1], np.zeros(len(pts), dtype=np.intp))[0]
        worst = min(worst, float(np.sqrt(d2).min()))
    return worst


def forced_orientation_winding(n: int = 5, samples: int = 4096) -> int:
    """Winding number of the forced optimal strip orientation over one sweep
    of ``stateless_disk(n, 1.0, phi)``, built and checked a block at a time."""
    if n < 3:
        raise DomainError("need at least 3 points")
    reach, size, angles = 1.0 * np.arange(1, n + 1, dtype=float) / n, block_size(n), []
    for start in range(0, samples, size):
        phis = [2.0 * math.pi * k / samples for k in range(start, min(start + size, samples))]
        points = np.stack([reach * np.array([[f(phi)] for phi in phis])
                           for f in (math.sin, math.cos)], axis=2)
        faults = frame_faults(points)
        if faults:
            raise DegenerateInputError(faults[min(faults)])
        angles += block_optima(Frames(points), (DescriptorKind.STRIP,))[0].alpha.tolist()
    return winding_number(angles)


@dataclass(frozen=True)
class ChaseSuiteResult:
    max_step_excess: float
    safe_zone_violations: int
    worst_gap_excess: float
    max_obb_ratio: float
    max_strip_ratio: float
    # per run, the diametric pair it chased (``diametric_samples``)
    pairs: tuple[PairSamples, ...] = field(default=(), compare=False, repr=False)


def chase_suite(trajectories: list[Trajectory], dt: float = 1e-3) -> ChaseSuiteResult:
    """Chase every (already normalized) trajectory with the default
    ``ChaseParams`` and aggregate the guarantees.

    Checks, per run: the per-step rotation never exceeds the cap; after the
    tracker first enters the safe zone, at every sample with aspect <= 1/2
    the gap stays within (2c+2)*arcsin(aspect) plus one step of slack; and
    the box and strip ratios stay bounded.  The result keeps each run's
    diametric pair samples.
    """
    params = ChaseParams()
    step_cap = params.max_turn_rate * dt

    def run(traj: Trajectory):
        res = chase(traj, params, dt)
        box, strip = res.runs[DescriptorKind.OBB], res.runs[DescriptorKind.STRIP]
        step_excess = float(box.step_distances().max(initial=0.0) - step_cap)
        sz = res.safe_zone
        warm = np.cumsum(sz.in_safe_zone) > 0  # from the first sample in the safe zone on
        mask = warm & (sz.aspect <= 0.5)
        excess = sz.ang_gap[mask] - (sz.interval_half_width[mask] + step_cap)
        return (
            step_excess, int((excess > 1e-12).sum()), float(excess.max(initial=-math.inf)),
            float(np.max(box.ratio)), float(np.max(strip.ratio)),
            (res.times, sz.target, sz.aspect),
        )

    steps, violations, gaps, boxes, strips, pairs = zip(*_parallel_map(run, trajectories))
    return ChaseSuiteResult(max(steps), sum(violations), max(gaps), max(boxes), max(strips),
                            pairs)


# ---------------------------------------------------------------------------
# The claim table.  ``run_claim_suite``, ``kinostable verify``, demo 05 and
# the acceptance gate all iterate ``CLAIMS``; each expected value, tolerance
# and runtime budget is written down once, here.


@dataclass(frozen=True)
class SuiteOptions:
    grid: int = 512  # unread; kinobench's mini verify still passes it
    dt: float = 1e-3
    seed: int = 0
    walks: int = 20
    trig_samples: int = 100_000
    fast_flip_rate: float = 100.0

    def __post_init__(self):
        # checked here, before ``kinostable verify`` opens its report
        if self.walks < 1:
            raise DomainError("walks must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if self.trig_samples < 1:
            raise DomainError("samples must be at least 1")
        check_dt(self.dt)


class SuiteRun:
    """The inputs several claims share, each built on first use, once per run.

    Stage functions are looked up by their module-level names when a claim
    runs, so anything that replaces them on the module (a profiler, a span
    recorder) sees every call.
    """

    def __init__(self, opts: SuiteOptions):
        self.opts = opts

    @cached_property
    def program(self) -> ProgramResult:
        return verify_obb_program()

    @cached_property
    def trig(self) -> dict[str, SamplingResult]:
        return verify_trig_bounds(self.opts.trig_samples, self.opts.seed)

    @cached_property
    def walks(self) -> list[tuple[str, Trajectory]]:
        """The raw random-walk corpus."""
        return [
            (f"random-walk-{s}", random_walk(seed=self.opts.seed + s))
            for s in range(self.opts.walks)
        ]

    @cached_property
    def normalized(self) -> list[tuple[str, Trajectory]]:
        """The three flip scenarios and the walks, each normalized."""
        corpus = [
            ("obb-lower-bound", obb_lower_bound()),
            ("strip-lower-bound", strip_lower_bound()),
            ("pc-flip", pc_flip()),
            *self.walks,
        ]
        return [(name, normalize_trajectory(t)[0]) for name, t in corpus]

    @cached_property
    def empirics(self) -> dict[str, SamplingResult]:
        """The turn and drop bounds on the normalized corpus, on the pairs
        the chase runs sampled; only the axis scenario samples its own."""
        chased = iter(self.chased.pairs)
        named = [(name, diametric_samples(t, self.opts.dt) if name == _UNCHASED else next(chased))
                 for name, t in self.normalized]
        return verify_bound_empirics(named, self.opts.dt)

    @cached_property
    def chased(self) -> ChaseSuiteResult:
        """The chase guarantees on the normalized corpus, without the axis scenario."""
        trajs = [t for name, t in self.normalized if name != _UNCHASED]
        return chase_suite(trajs, self.opts.dt)


@dataclass(frozen=True)
class Budget:
    """A runtime bound the acceptance gate puts on the claims that share it."""

    name: str
    seconds: float


# (expected, computed, passed, detail), as the report prints them.
Verdict = tuple[str, str, bool, str]


@dataclass(frozen=True)
class Claim:
    """One row of the claim table: an id, what it states, and how it is checked."""

    claim_id: str
    description: str
    check: Callable[[SuiteRun], Verdict]
    budget: Budget | None = None

    def evaluate(self, run: SuiteRun) -> ClaimCheck:
        return ClaimCheck(self.claim_id, self.description, *self.check(run))


FIVE_QUARTERS = 1.25 + 1e-3  # the 5/4 box-sweep bound plus slack for sampled sweeps
PROGRAM_CAP = 1.25 + 1e-9  # the certified bound exceeds 5/4 by at most its 1e-12 prune slack
CHASE_RATIO_CAP = ChaseParams().ratio_cap  # 4c+6 = 18
PROGRAM_BUDGET = Budget("the sweep program", 60.0)
BOX_FLIP_BUDGET = Budget("the box flip scenario and sweep", 30.0)
CHASE_BUDGET = Budget("the chase guarantees", 120.0)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _at_most(value: float, cap: float, detail: str = "", label: str = "") -> Verdict:
    return f"{label}<= {_fmt(cap)}", _fmt(value), value <= cap, detail


def _near(value: float, expected: float, tol: float, detail: str = "") -> Verdict:
    return _fmt(expected), _fmt(value), abs(value - expected) <= tol, detail


def _no_violations(count: int, detail: str) -> Verdict:
    return "0 violations", f"{count} violations", count == 0, detail


def _trig_claim(key: str) -> Claim:
    def check(run: SuiteRun) -> Verdict:
        res = run.trig[key]
        witness = f", witness {res.witness}" if res.witness else ""
        return _no_violations(res.violations, f"worst margin {res.worst_margin:.3e}{witness}")

    return Claim(f"trig-{key}", f"sampled inequality {key} holds", check)


def _bound_claim(key: str) -> Claim:
    def check(run: SuiteRun) -> Verdict:
        res = run.empirics[key]
        return _no_violations(res.violations, f"worst margin {res.worst_margin:.3e}")

    return Claim(f"bound-{key}", f"sampled {key} bound holds with discretization slack", check)


def _flip_claim(claim_id: str, scenario: Callable[[], Trajectory], kind: DescriptorKind,
                expected: float, tol: float, budget: Budget | None = None) -> Claim:
    def check(run: SuiteRun) -> Verdict:
        measured = max_ratio(track_topological(scenario(), kind, run.opts.dt))
        return _near(measured, expected, tol, f"tolerance {tol:g}")

    return Claim(claim_id, f"worst tracked ratio on the forced {kind.value} flip scenario",
                 check, budget)


def _program_max(run: SuiteRun) -> Verdict:
    res = run.program
    a, b, alpha = res.witness_at
    return _at_most(res.bound, PROGRAM_CAP, f"bound {res.bound!r} over {res.boxes} boxes; "
                    f"witness {res.witness!r} at a={a:.10f} b={b:.10f} alpha={alpha:.10f}")


def _double_cover(run: SuiteRun) -> Verdict:
    winding = forced_orientation_winding()
    return "|winding| = 2", str(winding), abs(winding) == 2, ""


def _axis_speed_escape(run: SuiteRun) -> Verdict:
    rate = run.opts.fast_flip_rate
    fast = pc_fast_flip(rate)
    speed = measured_axis_speed(fast, run.opts.dt)
    min_diam = min_anchor_diameter(fast, run.opts.dt)
    return (f"> {rate:g} and diameter >= 1", f"speed {speed:.4g}, diameter >= {min_diam:.6g}",
            speed > rate and min_diam >= 1.0, "")


def _chase_ratio_cap(run: SuiteRun) -> Verdict:
    box, strip = run.chased.max_obb_ratio, run.chased.max_strip_ratio
    return (f"<= {CHASE_RATIO_CAP:g}", f"obb {box:.4g}, strip {strip:.4g}",
            max(box, strip) <= CHASE_RATIO_CAP, "")


def _walk_flip_worst(walk: Trajectory, dt: float) -> float:
    out = track_topological(walk, DescriptorKind.OBB, dt)
    return max((f.worst_ratio for f in out.flips), default=0.0)


def _sweep_cap(run: SuiteRun) -> Verdict:
    walks = [t for _, t in run.walks]
    worst = max(_parallel_map(lambda w: _walk_flip_worst(w, run.opts.dt), walks), default=0.0)
    return _at_most(worst, FIVE_QUARTERS)


CLAIMS: tuple[Claim, ...] = (
    Claim("box-sweep-program-max",
          "global max of the worst-intermediate-box program stays at or below 5/4",
          _program_max, PROGRAM_BUDGET),
    Claim("box-sweep-small-angle-branch", "small-angle branch max equals 1/2 + sqrt(2)/2",
          lambda run: _near(run.program.small_angle_max, 0.5 + SQRT2 / 2.0, 1e-6),
          PROGRAM_BUDGET),
    _trig_claim("sine-upper"),
    _trig_claim("sine-lower"),
    _trig_claim("arcsine-envelope"),
    _bound_claim("pair-turn"),
    _bound_claim("aspect-drop"),
    _flip_claim("box-flip-ratio", obb_lower_bound, DescriptorKind.OBB, 1.25, 1e-3,
                BOX_FLIP_BUDGET),
    _flip_claim("strip-flip-ratio", strip_lower_bound, DescriptorKind.STRIP, SQRT2, 1e-3),
    _flip_claim("axis-flip-ratio", pc_flip, DescriptorKind.PC, 1.0, 1e-6),
    Claim("stateless-double-cover",
          "forced orientation winds twice over one sweep of the collinear family",
          _double_cover),
    Claim("axis-speed-escape",
          "principal axis outruns the speed cap while the diameter stays >= 1",
          _axis_speed_escape),
    Claim("chase-rotation-cap", "per-step chase rotation never exceeds rate * dt",
          lambda run: _at_most(run.chased.max_step_excess, 1e-12, label="excess "),
          CHASE_BUDGET),
    Claim("chase-safe-zone",
          "post warm-up gap within (2c+2)*arcsin(aspect) plus one step, when aspect <= 1/2",
          lambda run: _no_violations(run.chased.safe_zone_violations,
                                     f"worst excess {run.chased.worst_gap_excess:.3e}"),
          CHASE_BUDGET),
    Claim("chase-ratio-cap", "box and strip chase ratios stay within 4c+6",
          _chase_ratio_cap, CHASE_BUDGET),
    Claim("box-flip-sweep-cap",
          "recorded box flip sweeps on the random-walk corpus stay within 5/4",
          _sweep_cap, BOX_FLIP_BUDGET),
)


def run_claim_suite(opts: SuiteOptions = SuiteOptions()) -> VerificationReport:
    """Check every claim in ``CLAIMS`` on one run's shared inputs."""
    run = SuiteRun(opts)
    return VerificationReport([claim.evaluate(run) for claim in CLAIMS])
