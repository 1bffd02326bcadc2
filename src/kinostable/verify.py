"""Numerical re-verification of every closed-form guarantee the trackers rely on.

Each check is a :class:`ClaimCheck` with an expected value, a computed
value, and a tolerance (or a violation count that must be zero).  The full
suite covers: the constrained max-min program bounding the worst box sweep
by 5/4, the sine/arcsine inequalities, the empirical orientation-change and
aspect-drop bounds, the worst-case flip ratios of the three built-in
adversarial scenarios, the double-cover winding of the forced orientation,
the principal-axis speed escape, and the speed-capped chase guarantees.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .angles import angular_distance, winding_number
from .chasing import ChaseParams, chase, normalize_trajectory
from .costs import DescriptorKind
from .errors import DomainError
from .geometry import diametric_box
from .ratios import max_ratio
from .scenarios import (
    obb_lower_bound,
    pc_fast_flip,
    pc_flip,
    random_walk,
    stateless_disk,
    strip_lower_bound,
)
from .solvers import optimal, optimal_pc
from .tracker import track_topological
from .trajectory import Trajectory

SQRT2 = math.sqrt(2.0)


def thread_count() -> int:
    """Parallelism cap: KINOSTABLE_THREADS if set, else the CPU count."""
    env = os.environ.get("KINOSTABLE_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise DomainError(f"KINOSTABLE_THREADS must be an integer, got {env!r}") from exc
        return max(1, n)
    return max(1, os.cpu_count() or 1)


def _parallel_map(fn, items):
    """Map preserving order, fanned out over at most thread_count() workers."""
    workers = min(thread_count(), max(len(items), 1))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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

    def add(self, claim: ClaimCheck) -> None:
        self.claims.append(claim)

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


def _program_objective(a, b, alpha):
    turn_ccw = (a + b) ** 2 / (2.0 * a * b * (1.0 + np.cos(alpha)))
    turn_cw = (1.0 + a * b) ** 2 / (2.0 * a * b * (1.0 + np.sin(alpha)))
    return np.minimum(turn_ccw, turn_cw)


def _program_grid_max(a_lo, a_hi, b_lo, b_hi, al_lo, al_hi, grid_axis, grid_angle):
    best_val = -math.inf
    best_arg = (math.nan,) * 3
    a_grid = np.linspace(a_lo, a_hi, grid_axis)
    b_grid = np.linspace(b_lo, b_hi, grid_axis)
    aa, bb = np.meshgrid(a_grid, b_grid, indexing="ij")
    for alpha in np.linspace(al_lo, al_hi, grid_angle):
        feasible = (bb >= aa) & (bb <= aa * math.cos(alpha) + math.sin(alpha) / aa)
        if not feasible.any():
            continue
        vals = np.where(feasible, _program_objective(aa, bb, alpha), -math.inf)
        i = int(np.argmax(vals))
        v = float(vals.flat[i])
        if v > best_val:
            best_val = v
            best_arg = (float(aa.flat[i]), float(bb.flat[i]), float(alpha))
    return best_val, best_arg


@dataclass(frozen=True)
class ProgramResult:
    max_value: float
    argmax: tuple[float, float, float]
    small_angle_max: float
    small_angle_argmax: tuple[float, float]


def verify_obb_program(grid_axis: int = 512, grid_angle: int = 512,
                       refine_rounds: int = 8) -> ProgramResult:
    """Dense grid plus local refinement over the feasible (a, b, alpha) box.

    The large-angle branch maximizes
    min((a+b)^2 / (2ab(1+cos alpha)), (1+ab)^2 / (2ab(1+sin alpha))) subject
    to b <= a*cos(alpha) + sin(alpha)/a, pi/4 < alpha < pi/2, 1 <= a <= b.
    The small-angle branch reduces to (1+c)^2 / (2c(1+cos alpha)) over
    1 <= c <= sqrt(2), 0 < alpha <= pi/4, maximized at the corner.
    """
    if grid_axis < 64 or grid_angle < 64:
        raise DomainError("grids must be at least 64")
    # Feasibility forces a <= sqrt(cot(alpha/2)) <= sqrt(1 + sqrt(2)) and
    # b <= a cos(alpha) + sin(alpha)/a < 2.2 on the angle range.
    a_hi = math.sqrt(1.0 + SQRT2) + 1e-9
    val, (a0, b0, al0) = _program_grid_max(
        1.0, a_hi, 1.0, 2.2, math.pi / 4, math.pi / 2, grid_axis, grid_angle
    )
    span_a = (a_hi - 1.0) / (grid_axis - 1)
    span_b = 1.2 / (grid_axis - 1)
    span_al = (math.pi / 4) / (grid_angle - 1)
    for _ in range(refine_rounds):
        v, arg = _program_grid_max(
            max(1.0, a0 - span_a), a0 + span_a,
            max(1.0, b0 - span_b), b0 + span_b,
            max(math.pi / 4, al0 - span_al), min(math.pi / 2, al0 + span_al),
            48, 48,
        )
        if v > val:
            val, (a0, b0, al0) = v, arg
        span_a /= 12.0
        span_b /= 12.0
        span_al /= 12.0

    c_grid = np.linspace(1.0, SQRT2, grid_axis)
    al_grid = np.linspace(1e-9, math.pi / 4, grid_angle)
    cc, alal = np.meshgrid(c_grid, al_grid, indexing="ij")
    small = (1.0 + cc) ** 2 / (2.0 * cc * (1.0 + np.cos(alal)))
    i = int(np.argmax(small))
    return ProgramResult(
        max_value=val,
        argmax=(a0, b0, al0),
        small_angle_max=float(small.flat[i]),
        small_angle_argmax=(float(cc.flat[i]), float(alal.flat[i])),
    )


# ---------------------------------------------------------------------------
# Sine/arcsine inequalities used by the chase analysis.


@dataclass(frozen=True)
class SamplingResult:
    violations: int
    worst_margin: float
    witness: tuple[float, ...] | None = None


def verify_trig_bounds(samples: int = 100_000, seed: int = 0,
                       tol: float = 1e-12) -> dict[str, SamplingResult]:
    """Sampled checks of sin(lam*arcsin(x)) <=/>= lam*x and the arcsine envelope.

    For 0 <= x <= 1: sin(lam*arcsin x) <= lam*x when lam >= 1 and >= lam*x
    when 0 < lam <= 1; and x <= arcsin(x) <= (arcsin(a)/a)*x for 0 < x <= a <= 1.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, samples)
    lam_hi = rng.uniform(1.0, 10.0, samples)
    lam_lo = rng.uniform(1e-6, 1.0, samples)

    out: dict[str, SamplingResult] = {}

    def summarize(margins: np.ndarray, xs, ls) -> SamplingResult:
        worst = float(margins.max())
        bad = margins > tol
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


def verify_bound_empirics(
    named_trajectories: list[tuple[str, Trajectory]],
    dt: float = 1e-3,
    window_steps: tuple[int, ...] = (1, 2, 5, 10),
) -> dict[str, SamplingResult]:
    """Check the sampled diametric pair against the turn and drop bounds.

    Trajectories must already be normalized (unit speed, diameter >= 1).
    Sampling can miss the exact flip instant by up to dt per endpoint, so
    the bounds receive a discretization allowance of 4*dt*(2+2*aspect)
    inside the arcsine argument (turn bound) and 4*dt of extra elapsed time
    (drop bound).
    """
    turn_viol = 0
    turn_worst = -math.inf
    turn_witness = None
    drop_viol = 0
    drop_worst = -math.inf
    drop_witness = None

    for name, traj in named_trajectories:
        times = traj.sample_times(dt)
        boxes = [diametric_box(traj.frame_at(float(t))) for t in times]
        alphas = np.array([b.alpha for b in boxes])
        aspects = np.array([b.aspect for b in boxes])
        for k in window_steps:
            if k >= len(times):
                continue
            elapsed = k * dt
            for i in range(len(times) - k):
                z = float(aspects[i])
                if elapsed <= (1.0 - z) / (2.0 + 2.0 * z):
                    measured = angular_distance(float(alphas[i]), float(alphas[i + k]))
                    arg = z + (elapsed + 4.0 * dt) * (2.0 + 2.0 * z)
                    bound = math.asin(min(arg, 1.0))
                    margin = measured - bound
                    if margin > turn_worst:
                        turn_worst = margin
                        turn_witness = (name, float(times[i]), z, elapsed)
                    if margin > 0.0:
                        turn_viol += 1
                half = math.sin(0.5 * math.asin(z))
                padded = elapsed + 4.0 * dt
                if padded <= half / 2.0:
                    drop = z - float(aspects[i + k])
                    bound = z - (half - 2.0 * padded) / (1.0 + 2.0 * padded)
                    margin = drop - bound
                    if margin > drop_worst:
                        drop_worst = margin
                        drop_witness = (name, float(times[i]), z, elapsed)
                    if margin > 0.0:
                        drop_viol += 1

    return {
        "pair-turn": SamplingResult(turn_viol, turn_worst, turn_witness),
        "aspect-drop": SamplingResult(drop_viol, drop_worst, drop_witness),
    }


# ---------------------------------------------------------------------------
# Scenario-level measurements.


def measured_axis_speed(traj: Trajectory, dt: float = 1e-3) -> float:
    """Max finite-difference rotation speed of the optimal principal axis."""
    times = traj.sample_times(dt)
    alphas = [optimal_pc(traj.frame_at(float(t))).alpha for t in times]
    worst = 0.0
    for i in range(len(alphas) - 1):
        step = angular_distance(alphas[i], alphas[i + 1])
        worst = max(worst, step / (times[i + 1] - times[i]))
    return worst


def min_anchor_diameter(traj: Trajectory, dt: float = 1e-3, anchor: int = 0) -> float:
    """Min over samples of the farthest distance from one fixed point.

    This is a lower bound on the true diameter at every sample (the
    diameter is the max over all pairs, this is the max over pairs through
    ``anchor``), cheap enough for very large clusters.
    """
    times = traj.sample_times(dt)
    worst = math.inf
    for t in times:
        pts = traj.positions_at(float(t))
        d = np.sqrt(((pts - pts[anchor]) ** 2).sum(axis=1)).max()
        worst = min(worst, float(d))
    return worst


def forced_orientation_winding(n: int = 5, samples: int = 4096) -> int:
    """Winding number of the forced optimal strip orientation over one sweep."""
    angles = [
        optimal(stateless_disk(n, 1.0, 2.0 * math.pi * k / samples), DescriptorKind.STRIP).alpha
        for k in range(samples)
    ]
    return winding_number(angles)


@dataclass(frozen=True)
class ChaseSuiteResult:
    max_step_excess: float
    safe_zone_violations: int
    worst_gap_excess: float
    max_obb_ratio: float
    max_strip_ratio: float


def chase_suite(
    trajectories: list[Trajectory],
    params: ChaseParams = ChaseParams(),
    dt: float = 1e-3,
) -> ChaseSuiteResult:
    """Chase every (already normalized) trajectory and aggregate the guarantees.

    Checks, per run: the per-step rotation never exceeds the cap; after the
    tracker first enters the safe zone, at every sample with aspect <= 1/2
    the gap stays within (2c+2)*arcsin(aspect) plus one step of slack; and
    the box and strip ratios stay bounded.
    """
    gap_factor = 2.0 * params.safe_zone_factor + 2.0
    step_cap = params.max_turn_rate * dt

    def run(traj: Trajectory):
        res = chase(traj, params, dt)
        box, strip = res.runs[DescriptorKind.OBB], res.runs[DescriptorKind.STRIP]
        step_excess = float(box.step_distances().max() - step_cap) if len(res.times) > 1 else -step_cap
        sz = res.safe_zone
        warm = np.nonzero(sz.in_safe_zone)[0]
        violations = 0
        worst_excess = -math.inf
        if len(warm):
            start = int(warm[0])
            mask = sz.aspect[start:] <= 0.5
            if mask.any():
                bound = gap_factor * np.arcsin(sz.aspect[start:][mask]) + step_cap
                excess = sz.ang_gap[start:][mask] - bound
                violations = int((excess > 1e-12).sum())
                worst_excess = float(excess.max())
        return (
            step_excess, violations, worst_excess,
            float(np.max(box.ratio)), float(np.max(strip.ratio)),
        )

    rows = _parallel_map(run, trajectories)
    return ChaseSuiteResult(
        max_step_excess=max(r[0] for r in rows),
        safe_zone_violations=sum(r[1] for r in rows),
        worst_gap_excess=max(r[2] for r in rows),
        max_obb_ratio=max(r[3] for r in rows),
        max_strip_ratio=max(r[4] for r in rows),
    )


# ---------------------------------------------------------------------------
# The assembled claim suite.


@dataclass(frozen=True)
class SuiteOptions:
    grid: int = 512
    dt: float = 1e-3
    seed: int = 0
    walks: int = 20
    trig_samples: int = 100_000
    fast_flip_rate: float = 100.0
    chase_params: ChaseParams = ChaseParams()


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def run_claim_suite(opts: SuiteOptions = SuiteOptions()) -> VerificationReport:
    """Run every verification claim and collect a report."""
    report = VerificationReport()
    dt = opts.dt

    prog = verify_obb_program(opts.grid, opts.grid)
    report.add(ClaimCheck(
        "box-sweep-program-max",
        "global max of the worst-intermediate-box program stays at or below 5/4",
        "<= 1.251", _fmt(prog.max_value), prog.max_value <= 1.25 + 1e-3,
        f"argmax a={prog.argmax[0]:.6f} b={prog.argmax[1]:.6f} alpha={prog.argmax[2]:.6f}",
    ))
    small_expect = 0.5 + SQRT2 / 2.0
    report.add(ClaimCheck(
        "box-sweep-small-angle-branch",
        "small-angle branch max equals 1/2 + sqrt(2)/2",
        _fmt(small_expect), _fmt(prog.small_angle_max),
        abs(prog.small_angle_max - small_expect) <= 1e-6,
    ))

    trig = verify_trig_bounds(opts.trig_samples, opts.seed)
    for key, res in trig.items():
        report.add(ClaimCheck(
            f"trig-{key}", f"sampled inequality {key} holds",
            "0 violations", f"{res.violations} violations", res.violations == 0,
            f"worst margin {res.worst_margin:.3e}"
            + (f", witness {res.witness}" if res.witness else ""),
        ))

    corpus: list[tuple[str, Trajectory]] = [
        ("obb-lower-bound", obb_lower_bound()),
        ("strip-lower-bound", strip_lower_bound()),
        ("pc-flip", pc_flip()),
    ]
    corpus += [
        (f"random-walk-{s}", random_walk(seed=opts.seed + s)) for s in range(opts.walks)
    ]
    normalized = [(name, normalize_trajectory(t)[0]) for name, t in corpus]
    empirics = verify_bound_empirics(normalized, dt)
    for key, res in empirics.items():
        report.add(ClaimCheck(
            f"bound-{key}", f"sampled {key} bound holds with discretization slack",
            "0 violations", f"{res.violations} violations", res.violations == 0,
            f"worst margin {res.worst_margin:.3e}",
        ))

    flip_cases = [
        ("box-flip-ratio", obb_lower_bound(), DescriptorKind.OBB, 1.25, 1e-3),
        ("strip-flip-ratio", strip_lower_bound(), DescriptorKind.STRIP, SQRT2, 1e-3),
        ("axis-flip-ratio", pc_flip(), DescriptorKind.PC, 1.0, 1e-6),
    ]
    for claim_id, traj, kind, expected, tol in flip_cases:
        measured = max_ratio(track_topological(traj, kind, dt))
        report.add(ClaimCheck(
            claim_id, f"worst tracked ratio on the forced {kind.value} flip scenario",
            _fmt(expected), _fmt(measured), abs(measured - expected) <= tol,
            f"tolerance {tol:g}",
        ))

    winding = forced_orientation_winding()
    report.add(ClaimCheck(
        "stateless-double-cover",
        "forced orientation winds twice over one sweep of the collinear family",
        "|winding| = 2", str(winding), abs(winding) == 2,
    ))

    fast = pc_fast_flip(opts.fast_flip_rate)
    speed = measured_axis_speed(fast, dt)
    min_diam = min_anchor_diameter(fast, dt)
    report.add(ClaimCheck(
        "axis-speed-escape",
        "principal axis outruns the speed cap while the diameter stays >= 1",
        f"> {opts.fast_flip_rate:g} and diameter >= 1",
        f"speed {speed:.4g}, diameter >= {min_diam:.6g}",
        speed > opts.fast_flip_rate and min_diam >= 1.0,
    ))

    chase_trajs = [t for _, t in normalized[:2] + normalized[3:]]
    suite = chase_suite(chase_trajs, opts.chase_params, dt)
    report.add(ClaimCheck(
        "chase-rotation-cap",
        "per-step chase rotation never exceeds rate * dt",
        "excess <= 1e-12", _fmt(suite.max_step_excess), suite.max_step_excess <= 1e-12,
    ))
    report.add(ClaimCheck(
        "chase-safe-zone",
        "post warm-up gap within (2c+2)*arcsin(aspect) plus one step, when aspect <= 1/2",
        "0 violations", f"{suite.safe_zone_violations} violations",
        suite.safe_zone_violations == 0,
        f"worst excess {suite.worst_gap_excess:.3e}",
    ))
    ratio_cap = 4.0 * opts.chase_params.safe_zone_factor + 6.0
    worst = max(suite.max_obb_ratio, suite.max_strip_ratio)
    report.add(ClaimCheck(
        "chase-ratio-cap",
        "box and strip chase ratios stay within 4c+6",
        f"<= {ratio_cap:g}",
        f"obb {suite.max_obb_ratio:.4g}, strip {suite.max_strip_ratio:.4g}",
        worst <= ratio_cap,
    ))

    def walk_flips(walk: Trajectory) -> float:
        out = track_topological(walk, DescriptorKind.OBB, dt)
        return max((f.worst_ratio for f in out.flips), default=0.0)

    flip_worst = max(_parallel_map(walk_flips, [t for _, t in corpus[3:]]), default=0.0)
    report.add(ClaimCheck(
        "box-flip-sweep-cap",
        "recorded box flip sweeps on the random-walk corpus stay within 5/4",
        "<= 1.251", _fmt(flip_worst), flip_worst <= 1.25 + 1e-3,
    ))

    return report
