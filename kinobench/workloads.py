"""The benchmark's workloads: inputs made from the seed, the operations run on
them, and the checks of every output.

Each workload is a closed loop with a single caller: the next operation
starts only after the previous one has finished.  Operations call the
program in-process through ``kinostable.cli.main`` (``walks``, ``big-hull``)
or ``kinostable.verify.run_claim_suite`` (``verify``), always looked up on
the module at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import statistics
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kinostable import chasing, cli, runio, scenarios, solvers, verify
from kinostable.trajectory import Trajectory

BOX_SWEEP_CAP = 1.25 + 1e-3  # acceptance criterion 2
CHASE_RATIO_CAP = 4.0 * 3.0 + 6.0  # 4c+6 at the default safe-zone factor c = 3
RATIO_FLOOR = 1.0 - 1e-9  # a per-sample ratio recomputes the optimum's cost
MIN_TIMED_OPS = 100  # at least ten operations beyond p90


@dataclass(frozen=True)
class Op:
    """One operation: ``run(out)`` returns the exit codes and captured stdout;
    ``samples(out)`` counts the sample-time frames it completed."""

    label: str
    samples: Callable[[Path], int]
    run: Callable[[Path], tuple[list[int], list[str]]]
    check: Callable[[Path, list[str]], tuple[int, list[str]]]  # -> (items, problems)


@dataclass
class Result:
    op: Op
    out: Path
    codes: list[int]
    stdout: list[str]
    seconds: float
    error: str | None


def execute(op: Op, out: Path) -> Result:
    error = None
    codes: list[int] = []
    stdout: list[str] = []
    t0 = time.perf_counter()
    try:
        codes, stdout = op.run(out)
    except Exception:  # the loop keeps running; the failure is counted
        error = traceback.format_exc()
    return Result(op, out, codes, stdout, time.perf_counter() - t0, error)


class Tally:
    """Attempted and failed items, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, items: int, problems: list[str], where: str) -> None:
        self.attempted += items
        if problems:
            self.failed += min(items, len(problems))
            self.problems += [f"{where}: {p}" for p in problems]


def check_result(res: Result) -> tuple[int, list[str]]:
    """(items attempted, problems) for one executed operation."""
    if res.error is not None:
        return 1, [res.error.strip().splitlines()[-1]]
    bad_codes = [f"exit code {c}" for c in res.codes if c != 0]
    if bad_codes:
        return 1, bad_codes
    return res.op.check(res.out, res.stdout)


def cli_run(*commands: Callable[[Path], list[str]]):
    """An operation made of CLI invocations, each given the output path."""

    def run(out: Path) -> tuple[list[int], list[str]]:
        codes, stdout = [], []
        for command in commands:
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes.append(cli.main(command(out)))
            stdout.append(buf.getvalue())
        return codes, stdout

    return run


def csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def fixed(count: int) -> Callable[[Path], int]:
    return lambda out: count


def row_count(out: Path) -> int:
    """One CSV row per sample (chase output has no flip rows)."""
    return len(csv_rows(out))


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def trajectory_digest(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        h.update(traj.times.tobytes())
        h.update(traj.positions.tobytes())
    return h.hexdigest()


def write_input(path: Path, traj: Trajectory) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        runio.write_trajectory(fp, traj)


# ---------------------------------------------------------------------------


class Workload:
    """Set-up, the operation list of one pass, and the checks."""

    name = ""
    ops_per_input = 1  # repeated at the end of every timed run
    min_ops = MIN_TIMED_OPS

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.ops: list[Op] = []

    def setup(self, workdir: Path) -> str:
        """Make and write the inputs; return a digest of what was written."""
        raise NotImplementedError

    def sample_frames(self, results: list[Result]) -> int:
        return sum(r.op.samples(r.out) for r in results if r.error is None)

    def extra_checks(self, results: list[Result]) -> list[str | None]:
        """Checks beyond single operations; one entry each, None if it passed."""
        return []

    def check(self, results: list[Result], tally: Tally) -> None:
        """Every operation's checks, byte-identical output wherever an
        operation ran more than once, and the workload's extra checks."""
        first: dict[str, bytes] = {}
        for res in results:
            items, problems = check_result(res)
            if res.error is None and res.out.exists():
                blob = res.out.read_bytes() + "\0".join(res.stdout).encode()
                if first.setdefault(res.op.label, blob) != blob:
                    problems = problems + ["output differs from an earlier run of the same input"]
            tally.add(items, problems, f"{res.op.label} ({res.out.name})")
        for outcome in self.extra_checks(results):
            tally.add(1, [outcome] if outcome else [], "oracle")

    def timed_loop(self, seconds: float, workdir: Path):
        """Closed loop over the pass's operations until ``seconds`` are used.

        No operation starts that would end after the deadline at the median
        latency so far, once ``min_ops`` operations have finished, and every
        run repeats at least the first input's operations (checked for
        byte-identical output).

        Returns (results, elapsed, wall per pass over the inputs), where
        a partial last pass counts by its share of operations.
        """
        floor = self.min_ops if self.size == "full" else 1
        min_ops = max(floor, len(self.ops) + self.ops_per_input)
        results: list[Result] = []
        latencies: list[float] = []
        start = time.perf_counter()
        i = 0
        while True:
            op = self.ops[i % len(self.ops)]
            res = execute(op, workdir / f"{op.label}.p{i // len(self.ops)}.out")
            results.append(res)
            latencies.append(res.seconds)
            i += 1
            now = time.perf_counter()
            if i >= min_ops and now - start + statistics.median(latencies) >= seconds:
                elapsed = now - start
                return results, elapsed, elapsed * len(self.ops) / i

    def one_pass(self, workdir: Path, tag: str):
        start = time.perf_counter()
        results = [execute(op, workdir / f"{op.label}.{tag}.out") for op in self.ops]
        return results, time.perf_counter() - start


def _ratio_check(kind: str):
    def check(out: Path, stdout: list[str]) -> tuple[int, list[str]]:
        text = stdout[-1].strip()
        try:
            worst = float(text)
        except ValueError:
            return 1, [f"ratio printed {text!r}"]
        problems = []
        if not (math.isfinite(worst) and worst >= 1.0):
            problems.append(f"{kind} ratio {worst} is not a finite value >= 1")
        if kind == "obb" and worst > BOX_SWEEP_CAP:
            problems.append(f"box flip sweep {worst} > {BOX_SWEEP_CAP}")
        return 1, problems

    return check


def _chase_check(out: Path, stdout: list[str]) -> tuple[int, list[str]]:
    rows = csv_rows(out)
    if not rows:
        return 1, ["chase output has no rows"]
    ratios = [float(r[5]) for r in rows]
    lo, hi = min(ratios), max(ratios)
    if lo < RATIO_FLOOR or hi > CHASE_RATIO_CAP:
        return 1, [f"chase ratios span [{lo}, {hi}], outside [1, {CHASE_RATIO_CAP}]"]
    return 1, []


def _descriptor_check(expected_rows: int):
    def check(out: Path, stdout: list[str]) -> tuple[int, list[str]]:
        rows = csv_rows(out)
        if len(rows) != expected_rows:
            return 1, [f"descriptor wrote {len(rows)} rows, expected {expected_rows}"]
        costs = [float(r[3]) for r in rows]
        if not all(math.isfinite(c) and c > 0.0 for c in costs):
            return 1, ["descriptor cost not finite and positive"]
        return 1, []

    return check


class Walks(Workload):
    """Seeded random walks: n=8, with every fourth at n=64, default dt.

    Walks are 20 steps over 0.4 time units, the default step length, so a
    run covers 48 independent walks (thin and round ones, flip-free and
    flip-heavy ones); the more walks a run covers, the less the seed moves
    the corpus cost.
    """

    name = "walks"
    ops_per_input = 4
    FILES = {"full": 48, "mini": 2}
    SHAPE = {"steps": 20, "duration": 0.4}

    def setup(self, workdir: Path) -> str:
        count = self.FILES[self.size]
        self.ops = []
        paths = []
        for i in range(count):
            n = 64 if i % 4 == 3 else 8
            traj = scenarios.build_scenario(
                "random-walk", {"n": n, "seed": self.seed * count + i, **self.SHAPE})
            path = workdir / f"walk{i:02d}-n{n}.jsonl"
            write_input(path, traj)
            paths.append(path)
            samples = fixed(len(traj.sample_times(1e-3)))
            stem = path.stem
            for kind in ("obb", "strip", "pc"):
                self.ops.append(Op(
                    f"{stem}.track-{kind}", samples,
                    cli_run(lambda out, p=str(path), k=kind:
                            ["track", p, "--kind", k, "--out", str(out)],
                            lambda out: ["ratio", str(out)]),
                    _ratio_check(kind),
                ))
            self.ops.append(Op(
                f"{stem}.chase-strip", row_count,  # normalization rescales time
                cli_run(lambda out, p=str(path):
                        ["chase", p, "--kind", "strip", "--out", str(out)]),
                _chase_check,
            ))
        return file_digest(paths)


def ellipse_trajectory(rng: np.random.Generator, hull: int, keyframes: int = 3) -> Trajectory:
    """A rotating, deforming ellipse with ``hull`` boundary points at jittered
    angles and hull/2 interior points.

    Every keyframe is an affine image of the same unit-disk sample, and so is
    every linear blend of two keyframes: the boundary points stay in convex
    position and the interior points stay inside, so the hull has exactly
    ``hull`` vertices at all times.
    """
    theta = (np.arange(hull) + rng.uniform(0.2, 0.8, hull)) * (2.0 * math.pi / hull)
    inner = hull // 2
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, inner))
    phi = rng.uniform(0.0, 2.0 * math.pi, inner)
    unit = np.vstack([
        np.column_stack([np.cos(theta), np.sin(theta)]),
        np.column_stack([radius * np.cos(phi), radius * np.sin(phi)]),
    ])
    angle = rng.uniform(0.0, math.pi)
    frames = []
    for _ in range(keyframes):
        angle += rng.uniform(0.2, 0.6)
        c, s = math.cos(angle), math.sin(angle)
        axes = np.array([[c, -s], [s, c]]) @ np.diag([rng.uniform(1.5, 3.0), rng.uniform(0.6, 1.4)])
        frames.append(unit @ axes.T + rng.uniform(-0.5, 0.5, 2))
    return Trajectory(np.linspace(0.0, 1.0, keyframes), np.stack(frames))


class BigHull(Workload):
    """Keyframed ellipses with 10^3..3*10^3 hull vertices at a coarse dt.

    Hull sizes are fixed, only shapes follow the seed, so the largest pair
    matrix (and the peak memory) is the same for every seed.
    """

    name = "big-hull"
    ops_per_input = 2
    DT = 1.0
    HULLS = {"full": (1000,) * 5 + (1500,) * 2 + (2000,) * 2 + (3000,), "mini": (100, 150)}
    ORACLE_INPUTS = 2
    ORACLE_TIME = 1.0

    def setup(self, workdir: Path) -> str:
        self.ops = []
        self.trajs = []
        self.descriptor_ops = []
        paths = []
        for i, hull in enumerate(self.HULLS[self.size]):
            traj = ellipse_trajectory(np.random.default_rng([self.seed, i]), hull)
            path = workdir / f"hull{i:02d}-h{hull}.jsonl"
            write_input(path, traj)
            paths.append(path)
            self.trajs.append(traj)
            samples = len(traj.sample_times(self.DT))
            descriptor = Op(
                f"{path.stem}.descriptor-all", fixed(samples),
                cli_run(lambda out, p=str(path): ["descriptor", p, "--kind", "all",
                                                  "--dt", str(self.DT), "--out", str(out)]),
                _descriptor_check(3 * samples),
            )
            self.descriptor_ops.append(descriptor)
            self.ops.append(descriptor)
            self.ops.append(Op(
                f"{path.stem}.chase", fixed(samples),
                cli_run(lambda out, p=str(path):
                        ["chase", p, "--no-normalize", "--dt", str(self.DT), "--out", str(out)]),
                _chase_check,
            ))
        return file_digest(paths)

    def extra_checks(self, results: list[Result]) -> list[str | None]:
        """Descriptor output vs the grid oracle on a few frames (criterion 1's rule).

        The grid can only sit above the true minimum, so the output cost
        must not exceed the grid cost by more than 1e-6 absolute-or-relative.
        """
        outcomes: list[str | None] = []
        for traj, op in list(zip(self.trajs, self.descriptor_ops))[: self.ORACLE_INPUTS]:
            res = next(r for r in results if r.op is op)
            rows = {(float(r[0]), r[1]): float(r[3]) for r in csv_rows(res.out)}
            frame = traj.frame_at(self.ORACLE_TIME)
            for kind in ("obb", "strip"):
                got = rows.get((self.ORACLE_TIME, kind))
                grid = solvers.oracle_argmin(frame, kind, 8192).cost
                if got is None:
                    outcomes.append(f"{op.label}: no {kind} row at t={self.ORACLE_TIME}")
                elif got > grid + max(1e-6, 1e-6 * grid):
                    outcomes.append(f"{op.label}: {kind} cost {got} above grid oracle {grid}")
                else:
                    outcomes.append(None)
        return outcomes


class Verify(Workload):
    """The claim suite exactly as ``kinostable verify`` runs it."""

    name = "verify"
    ops_per_input = 0
    min_ops = 1

    def options(self) -> verify.SuiteOptions:
        if self.size == "mini":
            return verify.SuiteOptions(seed=self.seed, grid=64, walks=1, trig_samples=2000)
        return verify.SuiteOptions(seed=self.seed)

    def setup(self, workdir: Path) -> str:
        """The suite builds its own inputs; set-up builds the same corpus once
        to record its digest."""
        opts = self.options()
        names = ["obb-lower-bound", "strip-lower-bound", "pc-flip", "pc-fast-flip"]
        corpus = [scenarios.build_scenario(n) for n in names]
        corpus += [scenarios.build_scenario("random-walk", {"seed": opts.seed + s})
                   for s in range(opts.walks)]
        self.ops = [Op("claim-suite", fixed(0), self._run_suite, self._check_suite)]
        return trajectory_digest(corpus)

    def _run_suite(self, out: Path) -> tuple[list[int], list[str]]:
        report = verify.run_claim_suite(self.options())
        out.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")
        return [0 if report.passed else 3], []

    @staticmethod
    def _check_suite(out: Path, stdout: list[str]) -> tuple[int, list[str]]:
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
            claims = report["claims"]
            failing = [c["id"] for c in claims if not c["passed"]]
            passed = report["passed"]
        except (ValueError, KeyError, TypeError) as exc:
            return 1, [f"unreadable verify report: {exc}"]
        if not claims:
            return 1, ["verify report has no claims"]
        problems = [f"claim {cid} failed" for cid in failing]
        if passed is not True and not problems:
            problems.append("verify report is not marked passed")
        return len(claims), problems

    def sample_frames(self, results: list[Result]) -> int:
        """Sample-time frames the suite's sampled stages evaluate, per run.

        Mirrors the suite at these options: the bound check and the chase
        sample the normalized corpus, the flip claims the forced scenarios,
        the speed escape the fast-flip cluster twice, the double cover its
        strip sweep, and the flip-sweep cap the raw walks.
        """
        opts = self.options()
        forced = [scenarios.obb_lower_bound(), scenarios.strip_lower_bound(), scenarios.pc_flip()]
        walks = [scenarios.random_walk(seed=opts.seed + s) for s in range(opts.walks)]
        normalized = [chasing.normalize_trajectory(t)[0] for t in forced + walks]

        def frames(trajs) -> int:
            return sum(len(t.sample_times(opts.dt)) for t in trajs)

        winding = inspect.signature(verify.forced_orientation_winding).parameters["samples"].default
        per_run = (
            frames(normalized) + frames(forced) + winding
            + 2 * frames([scenarios.pc_fast_flip(opts.fast_flip_rate)])
            + frames(normalized[:2] + normalized[3:]) + frames(walks)
        )
        return per_run * len(results)


WORKLOADS = {w.name: w for w in (Walks, BigHull, Verify)}
