"""Geometry and tracker benchmarks: per-call and per-sample time, flip
location, kinobench pairs.

Five subcommands, each merging its results into one JSON file (one entry
per label or workload, the rest of the file kept):

    # per-call layers of one source tree, from the repository root
    python3 scripts/bench_hull.py layers --label change --out BENCH_hull.json
    python3 scripts/bench_hull.py layers --label parent --src ../parent/src \\
        --out BENCH_hull.json

    # per-sample tracker time of one source tree with the block hull
    python3 scripts/bench_hull.py core --label change --out BENCH_kinetic.json

    # flip location on the walks corpora of one source tree
    python3 scripts/bench_hull.py flips --label change --out BENCH_flips.json

    # wall time of each verify claim of one source tree
    python3 scripts/bench_hull.py claims --label change --out BENCH_claims.json
    python3 scripts/bench_hull.py claims --label parent --src ../parent/src \\
        --out BENCH_claims.json

    # alternating parent/change runs of kinobench/run.py, with medians
    python3 scripts/bench_hull.py kinobench --parent ../parent --workload big-hull \\
        --seed 11 --pairs 10 --out BENCH_hull.json

``layers`` times ``convex_hull`` and, on a frame whose hull is already
built, ``diametric_box``, ``frame_diameter`` and ``optimal_box_and_strip``:
the median of repeated calls, and the tracemalloc peak of one more call.
Inputs come from a fixed seed: uniform clouds of 8 and 64 points, and
ellipses with 10^3 to 10^5 hull vertices plus half as many interior
points.  ``--normalize-hull`` also
times one ``normalize_trajectory`` (a grid of 1025 frames and the
keyframes) at that hull size.

``core`` times ``track_topological`` (obb, strip, pc) and ``chase`` per
sample of one source tree, on the walks of the kinobench ``walks`` workload (20 steps over
0.4 time units, dt = 1e-3) at n = 8 and 64 for fixed seeds; the chase runs
on the normalized walk, as ``kinostable chase`` does.  Each entry is the
best of ``--repeats`` runs per seed, and the median over seeds.  A
``normalize`` row per size times ``normalize_trajectory`` of each raw walk,
per walk instead of per sample.  One more
run per seed counts the blocks its samples came in, the frames whose hull
was built, the frames the monotone chain ran on and the certificate checks;
the frames not chained kept a certified hull.  The counts read
``Trajectory.frame_blocks``, ``geometry.Frames.hull_indices``,
``geometry._certify`` and the chain's block entry
``geometry._monotone_chains``, so ``core`` runs on trees that build hulls
in blocks and chain runs of frames.  Its times profile that one tree: two
``core`` runs, one per tree, also differ by the host's drift between
them, so parent/change comparisons come from the ``kinobench``
subcommand, which alternates the two trees.  Each ``track-*`` row also
records ``ratios_not_one``, the per-sample ratios over its seeds that are
not exactly 1.0: the tracker outputs an optimum at every sample, so it
reads 0.

``flips`` runs ``track_topological`` (obb, strip, pc) at dt = 1e-3 on the
48 walks of the kinobench ``walks`` corpus of each seed (``--seeds``,
default 1 and 9) and records per kind: the jumps (steered hull-edge pair
changes) and the flips recorded; the jumps that start tied and were
located where the tie ends (``tie_exits``), the jumps split at a third
optimum (``splits``) and the jumps and split halves not bracketed
(``unbracketed``); the located flips dropped at the 1e-9 gap floor
(``floor_dropped``); the ``pc`` isotropic instants; the root-finding
rounds of each group of jumps, every pass of a split included; the
seconds spent locating and sweeping; and the hull counts of ``core`` over
the whole corpus (``hulls``).  It patches the tracker's flip
location by name, so it runs on trees that locate flips as changes of
optimal identity; the parent rows of ``BENCH_flips.json`` from before
that came from the parent commit's own script.

``claims`` evaluates every entry of ``verify.CLAIMS`` with the suite
options ``--seed``, ``--walks`` and ``--samples`` (the ``kinostable
verify`` defaults unless given), in order on one ``SuiteRun`` as
``kinostable verify`` does, so an input that claims share is built in the
row of the first claim that reads it, and ``total_s`` is the claim time of
one verify run.  It records each claim's wall time, computed value and
verdict, the hull counts of ``core`` taken during the timed evaluation
(``hulls``; the counting wrappers cost about 0.1 ms per thousand calls),
and the sweep program's certified bound, witness and box count.  Beside
the claim rows
it times the two stages of ``axis-speed-escape`` on their own,
``measured_axis_speed`` and ``min_anchor_diameter`` of ``pc_fast_flip`` at
the suite's rate and dt: the best of three runs each, with the value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260
SIZES = (8, 64, 1000, 3000, 10_000, 100_000)  # point counts up to 64, hull sizes above
MIN_SECONDS = 0.2  # repeat each call for at least this long ...
MAX_CALLS = 200  # ... or this many times, whichever comes first
CORE_SIZES = (8, 64)
CORE_SEEDS = (0, 1, 2, 3)
CORE_DT = 1e-3
STAGE_REPEATS = 3  # ``claims`` keeps the best of this many runs of each stage
END_TO_END = ("setup_s", "wall_s", "samples_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def git_commit(path: Path) -> str | None:
    """The checked-out commit, suffixed -dirty when the work tree differs from it."""
    try:
        return subprocess.run(["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def ellipse(rng: np.random.Generator, hull: int) -> np.ndarray:
    """``hull`` boundary points at jittered angles and hull/2 points inside."""
    theta = (np.arange(hull) + rng.uniform(0.2, 0.8, hull)) * (2.0 * math.pi / hull)
    inner = hull // 2
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, inner))
    phi = rng.uniform(0.0, 2.0 * math.pi, inner)
    unit = np.vstack([np.column_stack([np.cos(theta), np.sin(theta)]),
                      np.column_stack([radius * np.cos(phi), radius * np.sin(phi)])])
    return unit * [2.5, 1.0]


def size_input(size: int) -> np.ndarray:
    rng = np.random.default_rng([SEED, size])
    return rng.uniform(-1.0, 1.0, (size, 2)) if size <= 64 else ellipse(rng, size)


def per_call(fn) -> dict:
    seconds = []
    start = time.perf_counter()
    while len(seconds) < MAX_CALLS and (len(seconds) < 3 or time.perf_counter() - start < MIN_SECONDS):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"median_s": statistics.median(seconds), "calls": len(seconds), "peak_bytes": peak}


def run_layers(args) -> dict:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from kinostable.chasing import normalize_trajectory
    from kinostable.geometry import Frame, convex_hull, diametric_box, frame_diameter
    from kinostable.solvers import optimal_box_and_strip
    from kinostable.trajectory import Trajectory

    rows = []
    for size in args.sizes:
        pts = size_input(size)
        frame = Frame(pts)
        hull = len(frame.hull)
        row = {"points": len(pts), "hull": hull, "layers": {
            "convex_hull": per_call(lambda: convex_hull(pts)),
            "diametric_box": per_call(lambda: diametric_box(frame)),
            "frame_diameter": per_call(lambda: frame_diameter(frame)),
            "optimal_box_and_strip": per_call(lambda: optimal_box_and_strip(frame)),
        }}
        rows.append(row)
        print(json.dumps(row), flush=True)
    out = {"git_commit": git_commit(Path(args.src)), "sizes": rows}
    if args.normalize_hull:
        rng = np.random.default_rng([SEED, args.normalize_hull, 1])
        turn = np.array([[0.8, -0.6], [0.6, 0.8]])
        base = ellipse(rng, args.normalize_hull)
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([base, base @ turn.T]))
        t0 = time.perf_counter()
        normalize_trajectory(traj)
        out["normalize_trajectory"] = {"hull": args.normalize_hull,
                                       "seconds": time.perf_counter() - t0}
        print(json.dumps(out["normalize_trajectory"]), flush=True)
    return out


@contextmanager
def hull_counts():
    """Count, while open: the blocks of samples (``Trajectory.frame_blocks``),
    the frames whose hull was built (``Frames.hull_indices``), the frames
    the monotone chain ran on (``geometry._monotone_chains``) and the
    certificate checks (``geometry._certify`` calls); the frames
    built but not chained kept a certified hull.  The dict yielded is
    filled in on exit."""
    from kinostable import geometry
    from kinostable.trajectory import Trajectory

    counts = {"blocks": 0, "hull_frames": 0, "chained_frames": 0, "certificate_checks": 0}
    real = {"blocks": Trajectory.frame_blocks, "chain": geometry._monotone_chains,
            "certify": geometry._certify, "hulls": geometry.Frames.__dict__["hull_indices"]}

    def blocks(traj, *args, **kwargs):
        for frames in real["blocks"](traj, *args, **kwargs):
            counts["blocks"] += 1
            yield frames

    def chain(points, *args):
        counts["chained_frames"] += len(points)
        return real["chain"](points, *args)

    def certify(*args):
        counts["certificate_checks"] += 1
        return real["certify"](*args)

    def hulls(frames):
        counts["hull_frames"] += len(frames)
        return real["hulls"].func(frames)

    counting = cached_property(hulls)
    counting.__set_name__(geometry.Frames, "hull_indices")
    Trajectory.frame_blocks, geometry._certify, geometry._monotone_chains = blocks, certify, chain
    geometry.Frames.hull_indices = counting
    try:
        yield counts
    finally:
        Trajectory.frame_blocks, geometry._certify = real["blocks"], real["certify"]
        geometry._monotone_chains = real["chain"]
        geometry.Frames.hull_indices = real["hulls"]
        counts["certified"] = counts["hull_frames"] - counts["chained_frames"]


def run_core(args) -> dict:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from kinostable.chasing import chase, normalize_trajectory
    from kinostable.scenarios import random_walk
    from kinostable.tracker import track_topological

    rows = []
    for n in args.sizes:
        walks = [random_walk(n=n, seed=seed, steps=20, duration=0.4) for seed in args.seeds]
        normalized = [normalize_trajectory(traj)[0] for traj in walks]
        ops = {f"track-{kind}": [lambda t=traj, k=kind: track_topological(t, k, CORE_DT)
                                 for traj in walks]
               for kind in ("obb", "strip", "pc")}
        ops["chase"] = [lambda t=traj: chase(t, dt=CORE_DT) for traj in normalized]
        for op, runs in ops.items():
            per_seed, counts, not_one = [], [], 0
            for run in runs:
                out = run()
                samples = len(out.times)
                if op.startswith("track-"):
                    not_one += int(np.count_nonzero(out.ratio != 1.0))
                best = math.inf
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    run()
                    best = min(best, time.perf_counter() - t0)
                per_seed.append(1e6 * best / samples)
                with hull_counts() as count:
                    run()
                counts.append({"samples": samples, **count})
            row = {"n": n, "op": op, "per_sample_us": statistics.median(per_seed),
                   "per_seed_us": per_seed, "per_seed_counts": counts}
            if op.startswith("track-"):
                row["ratios_not_one"] = not_one
            rows.append(row)
            print(json.dumps(row), flush=True)
        per_walk = []
        for traj in walks:
            best = math.inf
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                normalize_trajectory(traj)
                best = min(best, time.perf_counter() - t0)
            per_walk.append(1e6 * best)
        row = {"n": n, "op": "normalize", "per_walk_us": statistics.median(per_walk),
               "per_seed_us": per_walk}
        rows.append(row)
        print(json.dumps(row), flush=True)
    return {"git_commit": git_commit(Path(args.src)), "dt": CORE_DT, "seeds": args.seeds,
            "repeats": args.repeats, "rows": rows}


def walks_corpus(seed: int, random_walk) -> list:
    """The 48 walks of the kinobench ``walks`` workload at ``seed``."""
    return [random_walk(n=64 if i % 4 == 3 else 8, seed=48 * seed + i, steps=20, duration=0.4)
            for i in range(48)]


def run_flips(args) -> dict:
    """Flip location on the walks corpora, per seed and kind: see the module docstring."""
    sys.path.insert(0, str(Path(args.src).resolve()))
    from kinostable import tracker
    from kinostable.scenarios import random_walk

    stats: dict = {}
    names = ("_locate_flips", "_isotropic_flips", "_locate_group", "_edge_crossings",
             "_sweeps", "_isotropic_instants")
    real = {name: getattr(tracker, name) for name in names}

    def timed(name, key):
        def run(*a):
            t0 = time.perf_counter()
            try:
                return real[name](*a)
            finally:
                stats[key] += time.perf_counter() - t0
        return run

    def group(traj, kind, period, jumps):
        stats["groups"] += 1
        stats["passes"] = []
        try:
            return real["_locate_group"](traj, kind, period, jumps)
        finally:
            stats["rounds"].append(sum(stats["passes"]))

    def crossings(traj, kind, period, t_lo, t_hi, pair_lo, pair_hi):
        out = real["_edge_crossings"](traj, kind, period, t_lo, t_hi, pair_lo, pair_hi)
        if stats["passes"]:  # the halves of jumps split at a third optimum
            stats["splits"] += len(t_lo) // 2
        else:
            stats["tie_exits"] += int((out[3] & out[4]).sum())
        stats["passes"].append(out[6])
        stats["unbracketed"] += int((~out[3]).sum())
        return out

    def sweeps(kind, period, points, a_from, *rest):
        flips = timed("_sweeps", "sweep_s")(kind, period, points, a_from, *rest)
        stats["floor_dropped"] += len(a_from) - len(flips)
        return flips

    def instants(traj):
        found = real["_isotropic_instants"](traj)
        stats["isotropic_instants"] += len(found)
        return found

    out = {}
    patched = {"_locate_flips": timed("_locate_flips", "locate_s"),
               "_isotropic_flips": timed("_isotropic_flips", "locate_s"),
               "_sweeps": sweeps, "_locate_group": group,
               "_edge_crossings": crossings, "_isotropic_instants": instants}
    for name, fn in patched.items():
        setattr(tracker, name, fn)
    try:
        for seed in args.seeds:
            walks = walks_corpus(seed, random_walk)
            per_kind = {}
            for kind in ("obb", "strip", "pc"):
                stats.update(groups=0, rounds=[], locate_s=0.0, sweep_s=0.0, tie_exits=0,
                             splits=0, unbracketed=0, floor_dropped=0, isotropic_instants=0)
                jumps = flips = 0
                with hull_counts() as counts:
                    for traj in walks:
                        found = []
                        setattr(tracker, "_locate_flips", lambda tr, k, p, j, found=found:
                                found.extend(j) or patched["_locate_flips"](tr, k, p, j))
                        flips += len(tracker.track_topological(traj, kind, CORE_DT).flips)
                        jumps += len(found)
                row = {"jumps": jumps, "located_flips": flips, "hulls": counts,
                       "groups": stats["groups"],
                       "rounds_per_group": stats["rounds"],
                       "median_rounds_per_group": (statistics.median(stats["rounds"])
                                                   if stats["rounds"] else 0),
                       "locate_s": stats["locate_s"] - stats["sweep_s"],
                       "sweep_s": stats["sweep_s"]}
                row.update({key: stats[key] for key in ("tie_exits", "splits", "unbracketed",
                                                        "floor_dropped", "isotropic_instants")})
                per_kind[kind] = row
                print(seed, kind, json.dumps({k: v for k, v in row.items()
                                              if k != "rounds_per_group"}), flush=True)
            out[str(seed)] = per_kind
    finally:
        for name, fn in real.items():
            setattr(tracker, name, fn)
    return {"git_commit": git_commit(Path(args.src)), "dt": CORE_DT, "seeds": out}


def run_claims(args) -> dict:
    """Wall time of each claim of ``verify.CLAIMS``, and of the two stages of
    ``axis-speed-escape``: see the module docstring."""
    sys.path.insert(0, str(Path(args.src).resolve()))
    from kinostable.scenarios import pc_fast_flip
    from kinostable.verify import (CLAIMS, SuiteOptions, SuiteRun, measured_axis_speed,
                                   min_anchor_diameter)

    run = SuiteRun(SuiteOptions(seed=args.seed, walks=args.walks, trig_samples=args.samples))
    rows = []
    for claim in CLAIMS:
        with hull_counts() as counts:
            t0 = time.perf_counter()
            check = claim.evaluate(run)
            wall = time.perf_counter() - t0
        rows.append({"claim": claim.claim_id, "wall_s": wall, "computed": check.computed,
                     "passed": check.passed, "hulls": counts})
        print(json.dumps(rows[-1]), flush=True)
    opts = run.opts
    fast = pc_fast_flip(opts.fast_flip_rate)
    stages = []
    for stage in (measured_axis_speed, min_anchor_diameter):
        seconds = []
        for _ in range(STAGE_REPEATS):
            t0 = time.perf_counter()
            value = stage(fast, opts.dt)
            seconds.append(time.perf_counter() - t0)
        stages.append({"stage": stage.__name__, "input": f"pc_fast_flip({opts.fast_flip_rate:g})",
                       "points": fast.n_points, "dt": opts.dt, "best_s": min(seconds),
                       "runs_s": seconds, "value": value})
        print(json.dumps(stages[-1]), flush=True)
    return {"git_commit": git_commit(Path(args.src)),
            "options": {"seed": args.seed, "walks": args.walks, "samples": args.samples},
            "total_s": sum(row["wall_s"] for row in rows), "claims": rows, "stages": stages,
            "program": {"bound": run.program.bound, "witness": run.program.witness,
                        "boxes": run.program.boxes}}


def kinobench_once(checkout: Path, args) -> dict:
    cmd = [sys.executable, "kinobench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: result["metrics"][name]["value"] for name in END_TO_END}
    return {"failed": result["failed"], "attempted": result["attempted"], **metrics}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in END_TO_END:
        values = [r[name] for r in runs]
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        out[name] = {"median": q2, "q1": q1, "q3": q3}
    return out


def run_kinobench(args) -> dict:
    checkouts = {"parent": Path(args.parent).resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for label in order:
            runs[label].append(kinobench_once(checkouts[label], args))
            print(label, json.dumps(runs[label][-1]), flush=True)
    better = sum(c["wall_s"] < p["wall_s"] for p, c in zip(runs["parent"], runs["change"]))
    return {
        "command": f"python3 kinobench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "alternating, parent first in even pairs",
        "git_commits": {label: git_commit(path) for label, path in checkouts.items()},
        "wall_s_better_pairs": better,
        "median": {label: summary(r) for label, r in runs.items()},
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("layers", help="per-call time and memory of one source tree")
    p.add_argument("--label", default="change")
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")], default=list(SIZES))
    p.add_argument("--normalize-hull", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("core", help="per-sample tracker time of one source tree")
    p.add_argument("--label", default="change")
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                   default=list(CORE_SIZES))
    p.add_argument("--seeds", type=lambda s: [int(v) for v in s.split(",")],
                   default=list(CORE_SEEDS))
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", required=True)
    p = sub.add_parser("flips", help="flip location on the walks corpora of one source tree")
    p.add_argument("--label", default="change")
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--seeds", type=lambda s: [int(v) for v in s.split(",")], default=[1, 9])
    p.add_argument("--out", required=True)
    p = sub.add_parser("claims", help="wall time of each verify claim of one source tree")
    p.add_argument("--label", default="change")
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walks", type=int, default=20)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p = sub.add_parser("kinobench", help="alternating parent/change kinobench runs")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--workload", required=True, choices=["walks", "big-hull", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    path = Path(args.out)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data["machine"] = machine()
    if args.command == "layers":
        data.setdefault("layers", {})[args.label] = run_layers(args)
    elif args.command == "core":
        data.setdefault("core", {})[args.label] = run_core(args)
    elif args.command == "flips":
        data.setdefault("flips", {})[args.label] = run_flips(args)
    elif args.command == "claims":
        data.setdefault("claims", {})[args.label] = run_claims(args)
    else:
        key = f"{args.workload}-seed{args.seed}"
        data.setdefault("kinobench", {})[key] = run_kinobench(args)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
