"""Command-line interface.

Subcommands compose over stdin/stdout pipes::

    kinostable scenario obb-lower-bound | kinostable track --kind obb | kinostable ratio

``track`` runs the continuous topological tracker (``--tracker optimal``
reports the raw per-sample optimum instead); ``chase`` runs the
speed-capped chaser.  Both write the same run CSV.

Exit status: 0 on success, 2 on any input-validation error, 3 when
``verify`` finds a failing claim.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .chasing import ChaseParams, chase, normalize_trajectory
from .costs import DescriptorKind
from .errors import KinostableError
from .runio import (
    read_run_csv,
    read_trajectory,
    write_chase_csv,
    write_tracker_csv,
    write_trajectory,
)
from .scenarios import SCENARIO_NAMES, build_scenario
from .solvers import optimal
from .tracker import track_topological
from .verify import SuiteOptions, run_claim_suite


@contextmanager
def _open_in(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as fp:
            yield fp


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-", help="trajectory file, or - for stdin")
    p.add_argument("--out", default="-", help="output path, or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kinostable", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="emit a built-in trajectory")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--n", type=int, default=None, help="point count (where applicable)")
    p.add_argument("--steps", type=int, default=None, help="keyframe steps (where applicable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--start-height", type=float, default=5.0)
    p.add_argument("--target-rate", type=float, default=100.0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("descriptor", help="per-frame optimal descriptors to CSV")
    _add_io_args(p)
    p.add_argument("--kind", choices=["all", "pc", "obb", "strip"], default="all")
    p.add_argument("--dt", type=float, default=1e-3)

    p = sub.add_parser("track", help="tracker run over a trajectory")
    _add_io_args(p)
    p.add_argument("--kind", choices=["pc", "obb", "strip"], default="obb")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument(
        "--tracker", choices=["topological", "optimal"], default="topological",
        help="continuous unbounded-speed tracker, or the raw per-sample optimum",
    )

    p = sub.add_parser("chase", help="speed-capped chase run with safe-zone report")
    _add_io_args(p)
    p.add_argument("--kind", choices=["obb", "strip"], default="obb")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--K", type=float, default=43.0)
    p.add_argument("--c", type=float, default=3.0)
    p.add_argument(
        "--no-normalize", action="store_true",
        help="skip unit-speed / unit-diameter normalization of the input",
    )

    p = sub.add_parser("ratio", help="worst ratio of a run CSV")
    p.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("verify", help="run the full claim-verification suite")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walks", type=int, default=20)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--out", default=None, help="also write the report as JSON")

    return parser


def _cmd_scenario(args) -> int:
    params = {"seed": args.seed, "duration": args.duration,
              "start_height": args.start_height, "target_rate": args.target_rate}
    if args.n is not None:
        params["n"] = args.n
    if args.steps is not None:
        params["steps"] = args.steps
    traj = build_scenario(args.name, params)
    with _open_out(args.out) as fp:
        write_trajectory(fp, traj)
    return 0


def _cmd_descriptor(args) -> int:
    with _open_in(args.input) as fp:
        traj = read_trajectory(fp)
    kinds = [DescriptorKind(args.kind)] if args.kind != "all" else list(DescriptorKind)
    times = traj.sample_times(args.dt) if traj.horizon > 0 else np.array([0.0])
    with _open_out(args.out) as fp:
        fp.write("time,kind,alpha,cost,degenerate\n")
        for t in times:
            frame = traj.frame_at(float(t))
            for kind in kinds:
                opt = optimal(frame, kind)
                fp.write(
                    f"{float(t)!r},{kind.value},{opt.alpha!r},{opt.cost!r},"
                    f"{1 if opt.isotropic else 0}\n"
                )
    return 0


def _cmd_track(args) -> int:
    with _open_in(args.input) as fp:
        traj = read_trajectory(fp)
    output = track_topological(
        traj, DescriptorKind(args.kind), args.dt, detect_flips=args.tracker == "topological",
    )
    with _open_out(args.out) as fp:
        write_tracker_csv(fp, output)
    return 0


def _cmd_chase(args) -> int:
    with _open_in(args.input) as fp:
        traj = read_trajectory(fp)
    if not args.no_normalize:
        traj, _, _ = normalize_trajectory(traj)
    result = chase(traj, ChaseParams(args.K, args.c), args.dt)
    with _open_out(args.out) as fp:
        write_chase_csv(fp, result, DescriptorKind(args.kind))
    return 0


def _cmd_ratio(args) -> int:
    with _open_in(args.input) as fp:
        cols = read_run_csv(fp)
    ratios = cols["ratio"]
    ratios = ratios[~np.isnan(ratios)]
    if len(ratios) == 0:
        raise KinostableError("run file has no ratio values")
    worst = float(ratios.max())
    print(f"{worst:.12g}" if math.isfinite(worst) else "inf")
    return 0


def _cmd_verify(args) -> int:
    opts = SuiteOptions(
        grid=args.grid, dt=args.dt, seed=args.seed,
        walks=args.walks, trig_samples=args.samples,
    )
    report = run_claim_suite(opts)
    for line in report.table_lines():
        print(line)
    print(f"{'ALL CLAIMS PASS' if report.passed else 'CLAIM FAILURES PRESENT'}")
    if args.out:
        with _open_out(args.out) as fp:
            json.dump(report.to_json_dict(), fp, indent=2)
            fp.write("\n")
    return 0 if report.passed else 3


_COMMANDS = {
    "scenario": _cmd_scenario,
    "descriptor": _cmd_descriptor,
    "track": _cmd_track,
    "chase": _cmd_chase,
    "ratio": _cmd_ratio,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KinostableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
