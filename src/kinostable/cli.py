"""Command-line interface.

Subcommands compose over stdin/stdout pipes::

    kinostable scenario obb-lower-bound | kinostable track --kind obb | kinostable ratio

``track`` runs the continuous topological tracker and ``chase`` the
speed-capped chaser; both write the same run CSV.  ``descriptor`` reports
the raw per-sample optimum.

Exit status: 0 on success, 2 on any input-validation error, 3 when
``verify`` finds a failing claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress

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
from .solvers import block_optima
from .tracker import track_topological
from .verify import SuiteOptions, run_claim_suite


@contextmanager
def _open(path: str, mode: str):
    """``path`` opened as UTF-8 text, or stdin/stdout for ``-``; a file that
    cannot be opened is an input error."""
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
        return
    try:
        fp = open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise KinostableError(str(exc)) from exc
    with fp:
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
    with _open(args.out, "w") as fp:
        write_trajectory(fp, traj)
    return 0


def _cmd_descriptor(args) -> int:
    with _open(args.input, "r") as fp:
        traj = read_trajectory(fp)
    times = traj.sample_times(args.dt)
    kinds = list(DescriptorKind) if args.kind == "all" else [DescriptorKind(args.kind)]
    with _open(args.out, "w") as fp:
        fp.write("time,kind,alpha,cost,degenerate\n")
        start = 0
        for frames in traj.frame_blocks(times):  # box and strip from one hull per frame
            optima = block_optima(frames, kinds)
            columns = [(opt.kind.value, opt.alpha.tolist(), opt.cost.tolist(),
                        opt.isotropic.tolist()) for opt in optima]
            for i, t in enumerate(times[start:start + len(frames)].tolist()):
                for kind, alpha, cost, isotropic in columns:
                    fp.write(f"{t!r},{kind},{alpha[i]!r},{cost[i]!r},{1 if isotropic[i] else 0}\n")
            start += len(frames)
    return 0


def _cmd_track(args) -> int:
    with _open(args.input, "r") as fp:
        traj = read_trajectory(fp)
    output = track_topological(traj, DescriptorKind(args.kind), args.dt)
    with _open(args.out, "w") as fp:
        write_tracker_csv(fp, output)
    return 0


def _cmd_chase(args) -> int:
    with _open(args.input, "r") as fp:
        traj = read_trajectory(fp)
    if not args.no_normalize:
        traj, _, _ = normalize_trajectory(traj)
    kind = DescriptorKind(args.kind)
    result = chase(traj, ChaseParams(args.K, args.c), args.dt, (kind,))
    with _open(args.out, "w") as fp:
        write_chase_csv(fp, result, kind)
    return 0


def _cmd_ratio(args) -> int:
    with _open(args.input, "r") as fp:
        cols = read_run_csv(fp)
    ratios = cols["ratio"]
    if len(ratios) == 0:
        raise KinostableError("run file has no ratio values")
    missing = int(np.isnan(ratios).sum())
    if missing:
        raise KinostableError(f"run file has {missing} empty or NaN ratio cells")
    worst = float(ratios.max())
    print(f"{worst:.12g}" if math.isfinite(worst) else "inf")
    return 0


def _cmd_verify(args) -> int:
    opts = SuiteOptions(dt=args.dt, seed=args.seed, walks=args.walks, trig_samples=args.samples)
    # The options are checked above and the report path here, before any claim
    # runs; an existing report is truncated only once the suite has returned,
    # and a report file this call created is removed if the suite raises.
    created = bool(args.out) and args.out != "-" and not os.path.lexists(args.out)
    if args.out:
        with _open(args.out, "a"):
            pass
    try:
        report = run_claim_suite(opts)
    except BaseException:
        if created:
            with suppress(OSError):
                os.remove(args.out)
        raise
    print(*report.table_lines(), "ALL CLAIMS PASS" if report.passed else "CLAIM FAILURES PRESENT",
          sep="\n")
    if args.out:
        with _open(args.out, "w") as fp:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares: building it costs about 1 ms,
    and parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KinostableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
