"""Trajectory files and run outputs.

Trajectories are line-delimited JSON: one header object, then one object
per keyframe carrying the time and a flat coordinate list.  Floats are
serialized with shortest-round-trip precision, so write -> read is exact.

Run outputs are CSV with a fixed column set (order is part of the
contract)::

    time,beta,optAlpha,cost,optCost,ratio,z,H,J,angGap,inSafeZone

Every run is a ``TrackerOutput`` table written by one row writer.
Topological and per-frame-optimum runs leave the chase-only columns empty;
chase runs fill them from the safe-zone report.  Flip sweeps appear as
extra rows at the flip time carrying the worst swept orientation and ratio.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable

import numpy as np

from .chasing import ChaseResult, SafeZoneReport
from .costs import DescriptorKind
from .errors import DomainError, FileFormatError
from .tracker import TrackerOutput
from .trajectory import Trajectory

TRAJECTORY_FORMAT = "kinostable-trajectory"
TRAJECTORY_VERSION = 1

CSV_COLUMNS = (
    "time", "beta", "optAlpha", "cost", "optCost", "ratio",
    "z", "H", "J", "angGap", "inSafeZone",
)


def _f(x: float) -> str:
    """Shortest exact decimal form of a float."""
    return repr(float(x))


def write_trajectory(fp: IO[str], traj: Trajectory) -> None:
    header = {
        "format": TRAJECTORY_FORMAT,
        "version": TRAJECTORY_VERSION,
        "points": traj.n_points,
        "horizon": traj.horizon,
    }
    fp.write(json.dumps(header) + "\n")
    for t, frame in zip(traj.times, traj.positions):
        row = {"t": float(t), "xy": [float(v) for v in frame.reshape(-1)]}
        fp.write(json.dumps(row) + "\n")


def read_trajectory(fp: IO[str]) -> Trajectory:
    def fail(line_no: int, msg: str):
        raise FileFormatError(f"line {line_no}: {msg}")

    lines = [ln for ln in fp]
    if not lines:
        raise FileFormatError("line 1: empty trajectory file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        fail(1, f"invalid JSON header: {exc}")
    if not isinstance(header, dict) or header.get("format") != TRAJECTORY_FORMAT:
        fail(1, f"header 'format' must be {TRAJECTORY_FORMAT!r}")
    if header.get("version") != TRAJECTORY_VERSION:
        fail(1, f"unsupported version {header.get('version')!r}")
    n = header.get("points")
    if not isinstance(n, int) or n < 2:
        fail(1, "header field 'points' must be an integer >= 2")

    times: list[float] = []
    frames: list[np.ndarray] = []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as exc:
            fail(i, f"invalid JSON keyframe: {exc}")
        if not isinstance(row, dict) or "t" not in row:
            fail(i, "keyframe missing field 't'")
        if "xy" not in row:
            fail(i, "keyframe missing field 'xy'")
        t = row["t"]
        xy = row["xy"]
        if not isinstance(t, (int, float)):
            fail(i, "field 't' must be a number")
        if not isinstance(xy, list) or len(xy) != 2 * n or not all(
            isinstance(v, (int, float)) for v in xy
        ):
            fail(i, f"field 'xy' must be a flat list of {2 * n} numbers")
        times.append(float(t))
        frames.append(np.array(xy, dtype=float).reshape(n, 2))
    if not times:
        raise FileFormatError("line 2: no keyframes")
    return Trajectory(np.array(times), np.stack(frames))


def _csv_row(values: Iterable[object]) -> str:
    out = []
    for v in values:
        if v is None:
            out.append("")
        elif isinstance(v, (bool, np.bool_)):
            out.append("1" if v else "0")
        else:
            out.append(_f(v))
    return ",".join(out)


_NO_ZONE = [None] * 5


def _write_run(fp: IO[str], run: TrackerOutput, zone: SafeZoneReport | None) -> None:
    """Header, one row per sample and one per flip sweep, in time order.

    A flip row sits before the sample rows at or after its time.  With a
    safe-zone report, sample rows also fill the five chase-only cells.
    """
    fp.write(",".join(CSV_COLUMNS) + "\n")
    flips = sorted(run.flips, key=lambda f: f.time)
    fi = 0
    n = len(run.times)
    for i in range(n + 1):
        t = float(run.times[i]) if i < n else math.inf
        while fi < len(flips) and flips[fi].time <= t:
            f = flips[fi]
            fp.write(_csv_row([
                f.time, f.worst_orientation, f.end, f.worst_cost, f.opt_cost,
                f.worst_ratio, *_NO_ZONE,
            ]) + "\n")
            fi += 1
        if i == n:
            break
        cells = [t, run.beta[i], run.opt_alpha[i], run.cost[i], run.opt_cost[i], run.ratio[i]]
        if zone is None:
            cells += _NO_ZONE
        else:
            cells += [
                zone.aspect[i], zone.safe_half_width[i], zone.jump_allowance[i],
                zone.ang_gap[i], bool(zone.in_safe_zone[i]),
            ]
        fp.write(_csv_row(cells) + "\n")


def write_tracker_csv(fp: IO[str], output: TrackerOutput) -> None:
    """Sampled tracker run; flip sweeps become extra rows at their flip time."""
    _write_run(fp, output, None)


def write_chase_csv(fp: IO[str], result: ChaseResult, kind: DescriptorKind) -> None:
    """Chase run with the safe-zone columns, reporting the requested cost kind."""
    run = result.runs.get(DescriptorKind(kind))
    if run is None:
        raise DomainError("chase runs report box and strip costs only")
    _write_run(fp, run, result.safe_zone)


def read_run_csv(fp: IO[str]) -> dict[str, np.ndarray]:
    """Parse a run CSV back into column arrays (empty cells become NaN)."""
    header = fp.readline().rstrip("\n")
    if header.split(",") != list(CSV_COLUMNS):
        raise FileFormatError(
            f"line 1: expected header {','.join(CSV_COLUMNS)!r}, got {header!r}"
        )
    cols: list[list[float]] = [[] for _ in CSV_COLUMNS]
    for i, raw in enumerate(fp, start=2):
        if not raw.strip():
            continue
        cells = raw.rstrip("\n").split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise FileFormatError(f"line {i}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        for c, cell in zip(cols, cells):
            if cell == "":
                c.append(math.nan)
            else:
                try:
                    c.append(float(cell))
                except ValueError:
                    raise FileFormatError(f"line {i}: {cell!r} is not a number") from None
    return {name: np.array(col) for name, col in zip(CSV_COLUMNS, cols)}
