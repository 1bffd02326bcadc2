"""Trajectory files and run outputs.

Trajectories are line-delimited JSON: one header object, then one object
per keyframe carrying the time and a flat coordinate list.  Floats are
serialized with shortest-round-trip precision, so write -> read is exact.

Run outputs are CSV with a fixed column set (order is part of the
contract)::

    time,beta,optAlpha,cost,optCost,ratio,z,H,J,angGap,inSafeZone

Every run is a ``TrackerOutput`` table written by one row writer.
Topological runs leave the chase-only columns empty; chase runs fill them
from the safe-zone report.  Flip sweeps appear as extra rows at the flip
time carrying the worst swept orientation and ratio.  Descriptor CSVs have
the columns ``time,kind,alpha,cost,degenerate``; every float cell of either
is its shortest round-trip decimal (``_column``).
"""

from __future__ import annotations

import json
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

# the exact types of a JSON number: a JSON boolean loads as bool, an int subclass
_NUMBER_TYPES = {int, float}


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
        if type(t) not in _NUMBER_TYPES:
            fail(i, "field 't' must be a number")
        if not isinstance(xy, list) or len(xy) != 2 * n or not set(map(type, xy)) <= _NUMBER_TYPES:
            fail(i, f"field 'xy' must be a flat list of {2 * n} numbers")
        times.append(float(t))
        frames.append(np.array(xy, dtype=float).reshape(n, 2))
    if not times:
        raise FileFormatError("line 2: no keyframes")
    traj = Trajectory(np.array(times), np.stack(frames))
    if "horizon" in header:
        horizon = header["horizon"]
        if type(horizon) not in _NUMBER_TYPES or horizon != traj.horizon:
            fail(1, f"header 'horizon' {horizon!r} is not the last keyframe time {traj.horizon!r}")
    return traj


def _column(values) -> list[str]:
    """The one format of a float cell: the shortest exact decimal of each entry."""
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def _write_run(fp: IO[str], run: TrackerOutput, zone: SafeZoneReport | None) -> None:
    """Header, one row per sample and one per flip sweep, in time order.

    A flip row sits before the sample rows at or after its time and leaves
    the five chase-only cells empty.  With a safe-zone report, sample rows
    fill them.  Sample rows are formatted column by column.
    """
    columns = [_column(c) for c in (run.times, run.beta, run.opt_alpha, run.cost,
                                    run.opt_cost, run.ratio)]
    if zone is None:
        columns.append([",,,,"] * len(run.times))
    else:
        columns += [_column(c) for c in (zone.aspect, zone.safe_half_width,
                                         zone.jump_allowance, zone.ang_gap)]
        columns.append(["1" if v else "0" for v in zone.in_safe_zone.tolist()])
    rows = [",".join(cells) for cells in zip(*columns)]
    flips = sorted(run.flips, key=lambda f: f.time)
    at = np.searchsorted(run.times, [f.time for f in flips]).tolist()
    lines = [",".join(CSV_COLUMNS)]
    done = 0
    for f, i in zip(flips, at):
        lines += rows[done:i]
        lines.append(",".join(_column([f.time, f.worst_orientation, f.end, f.worst_cost,
                                       f.opt_cost, f.worst_ratio])) + ",,,,,")
        done = i
    lines += rows[done:]
    fp.write("\n".join(lines) + "\n")


def write_tracker_csv(fp: IO[str], output: TrackerOutput) -> None:
    """Sampled tracker run; flip sweeps become extra rows at their flip time."""
    _write_run(fp, output, None)


def write_chase_csv(fp: IO[str], result: ChaseResult, kind: DescriptorKind) -> None:
    """Chase run with the safe-zone columns, reporting the requested cost kind."""
    run = result.runs.get(DescriptorKind(kind))
    if run is None:
        raise DomainError("chase runs report box and strip costs only")
    _write_run(fp, run, result.safe_zone)


def write_descriptor_csv(fp: IO[str], times: np.ndarray, blocks: Iterable[list]) -> None:
    """Per sample time, one row per descriptor kind: ``blocks`` yields the
    ``block_optima`` of consecutive blocks of ``times``, each drawn once the
    rows before it are written."""
    fp.write("time,kind,alpha,cost,degenerate\n")
    start = 0
    for optima in blocks:
        count = len(optima[0].alpha)
        columns = [(opt.kind.value, _column(opt.alpha), _column(opt.cost),
                    ["1" if v else "0" for v in opt.isotropic.tolist()]) for opt in optima]
        for i, t in enumerate(_column(times[start:start + count])):
            for kind, alpha, cost, degenerate in columns:
                fp.write(f"{t},{kind},{alpha[i]},{cost[i]},{degenerate[i]}\n")
        start += count


def read_run_csv(fp: IO[str]) -> dict[str, np.ndarray]:
    """Parse a run CSV back into column arrays (empty cells become NaN).

    Each column is parsed by one ``np.array(cells, dtype=float)``, which
    reads a cell as ``float()`` does; a file with a bad row or cell is read
    again row by row, to report the first one.
    """
    header = fp.readline().rstrip("\n")
    if header.split(",") != list(CSV_COLUMNS):
        raise FileFormatError(
            f"line 1: expected header {','.join(CSV_COLUMNS)!r}, got {header!r}"
        )
    rows = [(i, raw.rstrip("\n").split(",")) for i, raw in enumerate(fp, start=2) if raw.strip()]
    try:
        if any(len(cells) != len(CSV_COLUMNS) for _, cells in rows):
            raise ValueError("a ragged row")
        cols = [np.array([cell or "nan" for cell in col], dtype=float)
                for col in list(zip(*(cells for _, cells in rows))) or [()] * len(CSV_COLUMNS)]
    except ValueError:
        for i, cells in rows:
            if len(cells) != len(CSV_COLUMNS):
                raise FileFormatError(f"line {i}: expected {len(CSV_COLUMNS)} cells, "
                                      f"got {len(cells)}") from None
            for cell in cells:
                try:
                    float(cell or "nan")
                except ValueError:
                    raise FileFormatError(f"line {i}: {cell!r} is not a number") from None
        raise
    return dict(zip(CSV_COLUMNS, cols))
