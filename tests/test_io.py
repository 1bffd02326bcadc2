import io
import math

import numpy as np
import pytest

from kinostable.chasing import ChaseParams, chase, normalize_trajectory
from kinostable.costs import DescriptorKind
from kinostable.errors import FileFormatError
from kinostable.runio import (
    CSV_COLUMNS,
    read_run_csv,
    read_trajectory,
    write_chase_csv,
    write_tracker_csv,
    write_trajectory,
)
from kinostable.scenarios import obb_lower_bound, random_walk, strip_lower_bound
from kinostable.tracker import track_topological


def cell_by_cell_csv(run, zone) -> str:
    """The run CSV as it was written before, one cell at a time."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        return repr(float(v))

    lines = [",".join(CSV_COLUMNS)]
    flips = sorted(run.flips, key=lambda f: f.time)
    fi = 0
    n = len(run.times)
    for i in range(n + 1):
        t = float(run.times[i]) if i < n else math.inf
        while fi < len(flips) and flips[fi].time <= t:
            f = flips[fi]
            lines.append(",".join(cell(v) for v in [f.time, f.worst_orientation, f.end,
                                                    f.worst_cost, f.opt_cost, f.worst_ratio]
                                  + [None] * 5))
            fi += 1
        if i == n:
            break
        cells = [t, run.beta[i], run.opt_alpha[i], run.cost[i], run.opt_cost[i], run.ratio[i]]
        cells += [None] * 5 if zone is None else [
            zone.aspect[i], zone.safe_half_width[i], zone.jump_allowance[i],
            zone.ang_gap[i], bool(zone.in_safe_zone[i])]
        lines.append(",".join(cell(v) for v in cells))
    return "\n".join(lines) + "\n"


def roundtrip(traj):
    buf = io.StringIO()
    write_trajectory(buf, traj)
    buf.seek(0)
    return read_trajectory(buf)


class TestTrajectoryFile:
    def test_roundtrip_is_exact(self):
        traj = random_walk(n=5, steps=7, seed=123)
        back = roundtrip(traj)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.positions, traj.positions)

    def test_missing_time_field_names_line(self):
        buf = io.StringIO(
            '{"format": "kinostable-trajectory", "version": 1, "points": 2, "horizon": 1.0}\n'
            '{"t": 0.0, "xy": [0, 0, 1, 0]}\n'
            '{"xy": [0, 0, 1, 1]}\n'
        )
        with pytest.raises(FileFormatError, match="line 3.*'t'"):
            read_trajectory(buf)

    def test_mismatched_point_count_names_line_and_field(self):
        buf = io.StringIO(
            '{"format": "kinostable-trajectory", "version": 1, "points": 3, "horizon": 1.0}\n'
            '{"t": 0.0, "xy": [0, 0, 1, 0]}\n'
        )
        with pytest.raises(FileFormatError, match="line 2.*'xy'"):
            read_trajectory(buf)

    @pytest.mark.parametrize("row, field", [
        ('{"t": false, "xy": [0, 0, 1, 0]}', "'t'"),
        ('{"t": 0.0, "xy": [true, 0.0, 1, 0]}', "'xy'"),
    ], ids=["t", "xy"])
    def test_json_booleans_are_not_numbers(self, row, field):
        buf = io.StringIO(
            '{"format": "kinostable-trajectory", "version": 1, "points": 2, "horizon": 0.0}\n'
            + row + "\n"
        )
        with pytest.raises(FileFormatError, match=f"line 2.*{field}"):
            read_trajectory(buf)

    @pytest.mark.parametrize("value", ["true", '"1"', "null", "[1]"])
    def test_non_numbers_inside_xy_report_their_line(self, value):
        buf = io.StringIO(
            '{"format": "kinostable-trajectory", "version": 1, "points": 2, "horizon": 2.0}\n'
            '{"t": 0.0, "xy": [0, 0, 1, 0]}\n'
            '{"t": 1.0, "xy": [0, 0.5, 1, 1]}\n'
            f'{{"t": 2.0, "xy": [0, 0, {value}, 1]}}\n'
        )
        with pytest.raises(FileFormatError,
                           match=r"^line 4: field 'xy' must be a flat list of 4 numbers$"):
            read_trajectory(buf)

    def test_header_horizon_must_be_the_last_keyframe_time(self):
        rows = ('{"t": 0.0, "xy": [0, 0, 1, 0]}\n'
                '{"t": 2.0, "xy": [0, 0, 1, 1]}\n')
        for horizon in ("1.0", "true", '"2.0"', "NaN"):
            header = ('{"format": "kinostable-trajectory", "version": 1, "points": 2, '
                      f'"horizon": {horizon}}}\n')
            with pytest.raises(FileFormatError, match="line 1.*'horizon'"):
                read_trajectory(io.StringIO(header + rows))
        for header in ('{"format": "kinostable-trajectory", "version": 1, "points": 2, '
                       '"horizon": 2}\n',
                       '{"format": "kinostable-trajectory", "version": 1, "points": 2}\n'):
            assert read_trajectory(io.StringIO(header + rows)).horizon == 2.0

    def test_bad_header(self):
        with pytest.raises(FileFormatError, match="line 1"):
            read_trajectory(io.StringIO('{"format": "something-else"}\n'))

    def test_empty_file(self):
        with pytest.raises(FileFormatError):
            read_trajectory(io.StringIO(""))


class TestRunCsv:
    def test_columns_are_the_contract(self):
        assert CSV_COLUMNS == (
            "time", "beta", "optAlpha", "cost", "optCost", "ratio",
            "z", "H", "J", "angGap", "inSafeZone",
        )

    def test_tracker_csv_roundtrip_and_flip_rows(self):
        out = track_topological(obb_lower_bound(), DescriptorKind.OBB, 5e-3)
        buf = io.StringIO()
        write_tracker_csv(buf, out)
        buf.seek(0)
        cols = read_run_csv(buf)
        assert len(cols["time"]) == len(out.times) + len(out.flips)
        assert np.nanmax(cols["ratio"]) == pytest.approx(1.25, abs=1e-3)
        assert np.isnan(cols["z"]).all()  # chase-only columns stay empty
        assert np.all(np.diff(cols["time"]) >= 0.0)

    def test_chase_csv_carries_safe_zone(self):
        traj = normalize_trajectory(random_walk(n=5, steps=10, seed=3))[0]
        res = chase(traj, ChaseParams(), dt=5e-3)
        by_kind = {}
        for kind in (DescriptorKind.OBB, DescriptorKind.STRIP):
            buf = io.StringIO()
            write_chase_csv(buf, res, kind)
            buf.seek(0)
            by_kind[kind] = read_run_csv(buf)
        cols = by_kind[DescriptorKind.STRIP]
        assert not np.isnan(cols["z"]).any()
        assert np.all((cols["inSafeZone"] == 0) | (cols["inSafeZone"] == 1))
        assert np.all(cols["H"] == pytest.approx(3.0 * np.arcsin(cols["z"])))
        # One chase path: only the cost columns depend on the reported kind.
        for name in ("time", "beta", "z", "H", "J", "angGap", "inSafeZone"):
            assert np.array_equal(by_kind[DescriptorKind.OBB][name], cols[name])
        # The chased orientation is taken modulo pi for both kinds.
        assert {run.period for run in res.runs.values()} == {math.pi}

    @pytest.mark.parametrize("run", ["track", "chase"])
    def test_rows_equal_the_cell_by_cell_writer(self, run):
        if run == "track":
            out, zone = track_topological(obb_lower_bound(), DescriptorKind.OBB, 5e-3), None
            assert out.flips
        else:
            # a slow chaser leaves the safe zone, so both booleans are written
            res = chase(strip_lower_bound(), ChaseParams(0.05, 1.0), dt=1e-2)
            out, zone = res.runs[DescriptorKind.STRIP], res.safe_zone
            assert zone.in_safe_zone.any() and not zone.in_safe_zone.all()
        buf = io.StringIO()
        (write_tracker_csv(buf, out) if zone is None
         else write_chase_csv(buf, res, DescriptorKind.STRIP))
        assert buf.getvalue() == cell_by_cell_csv(out, zone)

    def test_write_is_deterministic(self):
        traj = obb_lower_bound()
        outputs = []
        for _ in range(2):
            out = track_topological(traj, DescriptorKind.OBB, 5e-3)
            buf = io.StringIO()
            write_tracker_csv(buf, out)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_rejects_wrong_header(self):
        with pytest.raises(FileFormatError, match="line 1"):
            read_run_csv(io.StringIO("time,beta\n"))

    def test_rejects_ragged_row(self):
        buf = io.StringIO(",".join(CSV_COLUMNS) + "\n1.0,2.0\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_run_csv(buf)

    def test_bad_cell_deep_in_a_file_reports_its_line(self):
        out = track_topological(obb_lower_bound(), DescriptorKind.OBB, 5e-3)
        buf = io.StringIO()
        write_tracker_csv(buf, out)
        lines = buf.getvalue().splitlines()
        assert len(lines) > 150
        lines[150] = lines[150].replace(",", ",x", 1)  # the beta cell of line 151
        with pytest.raises(FileFormatError, match=r"^line 151: 'x\S*' is not a number$"):
            read_run_csv(io.StringIO("\n".join(lines) + "\n"))
        # the first bad cell in file order comes first, before a later ragged row
        lines[170] = "1.0,2.0"
        with pytest.raises(FileFormatError, match="^line 151: "):
            read_run_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_infinite_ratio_roundtrips(self):
        row = ["0.0", "0.1", "0.1", "1.0", "0.0", "inf", "", "", "", "", ""]
        buf = io.StringIO(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        cols = read_run_csv(buf)
        assert math.isinf(cols["ratio"][0])
