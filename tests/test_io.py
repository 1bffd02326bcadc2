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
from kinostable.scenarios import obb_lower_bound, random_walk
from kinostable.tracker import track_topological


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

    def test_infinite_ratio_roundtrips(self):
        row = ["0.0", "0.1", "0.1", "1.0", "0.0", "inf", "", "", "", "", ""]
        buf = io.StringIO(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        cols = read_run_csv(buf)
        assert math.isinf(cols["ratio"][0])
