import io
import json

import pytest

from kinostable.cli import main

UNIT_SQUARE_FILE = (
    '{"format": "kinostable-trajectory", "version": 1, "points": 4, "horizon": 0.0}\n'
    '{"t": 0.0, "xy": [0, 0, 1, 0, 1, 1, 0, 1]}\n'
)


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_emits_trajectory(capsys):
    code, out, err = run_cli(capsys, ["scenario", "obb-lower-bound"])
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["points"] == 5
    assert len(lines) == 3


def test_pipeline_scenario_track_ratio(tmp_path, capsys):
    traj_path = tmp_path / "traj.jsonl"
    run_path = tmp_path / "run.csv"
    assert main(["scenario", "obb-lower-bound", "--out", str(traj_path)]) == 0
    assert main([
        "track", str(traj_path), "--kind", "obb", "--dt", "1e-3", "--out", str(run_path),
    ]) == 0
    code, out, _ = run_cli(capsys, ["ratio", str(run_path)])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.25, abs=1e-3)


def test_descriptor_reports_all_kinds(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["descriptor"], stdin_text=UNIT_SQUARE_FILE,
                           monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,kind,alpha,cost,degenerate"
    rows = {ln.split(",")[1]: ln.split(",") for ln in lines[1:]}
    assert float(rows["obb"][3]) == pytest.approx(1.0)
    assert float(rows["strip"][3]) == pytest.approx(1.0)
    assert rows["pc"][4] == "1"  # isotropic square: degenerate principal axis


def test_track_optimal_mode(tmp_path, capsys):
    traj_path = tmp_path / "traj.jsonl"
    main(["scenario", "strip-lower-bound", "--out", str(traj_path)])
    code, out, _ = run_cli(capsys, [
        "track", str(traj_path), "--tracker", "optimal", "--kind", "strip", "--dt", "0.05",
    ])
    assert code == 0
    body = out.strip().splitlines()[1:]
    ratios = [float(ln.split(",")[5]) for ln in body]
    assert max(ratios) == pytest.approx(1.0)


def test_chase_run_csv(tmp_path, capsys):
    traj_path = tmp_path / "walk.jsonl"
    main(["scenario", "random-walk", "--seed", "3", "--steps", "10", "--out", str(traj_path)])
    code, out, _ = run_cli(capsys, [
        "chase", str(traj_path), "--kind", "strip", "--dt", "5e-3",
    ])
    assert code == 0
    header = out.splitlines()[0]
    assert header == "time,beta,optAlpha,cost,optCost,ratio,z,H,J,angGap,inSafeZone"
    cells = out.splitlines()[1].split(",")
    assert cells[-1] in {"0", "1"}


def test_malformed_file_is_validation_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["track"], stdin_text="not json\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "line 1" in err


def test_ratio_requires_rows(capsys, monkeypatch):
    header = "time,beta,optAlpha,cost,optCost,ratio,z,H,J,angGap,inSafeZone\n"
    code, _, err = run_cli(capsys, ["ratio"], stdin_text=header, monkeypatch=monkeypatch)
    assert code == 2
    assert "no ratio" in err


def test_deterministic_outputs(tmp_path):
    args = ["scenario", "random-walk", "--seed", "11", "--steps", "6"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_verify_quick_suite_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "verify", "--grid", "64", "--walks", "2", "--samples", "2000",
        "--out", str(report_path),
    ])
    assert code == 0
    assert "ALL CLAIMS PASS" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert len(report["claims"]) >= 14


def test_verify_failure_exits_three(capsys, monkeypatch):
    from kinostable.verify import ClaimCheck, VerificationReport

    failing = VerificationReport([
        ClaimCheck("demo", "always fails", "0", "1", False),
    ])
    monkeypatch.setattr("kinostable.cli.run_claim_suite", lambda opts: failing)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 3
    assert "CLAIM FAILURES PRESENT" in out
