import io
import json
import math

import numpy as np
import pytest

from kinostable import geometry, scenarios, trajectory
from kinostable.chasing import ChaseParams, chase, normalize_trajectory
from kinostable.cli import build_parser, main
from kinostable.costs import DescriptorKind
from kinostable.errors import DomainError
from kinostable.runio import (read_trajectory, write_chase_csv, write_tracker_csv,
                              write_trajectory)
from kinostable.scenarios import obb_lower_bound, random_walk
from kinostable.solvers import optimal
from kinostable.tracker import track_topological
from kinostable.trajectory import Trajectory
from kinostable.verify import CLAIMS

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


@pytest.mark.parametrize("dt, message", [
    (0.0, "dt must be positive"),
    (-1.0, "dt must be positive"),
    (math.nan, "dt must be positive"),
    (math.inf, "dt must be finite"),
])
@pytest.mark.parametrize("entry", ["track_topological", "chase", "descriptor"])
def test_bad_dt_is_rejected_on_a_single_keyframe(capsys, monkeypatch, entry, dt, message):
    # Trajectory.sample_times is the one dt check, horizon 0 included.
    if entry == "descriptor":
        code, out, err = run_cli(capsys, ["descriptor", "--dt", repr(dt)],
                                 stdin_text=UNIT_SQUARE_FILE, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        return
    traj = read_trajectory(io.StringIO(UNIT_SQUARE_FILE))
    run = {
        "track_topological": lambda: track_topological(traj, DescriptorKind.OBB, dt),
        "chase": lambda: chase(traj, dt=dt),
    }[entry]
    with pytest.raises(DomainError, match=f"^{message}$"):
        run()


def test_descriptor_all_builds_one_hull_per_sample(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(7)
    start = rng.normal(size=(200, 2)) * (3.0, 1.0)
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([start, start[:, ::-1]]))
    traj_path = tmp_path / "traj.jsonl"
    with open(traj_path, "w", encoding="utf-8") as fp:
        write_trajectory(fp, traj)
    expected = [
        f"{float(t)!r},{kind.value},{opt.alpha!r},{opt.cost!r},{1 if opt.isotropic else 0}"
        for t in traj.sample_times(0.25)
        for kind in DescriptorKind
        for opt in [optimal(traj.frame_at(float(t)), kind)]
    ]
    # 200 points is above the brute-force limit: box, strip and their edge
    # candidates all read the hull, which each sample builds at most once
    chain_runs = []  # the frames chained
    real = geometry._monotone_chains
    monkeypatch.setattr(geometry, "_monotone_chains",
                        lambda points, keep=None: chain_runs.extend(points) or real(points, keep))
    code, out, _ = run_cli(capsys, ["descriptor", str(traj_path), "--dt", "0.25"])
    assert code == 0
    assert out.splitlines()[1:] == expected
    assert 1 <= len(chain_runs) <= len(traj.sample_times(0.25))


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


@pytest.mark.parametrize("kind", ["obb", "strip"])
def test_chase_csv_matches_a_run_that_scores_both_kinds(tmp_path, capsys, kind):
    traj_path = tmp_path / "walk.jsonl"
    main(["scenario", "random-walk", "--seed", "3", "--steps", "10", "--out", str(traj_path)])
    code, out, _ = run_cli(capsys, ["chase", str(traj_path), "--kind", kind, "--dt", "5e-3"])
    with open(traj_path, encoding="utf-8") as fp:
        traj = normalize_trajectory(read_trajectory(fp))[0]
    expected = io.StringIO()
    write_chase_csv(expected, chase(traj, ChaseParams(), 5e-3), DescriptorKind(kind))
    assert (code, out) == (0, expected.getvalue())


def test_malformed_file_is_validation_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["track"], stdin_text="not json\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "line 1" in err


def test_ratio_requires_rows(capsys, monkeypatch):
    header = "time,beta,optAlpha,cost,optCost,ratio,z,H,J,angGap,inSafeZone\n"
    code, _, err = run_cli(capsys, ["ratio"], stdin_text=header, monkeypatch=monkeypatch)
    assert code == 2
    assert "no ratio" in err


@pytest.mark.parametrize("flag, value", [("--K", "nan"), ("--c", "nan"), ("--c", "inf")])
def test_chase_rejects_nan_and_infinite_params(tmp_path, capsys, flag, value):
    traj = tmp_path / "walk.jsonl"
    assert main(["scenario", "random-walk", "--seed", "7", "--steps", "4", "--out", str(traj)]) == 0
    out = tmp_path / "run.csv"
    code, _, err = run_cli(capsys, ["chase", str(traj), flag, value, "--out", str(out)])
    assert code == 2
    assert "safe_zone_factor" in err or "max_turn_rate" in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", ""])
def test_ratio_rejects_nan_cells(capsys, monkeypatch, cell):
    header = "time,beta,optAlpha,cost,optCost,ratio,z,H,J,angGap,inSafeZone\n"
    rows = "0.0,0.1,0.1,2.0,2.0,1.0,,,,,\n" f"0.1,0.1,0.1,2.0,1.0,{cell},,,,,\n"
    code, out, err = run_cli(capsys, ["ratio"], stdin_text=header + rows, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "1 empty or NaN ratio cells" in err


def test_deterministic_outputs(tmp_path):
    args = ["scenario", "random-walk", "--seed", "11", "--steps", "6"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_verify_quick_suite_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "verify", "--walks", "2", "--samples", "2000",
        "--out", str(report_path),
    ])
    assert code == 0
    assert "ALL CLAIMS PASS" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert [c["id"] for c in report["claims"]] == [c.claim_id for c in CLAIMS]
    assert len({c.claim_id for c in CLAIMS}) == len(CLAIMS)


def test_scenario_rejects_infinite_duration(capsys):
    code, out, err = run_cli(capsys, ["scenario", "obb-lower-bound", "--duration", "inf"])
    assert (code, out, err) == (2, "", "error: keyframe times must be finite\n")


@pytest.mark.parametrize("argv, message", [
    (["pc-fast-flip", "--target-rate", "nan"], "target_rate must be positive and finite"),
    (["pc-fast-flip", "--target-rate", "inf"], "target_rate must be positive and finite"),
    (["random-walk", "--duration", "inf"], "duration must be positive and finite"),
    (["strip-lower-bound", "--start-height", "nan"], "start_height must be finite and at least 1"),
    (["strip-lower-bound", "--start-height", "inf"], "start_height must be finite and at least 1"),
])
def test_scenario_rejects_non_finite_parameters(capsys, argv, message):
    code, out, err = run_cli(capsys, ["scenario", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Each scenario's function, with the keywords it reads from ``ALL_OPTIONS``.
SCENARIO_CALLS = {
    "obb-lower-bound": (scenarios.obb_lower_bound, {"duration": 2.0}),
    "strip-lower-bound": (scenarios.strip_lower_bound, {"start_height": 3.0, "duration": 2.0}),
    "pc-flip": (scenarios.pc_flip, {"duration": 2.0}),
    "pc-fast-flip": (scenarios.pc_fast_flip, {"target_rate": 30.0, "duration": 2.0}),
    "stateless-disk": (scenarios._stateless_disk_trajectory,
                       {"n": 7, "steps": 9, "duration": 2.0}),
    "random-walk": (scenarios.random_walk, {"n": 7, "steps": 9, "seed": 4, "duration": 2.0}),
}
ALL_OPTIONS = ["--n", "7", "--steps", "9", "--seed", "4", "--duration", "2",
               "--start-height", "3", "--target-rate", "30"]


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
@pytest.mark.parametrize("options", [False, True])
def test_scenario_prints_its_function_called_with_only_the_given_options(
        monkeypatch, name, options):
    # Without options a scenario is the function's own default construction,
    # the one verify checks.  The keyframes handed to write_trajectory are
    # compared bitwise, which fixes every byte it prints (pc-fast-flip's
    # default trajectory prints 67 MB).
    assert set(SCENARIO_CALLS) == set(scenarios.SCENARIO_NAMES)
    written = []
    monkeypatch.setattr("kinostable.cli.write_trajectory", lambda fp, traj: written.append(traj))
    assert main(["scenario", name, *(ALL_OPTIONS if options else [])]) == 0
    build, keywords = SCENARIO_CALLS[name]
    expected = build(**keywords) if options else build()
    [traj] = written
    for got, want in ((traj.times, expected.times), (traj.positions, expected.positions)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("duration", ["nan", "inf", "0", "-1"])
def test_stateless_disk_rejects_a_bad_duration(capsys, duration):
    code, out, err = run_cli(capsys, ["scenario", "stateless-disk", "--duration", duration])
    assert (code, out, err) == (2, "", "error: duration must be positive and finite\n")


@pytest.mark.parametrize("steps", ["0", "-1", "-3"])
def test_stateless_disk_rejects_too_few_steps(capsys, steps):
    code, out, err = run_cli(capsys, ["scenario", "stateless-disk", "--steps", steps])
    assert (code, out, err) == (2, "", "error: need at least 1 step\n")


@pytest.mark.parametrize("dt", ["1e-15", "5e-324"])
@pytest.mark.parametrize("command", ["track", "descriptor", "chase"])
def test_a_sample_grid_too_large_to_hold_is_rejected(capsys, tmp_path, monkeypatch, command, dt):
    # a horizon-1 walk at dt = 1e-15 would need 8 PB of sample times
    path = tmp_path / "walk.jsonl"
    assert main(["scenario", "random-walk", "--steps", "3", "--out", str(path)]) == 0
    real = np.arange

    def no_grid(stop, *args, **kwargs):
        if stop > trajectory._MAX_SAMPLES:
            raise AssertionError("sample grid allocated")
        return real(stop, *args, **kwargs)

    monkeypatch.setattr("kinostable.trajectory.np.arange", no_grid)
    code, out, err = run_cli(capsys, [command, str(path), "--dt", dt])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: dt {dt} needs ")
    assert err.endswith("; at most 33554432 are run\n")


def test_fast_flip_rejects_a_cluster_too_large_to_hold(capsys, monkeypatch):
    # 1000 rad per time unit would need 6.1 M points per keyframe, 2.7 GB
    def no_allocation(*args, **kwargs):
        raise AssertionError("keyframes allocated")

    monkeypatch.setattr("kinostable.scenarios.np.empty", no_allocation)
    code, out, err = run_cli(capsys, ["scenario", "pc-fast-flip", "--target-rate", "1000"])
    assert (code, out) == (2, "")
    assert err.startswith("error: target_rate 1000 needs 6149480 cluster points per keyframe")


def test_one_process_runs_different_subcommands(capsys, tmp_path):
    # main shares one parser between calls; each call parses its own argv
    path = tmp_path / "flip.jsonl"
    assert run_cli(capsys, ["scenario", "obb-lower-bound", "--out", str(path)]) == (0, "", "")
    code, out, err = run_cli(capsys, ["track", str(path), "--kind", "strip", "--dt", "0.01"])
    assert (code, err) == (0, "")
    expected = io.StringIO()
    write_tracker_csv(expected, track_topological(obb_lower_bound(), DescriptorKind.STRIP, 0.01))
    assert out == expected.getvalue()
    code, out, err = run_cli(capsys, ["descriptor", str(path), "--kind", "obb", "--dt", "0.5"])
    assert (code, err) == (0, "") and len(out.splitlines()) == 4
    with pytest.raises(SystemExit) as exit_info:
        main(["track", "--kind", "box"])
    assert exit_info.value.code == 2
    first = capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["track", "--kind", "box"])
    assert capsys.readouterr() == first
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


@pytest.mark.parametrize("command", ["track", "chase", "descriptor"])
def test_infinite_keyframe_time_is_rejected(capsys, monkeypatch, command):
    text = (
        '{"format": "kinostable-trajectory", "version": 1, "points": 3, "horizon": 1.0}\n'
        '{"t": 0.0, "xy": [0, 0, 1, 0, 0, 1]}\n'
        '{"t": Infinity, "xy": [0, 0, 1, 0, 0, 1]}\n'
    )
    code, out, err = run_cli(capsys, [command], stdin_text=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: keyframe times must be finite\n")


def test_track_rejects_a_horizon_past_the_keyframes(capsys, monkeypatch):
    text = (
        '{"format": "kinostable-trajectory", "version": 1, "points": 3, "horizon": 1.0}\n'
        '{"t": 0.0, "xy": [0, 0, 1, 0, 0, 1]}\n'
        '{"t": 2.0, "xy": [0, 0, 1, 0, 0, 2]}\n'
    )
    code, out, err = run_cli(capsys, ["track", "--kind", "obb"], stdin_text=text,
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: line 1: header 'horizon' 1.0 is not the last keyframe time 2.0\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_no_trig_samples(capsys, samples):
    code, out, err = run_cli(capsys, ["verify", "--samples", samples])
    assert (code, out, err) == (2, "", "error: samples must be at least 1\n")


@pytest.mark.parametrize("walks", ["0", "-3"])
def test_verify_rejects_no_walks(capsys, walks):
    code, out, err = run_cli(capsys, ["verify", "--walks", walks])
    assert (code, out, err) == (2, "", "error: walks must be at least 1\n")


def test_verify_failure_exits_three(capsys, monkeypatch):
    from kinostable.verify import ClaimCheck, VerificationReport

    failing = VerificationReport([
        ClaimCheck("demo", "always fails", "0", "1", False),
    ])
    monkeypatch.setattr("kinostable.cli.run_claim_suite", lambda opts: failing)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 3
    assert "CLAIM FAILURES PRESENT" in out


def test_random_walk_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, ["scenario", "random-walk", "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: seed must be non-negative\n")


def test_verify_rejects_a_negative_seed_before_any_claim_runs(capsys, monkeypatch):
    def no_program(*args, **kwargs):
        raise AssertionError("the sweep program ran")

    monkeypatch.setattr("kinostable.verify.verify_obb_program", no_program)
    code, out, err = run_cli(capsys, ["verify", "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: seed must be non-negative\n")


@pytest.mark.parametrize("command", ["track", "ratio"])
def test_a_missing_input_file_is_an_input_error(capsys, tmp_path, command):
    missing = tmp_path / "missing.jsonl"
    code, out, err = run_cli(capsys, [command, str(missing)])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_an_output_in_a_missing_directory_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "flip.jsonl"
    assert main(["scenario", "obb-lower-bound", "--out", str(path)]) == 0
    out_path = tmp_path / "missing" / "run.csv"
    code, out, err = run_cli(capsys, ["track", str(path), "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"


@pytest.mark.parametrize("option, message", [
    pytest.param(["--samples", "0"], "samples must be at least 1", id="samples-0"),
    pytest.param(["--dt", "0"], "dt must be positive", id="dt-0"),
    pytest.param(["--dt", "nan"], "dt must be positive", id="dt-nan"),
    pytest.param(["--dt", "inf"], "dt must be finite", id="dt-inf"),
    pytest.param(["--walks", "0"], "walks must be at least 1", id="walks-0"),
    pytest.param(["--seed", "-1"], "seed must be non-negative", id="seed-negative"),
])
def test_verify_rejects_a_bad_option_before_touching_its_report(capsys, tmp_path, monkeypatch,
                                                                option, message):
    def no_program(*args, **kwargs):
        raise AssertionError("the sweep program ran")

    monkeypatch.setattr("kinostable.verify.verify_obb_program", no_program)
    report = tmp_path / "report.json"
    report.write_bytes(b'{"passed": true, "claims": []}\n')
    code, out, err = run_cli(capsys, ["verify", *option, "--out", str(report)])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert report.read_bytes() == b'{"passed": true, "claims": []}\n'


def test_verify_checks_its_report_path_before_running_the_suite(capsys, tmp_path, monkeypatch):
    def no_program(*args, **kwargs):
        raise AssertionError("the sweep program ran")

    monkeypatch.setattr("kinostable.verify.verify_obb_program", no_program)
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["verify", "--walks", "1", "--samples", "10",
                                      "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"


def test_a_claim_that_raises_leaves_an_existing_report_as_it_was(capsys, tmp_path):
    # the sample-count bound on dt fails only inside a claim, after the program ran
    report = tmp_path / "report.json"
    report.write_bytes(b'{"passed": true, "claims": []}\n')
    code, _, err = run_cli(capsys, ["verify", "--dt", "1e-9", "--walks", "1", "--samples", "10",
                                    "--out", str(report)])
    assert code == 2
    assert err.startswith("error: dt 1e-09 needs 8e+08 samples")
    assert report.read_bytes() == b'{"passed": true, "claims": []}\n'


@pytest.mark.parametrize("failure", ["claim-raises", "interrupted"])
def test_a_suite_that_raises_removes_only_a_report_it_created(capsys, tmp_path, monkeypatch,
                                                              failure):
    def interrupted(opts):
        raise KeyboardInterrupt

    if failure == "interrupted":
        monkeypatch.setattr("kinostable.cli.run_claim_suite", interrupted)
    existing, new = tmp_path / "report.json", tmp_path / "new.json"
    existing.write_bytes(b'{"passed": true, "claims": []}\n')
    for path in (new, existing):
        argv = ["verify", "--dt", "1e-9", "--walks", "1", "--samples", "10", "--out", str(path)]
        if failure == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert run_cli(capsys, argv)[0] == 2
    assert not new.exists()
    assert existing.read_bytes() == b'{"passed": true, "claims": []}\n'


@pytest.mark.parametrize("target", ["file", "-"])
def test_verify_writes_its_report_after_the_table(capsys, tmp_path, monkeypatch, target):
    from kinostable.verify import ClaimCheck, VerificationReport

    report = VerificationReport([ClaimCheck("demo", "passes", "0", "0", True)])
    monkeypatch.setattr("kinostable.cli.run_claim_suite", lambda opts: report)
    path = tmp_path / "report.json"
    path.write_text("an older, longer report\n" * 100)
    code, out, _ = run_cli(capsys, ["verify", "--out", str(path) if target == "file" else "-"])
    table = "[PASS] demo  expected 0  got 0\nALL CLAIMS PASS\n"
    written = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert code == 0
    if target == "file":
        assert (out, path.read_text()) == (table, written)
    else:
        assert out == table + written


@pytest.mark.parametrize("n, seed", [(8, 3), (64, 5)])
@pytest.mark.parametrize("kind", ["obb", "strip", "pc"])
def test_tracked_costs_are_the_descriptor_costs(tmp_path, capsys, kind, n, seed):
    # The tracker reports the cost of the candidate it steered to, which is
    # the optimum the descriptor reports, to the last bit.
    path = tmp_path / "walk.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_trajectory(fp, random_walk(n=n, seed=seed, steps=20, duration=0.4))
    _, described, _ = run_cli(capsys, ["descriptor", str(path), "--kind", kind])
    _, tracked, _ = run_cli(capsys, ["track", str(path), "--kind", kind])
    samples = [row.split(",") for row in described.splitlines()[1:]]
    want = iter(samples)
    expect = next(want)
    matched = []
    for row in tracked.splitlines()[1:]:  # flip rows sit between the sample rows
        cells = row.split(",")
        if expect is not None and cells[0] == expect[0]:
            matched.append((cells[3], expect[3]))
            expect = next(want, None)
    assert len(matched) == len(samples) == 401
    assert [got for got, _ in matched] == [cost for _, cost in matched]
