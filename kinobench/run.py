"""kinostable benchmark: one workload, one process, one caller.

Run from the repository root:

    python3 kinobench/run.py --workload walks --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs one pass untraced, then installs the span recorder,
re-runs set-up and one pass traced, and reports the per-layer metrics with
the tracing overhead.  Every output is checked.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".kinobench"
SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["walks", "big-hull", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "mini"], default="full",
                   help="mini: smallest inputs, for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="damage one output before the checks (self-test of the checks)")
    return p.parse_args(argv)


def import_program():
    """Import kinostable from this checkout's src/, and from nowhere else."""
    if not (SRC / "kinostable" / "__init__.py").is_file():
        raise SystemExit(f"kinobench: no kinostable package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kinostable

    if Path(kinostable.__file__).resolve().parent != SRC / "kinostable":
        raise SystemExit(f"kinobench: imported kinostable from {kinostable.__file__}")
    return kinostable


def import_seconds() -> float:
    """Wall time of ``import kinostable`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kinostable"], env=env, check=True)
    return time.perf_counter() - t0


def provenance(args, kinostable) -> dict:
    import numpy

    from kinostable.verify import thread_count

    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        if Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "kinostable").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kinostable": kinostable.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "verify_threads": thread_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def percentile_ms(latencies: list[float], q: int) -> float:
    """Linear-interpolation percentile (numpy's default), in milliseconds."""
    if len(latencies) == 1:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def measure_setup(wl, workdir: Path, tally) -> float:
    """Median over repeated set-ups of fresh-process import + input generation."""
    times, digests = [], []
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        t0 = time.perf_counter()
        digests.append(wl.setup(workdir))
        times.append(imp + time.perf_counter() - t0)
    tally.add(1, [] if len(set(digests)) == 1 else ["repeated set-up wrote different inputs"],
              "set-up")
    return statistics.median(times)


def run_untraced(args, wl, workdir: Path, tally) -> tuple[dict, list[str]]:
    setup_s = measure_setup(wl, workdir, tally)
    results, elapsed, pass_wall = wl.timed_loop(args.seconds, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.corrupt:
        corrupt(results[0].out)
    wl.check(results, tally)
    latencies = [r.seconds for r in results]
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_wall,
        "samples_per_s": wl.sample_frames(results) / elapsed,
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for x in latencies if x * 1e3 > metrics["op_p90_ms"])
    notes = [
        f"operations {len(results)} in {elapsed:.3f} s, passes {len(results) / len(wl.ops):.2f},"
        f" operations beyond p90 {beyond}",
    ]
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, notes


def run_traced(args, wl, workdir: Path, tally) -> tuple[dict, list[str]]:
    from spans import Recorder, layer_metric_names

    digest = wl.setup(workdir)
    untraced, untraced_wall = wl.one_pass(workdir, "untraced")
    rec = Recorder()
    rec.install()
    try:
        rec.phase = "setup"
        again = wl.setup(workdir)
        rec.phase = "run"
        traced, traced_wall = wl.one_pass(workdir, "traced")
    finally:
        rec.uninstall()
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-s{args.seed}.npz"
    rec.write(trace_file)
    tally.add(1, [] if digest == again else ["traced set-up wrote different inputs"], "set-up")
    if args.corrupt:
        corrupt(traced[0].out)
    wl.check(untraced + traced, tally)

    layers = rec.summary(traced_wall, untraced_wall)
    balance = (layers["trace.self_sum_s"] + layers["trace.remainder_s"]
               - layers["trace.parallel_excess_s"] - layers["trace.wall_s"])
    tally.add(1, [] if abs(balance) <= 1e-6 * max(1.0, traced_wall)
              else [f"self times + remainder - parallel excess misses wall by {balance:.3e} s"],
              "trace accounting")
    notes = [
        f"spans {rec.span_count()} written to {trace_file.relative_to(ROOT)}",
        f"self {layers['trace.self_sum_s']:.6f} s + remainder {layers['trace.remainder_s']:.6f} s"
        f" - parallel excess {layers['trace.parallel_excess_s']:.6f} s"
        f" = traced wall {layers['trace.wall_s']:.6f} s (off by {balance:.2e} s)",
        f"tracing overhead {layers['trace.overhead_s']:.6f} s"
        f" (traced {traced_wall:.6f} s - untraced {untraced_wall:.6f} s)",
    ]
    return {name: (layers[name], unit) for name, unit, _ in layer_metric_names()}, notes


def corrupt(path: Path) -> None:
    """Keep only the first line of an output file."""
    text = path.read_text(encoding="utf-8")
    path.write_text(text.splitlines()[0] + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    # The verify fan-out must use its default (the CPU count), and numpy's
    # BLAS one thread, so no run uses more threads than there are cores.
    os.environ.pop("KINOSTABLE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    kinostable = import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    tally = workloads.Tally()
    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, notes = run(args, wl, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"kinobench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args, kinostable), sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':<44} {ratio:>16.6f} ({tally.failed}/{tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
