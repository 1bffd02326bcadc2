"""Names the benchmark looks up on the package still exist.

``kinobench/spans.py`` times functions by module and attribute name, and
``kinobench/run.py`` and ``kinobench/workloads.py`` read a few more.  A
rename here would pass every other test and break only traced benchmark
runs, so this reads the span table itself and resolves each entry.
"""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "kinobench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("kinobench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = load_spans()
    for name, mod_name, path, *_ in spans.SPANS:
        owner = importlib.import_module(f"kinostable.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            # Methods are patched through the class dict, not inherited lookups.
            assert attr in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, path, None)), name


def test_names_read_outside_spans():
    from kinostable import verify
    from kinostable.chasing import ChaseResult
    from kinostable.tracker import TrackerOutput

    # the span counters read these fields off the returned runs
    assert "times" in {f.name for f in fields(ChaseResult)}
    assert {"times", "flips"} <= {f.name for f in fields(TrackerOutput)}

    assert verify.thread_count() == 1
    assert "fast_flip_rate" in {f.name for f in fields(verify.SuiteOptions)}
    # kinobench's mini verify passes grid, the only reason the field is kept
    verify.SuiteOptions(seed=3, grid=64, walks=1, trig_samples=2000)
    assert "samples" in inspect.signature(verify.forced_orientation_winding).parameters
