"""Names the benchmark looks up on the package still exist.

``kinobench/spans.py`` times functions by module and attribute name, and
``kinobench/run.py`` and ``kinobench/workloads.py`` read a few more.  A
rename here would pass every other test and break only traced benchmark
runs, so this reads the span table itself and resolves each entry.
"""

import importlib
import importlib.util
import inspect
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

    assert callable(verify.thread_count)
    assert "samples" in inspect.signature(verify.forced_orientation_winding).parameters
