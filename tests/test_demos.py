"""The narrative demos run to completion against the current package.

Demo 05 is left out: it runs the claim suite, which
``test_cli.py::test_verify_quick_suite_exits_zero`` already covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_shape_descriptors", "02_flip_tracking", "03_speed_capped_chasing",
         "04_stateless_double_cover")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
