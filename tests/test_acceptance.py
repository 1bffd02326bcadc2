"""Acceptance gate: the grid-oracle check, then one test per claim in ``verify.CLAIMS``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per check.  Expected values, tolerances and runtime budgets live in the
claim table and are never loosened at runtime; this file adds only what the
claim suite does not run: the oracle check and the larger walk corpus for
the sweep cap.
"""

import math
import time

import numpy as np
import pytest

from kinostable.costs import DescriptorKind
from kinostable.geometry import Frame
from kinostable.solvers import optimal_box_and_strip, oracle_argmin
from kinostable.verify import CLAIMS, SuiteOptions, SuiteRun

ORACLE_BUDGET_S = 5.0
SWEEP_CAP_WALKS = 50  # the sweep cap is checked on more walks than the suite's 20


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    """Hull-edge optima vs the 8192-angle grid on 200 seeded random frames.

    The grid value can only sit above the true minimum, so the check is the
    one-sided bound: the exact solver must never exceed the grid result
    (with 1e-6 absolute-or-relative float slack).
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = -math.inf
    for _ in range(200):
        pts = rng.uniform(-10.0, 10.0, (int(rng.integers(3, 51)), 2))
        frame = Frame(pts)
        box, strip = optimal_box_and_strip(frame)
        for opt, kind in ((box, DescriptorKind.OBB), (strip, DescriptorKind.STRIP)):
            grid = oracle_argmin(frame, kind, 8192)
            tol = max(1e-6, 1e-6 * grid.cost)
            worst_gap = max(worst_gap, opt.cost - grid.cost)
            assert opt.cost <= grid.cost + tol
    elapsed = time.perf_counter() - started
    report(
        "criterion 1 (oracle equivalence)",
        elapsed < ORACLE_BUDGET_S,
        f"400 comparisons, worst solver-minus-grid gap {worst_gap:.3e}, "
        f"{elapsed:.2f}s < {ORACLE_BUDGET_S:g}s",
    )


@pytest.fixture(scope="module")
def ledger():
    """Runs keyed by (budget, options), and the seconds spent per budget."""
    return {}, {}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.claim_id)
def test_claim(claim, ledger):
    runs, spent = ledger
    if claim.claim_id == "box-flip-sweep-cap":
        opts = SuiteOptions(walks=SWEEP_CAP_WALKS)
    else:
        opts = SuiteOptions()
    # Claims that share a budget share a run of their own, so the budget
    # also times the inputs they build.
    run = runs.setdefault((claim.budget, opts), SuiteRun(opts))
    started = time.perf_counter()
    check = claim.evaluate(run)
    spent[claim.budget] = spent.get(claim.budget, 0.0) + time.perf_counter() - started
    detail = f"expected {check.expected}, got {check.computed}"
    if check.detail:
        detail += f" ({check.detail})"
    budget = claim.budget
    within = budget is None or spent[budget] < budget.seconds
    if budget is not None:
        detail += f", {spent[budget]:.1f}s of {budget.seconds:g}s for {budget.name}"
    report(claim.claim_id, check.passed and within, detail)
