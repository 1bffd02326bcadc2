"""Quality-ratio bookkeeping with an explicit zero-optimum rule.

A tracker's quality at an instant is its cost divided by the optimal cost.
When the optimum is (numerically) zero the quotient is defined by rule:
matching zero counts as perfect, missing it counts as infinitely bad.
"""

from __future__ import annotations

import math

_EPS_ZERO = 1e-12  # costs at or below this are treated as exactly zero


def ratio(out_cost: float, opt_cost: float) -> float:
    if opt_cost > _EPS_ZERO:
        return out_cost / opt_cost
    if out_cost <= _EPS_ZERO:
        return 1.0
    return math.inf


def max_ratio(output) -> float:
    """Worst ratio over a tracker run (a ``TrackerOutput``), flip sweeps included."""
    worst = 0.0
    for r in output.ratio:
        worst = max(worst, float(r))
    for flip in output.flips:
        worst = max(worst, float(flip.worst_ratio))
    return worst
