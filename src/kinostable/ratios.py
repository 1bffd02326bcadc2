"""Quality-ratio bookkeeping with an explicit zero-optimum rule.

A tracker's quality at an instant is its cost divided by the optimal cost.
When the optimum is (numerically) zero the quotient is defined by rule:
matching zero counts as perfect, missing it counts as infinitely bad.
"""

from __future__ import annotations

import math

import numpy as np

_EPS_ZERO = 1e-12  # costs at or below this are treated as exactly zero


def ratios(out_cost: np.ndarray, opt_cost: np.ndarray) -> np.ndarray:
    """The ratio of every pair of two cost arrays."""
    positive = opt_cost > _EPS_ZERO
    quotient = np.divide(out_cost, opt_cost, out=np.zeros(len(out_cost)), where=positive)
    return np.where(positive, quotient, np.where(out_cost <= _EPS_ZERO, 1.0, math.inf))


def ratio(out_cost: float, opt_cost: float) -> float:
    """The ratio of one pair of costs: the one-pair call of ``ratios``."""
    return float(ratios(np.array([out_cost]), np.array([opt_cost]))[0])


def max_ratio(output) -> float:
    """Worst ratio over a tracker run (a ``TrackerOutput``), flip sweeps included."""
    worst = 0.0
    for r in output.ratio:
        worst = max(worst, float(r))
    for flip in output.flips:
        worst = max(worst, float(flip.worst_ratio))
    return worst
