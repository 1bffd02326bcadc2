"""Quality-ratio bookkeeping with an explicit zero-optimum policy.

A tracker's quality at an instant is its cost divided by the optimal cost.
When the optimum is (numerically) zero the quotient is defined by policy:
matching zero counts as perfect, missing it counts as infinitely bad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RatioPolicy:
    """Costs at or below ``eps_zero`` are treated as exactly zero."""

    eps_zero: float = 1e-12


DEFAULT_POLICY = RatioPolicy()


def ratio(out_cost: float, opt_cost: float, policy: RatioPolicy = DEFAULT_POLICY) -> float:
    if opt_cost > policy.eps_zero:
        return out_cost / opt_cost
    if out_cost <= policy.eps_zero:
        return 1.0
    return math.inf


def max_ratio(output) -> float:
    """Worst ratio over a tracker run, flip sweeps included.

    ``output`` is any object with a ``ratio`` array and a ``flips`` list of
    events carrying ``worst_ratio``.
    """
    worst = 0.0
    for r in output.ratio:
        worst = max(worst, float(r))
    for flip in getattr(output, "flips", ()):
        worst = max(worst, float(flip.worst_ratio))
    return worst
