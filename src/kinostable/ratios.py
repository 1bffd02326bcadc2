"""Quality-ratio bookkeeping with an explicit zero-optimum rule.

A tracker's quality at an instant is its cost divided by the optimal cost.
When the optimum is (numerically) zero the quotient is defined by rule:
matching zero counts as perfect, missing it counts as infinitely bad.
What counts as zero is relative to each frame's size (``zero_costs``).
"""

from __future__ import annotations

import math

import numpy as np

from .costs import DescriptorKind

_EPS_ZERO = 1e-12  # costs at or below this share of a frame's size count as zero


def zero_costs(points: np.ndarray, kind: DescriptorKind) -> np.ndarray:
    """``_EPS_ZERO`` times each frame's size in the unit of ``kind``'s cost,
    for a (B, n, 2) block: s for a strip, s^2 for a box, n s^2 for ``pc``,
    with s the frame's larger coordinate spread (along x or y)."""
    # per coordinate: a reduction over axis 1 of the (B, n, 2) block is ~10x slower
    s = np.maximum(np.ptp(points[..., 0], axis=1), np.ptp(points[..., 1], axis=1))
    if kind == DescriptorKind.STRIP:
        return _EPS_ZERO * s
    return _EPS_ZERO * (points.shape[1] if kind == DescriptorKind.PC else 1) * (s * s)


def ratios(out_cost: np.ndarray, opt_cost: np.ndarray, zero) -> np.ndarray:
    """The ratio of every pair of two cost arrays, an optimum at or below
    ``zero`` (one per pair, or one for all) counting as zero."""
    positive = opt_cost > zero
    quotient = np.divide(out_cost, opt_cost, out=np.zeros(len(out_cost)), where=positive)
    return np.where(positive, quotient, np.where(out_cost <= zero, 1.0, math.inf))


def max_ratio(output) -> float:
    """Worst ratio over a tracker run (a ``TrackerOutput``), flip sweeps included."""
    sweeps = [flip.worst_ratio for flip in output.flips]
    return float(np.concatenate([output.ratio, sweeps]).max(initial=0.0))
