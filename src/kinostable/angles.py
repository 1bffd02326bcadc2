"""Arithmetic on orientations (directions identified modulo a half turn).

An orientation is an angle folded into ``[0, period)``.  The default period
is pi: a direction and its opposite are the same orientation.  Box
orientations use period pi/2, because a rectangle looks the same when its
axes are swapped.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

ORIENTATION_PERIOD = math.pi
BOX_PERIOD = math.pi / 2.0


def elementwise(fn, nin: int = 1):
    """``fn`` of ``nin`` floats, applied to floats or to every entry of
    same-shape arrays, with math's rounding: on SIMD builds numpy's own
    arcsin and arctan2 differ from math's in the last bit."""
    ufunc = np.frompyfunc(fn, nin, 1)

    def apply(*args):
        if all(np.ndim(x) == 0 for x in args):
            return fn(*args)
        return ufunc(*args).astype(float)

    return apply


atan2, hypot = elementwise(math.atan2, 2), elementwise(math.hypot, 2)
sin, cos, asin = elementwise(math.sin), elementwise(math.cos), elementwise(math.asin)


def canonical(theta: float, period: float = ORIENTATION_PERIOD) -> float:
    """Fold an angle into the canonical range [0, period)."""
    t = math.fmod(theta, period)
    if t < 0.0:
        t += period
    if t >= period:  # fmod rounding can land exactly on the period
        t -= period
    return t


def canonical_array(theta: np.ndarray, period: float = ORIENTATION_PERIOD) -> np.ndarray:
    """``canonical`` of every angle of an array, with the same rounding."""
    t = np.fmod(theta, period)
    t = np.where(t < 0.0, t + period, t)
    return np.where(t >= period, t - period, t)


def orientations(vec: np.ndarray) -> np.ndarray:
    """The canonical orientation of every row of a (k, 2) array of vectors,
    +0.0 where it is zero."""
    return canonical_array(atan2(vec[:, 1], vec[:, 0])) + 0.0


def angular_distance(a: float, b: float, period: float = ORIENTATION_PERIOD) -> float:
    """Shortest separation between two orientations, in [0, period/2]."""
    d = abs(canonical(a, period) - canonical(b, period))
    return min(d, period - d)


def angular_distances(a: np.ndarray, b: np.ndarray,
                      period: float = ORIENTATION_PERIOD) -> np.ndarray:
    """``angular_distance`` of every pair of two arrays, with the same rounding."""
    d = np.abs(canonical_array(a, period) - canonical_array(b, period))
    return np.where(period - d < d, period - d, d)


def signed_gap(start: float, target: float, period: float = ORIENTATION_PERIOD) -> float:
    """Wrapped difference target - start in (-period/2, period/2].

    An exact half-period tie resolves to +period/2, i.e. toward
    increasing angle.
    """
    d = canonical(target, period) - canonical(start, period)
    if d > period / 2.0:
        d -= period
    elif d <= -period / 2.0:
        d += period
    return d


def rotate_toward(
    beta: float,
    target: float,
    max_step: float,
    period: float = ORIENTATION_PERIOD,
) -> float:
    """Rotate ``beta`` toward ``target`` along the shorter arc, capped at ``max_step``."""
    gap = signed_gap(beta, target, period)
    if abs(gap) <= max_step:
        return canonical(target, period)
    return canonical(beta + math.copysign(max_step, gap), period)


def winding_number(angles: Iterable[float], period: float = ORIENTATION_PERIOD) -> int:
    """Signed number of full turns of a closed orientation path.

    The path is closed by wrapping the last sample back to the first.
    Consecutive samples must be closer than period/2 for the count to be
    unambiguous.
    """
    seq = [canonical(a, period) for a in angles]
    if len(seq) < 2:
        return 0
    total = 0.0
    for a, b in zip(seq, seq[1:] + seq[:1]):
        total += signed_gap(a, b, period)
    return round(total / period)
