"""Deterministic adversarial scenario generators.

Each generator builds a trajectory (or frame family) that stresses one
specific stability phenomenon: a forced box flip with a known worst
intermediate ratio, a forced strip flip, an isotropic principal-axis flip,
a collinear sweep that forces the output orientation to wind twice, a
cluster orbit that makes the principal axis rotate faster than any speed
cap, and a seeded random-walk fuzz family.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import Frame, Frames, frame_diameters
from .trajectory import Trajectory

#: Fixed non-collinear anchor set blended into the collinear sweep frames.
_ANCHOR = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])

#: Largest keyframe array ``pc_fast_flip`` builds (its cluster grows as the
#: square of the target rate): 0.27 GB, reached near target rate 317.
_MAX_KEYFRAME_BYTES = 1 << 28


def obb_lower_bound(duration: float = 1.0) -> Trajectory:
    """Four static points admitting two minimum boxes of area 2, plus a fifth
    point moving linearly so that first only the axis-aligned box contains it
    and finally only the tilted one does.

    Any tracker that moves continuously must pass an orientation where the
    static points alone force a box of area 2.5, so its worst ratio is at
    least 5/4.
    """
    static = [(0.0, 0.0), (2.0, 1.0), (0.75, 1.0), (1.25, 0.0)]
    start = np.array(static + [(2.0, 0.0)])
    end = np.array(static + [(1.2, 1.6)])
    return Trajectory(np.array([0.0, duration]), np.stack([start, end]))


def strip_lower_bound(start_height: float = 5.0, duration: float = 1.0) -> Trajectory:
    """Two static bottom corners of a unit square with the top corners sliding
    down the vertical sides from ``start_height`` to 0.

    The thinnest strip flips from vertical to horizontal when the moving
    points cross height 1; the halfway orientation has width sqrt(2) there.
    """
    if start_height < 1.0:
        raise DomainError("start_height must be at least 1")
    start = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, start_height), (1.0, start_height)])
    end = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    return Trajectory(np.array([0.0, duration]), np.stack([start, end]))


def pc_flip(duration: float = 1.0) -> Trajectory:
    """An elongated point cloud that narrows through perfect isotropy.

    Corner and edge-midpoint points of a w x 1 rectangle with w shrinking
    linearly from 2 to 0.5: the principal axis is horizontal while w > 1,
    vertical after, and every orientation is tied at the crossing.
    """

    def cloud(w: float) -> np.ndarray:
        x, y = w / 2.0, 0.5
        return np.array([
            (-x, -y), (x, -y), (x, y), (-x, y),
            (-x, 0.0), (x, 0.0), (0.0, -y), (0.0, y),
        ])

    return Trajectory(np.array([0.0, duration]), np.stack([cloud(2.0), cloud(0.5)]))


def stateless_disk(n: int, r: float, phi: float) -> Frame:
    """One frame of the two-parameter family used to show that no stateless
    continuous selection exists.

    At ``r`` = 1 the points are collinear along direction (sin(phi),
    cos(phi)), forcing the optimal orientation; at ``r`` = 0 the frame is the
    fixed non-collinear anchor set.  Sweeping ``phi`` once around the circle
    at ``r`` = 1 drags the forced orientation twice around the space of
    orientations.
    """
    if n < 3:
        raise DomainError("need at least 3 points")
    if not 0.0 <= r <= 1.0:
        raise DomainError("r must lie in [0, 1]")
    i = np.arange(1, n + 1, dtype=float)
    line = np.column_stack([r * i / n * math.sin(phi), r * i / n * math.cos(phi)])
    anchor = _ANCHOR[np.arange(n) % 3]
    return Frame(line + (1.0 - r) * anchor)


def pc_fast_flip(target_rate: float = 100.0, duration: float = 1.0) -> Trajectory:
    """Diameter stays >= 1 and points move below unit speed, yet the
    principal axis rotates faster than ``target_rate`` radians per time unit.

    Two anchor points sit a little over unit distance apart; a cluster of m
    points hugs one of them in two clumps at radius rho and makes a half
    orbit around it inside a window of length pi*rho.  Sufficient condition
    used to size the cluster: with scatter ``Q = m*rho**2`` along the clump
    axis against ``B ~ L**2`` from the anchors, the axis turns at least
    (Q/B) / (Q/B + 1) of the clump angular rate, so rho and m are chosen as

        rho = dominance / ((dominance + 1) * target_rate * margin),
        m  >= dominance * L**2 / rho**2   (padded for chord shrinkage).
    """
    if not 0.0 < target_rate < math.inf:
        raise DomainError("target_rate must be positive and finite")
    spacing, dominance, margin, orbit_segments = 1.05, 2.0, 1.1, 24
    rho = dominance / ((dominance + 1.0) * target_rate * margin)
    window = math.pi * rho
    if window > 0.5 * duration:
        raise DomainError("target_rate too small for the requested duration")
    chord_dip = math.cos(math.pi / (2 * orbit_segments)) ** 2
    m = int(math.ceil(1.02 * dominance * spacing**2 / (rho**2 * chord_dip)))
    m += m % 2
    keyframe_bytes = (orbit_segments + 3) * (m + 2) * 2 * 8
    if keyframe_bytes > _MAX_KEYFRAME_BYTES:
        raise DomainError(f"target_rate {target_rate:g} needs {m} cluster points per keyframe, "
                          f"{keyframe_bytes / 1e9:.2g} GB of keyframes; at most "
                          f"{_MAX_KEYFRAME_BYTES / 1e9:.2g} GB are built")

    t0 = 0.45 * duration
    times = [0.0, t0] + [t0 + window * k / orbit_segments for k in range(1, orbit_segments + 1)]
    times.append(duration)
    psis = [0.5 * math.pi, 0.5 * math.pi]
    psis += [0.5 * math.pi + math.pi * k / orbit_segments for k in range(1, orbit_segments + 1)]
    psis.append(1.5 * math.pi)

    anchor_far = np.array([0.0, 0.0])
    anchor_near = np.array([spacing, 0.0])
    half = m // 2
    keyframes = np.empty((len(times), m + 2, 2))
    for k, psi in enumerate(psis):
        d = rho * np.array([math.cos(psi), math.sin(psi)])
        keyframes[k, 0] = anchor_far
        keyframes[k, 1] = anchor_near
        keyframes[k, 2 : 2 + half] = anchor_near + d
        keyframes[k, 2 + half :] = anchor_near - d
    return Trajectory(np.array(times), keyframes)


def random_walk(n: int = 8, steps: int = 50, seed: int = 0, duration: float = 1.0) -> Trajectory:
    """Seeded fuzz trajectory: bounded-speed piecewise-linear motion,
    rejection-resampled so every keyframe keeps diameter >= 1.05.

    The initial cloud's thickness varies with the seed so the corpus covers
    both thin (small aspect) and round configurations.
    """
    if n < 3:
        raise DomainError("need at least 3 points")
    if steps < 1:
        raise DomainError("need at least 1 step")
    if not 0.0 < duration < math.inf:
        raise DomainError("duration must be positive and finite")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    min_diameter = 1.05
    rng = np.random.default_rng(seed)
    thickness = rng.uniform(0.05, 1.5)
    start = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-thickness, thickness, n)])
    start *= (min_diameter * 1.2) / frame_diameters(Frames(start[None]))[0]

    seg = duration / steps
    keyframes = [start]
    for _ in range(steps):
        prev = keyframes[-1]
        nxt = prev
        for _ in range(200):
            direction = rng.uniform(-1.0, 1.0, (n, 2))
            norms = np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
            step = direction / norms * rng.uniform(0.0, 1.0, (n, 1)) * seg
            cand = prev + step
            if frame_diameters(Frames(cand[None]))[0] >= min_diameter:
                nxt = cand
                break
        keyframes.append(nxt)
    times = np.arange(steps + 1, dtype=float) * seg
    times[-1] = duration
    return Trajectory(times, np.stack(keyframes))


def _stateless_disk_trajectory(n: int = 5, samples: int = 256, duration: float = 1.0) -> Trajectory:
    """The fully collinear sweep expressed as a keyframed trajectory."""
    if samples < 1:
        raise DomainError("need at least 1 step")
    if not 0.0 < duration < math.inf:
        raise DomainError("duration must be positive and finite")
    phis = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    keyframes = np.stack([stateless_disk(n, 1.0, float(p)).points for p in phis])
    times = np.linspace(0.0, duration, samples + 1)
    return Trajectory(times, keyframes)


# Each named scenario built from a parameter mapping; the order is the CLI's.
_BUILDERS = {
    "obb-lower-bound": lambda p: obb_lower_bound(duration=p.get("duration", 1.0)),
    "strip-lower-bound": lambda p: strip_lower_bound(
        start_height=p.get("start_height", 5.0), duration=p.get("duration", 1.0)
    ),
    "pc-flip": lambda p: pc_flip(duration=p.get("duration", 1.0)),
    "pc-fast-flip": lambda p: pc_fast_flip(
        target_rate=p.get("target_rate", 100.0), duration=p.get("duration", 1.0)
    ),
    "stateless-disk": lambda p: _stateless_disk_trajectory(
        n=int(p.get("n", 5)), samples=int(p.get("steps", 256)),
        duration=p.get("duration", 1.0),
    ),
    "random-walk": lambda p: random_walk(
        n=int(p.get("n", 8)), steps=int(p.get("steps", 50)),
        seed=int(p.get("seed", 0)), duration=p.get("duration", 1.0),
    ),
}

SCENARIO_NAMES = tuple(_BUILDERS)


def build_scenario(name: str, params: dict | None = None) -> Trajectory:
    """Build a named scenario trajectory from a parameter mapping."""
    if name not in _BUILDERS:
        raise DomainError(f"unknown scenario {name!r}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[name](dict(params or {}))
