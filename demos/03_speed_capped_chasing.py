"""
Chasing with a hard speed cap
=============================

A tracker with memory can cap its rotation speed and still keep bounded
quality, as long as the point set is normalized: unit point speed, and
diameter never below 1.  The trick is to chase the diametric-pair
orientation rather than the optimal box itself, and to reason about the
safe zone +-H around it, where H = c*arcsin(aspect) and aspect is the
width-over-diameter of the diametric box.

With turn-rate cap 43 and c = 3 the gap between tracker and target stays
within 8*arcsin(aspect), which keeps the box and strip costs within a
factor 18 of optimal.  On ordinary motions the observed ratios are far
smaller.
"""

import numpy as np

from kinostable import ChaseParams, chase, normalize_trajectory
from kinostable.scenarios import random_walk, strip_lower_bound

params = ChaseParams(max_turn_rate=43.0, safe_zone_factor=3.0)
dt = 1e-3

for name, raw in (
    ("strip flip scenario", strip_lower_bound()),
    ("seeded random walk ", random_walk(seed=12)),
):
    traj, spatial, temporal = normalize_trajectory(raw)
    res = chase(traj, params, dt)
    box, strip = res.runs["obb"], res.runs["strip"]
    sz = res.safe_zone
    narrow = sz.aspect <= 0.5
    print(f"{name}: normalized by space x{spatial:.3f}, time x{temporal:.3f}")
    print(f"    samples: {len(res.times)}, aspect range "
          f"[{sz.aspect.min():.3f}, {sz.aspect.max():.3f}]")
    print(f"    max per-step turn: {box.step_distances().max():.6f} "
          f"(cap {params.max_turn_rate * dt:.3f})")
    if narrow.any():
        gap_bound = 8.0 * np.arcsin(sz.aspect[narrow]) + params.max_turn_rate * dt
        print(f"    narrow samples in safe corridor: "
              f"{int((sz.ang_gap[narrow] <= gap_bound).sum())}/{int(narrow.sum())}")
    print(f"    worst ratios: box {np.max(box.ratio):.3f}, "
          f"strip {np.max(strip.ratio):.3f}  (guarantee: 18)")
    print()

# Why the aspect ratio controls everything: a thin diametric box pins the
# target orientation (it cannot turn far without some point traveling), and
# a fat one makes every orientation acceptable.  The two change bounds make
# this quantitative; see `pair_turn_bound` and `aspect_drop_bound`.
from kinostable import aspect_drop_bound, pair_turn_bound

for aspect in (0.1, 0.3, 0.5):
    print(
        f"aspect {aspect:.1f}: the pair orientation can turn at most "
        f"{pair_turn_bound(aspect, 0.0):.3f} rad instantly, and at most "
        f"{pair_turn_bound(aspect, aspect / 4.0):.3f} rad within time aspect/4; "
        f"the aspect itself can drop at most {aspect_drop_bound(aspect, 0.0):.3f} instantly"
    )
