"""
Orientation descriptors of a planar point set
=============================================

A point set has three natural orientation summaries: the first principal
axis, the orientation of its minimum-area bounding box, and the orientation
of the thinnest strip covering it.  Each one minimizes a cost over
orientations; this script evaluates the costs, finds the optima, and
cross-checks them against a dense brute-force angle grid.
"""

import numpy as np

from kinostable import (
    Frame,
    cost_obb,
    cost_pc,
    cost_strip,
    diametric_box,
    optimal,
    optimal_pc,
    oracle_argmin,
)

# A slightly tilted, elongated cloud.
rng = np.random.default_rng(7)
base = rng.normal(0.0, 1.0, (40, 2)) * np.array([2.0, 0.4])
rot = np.deg2rad(25.0)
R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
frame = Frame(base @ R.T)

print("cloud of", len(frame), "points, tilted by 25 degrees")
print()

# Cost of a few candidate orientations, in radians.
for alpha in (0.0, rot, np.pi / 2):
    print(
        f"alpha={alpha:5.2f}  axis-fit={cost_pc(frame, alpha):8.2f}  "
        f"box-area={cost_obb(frame, alpha):6.2f}  strip-width={cost_strip(frame, alpha):5.2f}"
    )
print()

# The solvers find the global optima directly: the principal axis from the
# 2x2 scatter matrix, box and strip from the convex hull edge orientations.
for name, opt in (
    ("principal axis", optimal_pc(frame)),
    ("bounding box  ", optimal(frame, "obb")),
    ("covering strip", optimal(frame, "strip")),
):
    oracle = oracle_argmin(frame, opt.kind, grid_size=8192)
    print(
        f"{name}: alpha={opt.alpha:.4f} rad ({np.degrees(opt.alpha):5.1f} deg), "
        f"cost={opt.cost:.4f};  8192-angle grid agrees to {oracle.cost - opt.cost:.2e}"
    )

# The diametric box: aligned with the farthest point pair.  Its aspect
# ratio (width over diameter) is the key control quantity for chasing.
box = diametric_box(frame)
print()
print(
    f"diametric box: alpha={box.alpha:.4f}, diameter={box.diameter:.3f}, "
    f"width={box.width:.3f}, aspect={box.aspect:.3f}"
)

# All three optima of this cloud agree with the tilt direction.
assert abs(optimal_pc(frame).alpha - rot) < 0.2
