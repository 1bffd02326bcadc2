"""
Why a stateless tracker cannot be continuous
============================================

A stateless algorithm maps each frame to an orientation, with no memory.
If that map were continuous and near-optimal, the following family of
frames would break it: points on a line through the origin at angle
parameter phi, blended with a fixed triangle so the frame is always valid.
At full contraction the frame is exactly collinear and the orientation is
forced (anything else has infinite cost ratio, since the optimal strip has
width zero).

Sweeping phi once around the circle drags the forced orientation twice
around the space of orientations: a double cover.  A continuous selection
over the whole (contraction, phi) disk would have to unwind that double
cover, which is topologically impossible.  The winding number computed
here is the whole argument, made numerical.
"""

import math

from kinostable import optimal, winding_number
from kinostable.scenarios import stateless_disk

samples = 4096
forced = []
for k in range(samples):
    phi = 2.0 * math.pi * k / samples
    frame = stateless_disk(n=5, r=1.0, phi=phi)
    forced.append(optimal(frame, "strip").alpha)

w = winding_number(forced)
print(f"swept phi over {samples} values; forced orientation winding number = {w}")
print("|winding| = 2: the forced orientation double-covers the orientation circle.")

# A few spot checks: the forced orientation tracks the line direction.
for k in (0, samples // 8, samples // 4, samples // 2):
    phi = 2.0 * math.pi * k / samples
    alpha = optimal(stateless_disk(5, 1.0, phi), "strip").alpha
    print(f"  phi={phi:6.3f} -> forced orientation {alpha:6.3f} rad")

# Away from full contraction nothing is forced: the blended triangle keeps
# the frame honest.
frame = stateless_disk(5, 0.5, 1.0)
print("half contraction strip width:", f"{optimal(frame, 'strip').cost:.4f}", "(nonzero)")

assert abs(w) == 2
