"""Stable orientation descriptors for continuously moving 2D point sets.

The package computes three orientation-based shape descriptors of a planar
point set -- the first principal axis, the minimum-area oriented bounding
box, and the thinnest covering strip -- and tracks them smoothly while the
points move: either with unbounded rotation speed (recording the worst cost
of every forced sweep) or with a hard per-step rotation cap that chases the
diametric-pair orientation.  A scenario corpus and a verification suite
measure the worst-case quality ratios these trackers can be forced into.
"""

# The names the README quickstart and the demos use; everything else is
# imported from its module.
from .angles import winding_number
from .chasing import ChaseParams, aspect_drop_bound, chase, normalize_trajectory, pair_turn_bound
from .costs import DescriptorKind, cost_obb, cost_pc, cost_strip
from .geometry import Frame, diametric_box
from .ratios import max_ratio
from .solvers import optimal, optimal_pc, oracle_argmin
from .tracker import track_topological
from .verify import SuiteOptions, run_claim_suite

__version__ = "0.1.0"

__all__ = [
    "ChaseParams",
    "DescriptorKind",
    "Frame",
    "SuiteOptions",
    "aspect_drop_bound",
    "chase",
    "cost_obb",
    "cost_pc",
    "cost_strip",
    "diametric_box",
    "max_ratio",
    "normalize_trajectory",
    "optimal",
    "optimal_pc",
    "oracle_argmin",
    "pair_turn_bound",
    "run_claim_suite",
    "track_topological",
    "winding_number",
]
