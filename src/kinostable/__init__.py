"""Stable orientation descriptors for continuously moving 2D point sets.

The package computes three orientation-based shape descriptors of a planar
point set -- the first principal axis, the minimum-area oriented bounding
box, and the thinnest covering strip -- and tracks them smoothly while the
points move: either with unbounded rotation speed (recording the worst cost
of every forced sweep) or with a hard per-step rotation cap that chases the
diametric-pair orientation.  A scenario corpus and a verification suite
measure the worst-case quality ratios these trackers can be forced into.
"""

from .angles import (
    BOX_PERIOD,
    ORIENTATION_PERIOD,
    angular_distance,
    canonical,
    rotate_toward,
    signed_gap,
    winding_number,
)
from .chasing import (
    ChaseParams,
    ChaseResult,
    SafeZoneReport,
    aspect_drop_bound,
    chase,
    jump_distance,
    normalize_trajectory,
    pair_turn_bound,
    safe_zone_half_width,
)
from .costs import DescriptorKind, cost, cost_obb, cost_pc, cost_strip, costs_at
from .errors import (
    DegenerateInputError,
    DomainError,
    FileFormatError,
    KinostableError,
)
from .geometry import (
    DiametricBox,
    Frame,
    convex_hull,
    diametric_box,
    extent,
    frame_diameter,
)
from .ratios import RatioPolicy, max_ratio, ratio
from .solvers import (
    OptimalDescriptor,
    hull_edge_orientations,
    optimal,
    optimal_pc,
    oracle_argmin,
)
from .tracker import (
    FlipEvent,
    TrackerOutput,
    intermediate_box_area,
    track_topological,
    tracking_period,
)
from .trajectory import Trajectory
from .verify import (
    ClaimCheck,
    SuiteOptions,
    VerificationReport,
    run_claim_suite,
    verify_bound_empirics,
    verify_obb_program,
    verify_trig_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BOX_PERIOD",
    "ORIENTATION_PERIOD",
    "ChaseParams",
    "ChaseResult",
    "ClaimCheck",
    "DegenerateInputError",
    "DescriptorKind",
    "DiametricBox",
    "DomainError",
    "FileFormatError",
    "FlipEvent",
    "Frame",
    "KinostableError",
    "OptimalDescriptor",
    "RatioPolicy",
    "SafeZoneReport",
    "SuiteOptions",
    "TrackerOutput",
    "Trajectory",
    "VerificationReport",
    "angular_distance",
    "aspect_drop_bound",
    "canonical",
    "chase",
    "convex_hull",
    "cost",
    "cost_obb",
    "cost_pc",
    "cost_strip",
    "costs_at",
    "diametric_box",
    "extent",
    "frame_diameter",
    "hull_edge_orientations",
    "intermediate_box_area",
    "jump_distance",
    "max_ratio",
    "normalize_trajectory",
    "optimal",
    "optimal_pc",
    "oracle_argmin",
    "pair_turn_bound",
    "ratio",
    "rotate_toward",
    "run_claim_suite",
    "safe_zone_half_width",
    "signed_gap",
    "track_topological",
    "tracking_period",
    "winding_number",
    "verify_bound_empirics",
    "verify_obb_program",
    "verify_trig_bounds",
]
