"""The hull-linear path above the brute-force limit against O(h^2) references.

Above 64 points, ``diametric_box`` and ``frame_diameter`` read only the
hull's antipodal vertex pairs, and the box and strip candidates read only
the extreme hull vertices.  The references here are the quadratic
computations they replace: the full pair matrix over the hull vertices, and
``costs_at`` projecting every point onto every candidate.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kinostable import solvers
from kinostable.angles import canonical
from kinostable.costs import DescriptorKind, costs_at
from kinostable.geometry import (
    DiametricBox,
    Frame,
    convex_hull,
    diametric_box,
    extents_on_hull,
    frame_diameter,
)
from kinostable.solvers import (
    _argmin_with_ties,
    hull_edge_orientations,
    optimal,
    optimal_box_and_strip,
    oracle_argmin,
)

ULPS = 4


def reference_diametric_box(points) -> DiametricBox:
    """The pair-matrix diametric box over the hull vertices, same tie rule."""
    pts = np.asarray(points, dtype=float)
    hull = convex_hull(pts)
    diff = hull[:, None, :] - hull[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    dmax2 = float(d2.max())

    def orientation(i, j):
        lo, hi = sorted((hull[i], hull[j]), key=lambda p: (p[1], p[0]))  # from the lower end
        dx, dy = hi - lo + 0.0
        return canonical(math.atan2(dy, dx))

    alpha, _ = min((orientation(i, j), (i, j)) for i, j in zip(*np.nonzero(d2 == dmax2)) if i < j)
    diameter = math.sqrt(dmax2)
    proj = pts @ np.array([-math.sin(alpha), math.cos(alpha)])
    width = float(proj.max() - proj.min())
    return DiametricBox(alpha, diameter, width, min(width / diameter, 1.0))


def ellipse(rng, hull, interior=0, jitter=True):
    """A rotated, shifted ellipse with ``hull`` boundary points and some inside."""
    offset = rng.uniform(0.2, 0.8, hull) if jitter else 0.0
    theta = (np.arange(hull) + offset) * (2.0 * math.pi / hull)
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, interior))
    phi = rng.uniform(0.0, 2.0 * math.pi, interior)
    unit = np.vstack([
        np.column_stack([np.cos(theta), np.sin(theta)]),
        np.column_stack([radius * np.cos(phi), radius * np.sin(phi)]),
    ])
    angle = rng.uniform(0.0, math.pi)
    c, s = math.cos(angle), math.sin(angle)
    axes = np.array([[c, -s], [s, c]]) @ np.diag([rng.uniform(1.5, 3.0), rng.uniform(0.6, 1.4)])
    return unit @ axes.T + rng.uniform(-0.5, 0.5, 2)


def _random_clouds():
    rng = np.random.default_rng(65)
    return [rng.uniform(-10.0, 10.0, (int(n), 2)) for n in rng.integers(65, 401, 12)]


def _jittered_ellipses():
    rng = np.random.default_rng(1000)
    return [ellipse(rng, 1000, interior=500) for _ in range(3)]


def _lattice():
    x, y = np.meshgrid(np.arange(10.0), np.arange(10.0))
    return np.column_stack([x.ravel(), y.ravel()])


def _regular_polygon(k=96):
    phi = np.arange(k) * (2.0 * math.pi / k)
    return np.column_stack([np.cos(phi), np.sin(phi)])


def _symmetric_ellipse():
    # the input of test_geometry.test_one_hull_build_per_sample
    phi = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    return np.column_stack([3.0 * np.cos(phi), np.sin(phi)])


def _collinear():
    k = np.random.default_rng(3).permutation(80).astype(float)
    return np.column_stack([3.0 * k - 7.0, 2.0 * k + 5.0])  # exactly collinear


def _triangle_with_interior():
    corners = np.array([[0.0, 0.0], [4.0, 0.5], [1.3, 3.1]])
    weights = np.random.default_rng(4).dirichlet([1.0, 1.0, 1.0], 100)
    return np.vstack([corners, weights @ corners])


FRAMES = (
    [(f"cloud-{i}", pts) for i, pts in enumerate(_random_clouds())]
    + [(f"ellipse-{i}", pts) for i, pts in enumerate(_jittered_ellipses())]
    + [
        ("lattice-10x10", _lattice()),
        ("regular-96-gon", _regular_polygon()),
        ("symmetric-ellipse-300", _symmetric_ellipse()),
        ("collinear-80", _collinear()),
        ("triangle-100-interior", _triangle_with_interior()),
    ]
)


@pytest.fixture(params=FRAMES, ids=[name for name, _ in FRAMES])
def points(request):
    pts = request.param[1]
    assert len(pts) > 64  # every input takes the hull-linear path
    return pts


def test_hull_sizes_cover_the_degenerate_cases():
    sizes = {name: len(convex_hull(pts)) for name, pts in FRAMES}
    assert sizes["collinear-80"] == 2
    assert sizes["triangle-100-interior"] == 3
    assert sizes["lattice-10x10"] == 4
    assert sizes["regular-96-gon"] == 96
    assert all(sizes[f"ellipse-{i}"] == 1000 for i in range(3))


def test_diametric_box_is_exact(points):
    expected = reference_diametric_box(points)
    assert diametric_box(points) == expected
    assert diametric_box(Frame(points)) == expected
    assert frame_diameter(points) == expected.diameter


def _cost_tolerance(points, kind, ext_u, reference):
    """4 ulp of the cost, or of the coordinate scale where the cost is
    rounding noise (a collinear frame's zero width)."""
    scale = float(np.abs(points).max())
    if kind is DescriptorKind.OBB:
        scale *= ext_u
    return ULPS * np.spacing(np.maximum(reference, scale))


@pytest.mark.parametrize("kind", [DescriptorKind.OBB, DescriptorKind.STRIP])
def test_candidate_costs_and_optimum_match_projecting_every_point(points, kind):
    frame = Frame(points)
    angles = hull_edge_orientations(frame)
    reference = costs_at(points, kind, angles)
    ext_u, ext_v = extents_on_hull(frame.hull, angles)
    got = ext_v if kind is DescriptorKind.STRIP else ext_u * ext_v
    tol = _cost_tolerance(points, kind, ext_u, reference)
    assert np.all(np.abs(got - reference) <= tol)

    alpha, _, _ = _argmin_with_ties(angles, reference)
    opt = optimal(frame, kind)
    assert opt.alpha == alpha
    assert opt.cost == float(got[np.searchsorted(angles, alpha)])
    both = optimal_box_and_strip(Frame(points))
    assert both[0 if kind is DescriptorKind.OBB else 1] == opt


def test_brute_force_sizes_keep_projecting_every_point(monkeypatch):
    calls = []
    real = solvers.extents_on_hull
    monkeypatch.setattr(solvers, "extents_on_hull", lambda *a: calls.append(1) or real(*a))
    rng = np.random.default_rng(8)
    optimal_box_and_strip(rng.uniform(-1.0, 1.0, (64, 2)))
    assert not calls
    optimal_box_and_strip(rng.uniform(-1.0, 1.0, (65, 2)))
    assert calls


@pytest.mark.parametrize("n", [65, 100, 1000])
def test_costs_of_a_tilted_segment_are_never_negative(n):
    # collinear points t (cos a, sin a), t in [-1, 1]: off the axes the hull
    # is ulp-thin, and its box and strip costs are rounding noise, not below 0
    t = np.linspace(-1.0, 1.0, n)
    for a in np.arange(40) * (math.pi / 40):
        frame = Frame(np.column_stack([t * math.cos(a), t * math.sin(a)]))
        for kind in (DescriptorKind.OBB, DescriptorKind.STRIP):
            assert optimal(frame, kind).cost >= 0.0, (a, kind)


@pytest.mark.parametrize("kind", [DescriptorKind.OBB, DescriptorKind.STRIP])
def test_grid_oracle_at_two_thousand_hull_vertices(kind):
    """Acceptance criterion 1's one-sided rule at h = 2000."""
    frame = Frame(ellipse(np.random.default_rng(2000), 2000))
    assert len(frame.hull) == 2000
    opt = optimal(frame, kind)
    grid = oracle_argmin(frame, kind, 8192)
    assert opt.cost <= grid.cost + max(1e-6, 1e-6 * grid.cost)


def test_memory_stays_linear_in_the_hull():
    """A 5000-vertex hull allocates O(h), not the 600 MB pair matrix."""
    pts = ellipse(np.random.default_rng(5000), 5000, interior=2500)
    frame = Frame(pts)
    tracemalloc.start()
    try:
        diametric_box(frame)
        optimal_box_and_strip(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frame.hull) == 5000
    assert peak < 32 * 2**20
