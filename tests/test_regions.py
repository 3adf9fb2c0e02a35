import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dmfields import (
    AtomicMeasure,
    CurveField,
    DegenerateGeometry,
    DimensionMismatch,
    Linear,
    Min,
    DistTo,
    PolyCurve,
    PolyRegion,
    box_region,
    clip_field,
    crossings,
    field_divergence,
    field_mass,
    half_plane,
    normal_trace,
    pairing_over_set,
    product_rule_residual,
    setwise_probe,
)
from dmfields.core import pair_vector
from dmfields.regions import EPS
from dmfields.lipfun import Const, Scale, Sum, weakstar_sequence

UNIT = box_region(0.0, 0.0, 1.0, 1.0)


def test_region_orientation_normalized():
    # clockwise input ends up counterclockwise
    r = PolyRegion([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert r.outer == ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))


def test_region_rejects_degenerate():
    with pytest.raises(DegenerateGeometry):
        PolyRegion([(0, 0), (1, 0), (2, 0)])


def test_region_rejects_spatial_and_repeated_vertices():
    with pytest.raises(DimensionMismatch):
        PolyRegion([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        PolyRegion([(0, 0), (1, 0), (0, 0)])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_region_rejects_non_finite_vertices(x):
    with pytest.raises(ValueError):
        PolyRegion([(0, 0), (1, 0), (x, 1), (0, 1)])
    with pytest.raises(ValueError):
        PolyRegion([(0, 0), (3, 0), (0, 3)], [[(1, 1), (1, x), (0.5, 0.5)]])


@pytest.mark.parametrize("p", [(0.5, 0.5, 9.0), (0.5, 0.0, 3.0)])
def test_point_queries_reject_spatial_points(p):
    # one point inside the box's shadow, one over its bottom edge
    for query in (UNIT.contains, UNIT.classify, UNIT.on_boundary):
        with pytest.raises(DimensionMismatch):
            query(p)


def test_spatial_curve_over_the_boundary_is_a_dimension_error():
    # its shadow rides the bottom edge, which must not read as a curve
    # lying on the boundary
    f = CurveField([PolyCurve([(0.0, 0.0, 5.0), (1.0, 0.0, 7.0)], 1.0)])
    with pytest.raises(DimensionMismatch):
        normal_trace(f, UNIT)
    with pytest.raises(DimensionMismatch):
        pairing_over_set(f, Linear((1.0, 0.0, 0.0)), UNIT)
    with pytest.raises(DimensionMismatch):
        clip_field(f, UNIT)


def test_interior_vertex_on_the_boundary_is_degenerate():
    f = CurveField([PolyCurve([(0.5, 0.5), (1.0, 0.5), (0.5, 0.8)], 1.0)])
    with pytest.raises(DegenerateGeometry):
        normal_trace(f, UNIT)


def test_classification():
    assert UNIT.contains((0.5, 0.5))
    assert not UNIT.contains((0.5, 0.0))  # open interior
    assert UNIT.on_boundary((0.5, 0.0))
    assert UNIT.classify((2.0, 0.5)) == -1


def test_hole_is_outside():
    r = PolyRegion(
        [(0, 0), (4, 0), (4, 4), (0, 4)],
        [[(1, 1), (3, 1), (3, 3), (1, 3)]],
    )
    assert r.contains((0.5, 0.5))
    assert not r.contains((2.0, 2.0))
    assert r.on_boundary((1.0, 2.0))


def test_axis_crossing_classification():
    c = PolyCurve([(-1.0, 0.5), (2.0, 0.5)], 1.0)
    xs = crossings(c, UNIT)
    assert [(x.kind, x.location) for x in xs] == [
        ("entering", (0.0, 0.5)),
        ("exiting", (1.0, 0.5)),
    ]


def test_half_plane_clip():
    f = CurveField([PolyCurve([(-1.0, 0.0), (1.0, 0.0)], 1.0)])
    clipped = clip_field(f, half_plane((1.0, 0.0), 0.0))
    assert len(clipped.curves) == 1
    assert clipped.curves[0].vertices == ((0.0, 0.0), (1.0, 0.0))


def test_half_plane_needs_a_normal():
    with pytest.raises(ValueError, match="normal must be nonzero"):
        half_plane((0, 0), 1.0)


def test_strip_trace_telescopes():
    f = CurveField([PolyCurve([(-1.0, 0.0), (1.0, 0.0)], 1.0)])
    strip = box_region(0.0, -5.0, 0.5, 5.0)
    tr = normal_trace(f, strip)
    assert tr.coefficient((0.0, 0.0)) == 1.0
    assert tr.coefficient((0.5, 0.0)) == -1.0


def test_interior_endpoint_is_divergence_not_trace():
    # curve stops strictly inside the half-plane
    f = CurveField([PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0)])
    E = half_plane((1.0, 0.0), 0.5)  # x1 > 0.5
    tr = normal_trace(f, E)
    assert tr.atoms == (((0.5, 0.0), 1.0),)


def test_collinear_overlap_is_an_error():
    # half the curve runs along the bottom edge, half leaves the square
    f = CurveField([PolyCurve([(0.5, 0.0), (2.0, 0.0)], 1.0)])
    with pytest.raises(DegenerateGeometry):
        clip_field(f, UNIT)


def test_curve_on_boundary_contributes_nothing():
    # the whole curve rides the boundary: no trace, no pairing, also on
    # the half-plane, whose scale is 1e6, and where a segment tilts by
    # less than tol against a long edge, or a short edge against it
    kinked = PolyRegion([(0, 0), (0.5, 0), (0.500001, 1e-13), (1, 0), (1, 1), (0, 1)])
    H = half_plane((0.0, 1.0), 0.0)
    cases = [
        (UNIT, [(0.0, 0.0), (1.0, 0.0)]),
        (H, [(0.0, 0.0), (1.0, 0.0)]),
        (H, [(0.0, 0.0), (1.0, 1e-7)]),
        (UNIT, [(0.5, 0.0), (0.500001, 5e-13)]),
        (kinked, [(0.0, 0.0), (1.0, 0.0)]),
    ]
    for E, vertices in cases:
        f = CurveField([PolyCurve(vertices, 1.0)])
        assert normal_trace(f, E).atoms == ()
        assert pairing_over_set(f, Linear((1.0, 0.0)), E) == 0.0
        assert clip_field(f, E).curves == ()


def test_a_chord_through_three_boundary_points_keeps_its_trace():
    # from the outer ring's corner to one hole's vertex, touching the
    # other hole's vertex halfway: its ends and its midpoint lie on the
    # boundary, yet it runs through the interior
    holes = [[(0, 0), (0.5, -0.5), (0.6, -0.1)], [(1, 1), (1.5, 0.5), (2, 1)]]
    E = PolyRegion([(-1, -1), (3, -1), (3, 3), (-1, 3)], holes)
    f = CurveField([PolyCurve([(-1, -1), (1, 1)], 1.0)])
    assert normal_trace(f, E).atoms == (((-1.0, -1.0), 1.0), ((1.0, 1.0), -1.0))
    assert clip_field(f, E).curves == f.curves


def test_large_box_trace_keeps_the_exit_atom():
    # the crossing point's rounding, about 1e-11, once exceeded an
    # absolute tolerance of 1e-12
    f = CurveField([PolyCurve([(0.0, 0.0), (3e5, 7e4)])])
    tr = normal_trace(f, box_region(-1e5, -1e5, 1e5, 1e5))
    assert tr.atoms == (((1e5, 7e4 / 3), -1.0),)


def test_huge_regions_keep_their_atoms_or_are_rejected():
    # near 1e82 the on-boundary test's 4 tol^2 L2 overflows to inf, and
    # every atom used to be dropped silently
    def trace(s):
        f = CurveField([PolyCurve([(-0.5 * s, 0.3 * s), (0.5 * s, 0.4 * s), (1.5 * s, 0.7 * s)])])
        return normal_trace(f, box_region(0, 0, s, s))

    assert len(trace(1e80).atoms) == 2
    # the batched test squared the cross product of far points past 1e308
    P = np.array([[0.5e80, 0.5e80], [3e80, 0.5e80], [0.0, 0.0]])
    assert box_region(0, 0, 1e80, 1e80).contains_many(P).tolist() == [True, False, False]
    with pytest.raises(ValueError):
        trace(1e90)


def _duality_defect(f, phi, E) -> float:
    t1 = sum(c * phi(p) for p, c in normal_trace(f, E).atoms)
    t2 = pairing_over_set(f, phi, E)
    t3 = sum(c * phi(p) for p, c in field_divergence(f).atoms if E.contains(p))
    return abs(t1 + t2 + t3) / (1.0 + abs(t1) + abs(t2) + abs(t3))


def test_half_plane_duality_keeps_the_crossing():
    f = CurveField([PolyCurve([(-1.0, -0.5), (1.3, 0.9)])])
    E = half_plane((1.0, 0.0), 0.2)
    assert len(normal_trace(f, E).atoms) == 1
    assert _duality_defect(f, Linear((1.0, 0.0)), E) <= 1e-12


def test_clip_conservation():
    f = CurveField(
        [
            PolyCurve([(-1.0, 0.3), (0.5, 0.4), (2.0, 0.6)], 1.5),
            PolyCurve([(0.2, -1.0), (0.3, 2.0)], 0.5),
        ]
    )
    left = half_plane((1.0, 0.0), -0.4)
    right = half_plane((-1.0, 0.0), 0.4)
    total = field_mass(clip_field(f, left)) + field_mass(clip_field(f, right))
    assert total == pytest.approx(field_mass(f), rel=1e-9)


def test_duality_identity_exact():
    f = CurveField([PolyCurve([(-0.5, 0.5), (0.5, 0.5), (0.4, 1.5)], 1.25)])
    phi = Min(DistTo((0.2, 0.2)), Linear((0.5, 1.0)))
    t1 = sum(c * phi(p) for p, c in normal_trace(f, UNIT).atoms)
    t2 = pairing_over_set(f, phi, UNIT)
    t3 = sum(
        c * phi(p) for p, c in field_divergence(f).atoms if UNIT.contains(p)
    )
    assert t1 + t2 + t3 == pytest.approx(0.0, abs=1e-12)


def test_product_rule_smooth():
    f = CurveField([PolyCurve([(0.0, 0.0), (0.6, 0.2), (0.9, 0.8)], 1.0)])
    phi = Linear((1.0, 0.5))
    test = DistTo((2.0, 1.0))
    assert product_rule_residual(f, phi, test) <= 1e-9


def test_product_rule_kinked():
    f = CurveField([PolyCurve([(0.0, 0.0), (0.6, 0.2), (0.9, 0.8)], 1.0)])
    phi = Min(DistTo((0.4, 0.1)), Sum(Const(0.3), Scale(0.5, Linear((1.0, -1.0)))))
    test = DistTo((2.0, 1.0))
    assert product_rule_residual(f, phi, test) <= 1e-6


def test_setwise_probe_rate_flag():
    f = CurveField([PolyCurve([(0.0, 0.0), (1.2, 0.0)], 1.0)])
    E = box_region(-2.0, -2.0, 2.0, 2.0)
    base = Linear((0.0, 1.0))
    values, ok = setwise_probe(
        f, lambda k: weakstar_sequence("wave-perturbation", k, base), base, E, 50
    )
    assert ok
    assert len(values) == 50


# ---------------------------------------------------------------------------
# metamorphic: traces, duality and Gauss-Green do not depend on the
# coordinate scale, a translation, a quarter turn or a curve's direction

REGIONS = [
    UNIT,
    PolyRegion([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    PolyRegion(
        [(-1, -1), (1.5, -1), (1.5, 1.25), (-1, 1.25)],
        [[(-0.5, -0.5), (0.25, -0.5), (0.25, 0.5), (-0.5, 0.5)]],
    ),
    PolyRegion([(-0.8, -0.6), (1.1, -0.2), (0.1, 1.3)]),
]
# a lattice keeps squared differences clear of underflow at every scale
coord = st.integers(-4000, 4000).map(lambda i: i / 1600)


@st.composite
def field_and_region(draw):
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=4))
        w = draw(st.integers(-8, 8).filter(bool)) / 4
        curves.append(PolyCurve(pts, w))
    return CurveField(curves), draw(st.sampled_from(REGIONS))


def _mapped(f, E, T):
    g = CurveField([PolyCurve([T(p) for p in c.vertices], c.weight) for c in f])
    F = PolyRegion([T(p) for p in E.outer], [[T(p) for p in h] for h in E.holes])
    return g, F


def _trace_or_none(f, E):
    try:
        return normal_trace(f, E)
    except DegenerateGeometry:
        return None


@given(field_and_region(), st.integers(-14, 20))
@settings(max_examples=200, deadline=None)
def test_trace_is_exact_under_dyadic_scaling(case, k):
    f, E = case
    s = 2.0**k
    tr = _trace_or_none(f, E)
    g, F = _mapped(f, E, lambda p: (s * p[0], s * p[1]))
    scaled = _trace_or_none(g, F)
    if tr is None:
        assert scaled is None
    else:
        assert scaled.atoms == tuple(((s * p[0], s * p[1]), c) for p, c in tr.atoms)


def _similarity(quarter, s, shift):
    def T(p):
        x, y = p
        for _ in range(quarter):
            x, y = -y, x
        return (s * x + shift[0], s * y + shift[1])

    return T


# a quarter turn, then a scaling or a translation: the length tolerance
# follows the largest coordinate, so a tiny region far from the origin
# resolves fewer details than at the origin
similarity = st.builds(
    _similarity,
    st.integers(0, 3),
    st.floats(1e-4, 1e6),
    st.just((0.0, 0.0)),
) | st.builds(
    _similarity,
    st.integers(0, 3),
    st.just(1.0),
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
)


def _same_atoms(a, b, tol) -> bool:
    """Atom-by-atom equality after coalescing at tol, in any order."""
    a, b = a.coalesced(tol).atoms, b.coalesced(tol).atoms
    return len(a) == len(b) and all(
        any(math.dist(p, q) <= tol and c == d for q, d in b) for p, c in a
    )


@given(field_and_region(), similarity)
@settings(max_examples=200, deadline=None)
def test_trace_duality_and_gauss_green_survive_similarities(case, T):
    f, E = case
    tr = _trace_or_none(f, E)
    assume(tr is not None)
    g, F = _mapped(f, E, T)
    moved = normal_trace(g, F)
    tol = 1e-9 * F.tol / EPS
    want = AtomicMeasure([(T(p), c) for p, c in tr.atoms])
    assert _same_atoms(moved, want, tol)
    # duality with a linear and a distance test function, and Gauss-Green
    # on the clipped field, in the moved frame
    c = T((0.3, -0.2))
    for phi in (Linear((0.6, -0.8)), DistTo(c)):
        assert _duality_defect(g, phi, F) <= 1e-9
    clipped = clip_field(g, F)
    gg = pair_vector(clipped, lambda p: (0.6, -0.8)) + sum(
        co * (0.6 * p[0] - 0.8 * p[1]) for p, co in field_divergence(clipped).atoms
    )
    assert abs(gg) <= 1e-9 * (1.0 + F.tol / EPS) * (1.0 + field_mass(g))


@given(field_and_region())
@settings(max_examples=100, deadline=None)
def test_reversing_curves_negates_divergence_and_trace(case):
    f, E = case
    tr = _trace_or_none(f, E)
    assume(tr is not None)
    back = CurveField([c.reversed() for c in f])
    assert field_divergence(back).same_atoms(field_divergence(f).scaled(-1.0))
    assert _same_atoms(normal_trace(back, E), tr.scaled(-1.0), 1e-9 * E.tol / EPS)


@given(
    field_and_region(),
    st.tuples(coord, coord).filter(lambda n: n != (0.0, 0.0)),
    coord,
)
@settings(max_examples=100, deadline=None)
def test_duality_on_half_planes(case, normal, offset):
    f, _ = case
    E = half_plane(normal, offset)
    assume(_trace_or_none(f, E) is not None)
    for phi in (Linear((1.0, 0.0)), DistTo((0.4, -0.7))):
        assert _duality_defect(f, phi, E) <= 1e-9
