import math

import pytest
from hypothesis import given, settings, strategies as st

import dmfields as dm
from dmfields import (
    AtomicMeasure,
    CurveField,
    DimensionMismatch,
    DMFieldError,
    InvalidInput,
    PolyCurve,
    field_divergence,
    field_mass,
    fileio,
    pair_vector,
    smirnov,
)
from dmfields.core import dist

coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
point2 = st.tuples(coord, coord)


def test_polycurve_dedups_consecutive_duplicates():
    c = PolyCurve([(0, 0), (0, 0), (1, 0), (1, 0), (1, 1)], 1.0)
    assert c.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))


def test_polycurve_needs_two_vertices():
    with pytest.raises(ValueError):
        PolyCurve([(2, 3)], 1.0)
    # a repeated point collapses to a degenerate (still two-vertex) curve
    c = PolyCurve([(2, 3), (2, 3)], 1.0)
    assert c.length() == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: PolyCurve([(2, 3)], 1.0),
        lambda: dm.domain_preset("pentagon"),
        lambda: dm.select_lambda(dm.domain_preset("square"), 0.5),
        lambda: dm.box_region(0, 0, math.inf, 1),
        lambda: smirnov.mollify(CurveField([PolyCurve([(0, 0), (1, 0)])]), 0.0, 0.1),
        lambda: fileio.lipfunc_from_json({"kind": "spline"}),
        lambda: dm.weakstar_sequence("wave", 0, dm.Const(0.0)),
    ],
    ids=["core", "preset", "net", "regions", "smirnov", "fileio", "lipfun"],
)
def test_bad_input_is_one_typed_error_and_still_a_value_error(call):
    with pytest.raises(InvalidInput) as e:
        call()
    assert isinstance(e.value, DMFieldError) and isinstance(e.value, ValueError)


def test_length_and_endpoints():
    c = PolyCurve([(0, 0), (3, 4), (3, 5)], 2.0)
    assert c.length() == pytest.approx(6.0)
    assert c.start == (0.0, 0.0)
    assert c.end == (3.0, 5.0)
    assert not c.is_closed


def test_point_at_integer_parameters_are_exact_vertices():
    # interpolation must not introduce roundoff at the vertices
    verts = [(0.1, 0.2), (0.30000000000000004, 0.7), (0.15422822158444902, 1.0)]
    c = PolyCurve(verts, 1.0)
    for i, v in enumerate(verts):
        assert c.point_at(float(i)) == v
    assert c.point_at(0.5) == pytest.approx((0.2, 0.45))


def test_reversed_flips_orientation():
    c = PolyCurve([(0, 0), (1, 0), (1, 1)], 1.5)
    r = c.reversed()
    assert r.vertices == c.vertices[::-1]
    assert r.weight == c.weight


def test_field_rejects_mixed_dimension():
    with pytest.raises(DimensionMismatch):
        CurveField([PolyCurve([(0, 0), (1, 0)], 1.0), PolyCurve([(0, 0, 0), (1, 0, 0)], 1.0)])


def test_measure_rejects_mixed_dimension():
    # core.dist zips coordinates, so the third one used to be dropped and
    # these two atoms cost nothing to transport
    with pytest.raises(DimensionMismatch):
        AtomicMeasure([((0, 0), 1.0), ((0, 0, 5), -1.0)])
    with pytest.raises(DimensionMismatch):
        AtomicMeasure([((0, 0), 1.0)]) + AtomicMeasure([((0, 0, 5), -1.0)])


def test_field_mass_is_weighted_length():
    f = CurveField([PolyCurve([(0, 0), (1, 0)], 2.0), PolyCurve([(0, 0), (0, 3)], -1.0)])
    assert field_mass(f) == pytest.approx(2.0 + 3.0)


def test_divergence_sign_convention():
    # +w at the start, -w at the end
    f = CurveField([PolyCurve([(0, 0), (1, 0)], 2.0)])
    div = field_divergence(f)
    assert div.coefficient((0.0, 0.0)) == 2.0
    assert div.coefficient((1.0, 0.0)) == -2.0


def test_closed_curves_have_no_divergence():
    loop = PolyCurve([(0, 0), (1, 0), (1, 1), (0, 0)], 3.0)
    assert field_divergence(CurveField([loop])).atoms == ()


def test_atomic_measure_merges_and_drops_zero():
    m = AtomicMeasure([((0.0, 0.0), 1.0), ((0.0, 0.0), -1.0), ((1.0, 0.0), 0.5)])
    assert m.atoms == (((1.0, 0.0), 0.5),)
    assert m.total() == 0.5


def test_measure_coalesce_merges_nearby_atoms():
    m = AtomicMeasure([((0.0, 0.0), 1.0), ((0.0, 1e-10), 2.0)])
    c = m.coalesced(1e-9)
    assert len(c.atoms) == 1
    assert c.atoms[0][1] == 3.0


def _all_pairs_coalesced(m, tol):
    # coalesced as it was before the x-window: every pair tested
    atoms = list(m.atoms)
    n = len(atoms)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if dist(atoms[i][0], atoms[j][0]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    merged = []
    for idxs in groups.values():
        loc = min(atoms[i][0] for i in idxs)
        coeff = sum(atoms[i][1] for i in idxs)
        if abs(coeff) > tol:
            merged.append((loc, coeff))
    return AtomicMeasure(merged)


# offsets below 2.5e-9 from a few grid points: chains of atoms each
# within 1e-9 of the next, along both axes and diagonally
_NEAR = [0.0, 6e-10, 1.2e-9, 1.8e-9, 2.4e-9, -6e-10]
near_atom = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.sampled_from(_NEAR), st.sampled_from(_NEAR)
).map(lambda t: (t[0] + t[2], t[1] + t[3]))


@given(
    st.lists(st.tuples(near_atom, st.sampled_from([1.0, -1.0, 0.25, 5e-10])), max_size=30),
    # at 1e8, 2 tol = 2e-9 falls below one ulp of the coordinates
    st.sampled_from([0.0, 1e3, 1e6, 1e8]),
    st.sampled_from([0.0, 1e-9, 1e-6]),
)
@settings(max_examples=300, deadline=None)
def test_coalesced_equals_the_all_pairs_union(atoms, offset, tol):
    m = AtomicMeasure([((x + offset, y - offset), c) for (x, y), c in atoms])
    assert m.coalesced(tol) == _all_pairs_coalesced(m, tol)


def test_measure_arithmetic():
    a = AtomicMeasure([((0.0, 0.0), 1.0)])
    b = AtomicMeasure([((0.0, 0.0), 2.0), ((1.0, 1.0), -1.0)])
    s = a + b
    assert s.coefficient((0.0, 0.0)) == 3.0
    assert (-b).coefficient((1.0, 1.0)) == 1.0
    assert b.scaled(2.0).total_mass() == 6.0


@given(st.lists(point2, min_size=2, max_size=6), st.floats(-3, 3, allow_nan=False).filter(lambda w: w != 0))
@settings(max_examples=100, deadline=None)
def test_divergence_total_vanishes_per_curve(pts, w):
    """Each open curve carries a +w/-w dipole, so coefficients sum to 0."""
    div = field_divergence(CurveField([PolyCurve(pts, w)]))
    assert abs(div.total()) <= 1e-12 * (1 + abs(w))


@given(st.lists(point2, min_size=2, max_size=5), point2)
@settings(max_examples=100, deadline=None)
def test_pair_vector_constant_field_telescopes(pts, v):
    """Pairing a constant vector against a curve gives v . (end - start)."""
    c = PolyCurve(pts, 1.25)
    got = pair_vector(CurveField([c]), lambda x: v)
    want = 1.25 * (v[0] * (c.end[0] - c.start[0]) + v[1] * (c.end[1] - c.start[1]))
    assert got == pytest.approx(want, abs=1e-9)


def test_pair_vector_linear_gradient_matches_divergence_pairing():
    f = CurveField([PolyCurve([(0.0, 0.0), (0.7, 0.1), (0.3, 0.9)], 1.5)])
    grad = lambda x: (2.0, -1.0)  # gradient of 2 x1 - x2
    phi = lambda x: 2.0 * x[0] - x[1]
    div_term = sum(c * phi(p) for p, c in field_divergence(f).atoms)
    assert pair_vector(f, grad) + div_term == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_tolerance_outside_0_inf_is_invalid_input(tol):
    # under nan or inf every comparison fails or every pair matches, so
    # different measures would match and any measure coalesce to nothing
    a = AtomicMeasure([((0.0, 0.0), 1.0)])
    b = AtomicMeasure([((5.0, 0.0), -2.0)])
    with pytest.raises(InvalidInput, match="tol"):
        a.coalesced(tol)
    with pytest.raises(InvalidInput, match="tol"):
        a.same_atoms(b, tol)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, "nan", "inf"], ids=["nan", "inf", "-inf", "'nan'", "'inf'"]
)
def test_a_non_finite_weight_or_coefficient_is_invalid_input(value):
    # float() reads the strings "nan" and "inf"; a NaN weight used to
    # reach the trace's JSON, a NaN coefficient a transport norm of 0
    with pytest.raises(InvalidInput, match="weight"):
        PolyCurve([(0, 0), (1, 0)], value)
    with pytest.raises(InvalidInput, match="coefficient"):
        AtomicMeasure([((0, 0), value), ((1, 0), -1.0)])


def test_same_atoms_pairs_atoms_in_any_order():
    # an ulp in x reorders the atoms; zipping the sorted lists paired
    # each atom with the wrong partner
    a = AtomicMeasure([((-1.5, 0.0), 0.25), ((-1.5, 2.34e-6), -0.25)])
    b = AtomicMeasure([((-1.4999999999999998, 0.0), 0.25), ((-1.5, 2.34e-6), -0.25)])
    assert a.same_atoms(b, 1e-9) and b.same_atoms(a, 1e-9)


def test_same_atoms_is_a_one_to_one_match():
    # both atoms of a lie within tol of b's first atom and of no other
    a = AtomicMeasure([((-0.6, 0.0), 2.0), ((0.6, 0.0), 2.0)])
    b = AtomicMeasure([((0.0, 0.0), 2.0), ((5.0, 0.0), 2.0)])
    assert not a.same_atoms(b, 1.0)
    assert a.same_atoms(AtomicMeasure([((0.6, 0.5), 2.0), ((-0.6, 0.5), 2.0)]), 1.0)
    # coefficients must agree within tol too
    assert not a.same_atoms(a.scaled(1.0 + 1e-6), 1e-9)
    assert AtomicMeasure().same_atoms(AtomicMeasure())
