import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dmfields import (
    AEElement,
    AtomicMeasure,
    BASE,
    DipoleRep,
    SupportTooLarge,
    ae_norm,
    ae_norm_oracle,
    ae_pair,
    dual_check,
    rho,
)
from dmfields.lipfun import Linear

coord = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
atom = st.tuples(st.tuples(coord, coord), st.floats(-2, 2, allow_nan=False).filter(lambda c: abs(c) > 1e-6))


def test_rho_metric():
    assert rho((0.0, 0.0), (0.0, 0.0)) == 0.0
    assert rho((0.0, 0.0), (1.0, 0.0)) == 1.0
    assert rho((0.0, 0.0), (9.0, 0.0)) == 2.0  # capped
    assert rho((0.0, 0.0), BASE) == 1.0
    assert rho(BASE, BASE) == 0.0


def test_zero_element():
    v, rep, dual = ae_norm(AEElement(AtomicMeasure()))
    assert (v, rep, dual) == (0.0, DipoleRep((), 0.0), {BASE: 0.0})
    assert type(v) is type(rep.cost) is type(dual[BASE]) is float


def test_single_atom_costs_one():
    m = AEElement(AtomicMeasure([((0.3, 0.7), 2.5)]))
    v, rep, dual = ae_norm(m)
    assert v == 2.5  # mass routed to the base point at cost 1 each
    assert dual_check(m, dual, v)


def test_nearby_dipole_costs_distance():
    p, q = (0.0, 0.0), (0.6, 0.8)
    m = AEElement(AtomicMeasure([(q, 1.0), (p, -1.0)]))
    v, rep, _ = ae_norm(m)
    assert v == pytest.approx(1.0)
    assert rep.recombine().same_atoms(m.support, 1e-12)


def test_far_dipole_prefers_base_point():
    # distance 10 is capped at 2, equal to two trips via the base point
    p, q = (0.0, 0.0), (10.0, 0.0)
    m = AEElement(AtomicMeasure([(q, 1.0), (p, -1.0)]))
    v, _, _ = ae_norm(m)
    assert v == pytest.approx(2.0)


def test_oracle_support_cap():
    atoms = [((float(i), 0.0), 1.0) for i in range(9)]
    with pytest.raises(SupportTooLarge):
        ae_norm_oracle(AEElement(AtomicMeasure(atoms)))


@given(st.lists(atom, min_size=1, max_size=6))
@example([((0.0, 0.0), -2.0), ((0.0, 1.0), 0.5), ((0.0, 5.960464477539063e-08), 1.0)])
@settings(max_examples=150, deadline=None)
def test_norm_matches_lp_oracle(atoms):
    m = AEElement(AtomicMeasure(atoms))
    v, rep, dual = ae_norm(m)
    assert v == pytest.approx(ae_norm_oracle(m), abs=1e-8)
    assert dual_check(m, dual, v)
    assert rep.recombine().same_atoms(m.support, 1e-9)
    assert v <= rep.cost + 1e-12


@given(st.lists(atom, min_size=1, max_size=5), st.tuples(coord, coord))
@settings(max_examples=100, deadline=None)
def test_norm_dominates_admissible_pairings(atoms, shift):
    """Clamped 1-Lipschitz potentials pair below the norm."""
    m = AEElement(AtomicMeasure(atoms))
    v, _, _ = ae_norm(m)
    phi = Linear((0.6, 0.8))
    # |u| <= 1 and Lip(u) <= 1 make u admissible for the capped metric
    u = lambda p: max(-1.0, min(1.0, phi(p) - phi(shift)))
    val = sum(c * u(p) for p, c in m.atoms())
    assert abs(val) <= v + 1e-9


def test_dual_is_certificate():
    m = AEElement(
        AtomicMeasure([((0.0, 0.0), 1.5), ((0.2, 0.1), -0.5), ((3.0, 3.0), 0.25)])
    )
    v, _, dual = ae_norm(m)
    assert dual[BASE] == pytest.approx(0.0, abs=1e-12)
    obj = sum(c * dual[p] for p, c in m.atoms())
    assert obj == pytest.approx(v, abs=1e-8)
