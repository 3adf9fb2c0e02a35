"""Tests of the benchmark's own checkers.

    python3 -m pytest perfbench/test_checks.py
"""

import math

import pytest

import checks

BASE = "e"
P, Q = (0.0, 0.0), (0.3, 0.4)  # |P - Q| = 0.5


def dipole_certificate():
    """m = delta_Q - delta_P: value 0.5, one dipole, a tight dual."""
    atoms = [(Q, 1.0), (P, -1.0)]
    return atoms, 0.5, [(1.0, P, Q)], {P: -0.25, Q: 0.25, BASE: 0.0}


def test_certificate_accepts_an_optimal_pair():
    assert checks.check_ae_certificate(*dipole_certificate()) == []


def test_certificate_accepts_base_point_terms():
    # net mass 2 at one point must travel to the base point at cost 1 each
    atoms = [((5.0, 5.0), 2.0)]
    terms = [(2.0, BASE, (5.0, 5.0))]
    assert checks.check_ae_certificate(atoms, 2.0, terms, {(5.0, 5.0): 1.0, BASE: 0.0}) == []


def test_certificate_rejects_a_perturbed_dual():
    atoms, value, terms, dual = dipole_certificate()
    dual[Q] += 0.1  # |dual(Q) - dual(P)| = 0.6 > rho(P, Q) = 0.5
    problems = checks.check_ae_certificate(atoms, value, terms, dual)
    assert any("Lipschitz" in p for p in problems)
    assert any("objective" in p for p in problems)


def test_certificate_rejects_a_dual_off_zero_at_the_base_point():
    atoms, value, terms, dual = dipole_certificate()
    dual[BASE] = 0.01
    assert any("base point" in p for p in checks.check_ae_certificate(atoms, value, terms, dual))


def test_certificate_rejects_a_representation_that_does_not_recombine():
    atoms, value, _, dual = dipole_certificate()
    terms = [(1.0, P, (0.3, 0.41))]  # lands next to Q, not on it
    problems = checks.check_ae_certificate(atoms, value, terms, dual)
    assert any("recombine" in p for p in problems)


def test_certificate_rejects_a_costlier_representation():
    # the same element routed through the base point costs 2, not 0.5
    atoms, value, _, dual = dipole_certificate()
    terms = [(1.0, BASE, Q), (1.0, P, BASE)]
    problems = checks.check_ae_certificate(atoms, value, terms, dual)
    assert problems == [f"dipole cost 2.0 differs from value {value!r}"]


@pytest.mark.parametrize(
    "ring, area",
    [
        ([(0, 0), (1, 0), (1, 1), (0, 1)], 1.0),
        ([(0, 0), (0, 1), (1, 1), (1, 0)], -1.0),
        ([(0, 0), (4, 0), (0, 3), (0, 0)], 6.0),
        ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 3.0),
        ([(2 * math.cos(2 * math.pi * k / 32), 2 * math.sin(2 * math.pi * k / 32)) for k in range(32)],
         0.5 * 32 * 4 * math.sin(2 * math.pi / 32)),
    ],
)
def test_signed_area_of_known_polygons(ring, area):
    assert checks.signed_area(ring) == pytest.approx(area, rel=1e-14)


def test_rotation_flux_is_twice_the_weighted_area():
    square = [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8), (0.2, 0.2)]
    inner_cw = [(0.3, 0.3), (0.3, 0.7), (0.7, 0.7), (0.7, 0.3), (0.3, 0.3)]
    curves = [(square, 1.0), (inner_cw, 0.7)]
    assert checks.rotation_flux(curves) == pytest.approx(2 * (0.36 - 0.7 * 0.16), rel=1e-14)
    # the midpoint rule for Phi(x) = (-y, x) agrees
    flux, _ = checks.affine_flux(curves, (0.0, 0.0), ((0.0, -1.0), (1.0, 0.0)))
    assert flux == pytest.approx(checks.rotation_flux(curves), rel=1e-14)


def test_affine_flux_is_exact_on_a_segment():
    # Phi(x, y) = (1 + 2x, 3y) along (0,0) -> (1,2), weight 0.5:
    # int_0^1 (1 + 2t) dt + int_0^1 3 * 2t * 2 dt = 2 + 6
    flux, size = checks.affine_flux([([(0.0, 0.0), (1.0, 2.0)], 0.5)], (1.0, 0.0), ((2.0, 0.0), (0.0, 3.0)))
    assert flux == pytest.approx(0.5 * 8.0, rel=1e-15)
    assert size >= abs(flux)


def test_divergence_skips_closed_curves_and_sums_endpoints():
    curves = [
        ([(0, 0), (1, 0)], 2.0),
        ([(1, 0), (1, 1)], 0.5),
        ([(0, 0), (1, 1), (0, 1), (0, 0)], 9.0),
    ]
    assert checks.divergence(curves) == {(0, 0): 2.0, (1, 0): -1.5, (1, 1): -0.5}


def test_match_measures_finds_missing_and_moved_atoms():
    a = {(0.0, 0.0): 1.0, (1.0, 0.0): -1.0}
    assert checks.match_measures(a, dict(a), 1e-9) == []
    assert checks.match_measures(a, {(0.0, 0.0): 1.0}, 1e-9)
    assert checks.match_measures(a, {(0.0, 0.0): 1.0, (1.0, 1e-6): -1.0}, 1e-9)
    # a location difference inside the tolerance is the same atom
    assert checks.match_measures(a, {(0.0, 0.0): 1.0, (1.0, 1e-12): -1.0}, 1e-9) == []


def test_edge_weights_net_out_antiparallel_segments():
    curves = [
        ([(0, 0), (1, 0), (1, 1)], 0.5),
        ([(1, 0), (0, 0)], 0.25),
        ([(1, 1), (1, 0)], 0.5),
    ]
    assert checks.edge_weights(curves) == {((0, 0), (1, 0)): 0.25}
    # a decomposition into single segments recombines to the same edges
    pieces = [([(0, 0), (1, 0)], 0.25)]
    assert checks.edge_weights(pieces) == checks.edge_weights(curves)
    assert checks.edge_weights([([(0, 0), (1, 0)], 0.5)]) != checks.edge_weights(curves)
