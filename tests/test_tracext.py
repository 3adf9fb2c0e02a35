from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from dmfields import (
    AEElement,
    AtomOffBoundary,
    AtomicMeasure,
    CurveField,
    LiftConfig,
    MissingConstants,
    NonzeroNetFlux,
    PolyCurve,
    PolyRegion,
    PolygonalDomain,
    ae_norm,
    bound_constant,
    box_region,
    complement_region,
    domain_preset,
    domain_trace,
    extend_divfree,
    extend_field,
    field_divergence,
    field_mass,
    lift_config,
    lift_surject,
    normal_trace,
    separation,
    two_sided_lift,
)
from dmfields.core import dist
from dmfields.domain import routing_graph

SQUARE = domain_preset("square")


@pytest.fixture(scope="module")
def cfg():
    return lift_config(SQUARE, 0.02)


def test_undeclared_constants_are_missing():
    d = PolygonalDomain(box_region(0, 0, 1, 1))
    with pytest.raises(MissingConstants):
        lift_config(d)
    with pytest.raises(MissingConstants):
        bound_constant(lift_config(d, delta=0.3))


def _boundary_element():
    return AEElement(
        AtomicMeasure(
            [((0.0, 0.3), 1.0), ((1.0, 0.7), -1.0), ((0.5, 0.0), 0.25)]
        )
    )


def test_atoms_must_sit_on_boundary(cfg):
    inside = AEElement(AtomicMeasure([((0.5, 0.5), 1.0)]))
    with pytest.raises(AtomOffBoundary):
        lift_surject(cfg, inside)


@pytest.mark.parametrize("y", [1e-10, -1e-10])
def test_atoms_just_off_the_boundary_are_rejected(cfg, y):
    # 1e-10 is beyond the square's length tolerance of 1e-12; lifted, such
    # an atom gave a field with no trace (above) or a displaced one (below)
    with pytest.raises(AtomOffBoundary):
        lift_surject(cfg, AEElement(AtomicMeasure([((0.5, y), 1.0)])))


def test_close_dipole_on_the_annulus_lifts():
    # its route's first segment is cut 6.8e-12 in parameter before its
    # end, a sliver of 4.7e-16 in length that once raised
    d = domain_preset("annulus")
    m = AEElement(
        AtomicMeasure(
            [
                ((-0.14059794558103528, 0.9861523110305896), 1.0),
                ((-0.14046172850567074, 0.9861657272415034), -1.0),
            ]
        )
    )
    f = lift_surject(lift_config(d, 0.02), m)
    assert domain_trace(f, d).coalesced(1e-9).same_atoms(m.support, 1e-9)


def test_lift_trace_is_exact(cfg):
    m = _boundary_element()
    f = lift_surject(cfg, m)
    tr = domain_trace(f, SQUARE).coalesced(1e-9)
    assert tr.same_atoms(m.support, 1e-9)


def test_lift_interior_divergence_sits_on_net(cfg):
    m = _boundary_element()
    f = lift_surject(cfg, m)
    interior = field_divergence(f).restrict(SQUARE.contains)
    net = set(cfg.lam)
    for p, _ in interior.coalesced(1e-9).atoms:
        assert p in net


def test_lift_respects_mass_bound(cfg):
    m = _boundary_element()
    f = lift_surject(cfg, m)
    value, _, _ = ae_norm(m)
    interior = field_divergence(f).restrict(SQUARE.contains)
    assert field_mass(f) + interior.total_mass() <= bound_constant(cfg) * value


def test_lift_provenance_labels(cfg):
    prov = []
    lift_surject(cfg, _boundary_element(), provenance=prov)
    assert prov
    cases = {row["case"] for row in prov}
    allowed = {"base-to-net", "net-to-boundary", "direct", "split-out", "split-in"}
    assert cases <= allowed
    assert all(row["route_length"] > 0 for row in prov)


def test_two_sided_lift_cancels_across_boundary(cfg):
    comp = complement_region(SQUARE, box_region(-1, -1, 2, 2))
    cfg_out = lift_config(comp, 0.05, 0.3)
    m = _boundary_element()
    f = two_sided_lift(cfg, cfg_out, m)
    inner = domain_trace(f, SQUARE).coalesced(1e-9)
    assert inner.same_atoms(m.support, 1e-9)


def test_extend_field_cancels_boundary_divergence(cfg):
    f = CurveField([PolyCurve([(0.0, 0.3), (0.6, 0.4), (1.0, 0.7)], 2.0)])
    comp = complement_region(SQUARE, box_region(-1, -1, 2, 2))
    cfg_out = lift_config(comp, 0.05, 0.3)
    g = extend_field(f, SQUARE, cfg_out)
    div = field_divergence(g).coalesced(1e-9)
    # nothing remains on the old boundary
    for p, _ in div.atoms:
        assert SQUARE.boundary_dist(p) > 1e-9


def test_extend_divfree_is_globally_clean():
    loop_through = CurveField(
        [PolyCurve([(0.0, 0.3), (0.5, 0.5), (1.0, 0.7)], 1.0)]
    )
    # flux in equals flux out, so a divergence-free extension exists
    comp = complement_region(SQUARE, box_region(-1, -1, 2, 2))
    cfg_out = lift_config(comp, 0.05, 0.3)
    g, punctures = extend_divfree(loop_through, SQUARE, cfg_out)
    assert punctures == ()
    assert field_divergence(g).coalesced(1e-9).atoms == ()


def test_extend_divfree_rejects_net_flux():
    src = CurveField([PolyCurve([(0.5, 0.5), (1.0, 0.5)], 1.0)])
    comp = complement_region(SQUARE, box_region(-1, -1, 2, 2))
    cfg_out = lift_config(comp, 0.05, 0.3)
    with pytest.raises(NonzeroNetFlux):
        extend_divfree(src, SQUARE, cfg_out)


def test_extend_divfree_punctures_lie_on_the_exterior_net():
    chord = CurveField([PolyCurve([(0.0, 0.3), (0.5, 0.5), (1.0, 0.7)], 1.0)])
    comp = complement_region(SQUARE, box_region(-1, -1, 2, 2))
    cfg_out = lift_config(comp, 0.05, 0.3)
    g, punctures = extend_divfree(chord, SQUARE, cfg_out, connected_complement=False)
    assert punctures
    assert set(punctures) <= set(cfg_out.lam)
    div = field_divergence(g).coalesced(1e-9)
    assert div.locations() == sorted(punctures)


def test_lift_configs_stay_equal_once_one_caches_its_separation():
    a, b = lift_config(SQUARE, 0.02), lift_config(SQUARE, 0.02)
    a.sep()
    assert a == b


def test_lift_config_is_frozen_and_takes_no_caches(cfg):
    with pytest.raises(TypeError):
        LiftConfig(cfg.domain, cfg.lam, cfg.e, cfg.h, cfg.delta, _sep=0.0)
    with pytest.raises(FrozenInstanceError):
        cfg.delta = 1.0


def test_a_replaced_config_computes_its_own_separation(cfg):
    cfg.sep()
    one = replace(cfg, lam=(cfg.e,))
    assert one.sep() == separation(SQUARE, (cfg.e,), cfg.h)
    assert one.sep() != cfg.sep()


def test_nearest_lam_stays_in_the_component_of_its_point():
    annulus = domain_preset("annulus")
    comp = complement_region(annulus, box_region(-3, -3, 3, 3))
    cfg = lift_config(comp, 0.05, 0.3)
    g = routing_graph(comp, 0.05)
    assert g.n_components == 2

    def component(p):
        return g.comp[g.nearest_visible(p)]

    # the net is a set of grid nodes touching every component, its base
    # point the deepest node; clearances and components come off the graph
    assert set(cfg.lam) <= set(g.nodes)
    lam_comp = [component(q) for q in cfg.lam]
    assert set(lam_comp) == {0, 1}
    deepest = max(
        range(len(g.nodes)),
        key=lambda i: (g.clearance[i], tuple(-c for c in g.nodes[i])),
    )
    assert cfg.e == g.nodes[deepest]
    assert cfg.dist_lam == comp.boundary_dist_many(np.asarray(cfg.lam)).min()
    grouped = {}
    for q, c in zip(cfg.lam, lam_comp):
        grouped.setdefault(c, []).append(q)
    assert cfg._lam_comp == grouped
    points = [p for part in annulus.parts for ring in part.rings() for p in ring]
    points += [(-3.0, 0.7), (0.4, 3.0), (2.9, -2.9)]
    assert {component(p) for p in points} == {0, 1}
    for p in points:
        cp = component(p)
        same = [q for q, c in zip(cfg.lam, lam_comp) if c == cp]
        assert cfg.nearest_lam(p) == min(same, key=lambda q: (dist(p, q), q))
    # a component with no net point falls back to the whole net
    alone = replace(cfg, lam=(cfg.e,))
    assert {alone.nearest_lam(p) for p in points} == {cfg.e}


def test_repeated_vertices_are_dropped_and_the_region_lifts():
    dup = PolyRegion([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0, 0)])
    assert dup == box_region(0, 0, 1, 1)
    f = lift_surject(lift_config(PolygonalDomain(dup, 0.5, 0.4)), _boundary_element())
    assert domain_trace(f, SQUARE).coalesced(1e-9).same_atoms(
        _boundary_element().support, 1e-9
    )
    g = CurveField(
        [
            PolyCurve([(-0.5, 0.3), (0.5, 0.4), (1.5, 0.7)]),
            PolyCurve([(0.5, -0.5), (1.5, 0.5)], 2.0),
            PolyCurve([(0.2, -0.1), (0.3, 0.5), (0.9, 1.3)], -0.5),
        ]
    )
    # the trace on the region with its repeated vertex, before they were dropped
    assert normal_trace(g, dup) == AtomicMeasure(
        [
            ((0.0, 0.35), 1.0),
            ((0.21666666666666667, 0.0), -0.5),
            ((0.675, 1.0), 0.5),
            ((1.0, 0.55), -1.0),
        ]
    )
