import pytest

from dmfields import (
    AEElement,
    AtomOffBoundary,
    AtomicMeasure,
    CurveField,
    MissingConstants,
    NonzeroNetFlux,
    PolyCurve,
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
    two_sided_lift,
)

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
