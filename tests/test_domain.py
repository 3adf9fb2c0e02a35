import math

import pytest

from dmfields import (
    DimensionMismatch,
    Disconnected,
    InfeasibleDelta,
    LRCViolation,
    PolyRegion,
    PolygonalDomain,
    TopologyViolation,
    box_region,
    complement_region,
    domain_preset,
    koch_preset,
    net_boundary_dist,
    route,
    select_lambda,
    separation,
)
from dmfields.core import dist
from dmfields.domain import (
    RoutingGraph,
    polyline_in_domain,
    routing_graph,
    segment_in_domain,
)

SQUARE = domain_preset("square")
LSHAPE = domain_preset("lshape")


def test_route_between_components_is_disconnected():
    comp = complement_region(domain_preset("annulus"), box_region(-3, -3, 3, 3))
    with pytest.raises(Disconnected):
        route(comp, (2.5, 0.0), (0.0, 0.0))


@pytest.mark.parametrize(
    "p, q", [((0.2, 0.2, 5.0), (0.4, 0.4, -3.0)), ((0.2,), (0.4, 0.4))]
)
def test_route_rejects_points_off_the_plane(p, q):
    with pytest.raises(DimensionMismatch):
        route(SQUARE, p, q)


def test_segment_in_domain_rejects_spatial_points():
    with pytest.raises(DimensionMismatch):
        segment_in_domain(SQUARE, (0.2, 0.2, 5.0), (0.4, 0.4, -3.0))


def test_separation_of_an_empty_net_is_disconnected():
    with pytest.raises(Disconnected):
        separation(SQUARE, [])


def test_select_lambda_rejects_delta_above_the_declared_one():
    with pytest.raises(ValueError):
        select_lambda(SQUARE, 0.5)


@pytest.mark.parametrize("h", [0.0, -0.02, math.nan, math.inf])
def test_routing_graph_needs_a_finite_positive_step(h):
    with pytest.raises(ValueError):
        RoutingGraph(SQUARE, h)
    with pytest.raises(ValueError):
        routing_graph(SQUARE, h)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_select_lambda_needs_a_finite_positive_delta(delta):
    with pytest.raises(ValueError):
        select_lambda(PolygonalDomain(box_region(0, 0, 1, 1)), delta)


def test_domain_needs_parts_and_valid_constants():
    with pytest.raises(ValueError):
        PolygonalDomain(())
    with pytest.raises(ValueError):
        PolygonalDomain(box_region(0, 0, 1, 1), declared_eps=1.5)
    with pytest.raises(ValueError):
        PolygonalDomain(box_region(0, 0, 1, 1), declared_delta=-0.1)


def test_membership_across_parts():
    two = PolygonalDomain((box_region(0, 0, 1, 1), box_region(2, 0, 3, 1)))
    assert two.contains((0.5, 0.5))
    assert two.contains((2.5, 0.5))
    assert not two.contains((1.5, 0.5))
    assert two.on_boundary((2.0, 0.5))


def test_segment_visibility():
    assert segment_in_domain(SQUARE, (0.1, 0.1), (0.9, 0.9))
    # endpoints on the boundary are fine, crossing it is not
    assert segment_in_domain(SQUARE, (0.0, 0.5), (1.0, 0.5))
    assert not segment_in_domain(SQUARE, (0.5, 0.5), (1.5, 0.5))
    # riding along a boundary edge counts as outside
    assert not segment_in_domain(SQUARE, (0.0, 0.0), (1.0, 0.0))


def test_route_is_straight_when_possible():
    c = route(SQUARE, (0.1, 0.1), (0.3, 0.35))
    assert c.vertices == ((0.1, 0.1), (0.3, 0.35))


def test_route_is_symmetric():
    p, q = (0.9, 0.1), (0.1, 0.85)
    assert route(SQUARE, p, q).vertices == route(SQUARE, q, p).vertices[::-1]


def test_route_around_reentrant_corner():
    p, q = (1.5, 0.9), (0.9, 1.5)
    c = route(LSHAPE, p, q)
    assert polyline_in_domain(LSHAPE, c.vertices)
    # certified against the declared constants: |p-q| <= 0.4 would be
    # needed for the automatic check, so verify the bound by hand
    d = math.dist(p, q)
    assert c.length() <= d / LSHAPE.declared_eps


def test_route_certifies_declared_constants():
    # an impossible declaration trips the per-route certificate
    brag = LSHAPE.with_constants(0.999, 2.0)
    with pytest.raises(LRCViolation):
        # the detour around the reentrant corner is about 20% longer
        # than the straight chord, far above the 1/0.999 allowance
        route(brag, (1.5, 0.9), (0.9, 1.5))


def test_select_lambda_covers_and_respects_clearance():
    delta = 0.4
    lam = select_lambda(SQUARE, delta)
    assert lam
    assert net_boundary_dist(SQUARE, lam) >= delta / 2 - 1e-9
    # every interior grid point sits within delta of the net
    for ix in range(1, 50):
        for iy in range(1, 50):
            p = (ix * 0.02, iy * 0.02)
            assert min(math.dist(p, q) for q in lam) <= delta + 1e-9


def _greedy_scan(d, delta, h):
    """The O(n^2) net selection select_lambda's KD-tree version replaced:
    every node is scanned for every net point."""
    g = routing_graph(d, h)
    order = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i])
    uncovered = set(order)
    chosen = []
    while uncovered:
        u = next(i for i in order if i in uncovered)
        cands = [
            i
            for i in range(len(g.nodes))
            if g.clearance[i] >= delta / 2
            and g.comp[i] == g.comp[u]
            and dist(g.nodes[i], g.nodes[u]) <= delta
        ]
        pick = max(
            cands,
            key=lambda i: (
                g.clearance[i],
                dist(g.nodes[i], g.nodes[u]),
                tuple(-c for c in g.nodes[i]),
            ),
        )
        chosen.append(g.nodes[pick])
        uncovered = {
            i for i in uncovered if dist(g.nodes[i], g.nodes[pick]) > delta
        }
    return chosen


@pytest.mark.parametrize(
    "d, delta, h",
    [
        (LSHAPE, 0.4, 0.05),
        (LSHAPE, 0.3, 0.04),
        (complement_region(SQUARE, box_region(-1, -1, 2, 2)), 0.3, 0.05),
    ],
)
def test_select_lambda_matches_greedy_scan(d, delta, h):
    assert select_lambda(d, delta, h) == _greedy_scan(d, delta, h)


def test_select_lambda_touches_every_component():
    two = PolygonalDomain((box_region(0, 0, 1, 1), box_region(2, 0, 3, 1)))
    lam = select_lambda(two, 0.4)
    assert any(p[0] < 1.0 for p in lam)
    assert any(p[0] > 2.0 for p in lam)


def test_select_lambda_infeasible_when_too_deep():
    # a thin sliver has no point with clearance delta/2
    thin = PolygonalDomain(box_region(0, 0, 1, 0.08))
    with pytest.raises(InfeasibleDelta):
        select_lambda(thin, 0.5, h=0.02)


def test_separation_bounds_boundary_distance():
    lam = select_lambda(SQUARE, 0.4)
    s = separation(SQUARE, lam)
    assert 0.0 < s <= 0.75  # half-diagonal plus grid slack


def test_separation_requires_a_net():
    with pytest.raises(Disconnected):
        separation(SQUARE, [])


def test_complement_region_frame_and_islands():
    d = PolygonalDomain(
        PolyRegion(
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            [[(1, 1), (3, 1), (3, 3), (1, 3)]],
        )
    )
    comp = complement_region(d, box_region(-1, -1, 5, 5))
    assert len(comp.parts) == 2
    assert comp.contains((-0.5, -0.5))  # frame
    assert comp.contains((2.0, 2.0))  # island from the hole
    assert not comp.contains((0.5, 0.5))


def test_complement_rejects_overflow_and_slits():
    with pytest.raises(ValueError):
        complement_region(SQUARE, box_region(0, 0, 1, 1))
    slit = PolygonalDomain(
        PolyRegion([(0, 0), (2, 0), (2, 2), (1, 2), (1, 0.5), (1, 2), (0, 2)])
    )
    with pytest.raises(TopologyViolation):
        complement_region(slit, box_region(-1, -1, 3, 3))


def test_koch_preset_edge_count():
    assert len(koch_preset(0).parts[0].outer) == 3
    assert len(koch_preset(2).parts[0].outer) == 48
    with pytest.raises(ValueError):
        koch_preset(8)


def test_presets_have_certified_constants():
    for name in ("square", "annulus", "lshape", "koch2"):
        d = domain_preset(name)
        assert d.declared_eps is not None
        assert d.declared_delta is not None
    with pytest.raises(ValueError):
        domain_preset("pentagon")


def test_segment_whose_squared_length_underflows_is_a_point():
    # L1 * L1 underflows to 0 in the collinear branch of the edge test
    assert segment_in_domain(SQUARE, (0.0, 1.1e-305), (0.0, 0.0)) is False


def test_select_lambda_on_a_graph_without_nodes():
    # a box smaller than one grid step holds no grid node
    tiny = PolygonalDomain(box_region(0, 0, 0.01, 0.01))
    g = routing_graph(tiny, 0.02)
    assert (g.n_components, g.comp, g.nodes) == (0, [], [])
    with pytest.raises(InfeasibleDelta):
        select_lambda(tiny, 0.005, h=0.02)


def test_graph_components_are_numbered_by_lowest_node():
    comp = complement_region(
        domain_preset("annulus"), box_region(-3, -3, 3, 3)
    )
    g = routing_graph(comp, 0.05)
    assert g.n_components == 2 and isinstance(g.n_components, int)
    firsts = [g.comp.index(c) for c in range(g.n_components)]
    assert firsts == sorted(firsts) and firsts[0] == 0
    assert all(g.comp[a] == g.comp[b] for a, nbrs in enumerate(g.adj) for b, _ in nbrs)
