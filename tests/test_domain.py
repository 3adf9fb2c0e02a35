import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    lift_config,
    lift_surject,
    route,
    select_lambda,
    separation,
)
from dmfields.acceptance import _rand_boundary_measure
from dmfields.core import dist
from dmfields.domain import (
    RoutingGraph,
    _boundary_samples,
    _edge_blocks,
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
    # a NaN delta used to pass, and route then skipped its certificate
    with pytest.raises(ValueError):
        PolygonalDomain(box_region(0, 0, 1, 1), 0.5, math.nan)
    # an infinite delta made route certify the length bound for every pair
    with pytest.raises(ValueError):
        PolygonalDomain(box_region(0, 0, 1, 1), 0.5, math.inf)


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


def _moved(d, scale, shift):
    def ring(r):
        return [(x * scale + shift[0], y * scale + shift[1]) for x, y in r]

    return PolygonalDomain(
        [PolyRegion(ring(p.outer), [ring(h) for h in p.holes]) for p in d.parts]
    )


_FIVE = (0.03, 0.25, 0.5, 0.75, 0.97)


def _five_samples(a, b):
    return [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])) for t in _FIVE]


def _five_sample_rule(d, a, b):
    """The side test the midpoint replaced: no edge blocks the segment
    and all five samples lie in the domain."""
    if a == b:
        return False
    L = dist(a, b)
    if any(_edge_blocks(d, a, b, L, p, q) for p, q in d.boundary_edges()):
        return False
    return all(d.contains(s) for s in _five_samples(a, b))


PRESETS = [domain_preset(name) for name in ("square", "lshape", "koch2", "annulus")]


@st.composite
def moved_segment(draw):
    """A segment over a preset moved by a dyadic scale and a translation
    up to 1e6: endpoints on edges, at or off vertices, a few length
    tolerances off an edge, anywhere in the box, or, for the second,
    near the first."""
    scale = 2.0 ** draw(st.integers(-10, 6))
    shift = draw(
        st.just((0.0, 0.0)) | st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    )
    d = _moved(draw(st.sampled_from(PRESETS)), scale, shift)
    edges = d.boundary_edges()
    x0, y0, x1, y1 = d.bbox()

    def point(kind):
        if kind == "box":
            fx, fy = draw(st.floats(0, 1)), draw(st.floats(0, 1))
            return (x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
        p, q = edges[draw(st.integers(0, len(edges) - 1))]
        t = 0.0 if kind == "vertex" else draw(st.floats(0, 1))
        off = 0.0
        if kind != "edge":
            off = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 10.0]))
        L = math.hypot(q[0] - p[0], q[1] - p[1])
        nx, ny = (p[1] - q[1]) / L, (q[0] - p[0]) / L
        return (
            p[0] + t * (q[0] - p[0]) + off * d.tol * nx,
            p[1] + t * (q[1] - p[1]) + off * d.tol * ny,
        )

    kinds = st.sampled_from(["edge", "vertex", "off", "box"])
    a = point(draw(kinds))
    if draw(st.booleans()):
        r = scale * 10.0 ** draw(st.floats(-8, -1))
        th = draw(st.floats(0, 2 * math.pi))
        b = (a[0] + r * math.cos(th), a[1] + r * math.sin(th))
    else:
        b = point(draw(kinds))
    return d, a, b


@given(moved_segment())
@settings(max_examples=500, deadline=None)
def test_midpoint_rule_differs_only_where_a_sample_touches_the_boundary(case):
    # the midpoint is one of the five samples, so the old rule's yes is
    # kept; it may only have said no for a sample within d.tol of a wall
    d, a, b = case
    old, new = _five_sample_rule(d, a, b), segment_in_domain(d, a, b)
    if old:
        assert new
    elif new:
        assert any(d.on_boundary(s) for s in _five_samples(a, b))


def test_lifts_on_a_square_far_from_the_origin():
    # at (1e8, 0) the length tolerance is 1e-4: on every bow of a short
    # dipole on the left wall, the samples next to a wall atom (t = 0.03
    # and 0.97) sat within it of the wall, and the route fell back to a
    # grid path over the bound
    d = PolygonalDomain(box_region(1e8, 0, 1e8 + 1, 1), 0.5, 0.4)
    cfg = lift_config(d, 0.02, 0.4)
    rng = np.random.default_rng(5)
    for _ in range(30):
        lift_surject(cfg, _rand_boundary_measure(rng, d, 4))


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
    assert SQUARE.boundary_dist_many(np.asarray(lam)).min() >= delta / 2 - 1e-9
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


def test_separation_requires_net_points_on_the_grid():
    with pytest.raises(ValueError):
        separation(SQUARE, [(0.505, 0.5)])


@pytest.mark.parametrize(
    "name, h",
    [
        ("square", 0.02),
        ("annulus", 0.02),
        ("lshape", 0.02),
        ("koch2", 0.02),
        ("square-complement", 0.02),
        ("annulus-complement", 0.05),
    ],
)
def test_batched_hops_equal_the_scalar_nearest_visible(name, h):
    # separation's boundary samples, grid nodes, and points near both
    if name == "square-complement":
        d = complement_region(SQUARE, box_region(-1, -1, 2, 2))
    elif name == "annulus-complement":
        d = complement_region(domain_preset("annulus"), box_region(-3, -3, 3, 3))
    else:
        d = domain_preset(name)
    g = routing_graph(d, h)
    pts = _boundary_samples(d)
    pts += g.nodes[:: max(1, len(g.nodes) // 50)]
    near = [(x + 0.3 * h, y - 0.7 * d.tol) for x, y in pts[::7]]
    pts += [p for p in near if d.contains(p)]
    assert g.nearest_visible_many(pts) == [g.nearest_visible(p) for p in pts]


def test_a_batched_hop_that_sees_no_node_is_disconnected():
    g = routing_graph(SQUARE, 0.02)
    with pytest.raises(Disconnected):
        g.nearest_visible((5.0, 5.0))
    with pytest.raises(Disconnected):
        g.nearest_visible_many([(0.0, 0.5), (5.0, 5.0)])
    with pytest.raises(Disconnected):
        routing_graph(PolygonalDomain(box_region(0, 0, 0.01, 0.01)), 0.02).nearest_visible_many([(0.0, 0.0)])


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
