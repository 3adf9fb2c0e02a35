"""The batched ring kernel must give the scalar predicates' answers
exactly: membership, on-boundary tests, boundary distance and segment
visibility, on grid points and on points on or within a few length
tolerances of edges and vertices, also one ulp either side of it, at
unit scale, scaled up and translated far from the origin. The scalar
predicates' edge-box filter must give the full scan's answers. The
even-odd pass over a region's whole edge table must give the per-ring
rule it replaced, and a region whose holes break that rule's premise
is rejected. A domain's one pass over all its parts' rings must give
the per-part rule it replaced, at the domain's one length tolerance, and
its trace the per-part sum. The one nesting rule over a ring table must
accept exactly the regions that the hole loop accepted and the domains
that the pairwise part rule accepted, and a complement must answer the
opposite of its domain."""

import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmfields import (
    AtomicMeasure,
    CurveField,
    DegenerateGeometry,
    PolyCurve,
    PolyRegion,
    PolygonalDomain,
    box_region,
    complement_region,
    domain,
    domain_preset,
    domain_trace,
    half_plane,
    regions,
)
from dmfields.domain import segment_in_domain, segments_in_domain
from dmfields.regions import (
    EPS,
    _pieces,
    _seg_intersections,
    hit_candidates,
    normal_trace,
)

HOLED = PolygonalDomain(
    PolyRegion(
        [(0, 0), (4, 0), (4, 3), (0, 3)],
        [[(1, 1), (2, 1), (2, 2), (1, 2)], [(2.5, 0.5), (3.5, 1.5), (2.5, 2.5)]],
    )
)
SQUARE = domain_preset("square")


def _moved(d, scale, shift, quarter=0):
    def ring(r):
        for _ in range(quarter):
            r = [(-y, x) for x, y in r]
        return [(x * scale + shift[0], y * scale + shift[1]) for x, y in r]

    return PolygonalDomain(
        [PolyRegion(ring(p.outer), [ring(h) for h in p.holes]) for p in d.parts]
    )


DOMAINS = [
    SQUARE,
    domain_preset("lshape"),
    domain_preset("koch2"),
    domain_preset("annulus"),
    HOLED,
    complement_region(SQUARE, box_region(-1, -1, 2, 2)),
    _moved(domain_preset("lshape"), 2.0**20, (0.0, 0.0)),
    _moved(domain_preset("annulus"), 1.0, (1e6, -1e6)),
]
# offsets from an edge, in units of the domain's length tolerance
OFFSETS = [0.0, 1.0, -1.0, 0.1, -0.1, 0.5, 2.0, -2.0, 1e3, 1e6]
OFFSETS += [s * (1.0 + e) for s in (1.0, -1.0) for e in (2.0**-52, -(2.0**-52))]


def _old_point_seg_dist(p, a, b):
    """The scalar boundary distance that `_edge_dists` batches."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / L2 if L2 != 0.0 else 0.0
    t = min(max(t, 0.0), 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return math.sqrt(ex * ex + ey * ey)


def _old_boundary_dist(d, p):
    return min(_old_point_seg_dist(p, a, b) for a, b in d.boundary_edges())


@st.composite
def point_on(draw, d):
    x0, y0, x1, y1 = d.bbox()
    kind = draw(st.sampled_from(["grid", "edge", "vertex", "free"]))
    if kind == "grid":
        h = draw(st.sampled_from([0.02, 0.05, 0.1]))
        i = draw(st.integers(0, int(round((x1 - x0) / h))))
        j = draw(st.integers(0, int(round((y1 - y0) / h))))
        return (x0 + i * h, y0 + j * h)
    if kind == "free":
        # a fine lattice: coordinates near 1e-300 make the scalar code
        # itself divide by an underflowed squared length
        fx, fy = draw(st.integers(0, 10**6)) / 1e6, draw(st.integers(0, 10**6)) / 1e6
        return (x0 - 0.1 + fx * (x1 - x0 + 0.2), y0 - 0.1 + fy * (y1 - y0 + 0.2))
    edges = d.boundary_edges()
    a, b = edges[draw(st.integers(0, len(edges) - 1))]
    t = 0.0 if kind == "vertex" else draw(st.just(0.5) | st.floats(1e-9, 1.0))
    off = draw(st.sampled_from(OFFSETS)) * d.tol
    normal = (a[1] - b[1], b[0] - a[0])
    ux, uy = draw(st.sampled_from([normal, (1.0, 0.0), (0.0, 1.0), (0.6, -0.8)]))
    L = float(np.hypot(ux, uy))
    return (
        a[0] + t * (b[0] - a[0]) + off * ux / L,
        a[1] + t * (b[1] - a[1]) + off * uy / L,
    )


@st.composite
def domain_and_points(draw):
    d = draw(st.sampled_from(DOMAINS))
    pts = draw(st.lists(point_on(d), min_size=1, max_size=16))
    return d, pts


@given(domain_and_points())
@settings(max_examples=150, deadline=None)
def test_point_predicates_match_scalar(case):
    d, pts = case
    P = np.array(pts, dtype=float)
    for part in d.parts:
        assert part.contains_many(P).tolist() == [part.contains(p) for p in pts]
        assert part.on_boundary_many(P).tolist() == [part.on_boundary(p) for p in pts]
    assert d.contains_many(P).tolist() == [d.contains(p) for p in pts]
    assert d.boundary_dist_many(P).tolist() == [_old_boundary_dist(d, p) for p in pts]


def _segments(d, pts, h):
    segs = list(zip(pts, pts[1:] + pts[:1]))
    # grid-edge-like segments from every point, as the graph build makes them
    steps = ((1, 0), (1, 1), (1, -1))
    segs += [(p, (p[0] + h * i, p[1] + h * j)) for p in pts for i, j in steps]
    # segments between boundary vertices, along and across edges
    edges = d.boundary_edges()
    segs += [(edges[0][0], e[1]) for e in edges[:: max(1, len(edges) // 6)]]
    A = np.array([a for a, _ in segs], dtype=float)
    B = np.array([b for _, b in segs], dtype=float)
    return segs, A, B


@given(domain_and_points(), st.sampled_from([0.02, 0.05]))
@settings(max_examples=150, deadline=None)
def test_segment_batch_matches_scalar(case, h):
    d, pts = case
    segs, A, B = _segments(d, pts, h)
    got = segments_in_domain(d, A, B).tolist()
    assert got == [segment_in_domain(d, a, b) for a, b in segs]


def _length(u, v):
    x, y = v[0] - u[0], v[1] - u[1]
    return math.sqrt(x * x + y * y)


@given(domain_and_points(), st.sampled_from([0.02, 0.05]))
@settings(max_examples=150, deadline=None)
def test_hit_candidates_are_exact(case, h):
    # a candidate the scalar code answers with [] must be one that the
    # batch cannot decide: the parallel branch, which a point also takes
    d, pts = case
    segs, A, B = _segments(d, pts, h)
    kept = set(zip(*hit_candidates(A, B, d.edge_array, d.tol)))
    for s, (a, b) in enumerate(segs):
        for e, (p, q) in enumerate(d.boundary_edges()):
            try:
                answered = bool(_seg_intersections(a, b, p, q, d.tol))
            except DegenerateGeometry:
                answered = True
            if answered:
                assert (s, e) in kept
            elif (s, e) in kept:
                denom = (b[0] - a[0]) * (q[1] - p[1]) - (b[1] - a[1]) * (q[0] - p[0])
                assert abs(denom) <= EPS * _length(a, b) * _length(p, q)


def test_segment_batch_near_collinear():
    # along, and within 1e-12 of, the lshape's edge (2,1)->(1,1) and on
    # past its reflex corner, exactly and not exactly parallel to it
    d = domain_preset("lshape")
    segs = [
        ((1.02, 1 + 1e-13), (0.3, 1 + 2e-13)),
        ((1.02, 1 - 1e-13), (0.3, 1 + 2e-13)),
        ((1.5, 1.0), (0.5, 1.0)),
        ((1.02, 1.0), (0.3, 1.0)),
    ]
    A = np.array([a for a, _ in segs])
    B = np.array([b for _, b in segs])
    want = [segment_in_domain(d, a, b) for a, b in segs]
    assert segments_in_domain(d, A, B).tolist() == want


# ---------------------------------------------------------------------------
# the scalar predicates' edge-box filter against the full scan


def _every_edge(boxes, a, b, tol):
    """The loop `near_edges` filters: every edge, in table order."""
    return [(p, q) for *_, p, q in boxes]


FILTER_DOMAINS = [
    *(domain_preset(name) for name in ("square", "lshape", "koch2", "annulus")),
    complement_region(SQUARE, box_region(-1, -1, 2, 2)),
    complement_region(domain_preset("annulus"), box_region(-3, -3, 3, 3)),
    PolygonalDomain(half_plane((0.6, -0.8), 0.3)),
]


@st.composite
def filter_case(draw):
    """A preset, a complement or a half-plane, scaled by 2^k (k in
    -10..6) and translated by up to 1e8, and three points: the first on,
    at or within a few length tolerances of an edge; the second likewise,
    or near the first, or along a line at 0 or 1e-13..1e-3 radians to
    the first's edge; the third anywhere near an edge."""
    shift = draw(
        st.just((0.0, 0.0)) | st.tuples(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))
    )
    scale = 2.0 ** draw(st.integers(-10, 6))
    d = _moved(draw(st.sampled_from(FILTER_DOMAINS)), scale, shift)
    edges = d.boundary_edges()

    def point(kind, e):
        p, q = edges[e]
        L = _length(p, q)
        t = 0.0 if kind == "vertex" else draw(st.just(0.5) | st.floats(0, 1))
        x, y = p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])
        if kind == "near":
            r, th = L * draw(st.floats(0, 1)), draw(st.floats(0, 2 * math.pi))
            return (x + r * math.cos(th), y + r * math.sin(th))
        off = draw(st.sampled_from(OFFSETS)) * d.tol if kind != "edge" else 0.0
        return (x + off * (p[1] - q[1]) / L, y + off * (q[0] - p[0]) / L)

    def edge():
        return draw(st.integers(0, len(edges) - 1))

    kinds = st.sampled_from(["edge", "vertex", "off"])
    e = edge()
    a = point(draw(kinds), e)
    how = draw(st.sampled_from(["point", "short", "parallel"]))
    if how == "point":
        b = point(draw(kinds), edge())
    else:
        p, q = edges[e]
        L = _length(p, q)
        th = math.atan2(q[1] - p[1], q[0] - p[0])
        if how == "short":
            r = L * 10.0 ** draw(st.floats(-8, -1))
            th = draw(st.floats(0, 2 * math.pi))
        else:
            r = L * draw(st.sampled_from([0.3, 1.0, 2.0, 10.0]))
            tilt = draw(st.just(0.0) | st.floats(-13, -3).map(lambda k: 10.0**k))
            th += draw(st.sampled_from([0.0, math.pi]))
            th += draw(st.sampled_from([1, -1])) * tilt
        b = (a[0] + r * math.cos(th), a[1] + r * math.sin(th))
    return d, a, b, point("near", edge())


def _answers(d, a, b, c):
    def pieces(part):
        try:
            return _pieces(PolyCurve([a, b, c], 1.0), part)
        except DegenerateGeometry as err:
            return str(err)

    mid = (a[0] + 0.5 * (b[0] - a[0]), a[1] + 0.5 * (b[1] - a[1]))
    out = [segment_in_domain(d, a, b), segment_in_domain(d, b, c)]
    for part in d.parts:
        out += [(part.on_boundary(x), part.classify(x)) for x in (a, b, c, mid)]
        out.append(pieces(part))
    return out


@given(filter_case())
@settings(max_examples=300, deadline=None)
def test_edge_box_filter_answers_as_the_full_scan(case):
    d, a, b, c = case
    got = _answers(d, a, b, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "near_edges", _every_edge)
        mp.setattr(domain, "near_edges", _every_edge)
        want = _answers(d, a, b, c)
    assert got == want


def _meets_widened_box(d, a, b, p, q):
    # the filter's box test, computed apart from it
    m = (math.dist(a, b) + math.dist(p, q)) / 64 + 4 * d.tol
    return all(
        min(p[k], q[k]) - m <= max(a[k], b[k])
        and min(a[k], b[k]) - m <= max(p[k], q[k])
        for k in (0, 1)
    )


@pytest.mark.parametrize(
    "name, a, b",
    [
        ("koch2", (0.5, 0.3), (0.52, 0.31)),
        ("koch2", (0.832, -0.031), (0.943, 0.161)),
        ("koch2", (0.61, 0.609), (0.499, 0.801)),
        ("koch2", (0.39, 0.609), (0.279, 0.417)),
        ("annulus", (1.5, 0.0), (1.0, 1.0)),
        ("annulus", (0.669, -0.815), (0.366, -1.064)),
        ("annulus", (-0.93, 0.497), (-0.745, 0.843)),
    ],
)
def test_edge_box_filter_stays_on(name, a, b):
    # an accepted segment runs `_edge_blocks` on exactly the edges whose
    # widened box meets its box, and on no other
    d = domain_preset(name)
    calls = 0
    edge_blocks = domain._edge_blocks

    def counted(*args):
        nonlocal calls
        calls += 1
        return edge_blocks(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain, "_edge_blocks", counted)
        assert segment_in_domain(d, a, b)
    want = sum(_meets_widened_box(d, a, b, p, q) for p, q in d.boundary_edges())
    assert calls == want < len(d.boundary_edges())


# ---------------------------------------------------------------------------
# membership: the even-odd pass over the whole edge table against the
# per-ring rule it replaced


def _old_in_ring(p, ring):
    # even-odd ray cast against one ring; p is off the ring itself
    x, y = p
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside


def _old_classify(region, p):
    """The per-ring rule: 0 on the boundary, else +1 in the outer ring
    and in no hole, -1 otherwise."""
    if region.on_boundary(p):
        return 0
    holes = region.holes
    inside = _old_in_ring(p, region.outer) and not any(_old_in_ring(p, h) for h in holes)
    return 1 if inside else -1


MEMBERSHIP_DOMAINS = [*FILTER_DOMAINS[:6], HOLED]


@st.composite
def membership_case(draw, bases=MEMBERSHIP_DOMAINS):
    """A preset, a complement or the two-hole region, turned by a
    multiple of a quarter, scaled by 2^k (k in -10..6) and translated by
    up to 1e8, and points: on lines of a grid over its box, on or within
    a few length tolerances of an edge or a vertex, at a mix of one
    ring's vertices (in and around holes and between them), or anywhere
    in the box widened by a tenth."""
    shift = draw(
        st.just((0.0, 0.0)) | st.tuples(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))
    )
    scale = 2.0 ** draw(st.integers(-10, 6))
    base = draw(st.sampled_from(bases))
    d = _moved(base, scale, shift, draw(st.integers(0, 3)))
    x0, y0, x1, y1 = d.bbox()
    w, h = x1 - x0, y1 - y0
    rings = d.rings()

    def point():
        kind = draw(st.sampled_from(["grid", "edge", "ring", "free"]))
        if kind == "grid":
            n = draw(st.sampled_from([10, 20, 50]))
            i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
            return (x0 + i * (w / n), y0 + j * (h / n))
        if kind == "edge":
            return draw(point_on(d))
        if kind == "ring":
            r = draw(st.sampled_from(rings))
            k = draw(st.lists(st.integers(0, len(r) - 1), min_size=1, max_size=3))
            return (sum(r[i][0] for i in k) / len(k), sum(r[i][1] for i in k) / len(k))
        fx, fy = draw(st.integers(0, 10**6)) / 1e6, draw(st.integers(0, 10**6)) / 1e6
        return (x0 - 0.1 * w + fx * 1.2 * w, y0 - 0.1 * h + fy * 1.2 * h)

    return d, [point() for _ in range(draw(st.integers(1, 16)))]


@given(membership_case())
@settings(max_examples=200, deadline=None)
def test_membership_equals_the_per_ring_rule(case):
    d, pts = case
    P = np.array(pts, dtype=float)
    for part in d.parts:
        want = [_old_classify(part, p) for p in pts]
        assert [part.classify(p) for p in pts] == want
        assert part.contains_many(P).tolist() == [c == 1 for c in want]


OUTER = [(0, 0), (4, 0), (4, 3), (0, 3)]
INNER = [(1, 1), (2, 1), (2, 2), (1, 2)]
AROUND = [(0.5, 0.5), (3.5, 0.5), (3.5, 2.5), (0.5, 2.5)]
MALFORMED_HOLES = {
    "outside": [[(5, 1), (6, 1), (6, 2)]],
    "nested": [AROUND, INNER],
    "nesting": [INNER, AROUND],
    # clockwise as given, so (0, 1) stays the first vertex
    "first-vertex-on-the-outer-ring": [[(0, 1), (1, 2), (1, 1)]],
    # the rest pass the first-vertex tests: only their edges meet
    "touching-the-outer-ring": [[(1, 1), (0, 1.5), (1, 2)]],
    # a plus sign, which the even-odd rule read as inside where they cross
    "crossing": [box_region(0.5, 1, 3, 1.5).outer, box_region(1.5, 0.5, 2, 2.5).outer],
    "touching": [INNER[::-1], [(2.5, 1), (2, 2), (3, 2)]],
}


@pytest.mark.parametrize("name", MALFORMED_HOLES)
def test_malformed_holes_are_rejected(name):
    with pytest.raises(ValueError, match="hole"):
        PolyRegion(OUTER, MALFORMED_HOLES[name])


# ---------------------------------------------------------------------------
# domains: the even-odd pass over all parts' rings against the per-part
# rule it replaced


def _old_domain_parts(d):
    """The domain's parts, each measuring lengths at the domain's one
    tolerance: `tol` is a cached property, so the instance's own entry
    stands in for it."""
    parts = [PolyRegion(part.outer, part.holes) for part in d.parts]
    for part in parts:
        part.__dict__["tol"] = d.tol
    return parts


def _old_domain_on_boundary(parts, p):
    return any(part.on_boundary(p) for part in parts)


def _old_domain_contains(parts, p):
    return any(part.contains(p) for part in parts)


def _old_domain_classify(parts, p):
    if _old_domain_on_boundary(parts, p):
        return 0
    return 1 if _old_domain_contains(parts, p) else -1


def _old_domain_contains_many(parts, P):
    out = np.zeros(len(P), dtype=bool)
    for part in parts:
        out |= part.contains_many(P)
    return out


def _old_domain_trace(f, parts):
    total = AtomicMeasure()
    for part in parts:
        total = total + normal_trace(f, part)
    return total


TWO_PARTS = PolygonalDomain(
    (box_region(0, 0, 1, 1), PolyRegion([(2, 0), (3, 0.5), (2.5, 1.5)]))
)
# a frame, its hole, and an island in the hole
NESTED = PolygonalDomain(
    (
        PolyRegion([(-1, -1), (5, -1), (5, 4), (-1, 4)], [OUTER]),
        PolyRegion([(1, 1), (3, 0.5), (3.5, 2.5), (1.5, 2)]),
    )
)
# the four presets, both complements, and the two domains above
DOMAIN_RULE_DOMAINS = [*FILTER_DOMAINS[:6], TWO_PARTS, NESTED]


@given(membership_case(DOMAIN_RULE_DOMAINS))
@settings(max_examples=200, deadline=None)
def test_domain_membership_equals_the_per_part_rule(case):
    d, pts = case
    parts = _old_domain_parts(d)
    P = np.array(pts, dtype=float)
    want = [_old_domain_classify(parts, p) for p in pts]
    assert [d.classify(p) for p in pts] == want
    assert [d.contains(p) for p in pts] == [c == 1 for c in want]
    assert [d.on_boundary(p) for p in pts] == [c == 0 for c in want]
    assert d.contains_many(P).tolist() == _old_domain_contains_many(parts, P).tolist()
    assert d.on_boundary_many(P).tolist() == [c == 0 for c in want]


def _trace_or_error(trace, f, E):
    try:
        return trace(f, E).atoms
    except DegenerateGeometry:
        return DegenerateGeometry


@st.composite
def domain_and_field(draw):
    """A case of `membership_case` over `DOMAIN_RULE_DOMAINS`, its points
    strung into one to four polylines of dyadic weights."""
    d, pts = draw(membership_case(DOMAIN_RULE_DOMAINS))
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=5))
        curves.append(PolyCurve([pts[i] for i in k], 2.0 ** draw(st.integers(-3, 3))))
    return d, CurveField(curves)


@given(domain_and_field())
# from the frame's corner through its hole's vertex to the island's: its
# ends and midpoint lie on the boundary, yet it is no boundary curve
@example((NESTED, CurveField([PolyCurve([(-1, -1), (1, 1)], 1.0)])))
# from the triangle's corner along the box's bottom edge: its ends and
# midpoint lie on the boundary, but on two parts' rings
@example((TWO_PARTS, CurveField([PolyCurve([(2, 0), (0, 0)], 1.0)])))
@settings(max_examples=200, deadline=None)
def test_domain_trace_equals_the_per_part_sum(case):
    d, f = case
    want = _trace_or_error(_old_domain_trace, f, _old_domain_parts(d))
    assert _trace_or_error(domain_trace, f, d) == want


BAND_OFFSETS = [
    s * o for s in (1, -1) for o in (0.2, 0.5, 0.8, 1, 1.5, 2, 2.5, 3, 4, 5)
]


def _left_of(a, b, o):
    """The point o 1e-12 to the left of edge (a, b)'s midpoint."""
    L = _length(a, b)
    return (
        (a[0] + b[0]) / 2 + o * 1e-12 * (a[1] - b[1]) / L,
        (a[1] + b[1]) / 2 + o * 1e-12 * (b[0] - a[0]) / L,
    )


def test_the_island_band_follows_the_domain_tolerance():
    # the annulus complement's island measured lengths at its own 1e-12;
    # the domain measures at 3e-12. Probes 0.2-5e-12 off every edge's
    # midpoint, both sides: only those 1e-12 to 3e-12 off the island's
    # edges answer differently from each part at its own tolerance
    comp = complement_region(domain_preset("annulus"), box_region(-3, -3, 3, 3))
    frame, island = comp.parts
    assert (comp.tol, frame.tol, island.tol) == (3e-12, 3e-12, 1e-12)
    moved_boundary, moved_contains = [], []
    for k, part in enumerate(comp.parts):
        for a, b in part.boundary_edges():
            for o in BAND_OFFSETS:
                p = _left_of(a, b, o)
                if comp.on_boundary(p) != any(q.on_boundary(p) for q in comp.parts):
                    moved_boundary.append((k, o))
                if comp.contains(p) != any(q.contains(p) for q in comp.parts):
                    moved_contains.append((k, o))
    moved = moved_boundary + moved_contains
    assert {k for k, _ in moved} == {1}
    assert all(1.0 <= abs(o) <= 3.0 for _, o in moved)
    assert (len(moved_boundary), len(moved_contains)) == (276, 136)
    # inside the island, 1.5e-12 off an edge: now a boundary point
    p = _left_of(*island.boundary_edges()[0], 1.5)
    assert island.classify(p) == 1 and comp.classify(p) == 0


# ---------------------------------------------------------------------------
# ring tables: the one nesting rule against the hole loop and the pairwise
# part rule it replaced


def _old_rings_meet(r, s, tol):
    """Whether an edge of r meets one of s within tol (a collinear
    overlap counts; only the `hit_candidates` pairs can meet)."""
    A, E, F = r.edge_array, r.boundary_edges(), s.boundary_edges()
    for i, j in zip(*hit_candidates(A[:, :2], A[:, 2:], s.edge_array, tol)):
        try:
            if _seg_intersections(*E[i], *F[j], tol):
                return True
        except DegenerateGeometry:
            return True
    return False


def _old_apart(r, s, tol):
    """Whether r and s lie outside one another: each one's first outer
    vertex classifies strictly outside the other, and their rings do not
    meet within tol."""
    if r.classify(s.outer[0]) != -1 or s.classify(r.outer[0]) != -1:
        return False
    return not _old_rings_meet(r, s, tol)


def _old_holes_valid(outer, holes):
    """The hole loop: each hole's first vertex strictly inside the outer
    ring and outside every other hole, and no hole meeting the outer ring
    or an earlier hole, at the region's length tolerance. A one-ring
    region normalizes a hole counterclockwise; its reverse is the hole
    as the region stores it."""
    outer, rings = PolyRegion(outer), [PolyRegion(h) for h in holes]
    stored = [r.outer[::-1] for r in rings]
    tol = EPS * max(abs(c) for ring in [outer.outer, *stored] for p in ring for c in p)
    for i, h in enumerate(stored):
        apart = [r.classify(h[0]) == -1 for r in rings[:i] + rings[i + 1 :]]
        met = (_old_rings_meet(r, rings[i], tol) for r in [outer] + rings[:i])
        if outer.classify(h[0]) != 1 or not all(apart) or any(met):
            return False
    return True


def _old_parts_valid(parts):
    tol = max(part.tol for part in parts)
    return all(_old_apart(r, s, tol) for r, s in combinations(parts, 2))


def _accepts(build, *args):
    try:
        build(*args)
    except ValueError:
        return False
    return True


@st.composite
def lattice_ring(draw, box=(0, 0, 32, 32)):
    """A box or a triangle, either way round, with its vertices on the
    1/8 lattice in `box` (given in eighths); a triangle has a side on an
    edge of the box and its third vertex on the opposite edge.
    Where the box is wide enough, at times it is first inset by one
    eighth to a third of its width on each side, and a box ring is then
    the inset box itself."""
    x0, y0, x1, y1 = box
    inset = x1 - x0 > 2 and y1 - y0 > 2 and draw(st.booleans())
    if inset:
        mx, my = st.integers(1, (x1 - x0) // 3), st.integers(1, (y1 - y0) // 3)
        x0, x1, y0, y1 = x0 + draw(mx), x1 - draw(mx), y0 + draw(my), y1 - draw(my)
    else:
        pair = partial(st.lists, min_size=2, max_size=2, unique=True)
        x0, x1 = sorted(draw(pair(st.integers(x0, x1))))
        y0, y1 = sorted(draw(pair(st.integers(y0, y1))))
    if draw(st.booleans()):
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    else:
        ax, ay = draw(st.integers(x0, x1)), draw(st.integers(y0, y1))
        sides = [
            [(x0, y0), (x1, y0), (ax, y1)],
            [(x0, y1), (x1, y1), (ax, y0)],
            [(x0, y0), (x0, y1), (x1, ay)],
            [(x1, y0), (x1, y1), (x0, ay)],
        ]
        ring = draw(st.sampled_from(sides))
    if draw(st.booleans()):
        ring = ring[::-1]
    return [(x / 8, y / 8) for x, y in ring]


def _eighths_box(ring):
    xs, ys = [round(8 * x) for x, _ in ring], [round(8 * y) for _, y in ring]
    return min(xs), min(ys), max(xs), max(ys)


@st.composite
def holed_ring_table(draw, holes=(1, 3), box=(0, 0, 32, 32)):
    """An outer ring in `box` and holes drawn in its bounding box: holes
    inside it, beside it, on it, nested, crossing or touching one
    another."""
    outer = draw(lattice_ring(box))
    inner = lattice_ring(_eighths_box(outer))
    return outer, draw(st.lists(inner, min_size=holes[0], max_size=holes[1]))


# first vertices within tol of another ring, whose edges leave it at too
# shallow an angle to meet that ring within tol
GRAZING_HOLE = [(5e-13, 1.5), (0.001, 2.0), (2, 1.5), (0.001, 1.0)]
GRAZING_PART = [(1 + 5e-13, 0.5), (1.001, -1000), (3, 0), (1.001, 1000)]


@given(holed_ring_table())
@example((OUTER, MALFORMED_HOLES["crossing"]))
@example((OUTER, [GRAZING_HOLE]))
@settings(max_examples=400, deadline=None)
def test_the_nesting_rule_accepts_the_regions_the_hole_loop_accepted(case):
    outer, holes = case
    accepted = _accepts(PolyRegion, outer, holes)
    assert accepted == _old_holes_valid(outer, holes)
    if accepted:
        region = PolyRegion(outer, holes)
        assert regions.ring_nesting(region.rings(), region.tol) == [[]] + [[0]] * len(holes)


@st.composite
def parts_and_points(draw):
    """The valid ones of two or three parts, each drawn in a cell 6 to 16
    eighths wide: a box or a triangle, at times a ring with at most one
    hole, and the cell's box with a hole; and mostly an island drawn in
    a part's hole. Points on the 1/16 lattice."""

    def cell():
        x, y = draw(st.integers(0, 16)), draw(st.integers(0, 16))
        return x, y, x + draw(st.integers(6, 16)), y + draw(st.integers(6, 16))

    x0, y0, x1, y1 = frame = cell()
    tables = [(draw(lattice_ring(cell())), [])]
    tables += [draw(holed_ring_table((0, 1), cell())) for _ in range(draw(st.integers(0, 1)))]
    box = [(x0 / 8, y0 / 8), (x1 / 8, y0 / 8), (x1 / 8, y1 / 8), (x0 / 8, y1 / 8)]
    tables.append((box, [draw(lattice_ring(frame))]))
    parts = [PolyRegion(*t) for t in tables if _accepts(PolyRegion, *t)]
    holed = [p for p in parts if p.holes]
    if holed and draw(st.integers(0, 3)):
        hole = draw(st.sampled_from(holed)).holes[0]
        island = PolyRegion(draw(lattice_ring(_eighths_box(hole))))
        parts.insert(draw(st.integers(0, len(parts))), island)
    grid = st.tuples(st.integers(-8, 72), st.integers(-8, 72))
    pts = [(x / 16, y / 16) for x, y in draw(st.lists(grid, min_size=10, max_size=10))]
    return parts, pts


@given(parts_and_points())
@example(
    (
        [
            PolyRegion(box_region(0, 0, 4, 4).outer, [box_region(1, 1, 3, 3).outer]),
            box_region(1.5, 1.5, 2.5, 2.5),
        ],
        [(-0.5, -0.5), (0.5, 0.5), (1.2, 1.2), (2.0, 2.0), (3.0, 2.0)],
    )
)
@example(([box_region(0, 0, 1, 1), PolyRegion(GRAZING_PART)], [(0.5, 0.5)]))
@settings(max_examples=400, deadline=None)
def test_the_nesting_rule_accepts_the_domains_the_part_rule_accepted(case):
    parts, pts = case
    accepted = _accepts(PolygonalDomain, parts)
    assert accepted == _old_parts_valid(parts)
    if accepted:
        d = PolygonalDomain(parts)
        comp = complement_region(d, box_region(-1, -1, 5, 5))
        assert [comp.classify(p) for p in pts] == [-d.classify(p) for p in pts]
