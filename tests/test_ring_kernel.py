"""The batched ring kernel must give the scalar predicates' answers
exactly: membership, on-boundary tests, boundary distance and segment
visibility, on grid points and on points on or within 1e-12 of edges
and vertices."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dmfields import (
    PolyRegion,
    PolygonalDomain,
    box_region,
    complement_region,
    domain_preset,
)
from dmfields.domain import segment_in_domain, segments_in_domain
from dmfields.regions import EPS

HOLED = PolygonalDomain(
    PolyRegion(
        [(0, 0), (4, 0), (4, 3), (0, 3)],
        [[(1, 1), (2, 1), (2, 2), (1, 2)], [(2.5, 0.5), (3.5, 1.5), (2.5, 2.5)]],
    )
)
SQUARE = domain_preset("square")
DOMAINS = [
    SQUARE,
    domain_preset("lshape"),
    domain_preset("koch2"),
    domain_preset("annulus"),
    HOLED,
    complement_region(SQUARE, box_region(-1, -1, 2, 2)),
]
OFFSETS = [0.0, EPS, -EPS, 1e-13, -1e-13, 5e-13, 2e-12, -2e-12, 1e-9, 1e-6]


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
    off = draw(st.sampled_from(OFFSETS))
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
        for tol in (EPS, 1e-9):
            assert part.on_boundary_many(P, tol).tolist() == [
                part.on_boundary(p, tol) for p in pts
            ]
    assert d.contains_many(P).tolist() == [d.contains(p) for p in pts]
    assert d.boundary_dist_many(P).tolist() == [d.boundary_dist(p) for p in pts]


@given(domain_and_points(), st.sampled_from([0.02, 0.05]))
@settings(max_examples=150, deadline=None)
def test_segment_batch_matches_scalar(case, h):
    d, pts = case
    segs = list(zip(pts, pts[1:] + pts[:1]))
    # grid-edge-like segments from every point, as the graph build makes them
    steps = ((1, 0), (1, 1), (1, -1))
    segs += [(p, (p[0] + h * i, p[1] + h * j)) for p in pts for i, j in steps]
    # segments between boundary vertices, along and across edges
    edges = d.boundary_edges()
    segs += [(edges[0][0], e[1]) for e in edges[:: max(1, len(edges) // 6)]]
    A = np.array([a for a, _ in segs], dtype=float)
    B = np.array([b for _, b in segs], dtype=float)
    got = segments_in_domain(d, A, B).tolist()
    assert got == [segment_in_domain(d, a, b) for a, b in segs]


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
