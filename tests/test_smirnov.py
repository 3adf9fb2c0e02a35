import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import deque
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dmfields import (
    CurveField,
    DimensionMismatch,
    FlowGraph,
    GridField,
    LeftGrid,
    MalformedLift,
    PolyCurve,
    field_divergence,
    field_mass,
    flow_trace,
    graph_decompose,
    lift_solenoidal,
    mollify,
    project_curves,
    reconstruct_check,
    snap_to_graph,
    transport_invariant,
)
from dmfields import smirnov
from dmfields.acceptance import _preset_loops
from dmfields.core import dist
from dmfields.smirnov import _interior_nodes

grid_pt = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda p: (float(p[0]), float(p[1]))
)
dyadic = st.integers(1, 16).map(lambda k: k / 16.0)
# 1-4 polylines of 2-4 points on the 4 x 4 grid, weights k/16
grid_specs = st.lists(
    st.tuples(st.lists(grid_pt, min_size=2, max_size=4), dyadic),
    min_size=1,
    max_size=4,
)


def _grid_field(draw_curves):
    return CurveField([PolyCurve(pts, w) for pts, w in draw_curves])


def test_snap_merges_and_cancels():
    # two opposite unit segments on the same edge cancel completely
    f = CurveField(
        [
            PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0),
            PolyCurve([(1.0, 0.0), (0.0, 0.0)], 1.0),
        ]
    )
    g = snap_to_graph(f)
    assert g.edges == ()


def test_snap_splits_at_interior_nodes():
    f = CurveField(
        [
            PolyCurve([(0.0, 0.0), (2.0, 0.0)], 1.0),
            PolyCurve([(1.0, 0.0), (1.0, 1.0)], 0.5),
        ]
    )
    g = snap_to_graph(f)
    pairs = {(g.nodes[u], g.nodes[v]) for u, v, _ in g.edges}
    assert ((0.0, 0.0), (1.0, 0.0)) in pairs
    assert ((1.0, 0.0), (2.0, 0.0)) in pairs


def test_snap_imbalance_matches_divergence():
    f = CurveField([PolyCurve([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 0.75)])
    g = snap_to_graph(f)
    div = field_divergence(f)
    for p, i in zip(g.nodes, g.imbalance):
        assert i == pytest.approx(div.coefficient(p))


def test_decompose_splits_paths_then_cycles():
    f = CurveField(
        [
            PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0),
            PolyCurve([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)], 0.5),
        ]
    )
    parts = graph_decompose(snap_to_graph(f))
    kinds = sorted(c.is_closed for c in parts)
    assert kinds == [False, True]


def test_decompose_is_exact_for_dyadic_weights():
    f = CurveField(
        [
            PolyCurve([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 0.25),
            PolyCurve([(1.0, 0.0), (2.0, 0.0)], 0.75),
            PolyCurve([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0)], 0.5),
        ]
    )
    parts = graph_decompose(snap_to_graph(f))
    back = snap_to_graph(CurveField(parts))
    orig = snap_to_graph(f)
    assert back.nodes == orig.nodes
    assert back.edges == orig.edges


@given(grid_specs)
@settings(max_examples=80, deadline=None)
def test_decompose_recomposes_any_snapped_field(specs):
    try:
        f = _grid_field(specs)
    except ValueError:
        return  # all-duplicate vertex lists
    orig = snap_to_graph(f)
    parts = graph_decompose(orig)
    if not orig.edges:
        assert parts == []
        return
    back = snap_to_graph(CurveField(parts))
    assert back.nodes == orig.nodes
    for e1, e2 in zip(back.edges, orig.edges):
        assert e1[:2] == e2[:2]
        assert e1[2] == pytest.approx(e2[2], abs=1e-12)


def test_lift_has_no_divergence_and_projects_back():
    f = CurveField([PolyCurve([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 2.0)])
    lifted = lift_solenoidal(f)
    assert field_divergence(lifted).atoms == ()
    planar = project_curves(graph_decompose(snap_to_graph(lifted)))
    back = snap_to_graph(CurveField(planar))
    orig = snap_to_graph(f)
    assert back.nodes == orig.nodes
    assert back.edges == orig.edges


def test_lifted_segment_is_not_split_at_the_raised_vertex_copy():
    # (1,0) is a source, so the lift has (1,0,1) above the height-0
    # segment (0,0)->(2,0); the snap must split that segment at (1,0,0)
    f = CurveField(
        [PolyCurve([(0, 0), (2, 0)]), PolyCurve([(1, 0), (1, 1)], 0.5)]
    )
    lifted = snap_to_graph(lift_solenoidal(f))
    for u, v, _ in lifted.edges:
        a, b = lifted.nodes[u], lifted.nodes[v]
        assert a[2] == b[2] or a[:2] == b[:2]
    planar = project_curves(graph_decompose(lifted))
    back = snap_to_graph(CurveField(planar))
    orig = snap_to_graph(f)
    assert back.nodes == orig.nodes
    assert back.edges == orig.edges


@given(grid_specs)
# a lifted cycle that visits height 0 twice
@example(
    [
        ([(2.0, 3.0), (1.0, 0.0)], 0.125),
        ([(1.0, 1.0), (2.0, 3.0), (0.0, 0.0)], 0.0625),
        ([(3.0, 1.0), (0.0, 1.0), (0.0, 0.0)], 0.125),
        ([(3.0, 1.0), (1.0, 0.0)], 0.125),
    ]
)
@settings(max_examples=80, deadline=None)
def test_solenoidal_round_trip_recomposes_grid_fields(specs):
    # several sources and sinks, segments spanning several grid steps
    try:
        f = _grid_field(specs)
    except ValueError:
        return  # all-duplicate vertex lists
    planar = project_curves(graph_decompose(snap_to_graph(lift_solenoidal(f))))
    back = snap_to_graph(CurveField(planar))
    orig = snap_to_graph(f)
    assert back.nodes == orig.nodes
    assert back.edges == orig.edges


# `snap_to_graph`, its split pass and `graph_decompose` as they were
# written before the representative map, the single cancellation key,
# the sorted-x windows and the peel's cursors: references that the
# current versions must equal with ==.


def _old_interior_nodes(segs, reps, tol):
    # every node projected onto every segment in one dense pass
    hits = [[] for _ in segs]
    if not segs:
        return hits
    R = np.array(reps, dtype=float)
    A = np.array([a for a, _, _ in segs], dtype=float)
    D = np.array([b for _, b, _ in segs], dtype=float) - A
    L = np.array([dist(a, b) for a, b, _ in segs])
    step = max(1, (1 << 16) // len(reps))
    for s0 in range(0, len(segs), step):
        a, d, l = (X[s0 : s0 + step, None] for X in (A, D, L))
        ts = ((R - a) * d).sum(axis=2) / (l * l)
        gap = ((a + ts[..., None] * d - R) ** 2).sum(axis=2)
        lo = tol / l
        near = (lo < ts) & (ts < 1 - lo) & (gap <= 4 * tol * tol)
        for i, j in zip(*(x.tolist() for x in np.nonzero(near))):
            (a0, b0, _), r, t = segs[s0 + i], reps[j], float(ts[i, j])
            if r == a0 or r == b0:
                continue
            proj = tuple(ak + t * (bk - ak) for ak, bk in zip(a0, b0))
            if dist(proj, r) <= tol:
                hits[s0 + i].append((t, r))
    return hits


def _old_snap_to_graph(f, tol=1e-9):
    raw = []
    for c in f:
        raw.extend(c.vertices)
    reps = []

    def rep(p):
        for r in reps:
            if dist(p, r) <= tol:
                return r
        reps.append(p)
        return p

    for p in sorted(set(raw)):
        rep(p)
    segs = []
    for c in f:
        for a, b in c.segments():
            u, v = rep(a), rep(b)
            if u != v:
                segs.append((u, v, c.weight))
    pieces = []
    for (a, b, w), hits in zip(segs, _old_interior_nodes(segs, reps, tol)):
        pts = [a] + [r for _, r in sorted(hits)] + [b]
        pieces.extend((u, v, w) for u, v in zip(pts, pts[1:]))
    acc = {}
    for u, v, w in pieces:
        if (v, u) in acc or ((u, v) not in acc and (v, u) < (u, v)):
            acc[(v, u)] = acc.get((v, u), 0.0) - w
        else:
            acc[(u, v)] = acc.get((u, v), 0.0) + w
    used_nodes = sorted(
        {u for (u, v), w in acc.items() if w != 0.0}
        | {v for (u, v), w in acc.items() if w != 0.0}
    )
    index = {p: i for i, p in enumerate(used_nodes)}
    edges = []
    for (u, v), w in sorted(acc.items()):
        if w > 0.0:
            edges.append((index[u], index[v], w))
        elif w < 0.0:
            edges.append((index[v], index[u], -w))
    imb = [0.0] * len(used_nodes)
    for u, v, w in edges:
        imb[u] += w
        imb[v] -= w
    return FlowGraph(tuple(used_nodes), tuple(sorted(edges)), tuple(imb))


def _old_graph_decompose(g, tol=1e-12):
    w = {}
    out = {}
    for u, v, wt in g.edges:
        w[(u, v)] = w.get((u, v), 0.0) + wt
        out.setdefault(u, []).append(v)
    for u in out:
        out[u] = sorted(set(out[u]), key=lambda v: g.nodes[v])
    imb = list(g.imbalance)

    def live(u, v):
        return w.get((u, v), 0.0) > tol

    def walk_to_sink(s):
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if imb[u] < -tol and u != s:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            for v in out.get(u, []):
                if live(u, v) and v not in parent:
                    parent[v] = u
                    queue.append(v)
        return None

    curves = []
    node_order = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i])
    while True:
        sources = [i for i in node_order if imb[i] > tol]
        if not sources:
            break
        path = walk_to_sink(sources[0])
        if path is None:
            break
        amt = min(w[(u, v)] for u, v in zip(path, path[1:]))
        amt = min(amt, imb[path[0]], -imb[path[-1]])
        for u, v in zip(path, path[1:]):
            w[(u, v)] -= amt
        imb[path[0]] -= amt
        imb[path[-1]] += amt
        curves.append(PolyCurve([g.nodes[i] for i in path], amt))
    while True:
        starts = [
            u
            for u in node_order
            if any(live(u, v) for v in out.get(u, []))
        ]
        if not starts:
            break
        s = starts[0]
        path = [s]
        pos = {s: 0}
        while True:
            u = path[-1]
            nxt = next((v for v in out.get(u, []) if live(u, v)), None)
            if nxt is None:
                if len(path) > 1:
                    w[(path[-2], path[-1])] = 0.0
                else:
                    for v in out.get(u, []):
                        w[(u, v)] = 0.0
                break
            if nxt in pos:
                cyc = path[pos[nxt]:] + [nxt]
                amt = min(w[(a, b)] for a, b in zip(cyc, cyc[1:]))
                for a, b in zip(cyc, cyc[1:]):
                    w[(a, b)] -= amt
                curves.append(PolyCurve([g.nodes[i] for i in cyc], amt))
                break
            path.append(nxt)
            pos[nxt] = len(path) - 1
    return curves


# grid points moved by less than 2.5e-9: chains of points each within
# the 1e-9 tolerance of the next, also along one vertical line, and
# points within it of two points that are not within it of each other,
# so the order in which vertices meet their representatives decides the
# merge
_NEAR = [
    (0.0, 0.0),
    (6e-10, 0.0),
    (1.2e-9, 0.0),
    (0.0, 6e-10),
    (0.0, 1.2e-9),
    (0.0, 1.8e-9),
    (0.0, 2.4e-9),
    (4e-10, 4e-10),
    (-5e-10, 5e-10),
]
chain_pt = st.tuples(
    st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), st.sampled_from(_NEAR)
).map(lambda t: (t[0][0] + t[1][0], t[0][1] + t[1][1]))


def _with_reverses(specs):
    curves = []
    for pts, w, reverse in specs:
        curves.append((pts, w))
        if reverse:  # an antiparallel duplicate
            curves.append((pts[::-1], w))
    return curves


chain_curves = st.lists(
    st.tuples(
        st.lists(chain_pt, min_size=2, max_size=5),
        st.one_of(dyadic, st.floats(0.1, 2.0)),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
).map(_with_reverses)
# a few real points and large real weights: segments repeat in both
# directions, and the peel's float residues exceed its 1e-12 tolerance,
# so cycle walks reach dead ends
_POOL = [(0.3, -0.7), (-0.45, 0.2), (0.8, 0.65), (-0.1, -0.35)]
pool_curves = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_POOL), min_size=2, max_size=5),
        st.floats(1e3, 1e5),
    ),
    min_size=1,
    max_size=8,
)


@given(
    st.one_of(chain_curves, pool_curves),
    st.booleans(),
    # at 1e8, 2 tol = 2e-9 falls below one ulp of the coordinates
    st.sampled_from([0.0, 1e3, 1e6, 1e8]),
)
# a residue of about 7e-12 stays on the edge into (-0.1, -0.35): a dead end
@example([([_POOL[0], _POOL[3]], 73100.2), ([_POOL[2], _POOL[3]], 30418.1)], False, 0.0)
@settings(max_examples=400, deadline=None)
def test_snap_and_peel_equal_the_two_pass_reference(curves, lifted, offset):
    curves = [([(x + offset, y + offset) for x, y in p], w) for p, w in curves]
    try:
        f = _grid_field(curves)
    except ValueError:
        return  # all-duplicate vertex lists
    if lifted:
        f = lift_solenoidal(f)
    g = snap_to_graph(f)
    assert g == _old_snap_to_graph(f)
    got = [(c.vertices, c.weight) for c in graph_decompose(g)]
    assert got == [(c.vertices, c.weight) for c in _old_graph_decompose(g)]


@st.composite
def flow_graphs(draw):
    """Hand-built graphs with distinct node points in no particular
    order, repeated edges, both orientations of an edge and weights at
    or below the peel's 1e-12; imbalances are out minus in."""
    pts = draw(st.lists(grid_pt, min_size=2, max_size=6, unique=True))
    node = st.integers(0, len(pts) - 1)
    weight = st.one_of(dyadic, st.floats(0.1, 2.0), st.sampled_from([1e-13, 5e-13, 1e-12]))
    edges = []
    for u, v, wt, back in draw(st.lists(st.tuples(node, node, weight, st.booleans()), max_size=12)):
        if u != v:
            edges.append((u, v, wt))
            if back:
                edges.append((v, u, draw(weight)))
    imb = [0.0] * len(pts)
    for u, v, wt in edges:
        imb[u] += wt
        imb[v] -= wt
    return FlowGraph(tuple(pts), tuple(edges), tuple(imb))


@given(flow_graphs())
@settings(max_examples=400, deadline=None)
def test_peel_equals_the_two_pass_reference_on_hand_built_graphs(g):
    got = [(c.vertices, c.weight) for c in graph_decompose(g)]
    assert got == [(c.vertices, c.weight) for c in _old_graph_decompose(g)]


# nodes at tol (1 - 2^-52), tol and tol (1 + 2^-52) from a segment's
# interior or ends, where rounding decides the split
_ULP_FACTORS = [0.0, 0.5, 1 - 2.0**-52, 1.0, 1 + 2.0**-52, 2.0]
_ENDS = [0.0, 2.0**-52, 1e-10, 1 - 1e-10, 1 - 2.0**-53, 1.0]


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _unit(v):
    n = math.hypot(*v)
    return tuple(x / n for x in v)


@st.composite
def split_cases(draw):
    """Segments, sorted nodes and a tol: segments of any slope, with
    zero width on an axis (horizontal, vertical and, lifted, risers),
    and nodes moved off them across the tolerance."""
    dim = draw(st.sampled_from([2, 3]))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6, 1e8]))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    coord = st.one_of(st.integers(0, 3).map(float), st.floats(0, 3))
    segs, nodes = [], []
    for _ in range(draw(st.integers(1, 4))):
        a = [draw(coord) + offset, draw(coord) + offset]
        a += [draw(st.sampled_from([0.0, 1.0]))] * (dim - 2)
        kind = draw(st.sampled_from(["any", "horizontal", "vertical", "riser"][: dim + 1]))
        b = list(a)
        if kind == "riser":
            b[2] = 1.0 - a[2]
        else:
            if kind != "vertical":
                b[0] = draw(coord) + offset
            if kind != "horizontal":
                b[1] = draw(coord) + offset
        a, b = tuple(a), tuple(b)
        if dist(a, b) ** 2 == 0.0:
            continue  # no length to project onto
        segs.append((a, b, 1.0))
        nodes += [a, b]
        d = _unit([y - x for x, y in zip(a, b)])
        across = _unit((-d[1], d[0], 0.0)[:dim] if d[:2] != (0.0, 0.0) else (1.0, 0.0, 0.0))
        for _ in range(draw(st.integers(0, 4))):
            t = draw(st.one_of(st.sampled_from(_ENDS), st.floats(0, 1)))
            u = draw(st.sampled_from([across, d, tuple(-x for x in d), _unit([1.0] * dim)]))
            f = draw(st.sampled_from(_ULP_FACTORS)) * tol
            # the rounded projection point, moved by f tol, then by ulps
            p = [x + t * (y - x) for x, y in zip(a, b)]
            p = [x + f * e for x, e in zip(p, u)]
            p = tuple(_ulps(x, draw(st.integers(-3, 3))) for x in p)
            nodes.append(p)
            if dim == 3:  # the other layer's copy of the node
                nodes.append(p[:2] + (1.0 - p[2],))
    return segs, sorted(set(nodes)), tol


@given(split_cases())
# a node 1e-163 off the segment: its squared distance underflows to 0
@example(([((0.0, 0.0), (1e-150, 0.0), 1.0)], [(0.0, 0.0), (5e-151, 1e-163), (1e-150, 0.0)], 0.0))
@settings(max_examples=400, deadline=None)
def test_split_pass_equals_the_dense_reference(case):
    segs, reps, tol = case
    # the split pass takes segment ends and gives hits as indices into reps
    index = {p: i for i, p in enumerate(reps)}
    hits = _interior_nodes([(index[a], index[b], w) for a, b, w in segs], reps, tol)
    got = [[(t, reps[n]) for t, n in h] for h in hits]
    assert got == _old_interior_nodes(segs, reps, tol)


def test_snap_makes_few_dist_calls_per_vertex(monkeypatch):
    # 1,000 distinct real vertices; scanning every earlier
    # representative for each vertex makes about 500 calls per vertex
    pts = [tuple(p) for p in np.random.default_rng(3).uniform(-1, 1, (1000, 2))]
    f = CurveField([PolyCurve(pts[i : i + 5]) for i in range(0, 1000, 5)])
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return dist(p, q)

    monkeypatch.setattr(smirnov, "dist", counted)
    g = snap_to_graph(f)
    assert len(g.nodes) == 1000
    assert calls <= 10 * 1000


def _path_graph(*nodes):
    # one unit of flow along the nodes in order
    n = len(nodes)
    edges = tuple((i, i + 1, 1.0) for i in range(n - 1))
    return FlowGraph(tuple(nodes), edges, (1.0,) + (0.0,) * (n - 2) + (-1.0,))


def test_decompose_rejects_a_non_finite_node_on_a_path():
    with pytest.raises(ValueError):
        graph_decompose(_path_graph((0.0, 0.0), (math.nan, 0.0), (1.0, 0.0)))


def test_decompose_rejects_mixed_dimensions_on_a_path():
    with pytest.raises(DimensionMismatch):
        graph_decompose(_path_graph((0.0, 0.0), (1.0, 0.0, 0.0)))


def test_decompose_builds_curves_as_polycurve_does():
    # equal points on one path are one vertex; integers become floats
    nodes = ((0, 0), (1, 0), (1.0, 0.0), (2, 1))
    (c,) = graph_decompose(_path_graph(*nodes))
    want = PolyCurve(nodes, 1.0)
    assert (c.vertices, c.weight) == (want.vertices, want.weight)
    assert all(type(x) is float for p in c.vertices for x in p)


def test_project_keeps_flat_curves_and_drops_raised_ones():
    flat = PolyCurve([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], 1.0)
    high = PolyCurve([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)], 1.0)
    out = project_curves([flat, high])
    assert len(out) == 1
    assert out[0].vertices == ((0.0, 0.0), (1.0, 0.0))


def test_project_rejects_non_vertical_descent():
    bad = PolyCurve([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], 1.0)
    with pytest.raises(MalformedLift):
        project_curves([bad])


def test_project_splits_flat_runs_into_curves():
    c = PolyCurve(
        [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (1.0, 0.0, 1.0),
            (2.0, 0.0, 1.0),
            (2.0, 0.0, 0.0),
            (3.0, 0.0, 0.0),
        ],
        1.0,
    )
    assert project_curves([c]) == [
        PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0),
        PolyCurve([(2.0, 0.0), (3.0, 0.0)], 1.0),
    ]


def test_project_splits_a_closed_cycle_with_two_flat_runs():
    # the list starts inside a run, so that run wraps around its end
    c = PolyCurve(
        [
            (0.5, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (1.0, 0.0, 1.0),
            (2.0, 0.0, 1.0),
            (2.0, 0.0, 0.0),
            (3.0, 0.0, 0.0),
            (3.0, 0.0, 1.0),
            (0.0, 0.0, 1.0),
            (0.0, 0.0, 0.0),
            (0.5, 0.0, 0.0),
        ],
        0.5,
    )
    assert project_curves([c]) == [
        PolyCurve([(2.0, 0.0), (3.0, 0.0)], 0.5),
        PolyCurve([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 0.5),
    ]


def test_project_rejects_a_flat_point_between_risers():
    c = PolyCurve([(0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)], 1.0)
    with pytest.raises(MalformedLift, match="flat portion has no length"):
        project_curves([c])


def _old_project_curves(curves, tol=1e-9):
    # the single-run rule: a curve's height-zero vertices must be one
    # contiguous run (cyclically, for closed curves)
    out = []
    for c in curves:
        if c.dimension != 3:
            raise MalformedLift("projection expects spatial curves")
        zs = [abs(v[2]) <= tol for v in c.vertices]
        if not any(zs):
            continue
        if all(zs):
            out.append(PolyCurve([(v[0], v[1]) for v in c.vertices], c.weight))
            continue
        verts = list(c.vertices)
        flags = list(zs)
        closed = c.is_closed
        if closed:
            verts = verts[:-1]
            flags = flags[:-1]
            n = len(verts)
            start = next(
                i for i in range(n) if flags[i] and not flags[(i - 1) % n]
            )
            verts = verts[start:] + verts[:start]
            flags = flags[start:] + flags[:start]
            verts.append(verts[0])
            flags.append(False)
        idx = [i for i, z in enumerate(flags) if z]
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise MalformedLift("height-zero vertices are not contiguous")
        if len(idx) < 2:
            raise MalformedLift("flat portion has no length")
        lo, hi = idx[0], idx[-1]
        checks = [(lo - 1, lo), (hi + 1, hi)]
        if closed and lo == 0:
            checks.append((len(verts) - 2, 0))
        for j, k in checks:
            if 0 <= j < len(verts):
                a, b = verts[j], verts[k]
                if abs(a[0] - b[0]) > tol or abs(a[1] - b[1]) > tol:
                    raise MalformedLift(
                        "flat portion not entered by a vertical segment"
                    )
        out.append(
            PolyCurve([(v[0], v[1]) for v in verts[lo : hi + 1]], c.weight)
        )
    return out


@given(grid_specs, st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_project_equals_the_single_run_rule_where_it_returns(specs, cut):
    # each lifted cycle as peeled, and opened by dropping one edge
    try:
        f = _grid_field(specs)
    except ValueError:
        return  # all-duplicate vertex lists
    for c in graph_decompose(snap_to_graph(lift_solenoidal(f))):
        assert c.is_closed
        v = c.vertices[:-1]
        k = cut % len(v)
        for curve in (c, PolyCurve(v[k:] + v[:k], c.weight)):
            try:
                want = _old_project_curves([curve])
            except MalformedLift:
                continue
            assert project_curves([curve]) == want


def test_project_rejects_planar_input():
    with pytest.raises(MalformedLift):
        project_curves([PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0)])


@pytest.fixture(scope="module")
def ring_grid():
    n = 64
    ring = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    ring.append(ring[0])
    return mollify(CurveField([PolyCurve(ring, 1.0)]), 0.15, 0.03)


def test_mollify_of_an_empty_field_is_the_default_grid():
    gf = mollify(CurveField([]), 0.1, 0.05)
    assert gf.shape == (17, 17)  # +-4 eps around the origin
    assert gf.origin == pytest.approx((-0.4, -0.4), abs=1e-15)


def test_mollify_of_a_point_curve_has_only_the_tau_floor():
    gf = mollify(CurveField([PolyCurve([(0.3, 0.3), (0.3, 0.3)])]), 0.1, 0.05)
    assert gf.total_tau() == pytest.approx(0.1, rel=1e-12)


def test_mollify_preserves_variation_mass(ring_grid):
    gf = ring_grid
    f_mass = field_mass(
        CurveField(
            [
                PolyCurve(
                    [
                        (math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64))
                        for k in range(65)
                    ],
                    1.0,
                )
            ]
        )
    )
    # tau integrates to the variation mass plus the eps floor
    assert gf.total_tau() == pytest.approx(f_mass + gf.eps, rel=1e-3)


def test_flow_follows_the_ring(ring_grid):
    c = flow_trace(ring_grid, (1.0, 0.0), T=1.0, dt=1e-3)
    radii = [math.hypot(*p) for p in c.vertices]
    assert max(abs(r - 1.0) for r in radii) < 0.05


def test_transport_invariant_is_small(ring_grid):
    assert transport_invariant(ring_grid, (1.0, 0.0), T=0.5) < 0.05


def test_mollify_rejects_a_spatial_field():
    # it used to deposit x and y only and weigh the mass by 3-D length
    loop = PolyCurve([(0.2, 0.2, 0), (0.8, 0.2, 0), (0.8, 0.8, 3), (0.2, 0.2, 0)], 1.0)
    with pytest.raises(DimensionMismatch):
        mollify(CurveField([loop]), 0.1, 0.02)


@pytest.mark.parametrize(
    "eps, h",
    [(math.inf, 0.02), (1e308, 0.02), (math.nan, 0.02), (0.1, math.inf), (0.1, 1e-320)],
)
def test_mollify_needs_finite_constants_and_grid(eps, h):
    # inf and 1e308 used to end in an OverflowError
    loop = PolyCurve([(0, 0), (1, 0), (1, 1), (0, 0)], 1.0)
    with pytest.raises(ValueError):
        mollify(CurveField([loop]), eps, h)


def test_mollify_rejects_a_tau_that_is_not_positive():
    # the floor used to be a unit-width bump at the support's centroid:
    # on the L of side 8 (17 cells) and of side 10 (5,523 cells) FFT
    # round-off outweighed it. The even floor holds there; at weight
    # 1e12 round-off outweighs eps, and sigma = f / tau would be garbage
    def l_curve(L, w=1.0):
        return CurveField([PolyCurve([(0, 0), (L, 0), (L, L)], w)])

    for L in (5, 8, 10):
        assert mollify(l_curve(L), 0.1, 0.02).tau.min() > 0
    with pytest.raises(ValueError, match="tau"):
        mollify(l_curve(10, 1e12), 0.1, 0.02)
    tau = np.ones((3, 3))
    for bad in (0.0, -1e-16, math.nan):
        tau[1, 1] = bad
        with pytest.raises(ValueError, match="tau"):
            GridField((0.0, 0.0), 1.0, 0.1, np.ones((3, 3)), np.ones((3, 3)), tau)


def test_mollify_where_h_squared_underflows_rejects_tau():
    # at this scale h * h is 0.0; the floor divides by h twice, so it is
    # inf, tau NaN and GridField raises, not a ZeroDivisionError
    s = 2.0**-560
    loop = PolyCurve([(0, 0), (s, 0), (s, s), (0, 0)], 1.0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="tau"):
        mollify(CurveField([loop]), 0.1 * s, 0.02 * s)


def test_mollify_does_not_import_scipy_signal():
    # importing scipy.signal takes about 0.5 s; mollify convolves
    # through scipy.fft
    code = (
        "import sys\n"
        "from dmfields import CurveField, PolyCurve, mollify\n"
        "loop = PolyCurve([(0, 0), (1, 0), (1, 1), (0, 0)], 1.0)\n"
        "mollify(CurveField([loop]), 0.1, 0.02)\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    src = str(Path(smirnov.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@given(
    st.tuples(st.integers(2, 40), st.integers(2, 40)),
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_convolve_same_equals_fftconvolve(shape, kshape, count, rng_seed):
    from scipy.signal import fftconvolve  # the reference only

    rng = np.random.default_rng(rng_seed)
    Ms = [rng.normal(size=shape) for _ in range(count)]
    K = rng.uniform(size=kshape)
    got = smirnov._convolve_same(Ms, K)
    assert len(got) == count
    for M, C in zip(Ms, got):
        assert _bits(C) == _bits(fftconvolve(M, K, mode="same"))


@pytest.mark.parametrize(
    "T, dt",
    [(1.0, math.inf), (1.0, 5.0), (1.0, math.nan), (math.inf, 1e-3), (1e300, 1e-300)],
)
def test_flows_need_finite_times_and_a_step(ring_grid, T, dt):
    # dt = inf and dt = 5 used to make no step: a drift of exactly 0.0, a
    # Monte-Carlo estimate of 0 and a one-vertex flow curve
    with pytest.raises(ValueError):
        transport_invariant(ring_grid, (1.0, 0.0), T=T, dt=dt)
    with pytest.raises(ValueError):
        flow_trace(ring_grid, (1.0, 0.0), T=T, dt=dt)
    with pytest.raises(ValueError):
        reconstruct_check(ring_grid, partial(smirnov.rotation, 0.0, 0.0), 10, T=T, dt=dt)


def test_reconstruct_check_agrees(ring_grid):
    def Phi(X):
        return np.stack([-X[:, 1], X[:, 0]], axis=1)

    lhs, est, se, left = reconstruct_check(
        ring_grid, Phi, 4000, T=1.0, dt=2e-3, rng_seed=7
    )
    assert left == 0
    assert abs(lhs - est) <= 3 * se + 0.05 * abs(lhs)


def _rotation_about_centroid(f):
    pts = [v for c in f for v in c.vertices]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    return partial(smirnov.rotation, cx, cy)


def test_the_rotation_field_pickles():
    Phi = partial(smirnov.rotation, 0.5, 0.25)
    X = np.array([[0.0, 0.0], [1.0, 2.0], [-0.3, 0.7]])
    want = np.stack([-(X[:, 1] - 0.25), X[:, 0] - 0.5], axis=1)
    assert np.array_equal(Phi(X), want)
    assert np.array_equal(pickle.loads(pickle.dumps(Phi))(X), want)


AC9_LOOPS = _preset_loops()
SQUARE_LOOP, TRIANGLE, _ = AC9_LOOPS


@pytest.mark.parametrize("rng_seed", range(5))
def test_reconstruct_check_is_scaled_by_T(rng_seed):
    gf = mollify(TRIANGLE, 0.1, 0.02)
    lhs, est, se, left = reconstruct_check(
        gf, _rotation_about_centroid(TRIANGLE), 1000, T=0.25, dt=2e-3,
        rng_seed=rng_seed,
    )
    assert left == 0
    assert abs(lhs - est) <= 5 * se


@pytest.mark.parametrize("rng_seed", [14, 16, 27])
def test_seeds_jittered_off_the_grid_do_not_truncate(rng_seed):
    # these seeds drew jitter past the grid edge, where sigma is FFT
    # round-off; clamped onto the edge, one trajectory left the grid
    gf = mollify(SQUARE_LOOP, 0.1, 0.02)
    *_, left = reconstruct_check(
        gf, _rotation_about_centroid(SQUARE_LOOP), 10000, T=0.005, dt=1e-3,
        rng_seed=rng_seed,
    )
    assert left == 0


def test_reconstruct_check_is_deterministic(ring_grid):
    def Phi(X):
        return np.stack([X[:, 0], np.zeros(len(X))], axis=1)

    a = reconstruct_check(ring_grid, Phi, 500, T=0.2, dt=2e-3, rng_seed=3)
    b = reconstruct_check(ring_grid, Phi, 500, T=0.2, dt=2e-3, rng_seed=3)
    assert a == b


# The bilinear sampler and RK4 step as they were written out before
# `GridField._sample` and `smirnov._rk4` replaced them: references that
# the shared versions must equal bit for bit.


def _old_uv(gf, pts):
    u = (pts[:, 0] - gf.origin[0]) / gf.h
    v = (pts[:, 1] - gf.origin[1]) / gf.h
    nx, ny = gf.shape
    inside = (u >= 0) & (u <= nx - 1) & (v >= 0) & (v <= ny - 1)
    return u, v, inside


def _old_bilinear(A, u, v):
    nx, ny = A.shape
    i = np.clip(np.floor(u).astype(int), 0, nx - 2)
    j = np.clip(np.floor(v).astype(int), 0, ny - 2)
    du = np.clip(u - i, 0.0, 1.0)
    dv = np.clip(v - j, 0.0, 1.0)
    return (
        A[i, j] * (1 - du) * (1 - dv)
        + A[i + 1, j] * du * (1 - dv)
        + A[i, j + 1] * (1 - du) * dv
        + A[i + 1, j + 1] * du * dv
    )


def _old_at(gf, A, pts):
    u, v, inside = _old_uv(gf, pts)
    if not inside.all():
        raise LeftGrid("point outside the sampled grid")
    return _old_bilinear(A, u, v)


def _old_rk4_step(gf, pts, dt):
    def vel(x):
        return np.stack([_old_at(gf, gf.sigx, x), _old_at(gf, gf.sigy, x)], axis=1)

    k1 = vel(pts)
    k2 = vel(pts + 0.5 * dt * k1)
    k3 = vel(pts + 0.5 * dt * k2)
    k4 = vel(pts + dt * k3)
    return pts + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _old_flow(gf, seed, T, dt):
    """The points of the old RK4 chain from the seed; LeftGrid when the
    seed, a stage or the final point lies off the grid."""
    x = np.array([seed])
    _old_at(gf, gf.tau, x)
    want = [seed]
    for _ in range(round(T / dt)):
        x = _old_rk4_step(gf, x, dt)
        want.append((float(x[0, 0]), float(x[0, 1])))
    _old_at(gf, gf.tau, x)
    return want


def _old_drift(gf, chain, dt):
    """The old transport invariant's worst |drift| along the points of an
    RK4 chain: tau and div sigma sampled at every point at once (the
    bilinear sampler works row by row, so each row keeps its bits), the
    trapezoid sum taken in step order."""
    P = np.array(chain, dtype=float)
    logs = [math.log(t) for t in _old_at(gf, gf.tau, P).tolist()]
    div = _old_at(gf, gf.div_sigma, P).tolist()
    acc = 0.0
    worst = 0.0
    for i in range(1, len(chain)):
        acc += 0.5 * (div[i - 1] + div[i]) * dt
        worst = max(worst, abs(logs[i] - logs[0] + acc))
    return worst


def _old_transport_invariant(gf, seed, T, dt):
    return _old_drift(gf, _old_flow(gf, (float(seed[0]), float(seed[1])), T, dt), dt)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


# a small grid with a dyadic origin and step, so that grid lines and the
# last row and column (u = nx - 1, where the cell index clips to nx - 2)
# are hit exactly
_NX, _NY = 5, 4
_rng = np.random.default_rng(0)
SMALL_GRID = GridField(
    (-0.5, 0.25),
    0.125,
    0.1,
    _rng.normal(size=(_NX, _NY)),
    _rng.normal(size=(_NX, _NY)),
    _rng.uniform(0.5, 2.0, size=(_NX, _NY)),
)


def _coord(n):
    return st.one_of(
        st.integers(0, n - 1).map(float),  # grid lines
        st.just(float(n - 1)),  # last row or column
        st.floats(0.0, n - 1.0),  # interior
        st.floats(-2.0, n + 1.0),  # partly outside
    )


def _axis(o, n):
    """Coordinates along one axis of SMALL_GRID, origin o and n lines:
    `_coord`'s draws placed on the grid, the floats just beyond either
    end of it, and NaN."""
    h = SMALL_GRID.h
    ends = [math.nextafter(o, -math.inf), math.nextafter(o + (n - 1) * h, math.inf)]
    return st.one_of(
        _coord(n).map(lambda u: o + u * h), st.sampled_from([*ends, math.nan])
    )


@given(
    st.lists(
        st.tuples(_axis(SMALL_GRID.origin[0], _NX), _axis(SMALL_GRID.origin[1], _NY)),
        min_size=1,
        max_size=40,
    )
)
# the last grid point, whose cell is clamped to the last one, then a
# point inside that cell
@example([(0.0, 0.625), (-0.0625, 0.5625)])
@settings(max_examples=300, deadline=None)
def test_point_sampler_equals_sample_bit_for_bit(xy):
    gf = SMALL_GRID
    sigma = smirnov._point_sampler(gf)
    # twice over: each cell is read again from the memo after its first read
    for x, y in xy + xy:
        try:
            (sx, sy), _ = gf._sample(np.array([x]), np.array([y]), (gf.sigx, gf.sigy))
        except LeftGrid:
            with pytest.raises(LeftGrid):
                sigma(x, y)
            continue
        got = sigma(x, y)
        assert all(type(c) is float for c in got)
        assert _bits(got) == _bits([sx[0], sy[0]])


@given(
    st.lists(
        st.tuples(_coord(_NX), _coord(_NY), st.booleans()), min_size=1, max_size=40
    )
)
@settings(max_examples=300, deadline=None)
def test_sample_equals_the_old_bilinear_bit_for_bit(rows):
    gf = SMALL_GRID
    uv = np.array([(u, v) for u, v, _ in rows])
    pts = np.array(gf.origin) + uv * gf.h
    alive = np.array([a for _, _, a in rows])
    arrays = (gf.sigx, gf.sigy, gf.tau, gf.div_sigma)
    u, v, inside = _old_uv(gf, pts)
    ok = alive & inside
    vals, got_inside = gf._sample(pts[:, 0], pts[:, 1], arrays, alive)
    assert _bits(got_inside) == _bits(inside)
    for A, val in zip(arrays, vals):
        want = np.zeros(len(pts))
        want[ok] = _old_bilinear(A, u[ok], v[ok])
        assert _bits(val) == _bits(want)
    sx, sy, got_inside = gf.sigma_at_masked(pts[:, 0], pts[:, 1], alive)
    assert _bits(sx) == _bits(vals[0]) and _bits(sy) == _bits(vals[1])
    if not inside.all():
        for at in (gf.sigma_at, gf.tau_at, gf.div_sigma_at):
            with pytest.raises(LeftGrid):
                at(pts)
        return
    sx, sy = gf.sigma_at(pts)
    assert _bits(sx) == _bits(_old_bilinear(gf.sigx, u, v))
    assert _bits(sy) == _bits(_old_bilinear(gf.sigy, u, v))
    assert _bits(gf.tau_at(pts)) == _bits(_old_bilinear(gf.tau, u, v))
    assert _bits(gf.div_sigma_at(pts)) == _bits(_old_bilinear(gf.div_sigma, u, v))


@given(
    st.lists(
        st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)), min_size=1, max_size=40
    )
)
@settings(max_examples=100, deadline=None)
def test_sample_equals_the_old_bilinear_on_a_mollified_grid(ring_grid, xy):
    gf = ring_grid
    pts = np.array(xy)
    u, v, inside = _old_uv(gf, pts)
    alive = np.ones(len(pts), bool)
    (sx, sy), got_inside = gf._sample(pts[:, 0], pts[:, 1], (gf.sigx, gf.sigy), alive)
    assert _bits(got_inside) == _bits(inside)
    want = np.zeros(len(pts))
    want[inside] = _old_bilinear(gf.sigx, u[inside], v[inside])
    assert _bits(sx) == _bits(want)


@pytest.fixture(scope="module")
def grids(ring_grid):
    """The ring grid, and AC-9's loops at both of its resolutions."""
    out = {"ring": ring_grid}
    for i, f in enumerate(AC9_LOOPS):
        for h in (0.02, 0.01):
            out[i, h] = mollify(f, 0.1, h)
    return out


@pytest.mark.parametrize("key", [(i, h) for i in range(3) for h in (0.02, 0.01)])
def test_mollify_equals_fftconvolve_on_ac9_loops(monkeypatch, grids, key):
    from scipy.signal import fftconvolve  # the reference only

    monkeypatch.setattr(
        smirnov,
        "_convolve_same",
        lambda Ms, K: [fftconvolve(M, K, mode="same") for M in Ms],
    )
    i, h = key
    want = mollify(AC9_LOOPS[i], 0.1, h)
    for name in ("fx", "fy", "tau", "sigx", "sigy", "div_sigma"):
        assert _bits(getattr(grids[key], name)) == _bits(getattr(want, name))


# AC-9's drift checks, at T = 0.25
AC9_FLOWS = [
    pytest.param((i, h), f.curves[0].point_at(0.5), 0.25, dt, id=f"ac9-{i}-{h}")
    for i, f in enumerate(AC9_LOOPS)
    for h, dt in ((0.02, 1e-3), (0.01, 5e-4))
]


def test_flow_trace_equals_the_old_rk4(grids):
    # the ring at T = 1, then AC-9's six grids
    cases = [("ring", (1.0, 0.0), 1.0, 1e-3)] + [p.values for p in AC9_FLOWS]
    for grid, seed, T, dt in cases:
        got = flow_trace(grids[grid], seed, T=T, dt=dt).vertices
        assert _bits(got) == _bits(_old_flow(grids[grid], seed, T, dt)), grid


@pytest.mark.parametrize(
    "grid, seed, T, dt",
    [
        pytest.param("ring", (1.0, 0.0), 0.5, 1e-3, id="seed0-0.5-0.001"),
        pytest.param("ring", (0.0, -0.9), 0.3, 2e-3, id="seed1-0.3-0.002"),
    ]
    + AC9_FLOWS,
)
def test_transport_invariant_equals_the_old_rk4(grids, grid, seed, T, dt):
    got = transport_invariant(grids[grid], seed, T=T, dt=dt)
    assert _bits(got) == _bits(_old_transport_invariant(grids[grid], seed, T, dt))


def _ac9_at_scale(i, s):
    """AC-9's loop i with the field, eps, h, T, dt, the flow's seed and
    Phi's centre scaled by s: the grid, a check of 300 particles over
    T 0.05 s, and the flow and its drift over T 0.25 s."""
    loop = AC9_LOOPS[i]
    f = CurveField(
        [PolyCurve([(s * x, s * y) for x, y in c.vertices], c.weight) for c in loop]
    )
    gf = mollify(f, 0.1 * s, 0.02 * s)
    check = reconstruct_check(
        gf, _rotation_about_centroid(f), 300, T=0.05 * s, dt=1e-3 * s
    )
    seed = tuple(s * c for c in loop.curves[0].point_at(0.5))
    flow = flow_trace(gf, seed, T=0.25 * s, dt=1e-3 * s).vertices
    return gf, check, flow, transport_invariant(gf, seed, T=0.25 * s, dt=1e-3 * s)


_ac9_at_unit_scale = cache(partial(_ac9_at_scale, s=1.0))


@given(st.integers(0, 2), st.integers(-10, 10))
@example(0, 3)
@example(2, 10)
@example(1, -10)
@settings(max_examples=40, deadline=None)
def test_the_flow_side_is_covariant_under_dyadic_scaling(i, k):
    # the tau floor used to be a bump of width 1 at the centroid: off
    # unit scale the statistics drifted, and from s = 8 on the floor
    # fell below FFT round-off and mollify raised. With the even floor,
    # s = 2^k scales every length and time exactly
    s = 2.0**k
    gf1, (lhs1, est1, se1, left1), flow1, drift1 = _ac9_at_unit_scale(i)
    gf, (lhs, est, se, left), flow, drift = _ac9_at_scale(i, s)
    assert gf.shape == gf1.shape
    for name in ("fx", "fy", "tau"):
        assert _bits(getattr(gf, name) * s) == _bits(getattr(gf1, name)), name
    assert _bits(gf.sigx) == _bits(gf1.sigx)
    assert _bits(gf.sigy) == _bits(gf1.sigy)
    assert (lhs, est, se) == (lhs1 * s * s, est1 * s * s, se1 * s * s)
    assert left == left1 == 0
    assert _bits(flow) == _bits(np.multiply(flow1, s))
    assert drift == pytest.approx(drift1, rel=1e-12, abs=0)


# sigma = (3x, 0) on [0, 16] x [0, 1], exactly bilinear: the flow from
# (1, 0.5) grows like exp(3t), and with dt = 0.1 an RK4 stage first
# leaves the grid in step 10. With dt = 1, every stage of the one step
# stays inside (the last at x = 15.25) but the step ends at x = 16.375.
_IX = np.repeat(np.arange(17.0)[:, None], 2, axis=1)
STRETCH = GridField(
    (0.0, 0.0), 1.0, 0.1, 3.0 * _IX, np.zeros_like(_IX), np.ones_like(_IX)
)


@pytest.mark.parametrize(
    "T, dt",
    [
        pytest.param(2.0, 0.1, id="2.0"),  # a stage leaves mid-run
        pytest.param(1.0, 0.1, id="1.0"),  # a stage of the last step leaves
        pytest.param(1.0, 1.0, id="final-point"),  # only the final point
    ],
)
def test_flow_trace_raises_when_a_stage_leaves_the_grid(T, dt):
    with pytest.raises(LeftGrid):
        flow_trace(STRETCH, (1.0, 0.5), T=T, dt=dt)


@pytest.mark.parametrize(
    "seed, T, dt",
    [
        ((1.0, 0.5), 2.0, 0.1),  # a stage leaves mid-run
        ((1.0, 0.5), 1.0, 0.1),  # a stage of the last step leaves
        ((1.0, 0.5), 1.0, 1.0),  # only the final point is outside
        ((-1.0, 0.5), 1.0, 0.1),  # the seed is outside
        ((-1.0, 0.5), 0.0, 0.1),  # the seed is outside, no step
    ],
)
def test_transport_invariant_raises_when_the_trajectory_leaves_the_grid(seed, T, dt):
    with pytest.raises(LeftGrid):
        transport_invariant(STRETCH, seed, T=T, dt=dt)


@pytest.mark.parametrize("seed", [(1.0, 0.5, 7.0), (1.0,)], ids=["3-d", "1-d"])
def test_flows_need_a_planar_seed(seed):
    # a 3-D seed used to be traced from its first two coordinates, and a
    # 1-D one ended in an IndexError
    with pytest.raises(DimensionMismatch):
        flow_trace(STRETCH, seed, T=0.5, dt=0.1)
    with pytest.raises(DimensionMismatch):
        transport_invariant(STRETCH, seed, T=0.5, dt=0.1)


@pytest.mark.parametrize("gf", [SMALL_GRID, STRETCH], ids=["small", "stretch"])
@given(data=st.data(), T=st.floats(0.0, 1.0), dt=st.floats(2e-3, 0.25))
@settings(max_examples=200, deadline=None)
def test_scalar_stepper_equals_the_old_rk4(gf, data, T, dt):
    assume(0.5 < T / dt <= 250)
    nx, ny = gf.shape
    u, v = data.draw(_coord(nx)), data.draw(_coord(ny))
    seed = (gf.origin[0] + u * gf.h, gf.origin[1] + v * gf.h)
    try:
        want = _old_flow(gf, seed, T, dt)
    except LeftGrid:
        for flow in (flow_trace, transport_invariant):
            with pytest.raises(LeftGrid):
                flow(gf, seed, T=T, dt=dt)
        return
    assert _bits(smirnov._trajectory(gf, seed, T, dt)) == _bits(want)
    got = flow_trace(gf, seed, T=T, dt=dt).vertices
    assert _bits(got) == _bits(PolyCurve(want).vertices)
    got = transport_invariant(gf, seed, T, dt)
    assert _bits(got) == _bits(_old_drift(gf, want, dt))


# Clouds stepped in slices, on STRETCH, where particles seeded far out
# leave the grid, and on the ring


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("N, cpus", [(10000, 2), (10001, 2), (17000, 3), (17000, 8)])
def test_slices_give_the_one_process_bits(monkeypatch, ring_grid, N, cpus):
    # a closure, which does not pickle: the children are forked
    def Phi(X):
        return np.stack([-X[:, 1], X[:, 0] * X[:, 0]], axis=1)

    cases = [(ring_grid, Phi, 0.02, 2e-3), (STRETCH, Phi, 0.25, 0.05)]
    _cpus(monkeypatch, 1)
    want = [reconstruct_check(g, P, N, T=T, dt=dt) for g, P, T, dt in cases]
    _cpus(monkeypatch, cpus)
    got = [reconstruct_check(g, P, N, T=T, dt=dt) for g, P, T, dt in cases]
    assert got == want
    assert 0 < want[1][3] < N  # the stretch grid truncates
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("N, cpus", [(9999, 64), (50000, 1)])
def test_nothing_forks_below_two_slices(monkeypatch, N, cpus):
    _cpus(monkeypatch, cpus)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    *_, left = reconstruct_check(STRETCH, partial(smirnov.rotation, 8.0, 0.5), N, T=0.05, dt=0.05)
    assert 0 < left < N


def test_a_daemonic_process_steps_the_cloud_alone(monkeypatch):
    # a daemonic process may not start children, so it takes one slice
    _cpus(monkeypatch, 2)
    Phi = partial(smirnov.rotation, 8.0, 0.5)
    want = reconstruct_check(STRETCH, Phi, 10000, T=0.25, dt=0.05)
    r, w = multiprocessing.Pipe(duplex=False)
    p = multiprocessing.get_context("fork").Process(
        target=lambda: w.send(reconstruct_check(STRETCH, Phi, 10000, T=0.25, dt=0.05)),
        daemon=True,
    )
    p.start()
    w.close()  # EOF here, not a hang, if the child fails
    try:
        assert r.poll(60)
        assert r.recv() == want
    finally:
        p.join(60)
    assert not p.is_alive()


def _raising(where):
    """A Phi that raises ZeroDivisionError while stepping, only in a
    child process or only in the caller, and that leaves a child
    without a word in the "exit" case."""
    pid = os.getpid()

    def Phi(X):
        child = os.getpid() != pid
        if where == "child" and child:
            raise ZeroDivisionError("in a child")
        if where == "caller" and not child and len(X) == 5000:
            raise ZeroDivisionError("in the caller's slice")
        if where == "exit" and child:
            os._exit(3)
        return np.stack([-X[:, 1], X[:, 0]], axis=1)

    return Phi


@pytest.mark.parametrize(
    "where, error",
    [("child", ZeroDivisionError), ("caller", ZeroDivisionError), ("exit", EOFError)],
)
def test_an_error_in_any_slice_reaches_the_caller(monkeypatch, ring_grid, where, error):
    _cpus(monkeypatch, 2)
    with pytest.raises(error):
        reconstruct_check(ring_grid, _raising(where), 10000, T=0.02, dt=2e-3)
    assert multiprocessing.active_children() == []
