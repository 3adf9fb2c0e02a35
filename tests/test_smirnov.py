import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmfields import (
    CurveField,
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

grid_pt = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda p: (float(p[0]), float(p[1]))
)
dyadic = st.integers(1, 16).map(lambda k: k / 16.0)


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


@given(
    st.lists(
        st.tuples(st.lists(grid_pt, min_size=2, max_size=4), dyadic),
        min_size=1,
        max_size=4,
    )
)
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


@given(
    st.lists(
        st.tuples(st.lists(grid_pt, min_size=2, max_size=4), dyadic),
        min_size=1,
        max_size=4,
    )
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


def test_project_rejects_split_flat_runs():
    bad = PolyCurve(
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
    with pytest.raises(MalformedLift):
        project_curves([bad])


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


def test_reconstruct_check_agrees(ring_grid):
    def Phi(X):
        return np.stack([-X[:, 1], X[:, 0]], axis=1)

    lhs, est, se, left = reconstruct_check(
        ring_grid, Phi, 4000, T=1.0, dt=2e-3, rng_seed=7
    )
    assert left == 0
    assert abs(lhs - est) <= 3 * se + 0.05 * abs(lhs)


def test_reconstruct_check_is_deterministic(ring_grid):
    def Phi(X):
        return np.stack([X[:, 0], np.zeros(len(X))], axis=1)

    a = reconstruct_check(ring_grid, Phi, 500, T=0.2, dt=2e-3, rng_seed=3)
    b = reconstruct_check(ring_grid, Phi, 500, T=0.2, dt=2e-3, rng_seed=3)
    assert a == b
