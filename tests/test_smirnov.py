import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmfields import (
    CurveField,
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
from dmfields.acceptance import _preset_loops

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


def _rotation_about_centroid(f):
    pts = [v for c in f for v in c.vertices]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    def Phi(X):
        return np.stack([-(X[:, 1] - cy), X[:, 0] - cx], axis=1)

    return Phi


SQUARE_LOOP, TRIANGLE, _ = _preset_loops()  # AC-9's loops


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
# `GridField._sample` and `smirnov._rk4_step` replaced them: references
# that the shared versions must equal bit for bit.


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


def _old_transport_invariant(gf, seed, T, dt):
    x = np.array([[float(seed[0]), float(seed[1])]])
    log0 = math.log(float(_old_at(gf, gf.tau, x)[0]))
    acc = 0.0
    worst = 0.0
    for _ in range(int(round(T / dt))):
        d0 = float(_old_at(gf, gf.div_sigma, x)[0])
        x = _old_rk4_step(gf, x, dt)
        d1 = float(_old_at(gf, gf.div_sigma, x)[0])
        acc += 0.5 * (d0 + d1) * dt
        drift = math.log(float(_old_at(gf, gf.tau, x)[0])) - log0 + acc
        worst = max(worst, abs(drift))
    return worst


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
    vals, got_inside = gf._sample(pts, arrays, alive)
    assert _bits(got_inside) == _bits(inside)
    for A, val in zip(arrays, vals):
        want = np.zeros(len(pts))
        want[ok] = _old_bilinear(A, u[ok], v[ok])
        assert _bits(val) == _bits(want)
    sx, sy, got_inside = gf.sigma_at_masked(pts, alive)
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
    (sx, sy), got_inside = gf._sample(pts, (gf.sigx, gf.sigy), np.ones(len(pts), bool))
    assert _bits(got_inside) == _bits(inside)
    want = np.zeros(len(pts))
    want[inside] = _old_bilinear(gf.sigx, u[inside], v[inside])
    assert _bits(sx) == _bits(want)


def test_flow_trace_equals_the_old_rk4(ring_grid):
    c = flow_trace(ring_grid, (1.0, 0.0), T=1.0, dt=1e-3)
    x = np.array([[1.0, 0.0]])
    want = [(1.0, 0.0)]
    for _ in range(1000):
        x = _old_rk4_step(ring_grid, x, 1e-3)
        want.append((float(x[0, 0]), float(x[0, 1])))
    assert c.vertices == tuple(want)


@pytest.mark.parametrize(
    "seed, T, dt", [((1.0, 0.0), 0.5, 1e-3), ((0.0, -0.9), 0.3, 2e-3)]
)
def test_transport_invariant_equals_the_old_rk4(ring_grid, seed, T, dt):
    got = transport_invariant(ring_grid, seed, T=T, dt=dt)
    assert got == _old_transport_invariant(ring_grid, seed, T, dt)
