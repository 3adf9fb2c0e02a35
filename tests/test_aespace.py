import heapq
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmfields import (
    AEElement,
    AtomicMeasure,
    BASE,
    DipoleRep,
    SupportTooLarge,
    ae_norm,
    ae_norm_oracle,
    ae_pair,
    dual_check,
    rho,
)
from dmfields.acceptance import _rand_boundary_measure
from dmfields.aespace import _nodes_and_imbalances
from dmfields.domain import complement_region, domain_preset
from dmfields.lipfun import Linear
from dmfields.regions import box_region

coord = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
atom = st.tuples(st.tuples(coord, coord), st.floats(-2, 2, allow_nan=False).filter(lambda c: abs(c) > 1e-6))


def test_rho_metric():
    assert rho((0.0, 0.0), (0.0, 0.0)) == 0.0
    assert rho((0.0, 0.0), (1.0, 0.0)) == 1.0
    assert rho((0.0, 0.0), (9.0, 0.0)) == 2.0  # capped
    assert rho((0.0, 0.0), BASE) == 1.0
    assert rho(BASE, BASE) == 0.0


def test_zero_element():
    v, rep, dual = ae_norm(AEElement(AtomicMeasure()))
    assert (v, rep, dual) == (0.0, DipoleRep((), 0.0), {BASE: 0.0})
    assert type(v) is type(rep.cost) is type(dual[BASE]) is float


def test_single_atom_costs_one():
    m = AEElement(AtomicMeasure([((0.3, 0.7), 2.5)]))
    v, rep, dual = ae_norm(m)
    assert v == 2.5  # mass routed to the base point at cost 1 each
    assert dual_check(m, dual, v)


def test_nearby_dipole_costs_distance():
    p, q = (0.0, 0.0), (0.6, 0.8)
    m = AEElement(AtomicMeasure([(q, 1.0), (p, -1.0)]))
    v, rep, _ = ae_norm(m)
    assert v == pytest.approx(1.0)
    assert rep.recombine().same_atoms(m.support, 1e-12)


def test_far_dipole_prefers_base_point():
    # distance 10 is capped at 2, equal to two trips via the base point
    p, q = (0.0, 0.0), (10.0, 0.0)
    m = AEElement(AtomicMeasure([(q, 1.0), (p, -1.0)]))
    v, _, _ = ae_norm(m)
    assert v == pytest.approx(2.0)


def test_oracle_support_cap():
    atoms = [((float(i), 0.0), 1.0) for i in range(9)]
    with pytest.raises(SupportTooLarge):
        ae_norm_oracle(AEElement(AtomicMeasure(atoms)))


@given(st.lists(atom, min_size=1, max_size=6))
@example([((0.0, 0.0), -2.0), ((0.0, 1.0), 0.5), ((0.0, 5.960464477539063e-08), 1.0)])
@settings(max_examples=150, deadline=None)
def test_norm_matches_lp_oracle(atoms):
    m = AEElement(AtomicMeasure(atoms))
    v, rep, dual = ae_norm(m)
    assert v == pytest.approx(ae_norm_oracle(m), abs=1e-8)
    assert dual_check(m, dual, v)
    assert rep.recombine().same_atoms(m.support, 1e-9)
    assert v <= rep.cost + 1e-12


@given(st.lists(atom, min_size=1, max_size=5), st.tuples(coord, coord))
@settings(max_examples=100, deadline=None)
def test_norm_dominates_admissible_pairings(atoms, shift):
    """Clamped 1-Lipschitz potentials pair below the norm."""
    m = AEElement(AtomicMeasure(atoms))
    v, _, _ = ae_norm(m)
    phi = Linear((0.6, 0.8))
    # |u| <= 1 and Lip(u) <= 1 make u admissible for the capped metric
    u = lambda p: max(-1.0, min(1.0, phi(p) - phi(shift)))
    val = sum(c * u(p) for p, c in m.atoms())
    assert abs(val) <= v + 1e-9


@given(st.lists(atom, min_size=1, max_size=12), st.integers(-60, 20))
@example([((0.0, 0.0), 1.0), ((0.5, 0.0), -1.0), ((0.9, 0.3), 2.0)], -44)
@settings(max_examples=150, deadline=None)
def test_norm_scales_with_the_element(atoms, k):
    """Scaling by a power of two scales the norm and the dipoles: no
    mass is lost to a tolerance at small scales."""
    s = 2.0**k
    m = AEElement(AtomicMeasure(atoms))
    sm = AEElement(AtomicMeasure([(p, s * c) for p, c in atoms]))
    v, rep, _ = ae_norm(sm)
    assert v == pytest.approx(s * ae_norm(m)[0], rel=1e-12, abs=0.0)
    got, want = dict(rep.recombine().atoms), dict(sm.atoms())
    tol = 1e-12 * sm.support.total_mass()
    for p in got.keys() | want.keys():
        assert abs(got.get(p, 0.0) - want.get(p, 0.0)) <= tol


@given(st.lists(atom, min_size=1, max_size=12), st.integers(-60, 0))
@example([((0.0, 0.0), 1.0), ((0.5, 0.0), -1.0), ((0.9, 0.3), 2.0)], -44)
@settings(max_examples=150, deadline=None)
def test_dual_check_verdicts_scale_with_the_element(atoms, k):
    """The certificate's verdicts on the norm, on half of it and on 0 are
    the same for m and for 2^k m: a small element's lost mass shows."""
    m = AEElement(AtomicMeasure(atoms))
    # a power of two brings the total variation to at most 1 exactly
    e = math.ceil(math.log2(max(m.support.total_mass(), 1.0)))
    m = AEElement(m.support.scaled(2.0**-e))
    v, _, dual = ae_norm(m)
    assert dual_check(m, dual, v)
    s = 2.0**k
    sm = AEElement(m.support.scaled(s))
    for f in (1.0, 0.5, 0.0):
        assert dual_check(sm, dual, s * v * f) == dual_check(m, dual, v * f)


def test_dual_is_certificate():
    m = AEElement(
        AtomicMeasure([((0.0, 0.0), 1.5), ((0.2, 0.1), -0.5), ((3.0, 3.0), 0.25)])
    )
    v, _, dual = ae_norm(m)
    assert dual[BASE] == pytest.approx(0.0, abs=1e-12)
    obj = sum(c * dual[p] for p, c in m.atoms())
    assert obj == pytest.approx(v, abs=1e-8)


class _MCMF:
    """The generic min-cost flow that `ae_norm` ran on before its dense
    solver: successive shortest paths with Johnson potentials, edges
    stored with their residual twins, a heap Dijkstra."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.cost: list[float] = []

    def add_edge(self, u: int, v: int, cap: float, cost: float) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0.0)
        self.cost.append(-cost)
        return eid

    def run(self, s: int, t: int, TOL: float) -> tuple[float, float, list[float]]:
        INF = float("inf")
        n = self.n
        pi = [0.0] * n
        total_flow = 0.0
        total_cost = 0.0
        while True:
            dd = [INF] * n
            prev_edge = [-1] * n
            dd[s] = 0.0
            heap = [(0.0, s)]
            done = [False] * n
            while heap:
                d0, u = heapq.heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                for eid in self.head[u]:
                    if self.cap[eid] <= TOL:
                        continue
                    v = self.to[eid]
                    rc = self.cost[eid] + pi[u] - pi[v]
                    if rc < 0.0:  # rounding guard
                        rc = 0.0
                    if d0 + rc < dd[v] - 1e-15:
                        dd[v] = d0 + rc
                        prev_edge[v] = eid
                        heapq.heappush(heap, (dd[v], v))
            if dd[t] == INF:
                break
            reach_max = max(d for d in dd if d < INF)
            for i in range(n):
                pi[i] += dd[i] if dd[i] < INF else reach_max
            amt = INF
            v = t
            while v != s:
                eid = prev_edge[v]
                amt = min(amt, self.cap[eid])
                v = self.to[eid ^ 1]
            if amt <= TOL or amt == INF:
                break
            v = t
            while v != s:
                eid = prev_edge[v]
                self.cap[eid] -= amt
                self.cap[eid ^ 1] += amt
                total_cost += amt * self.cost[eid]
                v = self.to[eid ^ 1]
            total_flow += amt
        return total_flow, total_cost, pi


def _old_ae_norm(m):
    """`ae_norm` on the generic solver, as it read before the dense one,
    with the dense solver's tolerance relative to the total variation."""
    nodes, b = _nodes_and_imbalances(m)
    n = len(nodes)
    TOL = 1e-13 * m.support.total_mass()
    BIG = sum(abs(b[v]) for v in nodes) + 1.0
    net = _MCMF(n + 2)
    S, T = n, n + 1
    pair_edges = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                pair_edges[(i, j)] = net.add_edge(
                    i, j, BIG, rho(nodes[i], nodes[j])
                )
    for i, v in enumerate(nodes):
        if b[v] > 0:
            net.add_edge(S, i, b[v], 0.0)
        elif b[v] < 0:
            net.add_edge(i, T, -b[v], 0.0)
    _, value, pi = net.run(S, T, TOL)

    terms = []
    for (i, j), eid in sorted(pair_edges.items()):
        f = net.cap[eid ^ 1]  # residual of the twin equals routed flow
        if f > TOL:
            terms.append((f, nodes[j], nodes[i]))
    base_pot = -pi[nodes.index(BASE)]
    dual = {nodes[i]: (-pi[i]) - base_pot for i in range(n)}
    return value, DipoleRep(tuple(terms), value), dual


DOMAINS = ("square", "annulus", "lshape", "koch2", "square-complement", "annulus-complement")


@lru_cache(maxsize=None)
def _domain(name):
    if name == "square-complement":
        return complement_region(domain_preset("square"), box_region(-1, -1, 2, 2))
    if name == "annulus-complement":
        return complement_region(domain_preset("annulus"), box_region(-3, -3, 3, 3))
    return domain_preset(name)


@st.composite
def boundary_elements(draw):
    """0-60 atoms on the boundary of a preset or a complement, with
    coefficients of both signs; optionally balanced to net mass zero."""
    d = _domain(draw(st.sampled_from(DOMAINS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = list(_rand_boundary_measure(rng, d, draw(st.integers(0, 60))).atoms())
    if atoms and draw(st.booleans()):
        p, c = atoms[-1]
        atoms[-1] = (p, c - sum(c for _, c in atoms))
    return AEElement(AtomicMeasure(atoms))


@st.composite
def lattice_elements(draw):
    """Atoms on the lattice (Z/4)^2 in [0, 3]^2 with coefficients in Z/4,
    so distances tie, cap at 2 and equal the base point's 1 exactly, and
    a balanced element has net mass exactly zero. An atom may have a
    neighbour 1-3 ulps to its right (of 0.25 where x is 0): their pair
    edges cost less than the 1e-15 a relaxation must win by, so the
    order of relaxations shows."""
    ij = st.tuples(st.integers(0, 12), st.integers(0, 12))
    k = st.integers(-8, 8).filter(bool)
    drawn = draw(st.lists(st.tuples(ij, k, st.integers(0, 3), k), max_size=30))
    atoms = []
    for (i, j), c, near, c2 in drawn:
        x, y = i / 4, j / 4
        atoms.append(((x, y), c / 4))
        if near:
            atoms.append(((x + near * math.ulp(max(x, 0.25)), y), c2 / 4))
    if atoms and draw(st.booleans()):
        atoms.append(((draw(st.integers(0, 12)) / 4, 0.0), -sum(c for _, c in atoms)))
    return AEElement(AtomicMeasure(atoms))


@given(st.one_of(boundary_elements(), lattice_elements()))
@example(AEElement(AtomicMeasure([((0.5, 0.5), 1.25)])))
@example(  # twins relaxed after the pair edges route a different flow
    AEElement(
        AtomicMeasure(
            [
                ((0.0, 1.5), 0.75),
                ((1.6653345369377348e-16, 1.5), 1.75),
                ((0.75, 1.75), 1.0),
                ((1.5, 0.75), 1.75),
                ((1.5000000000000002, 0.75), -1.75),
            ]
        )
    )
)
@example(
    AEElement(AtomicMeasure([((0.0, 0.0), 1.0), ((1.0, 0.0), -1.0), ((0.0, 1.0), 0.5)]))
)
@settings(max_examples=200, deadline=None)
def test_norm_equals_the_generic_solver_bit_for_bit(m):
    # repr: every bit, the sign of zero and the dual's key order
    assert repr(ae_norm(m)) == repr(_old_ae_norm(m))
