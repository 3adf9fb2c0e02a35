"""Arens-Eells elements: transport norm, dipole representations, duals.

Finitely supported functionals are normed by minimum-cost transport over
the modified metric rho(p,q) = min(|p-q|, 2), with a base point e at
distance 1 from everything that absorbs the net mass. The norm solver is
successive shortest paths on the complete graph; its final potentials
yield a feasible dual certificate whose objective matches the primal
cost, so every answer ships with its own optimality proof.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SupportTooLarge
from .core import AtomicMeasure, Point, dist
from .lipfun import LipFunc

# the base point; compared by identity of this sentinel string
BASE = "e"

Node = "Point | str"


def rho(p, q) -> float:
    """min(|p-q|, 2) between points, 1 to the base point, 0 on the diagonal."""
    if p == q:
        return 0.0
    if p == BASE or q == BASE:
        return 1.0
    return min(dist(p, q), 2.0)


@dataclass(frozen=True)
class AEElement:
    """An atomic measure viewed as a functional on Lipschitz functions."""

    support: AtomicMeasure

    def atoms(self):
        return self.support.atoms

    def net_mass(self) -> float:
        return self.support.total()


@dataclass(frozen=True)
class DipoleRep:
    """terms (a, p, q) meaning a*(delta_q - delta_p); p or q may be BASE."""

    terms: tuple[tuple[float, object, object], ...]
    cost: float

    def recombine(self) -> AtomicMeasure:
        """The represented measure, BASE dropped."""
        atoms = []
        for a, p, q in self.terms:
            if q != BASE:
                atoms.append((q, a))
            if p != BASE:
                atoms.append((p, -a))
        return AtomicMeasure(atoms)


def _nodes_and_imbalances(m: AEElement):
    pts = sorted(p for p, _ in m.atoms())
    nodes: list = pts + [BASE]
    b = {p: c for p, c in m.atoms()}
    b[BASE] = -m.net_mass()
    return nodes, b


class _MCMF:
    """Min-cost flow by successive shortest paths with Johnson
    potentials. Edges are stored with their residual twins; costs must
    admit no negative cycles (here: all nonnegative)."""

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

    def run(self, s: int, t: int) -> tuple[float, float, list[float]]:
        INF = float("inf")
        n = self.n
        pi = [0.0] * n
        total_flow = 0.0
        total_cost = 0.0
        TOL = 1e-13
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


def ae_norm(m: AEElement) -> tuple[float, DipoleRep, dict]:
    """Transport norm with optimal dipole representation and dual.

    Successive shortest paths on the complete rho-graph over the support
    plus the base point; deterministic via the fixed node order
    (lexicographic points, base point last). dual maps every node to a
    potential with dual(BASE) = 0, |dual(u)-dual(v)| <= rho(u,v) and
    sum coeff*dual = value.
    """
    nodes, b = _nodes_and_imbalances(m)
    n = len(nodes)
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
    _, value, pi = net.run(S, T)

    TOL = 1e-13
    terms = []
    for (i, j), eid in sorted(pair_edges.items()):
        f = net.cap[eid ^ 1]  # residual of the twin equals routed flow
        if f > TOL:
            # flow i -> j carries f*(delta_{nodes[i]} - delta_{nodes[j]})
            terms.append((f, nodes[j], nodes[i]))
    base_pot = -pi[nodes.index(BASE)]
    dual = {nodes[i]: (-pi[i]) - base_pot for i in range(n)}
    return value, DipoleRep(tuple(terms), value), dual


def ae_norm_oracle(m: AEElement) -> float:
    """Brute-force reference value by linear programming on the full
    arc-flow formulation; independent of the shortest-path solver."""
    from scipy.optimize import linprog

    nodes, b = _nodes_and_imbalances(m)
    if len(nodes) - 1 > 8:
        raise SupportTooLarge(f"oracle limited to 8 atoms, got {len(nodes) - 1}")
    n = len(nodes)
    if n == 1:
        return 0.0
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    cost = [rho(nodes[i], nodes[j]) for i, j in arcs]
    A = np.zeros((n, len(arcs)))
    for k, (i, j) in enumerate(arcs):
        A[i, k] += 1.0
        A[j, k] -= 1.0
    rhs = [b[v] for v in nodes]
    # HiGHS's default 1e-7 feasibility tolerances let it stop at a vertex
    # whose cost is off by ~1e-7 times the flow (atoms 6e-8 apart were
    # enough); 1e-10 is its tightest setting.
    tols = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs", options=tols)
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def dual_check(m: AEElement, dual: dict, value: float) -> bool:
    """Feasibility of the certificate (rho-Lipschitz, zero at the base
    point) at 1e-10 and objective match with the norm value at 1e-8."""
    if BASE not in dual or abs(dual[BASE]) > 1e-10:
        return False
    nodes = [p for p, _ in m.atoms()] + [BASE]
    for u, v in itertools.combinations(nodes, 2):
        if abs(dual[u] - dual[v]) > rho(u, v) + 1e-10:
            return False
    obj = sum(c * dual[p] for p, c in m.atoms())
    return abs(obj - value) <= 1e-8


def ae_pair(m: AEElement, phi: LipFunc) -> float:
    return sum(c * phi(p) for p, c in m.atoms())
