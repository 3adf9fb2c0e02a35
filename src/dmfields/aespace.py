"""Arens-Eells elements: transport norm, dipole representations, duals.

Finitely supported functionals are normed by minimum-cost transport over
the modified metric rho(p,q) = min(|p-q|, 2), with a base point e at
distance 1 from everything that absorbs the net mass. The norm solver is
successive shortest paths on the complete graph; its final potentials
yield a feasible dual certificate whose objective matches the primal
cost, so every answer ships with its own optimality proof.

The solver reads costs from the dense rho matrix, yet takes a generic
residual-graph solver's decisions (heap Dijkstra; pair edges of capacity
sum|b| + 1) in its order, so values, dipoles and duals keep every bit:
- a pair edge carries at most sum|b| / 2, so its residual stays >= 1 and
  above every source capacity: never empty, never a path's minimum, and
  not stored; only its twin's, the flow routed along it, is;
- a node settling at d0 cannot improve a settled v (d0 + rc >= d0 >=
  dd[v]), so pair edges are relaxed toward unsettled nodes only, in index
  order, between the twins toward lower and toward higher nodes;
- the heap pops the least (distance, index), and stale entries carry
  larger distances: the first unsettled node of least distance.
A residual at most TOL = 1e-13 * sum|c| is empty. Rounding leaves about
ulp(sum|c|); an absolute 1e-13 dropped all mass of small elements.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SupportTooLarge
from .core import AtomicMeasure, dist
from .lipfun import LipFunc

# the base point; compared by identity of this sentinel string
BASE = "e"


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


def _transport(nodes, b, TOL):
    """Min-cost flow from the positive to the negative imbalances b over
    the rho-graph on nodes 0..n-1, with a source n and a sink n + 1.
    Returns the cost, the residuals res and the potentials."""
    INF = float("inf")
    n = len(nodes)
    S, T = n, n + 1
    C = [[0.0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):  # rho is symmetric
        C[i][j] = C[j][i] = rho(nodes[i], nodes[j])
    # residual of x -> y for the source edges S -> i, the sink edges i -> T
    # and the twins: twin y -> x of a pair edge x -> y holds its flow
    res = {(S, i): c for i, c in enumerate(b) if c > 0}
    res.update({(i, T): -c for i, c in enumerate(b) if c < 0})
    # out[x]: sorted y of the keys (x, y), and x itself for its pair edges
    out = [[i] for i in range(n)] + [[], []]
    for x, y in sorted(res):
        out[x].append(y)
    pi = [0.0] * (n + 2)
    total_cost = 0.0
    while True:
        # lim = dd - 1e-15, the bar a relaxation must beat; via[v] = (u,
        # whether u -> v is an edge in res rather than a pair edge)
        dd, lim, via = [INF] * (n + 2), [INF] * (n + 2), [None] * (n + 2)
        dd[S], lim[S] = 0.0, -1e-15
        open_, t_open = list(range(n + 1)), True  # unsettled, ascending
        while open_ or t_open:
            # the heap's pop order: least distance, then least index
            u = min(open_, key=dd.__getitem__, default=T)
            if t_open and dd[T] < dd[u]:
                u = T
            if dd[u] == INF:
                break
            if u == T:
                t_open = False
            else:
                open_.remove(u)
            d0, pu = dd[u], pi[u]
            for y in out[u]:
                if y != u and res[u, y] > TOL:
                    # costs 0 on the source and sink edges and their twins
                    rc = (-C[y][u] if u < S and y < S else 0.0) + pu - pi[y]
                    if rc < 0.0:  # rounding guard
                        rc = 0.0
                    if d0 + rc < lim[y]:
                        dd[y], via[y] = d0 + rc, (u, True)
                        lim[y] = dd[y] - 1e-15
                elif y == u:
                    Cu = C[u]
                    for v in open_:
                        rc = Cu[v] + pu - pi[v]
                        if rc < 0.0:  # rounding guard
                            rc = 0.0
                        if d0 + rc < lim[v]:
                            dd[v], via[v] = d0 + rc, (u, False)
                            lim[v] = dd[v] - 1e-15
        if dd[T] == INF:
            break
        # d0 is the last, so the largest, distance settled
        pi = [p + (d if d < INF else d0) for p, d in zip(pi, dd)]
        amt, v = INF, T
        while v != S:  # a pair edge's residual is never the minimum
            u, in_res = via[v]
            if in_res:
                amt = min(amt, res[u, v])
            v = u
        if amt <= TOL:
            break
        v = T
        while v != S:
            u, in_res = via[v]
            pair = u < S and v < S
            if in_res:
                res[u, v] -= amt
            if not (in_res and pair):  # the reverse edge is in res
                if (v, u) not in res:
                    res[v, u] = 0.0
                    bisect.insort(out[v], u)
                res[v, u] += amt
            if pair:  # the other edges cost 0: nothing to add
                total_cost += amt * (-C[v][u] if in_res else C[u][v])
            v = u
    return total_cost, res, pi


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
    TOL = 1e-13 * m.support.total_mass()
    value, res, pi = _transport(nodes, [b[v] for v in nodes], TOL)
    # the flow f on i -> j, held by its twin, carries f*(delta_i - delta_j)
    flows = sorted(((i, j), f) for (j, i), f in res.items() if i < n and j < n)
    terms = tuple((f, nodes[j], nodes[i]) for (i, j), f in flows if f > TOL)
    dual = {nodes[i]: (-pi[i]) - (-pi[n - 1]) for i in range(n)}
    return value, DipoleRep(terms, value), dual


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
    point) at 1e-10, and objective match with the norm value at 1e-8
    times min(1, total variation), so a small element's lost mass shows."""
    if BASE not in dual or abs(dual[BASE]) > 1e-10:
        return False
    nodes = [p for p, _ in m.atoms()] + [BASE]
    for u, v in itertools.combinations(nodes, 2):
        if abs(dual[u] - dual[v]) > rho(u, v) + 1e-10:
            return False
    obj = sum(c * dual[p] for p, c in m.atoms())
    return abs(obj - value) <= 1e-8 * min(1.0, m.support.total_mass())


def ae_pair(m: AEElement, phi: LipFunc) -> float:
    return sum(c * phi(p) for p, c in m.atoms())
