"""Constructive trace surjectivity and field extension.

Every boundary functional m (an atomic Arens-Eells element on the
boundary of a locally convex domain) is realized as the normal trace of
an explicit curve field whose interior divergence sits only on a chosen
net. The construction routes each term of the cost-minimal dipole
representation of m:

  both endpoints close:  one curve between them through the domain;
  both endpoints far:    each endpoint joined to its nearest net point;
  base-point terms:      the lone boundary endpoint joined to the net.

The same machinery extends a field across its domain boundary (the
exterior lift cancels the boundary divergence atoms exactly) and, when
the complement is connected and the net flux vanishes, produces a
globally divergence-free extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import (
    AtomOffBoundary,
    InfeasibleDelta,
    MissingConstants,
    NonzeroNetFlux,
    NormBoundViolation,
)
from .core import (
    AtomicMeasure,
    CurveField,
    Point,
    PolyCurve,
    dist,
    field_divergence,
    field_mass,
)
from .aespace import AEElement, BASE, ae_norm
from .domain import (
    PolygonalDomain,
    net_boundary_dist,
    route,
    routing_graph,
    select_lambda,
    separation,
)
from .regions import PolyRegion, normal_trace


@dataclass(frozen=True)
class LiftConfig:
    """A domain with a chosen interior net and base point.

    lam points carry the interior divergence of lifted fields; e is the
    net point standing in for the Arens-Eells base point. The separation,
    the net's distance to the boundary and the net points of each routing
    component are computed once on demand and cached.
    """

    domain: PolygonalDomain
    lam: tuple[Point, ...]
    e: Point
    h: float
    delta: float

    @cached_property
    def _sep(self) -> float:
        return separation(self.domain, self.lam, self.h)

    @cached_property
    def _dist_lam(self) -> float:
        return net_boundary_dist(self.domain, self.lam)

    @cached_property
    def _lam_comp(self) -> dict[int, list[Point]]:
        groups: dict[int, list[Point]] = {}
        for q in self.lam:
            groups.setdefault(self.component_of(q), []).append(q)
        return groups

    def sep(self) -> float:
        return self._sep

    def dist_lam(self) -> float:
        return self._dist_lam

    def component_of(self, p: Point) -> int:
        g = routing_graph(self.domain, self.h)
        return g.comp[g.nearest_visible(p)]

    def nearest_lam(self, p: Point) -> Point:
        """Nearest net point in the same routing component as p,
        Euclidean distance with lexicographic tie-break."""
        cands = self._lam_comp.get(self.component_of(p), self.lam)
        return min(cands, key=lambda q: (dist(p, q), q))


def lift_config(
    d: PolygonalDomain, h: float = 0.02, delta: float | None = None
) -> LiftConfig:
    """Select a net for the domain and designate the deepest net point
    as the base point. The base point must sit farther from the boundary
    than delta (the construction breaks otherwise)."""
    if delta is None:
        delta = d.declared_delta
    if delta is None:
        raise MissingConstants("no delta declared and none supplied")
    lam = list(select_lambda(d, delta, h))
    # add the deepest grid node of each component so the base point sits
    # as far from the boundary as the grid allows
    g = routing_graph(d, h)
    for comp in range(g.n_components):
        nodes = [i for i in range(len(g.nodes)) if g.comp[i] == comp]
        deepest = max(
            nodes, key=lambda i: (g.clearance[i], tuple(-c for c in g.nodes[i]))
        )
        if g.nodes[deepest] not in lam:
            lam.append(g.nodes[deepest])
    # every net point is a graph node, whose clearance is its boundary_dist
    clear = dict(zip(g.nodes, g.clearance))
    e = max(lam, key=lambda p: (clear[p], tuple(-c for c in p)))
    if clear[e] <= min(1.0, delta):
        raise InfeasibleDelta(
            f"base point clearance {clear[e]:.4f} not above delta {delta}"
        )
    return LiftConfig(d, tuple(lam), e, h, delta)


def bound_constant(cfg: LiftConfig) -> float:
    """The certified mass-bound factor
    C = max(1/eps, 4 sep/delta, 2 sep/dist(net, boundary)) + 2/delta."""
    eps = cfg.domain.declared_eps
    if eps is None:
        raise MissingConstants("eps is required for the bound")
    sep, dl, delta = cfg.sep(), cfg.dist_lam(), cfg.delta
    return max(1.0 / eps, 4.0 * sep / delta, 2.0 * sep / dl) + 2.0 / delta


def lift_surject(
    cfg: LiftConfig,
    m: AEElement,
    check_bound: bool = True,
    provenance: list | None = None,
) -> CurveField:
    """A curve field in the domain whose normal trace is exactly m.

    Interior divergence lands only on the net; total mass plus interior
    divergence mass stays within bound_constant * ae_norm(m) (checked
    when constants are declared). Trace sign bookkeeping: a curve routed
    from boundary point q to boundary point p contributes the trace
    dipole delta_q - delta_p.
    """
    for p, _ in m.atoms():
        if not cfg.domain.on_boundary(p):
            raise AtomOffBoundary(f"atom at {p} is not on the domain boundary")
    value, rep, _ = ae_norm(m)
    curves: list[PolyCurve] = []

    def emit(case: str, a: float, src: Point, dst: Point):
        r = route(cfg.domain, src, dst, cfg.h)
        curves.append(PolyCurve(r.vertices, a))
        if provenance is not None:
            provenance.append(
                {"case": case, "weight": a, "route_length": r.length()}
            )

    for a, p, q in rep.terms:
        if abs(a) <= 1e-13:
            continue
        # term is a*(delta_q - delta_p)
        if p == BASE and q == BASE:
            continue
        if p == BASE:
            # +a at boundary point q: curve leaves q into the net
            emit("base-to-net", a, q, cfg.nearest_lam(q))
        elif q == BASE:
            # -a at boundary point p: curve arrives at p from the net
            emit("net-to-boundary", a, cfg.nearest_lam(p), p)
        elif dist(p, q) <= cfg.delta:
            emit("direct", a, q, p)
        else:
            emit("split-out", a, q, cfg.nearest_lam(q))
            emit("split-in", a, cfg.nearest_lam(p), p)
    out = CurveField(curves)
    if check_bound and cfg.domain.declared_eps is not None:
        interior_div = field_divergence(out).restrict(cfg.domain.contains)
        lhs = field_mass(out) + interior_div.total_mass()
        rhs = bound_constant(cfg) * value
        if lhs > rhs * (1.0 + 1e-9) + 1e-12:
            raise NormBoundViolation(
                f"lift mass {lhs:.6f} exceeds certified bound {rhs:.6f}"
            )
    return out


def domain_trace(f: CurveField, d: PolygonalDomain) -> AtomicMeasure:
    """Normal trace of f on the full domain boundary, part by part."""
    total = AtomicMeasure()
    for part in d.parts:
        total = total + normal_trace(f, part)
    return total


def two_sided_lift(
    cfg_in: LiftConfig, cfg_out: LiftConfig, m: AEElement
) -> CurveField:
    """A field with trace m seen from inside and -m seen from outside,
    carrying no mass on the shared boundary; divergence only on the two
    nets."""
    f_in = lift_surject(cfg_in, m)
    f_out = lift_surject(cfg_out, m).scaled(-1.0)
    return f_in.union(f_out)


def extend_field(
    f: CurveField, d_in: PolygonalDomain, cfg_out: LiftConfig
) -> CurveField:
    """Extend f beyond its domain: append an exterior lift of the
    negated boundary trace. Boundary divergence atoms cancel exactly
    (exterior curves start at the same coordinates), so the extension's
    divergence lives at f's interior atoms and the exterior net only."""
    m = domain_trace(f, d_in)
    g = lift_surject(cfg_out, AEElement(m.scaled(-1.0)))
    return f.union(g)


def extend_divfree(
    f: CurveField,
    d_in: PolygonalDomain,
    cfg_out: LiftConfig,
    connected_complement: bool = True,
) -> tuple[CurveField, tuple[Point, ...]]:
    """Extend a divergence-free field. With a connected complement the
    result is divergence-free everywhere inside the box (single exterior
    net point; all its contributions cancel); otherwise the returned
    punctures mark residual net atoms excluded from the effective
    domain."""
    m = AEElement(domain_trace(f, d_in))
    cfg = cfg_out
    if connected_complement:
        if abs(m.support.total()) > 1e-9:
            raise NonzeroNetFlux(
                f"net boundary flux {m.support.total():.3e} admits no "
                "divergence-free extension over a connected complement"
            )
        cfg = replace(cfg_out, lam=(cfg_out.e,))
    g = lift_surject(cfg, AEElement(m.support.scaled(-1.0)), check_bound=False)
    out = f.union(g)
    if connected_complement:
        return out, ()
    residual = field_divergence(out).coalesced(1e-9)
    punctures = tuple(residual.locations())
    return out, punctures
