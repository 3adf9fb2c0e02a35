"""The three workloads and the operations they are made of.

A workload's set-up does the program's one-time preparation and returns
the slots of one round. A run sets up once, draws one input per slot
from its seed, then repeats whole rounds over the same inputs until its
time is up, so every run attempts the same mix of operations and the
share of failed operations never depends on the run's length. Every run
reports every end-to-end metric, so besides its own heavy operations
each round carries a small fixed probe of the verbs the other workloads
load; every kind of operation is spread over the whole round (see
README.md).

An operation returns its timings and a list of problems found by the
checks in checks.py. An operation with problems, or one that raises,
counts as failed and its timings are dropped.
"""

from __future__ import annotations

import statistics
import traceback
from collections import defaultdict
from functools import partial
from time import perf_counter

import numpy as np

import dmfields as dm

import checks
import gen

PRESETS = ("square", "lshape", "koch2", "annulus")
H = 0.02
MAX_ATOMS = 12  # lifts have 1..12 atoms

MC_EPS = 0.1
MC_N = 10_000
Z_GATE = 5.0  # |lhs - est| <= Z_GATE * stderr; see README.md
INVARIANT_T = 0.25

# probe sizes, used where a verb is not the workload's own
PROBE_H = 0.05
PROBE_LIFTS = 36
PROBE_MC_N = 1000
PROBE_MC_DT = 2e-3
PROBE_INVARIANT_T, PROBE_INVARIANT_OPS = 0.1, 3
PROBE_MANY, PROBE_FEW, PROBE_POOL = 100, 200, 30
PROBE_DECOMPOSE_OPS = 8
PROBE_GRID = (3, 4)  # source-to-sink paths, closed loops
PROBE_GRID_OPS = 24
PROBE_AE_ATOMS, PROBE_AE_OPS = 30, 24

# decompose workload sizes
MANY_SEGMENTS = 500
FEW_SEGMENTS, FEW_POOL = 1000, 100
DECOMPOSE_OPS = 2
GRID = (6, 24)
GRID_OPS = 12
AE_ATOMS, AE_OPS = 120, 3

END_TO_END = {
    "setup_s": "s",
    "lift_ms": "ms",
    "trace_ms": "ms",
    "pairing_ms": "ms",
    "mc_check_s": "s",
    "invariant_ms": "ms",
    "decompose_ms": "ms",
    "decompose_grid_ms": "ms",
    "ae_norm_ms": "ms",
}


# ---------------------------------------------------------------------------
# operations


def lift_op(cfg, m, phi):
    """Lift m, trace the lift, pair it with phi; check surjectivity,
    divergence placement and trace duality."""
    t0 = perf_counter()
    f = dm.lift_surject(cfg, m)
    t1 = perf_counter()
    tr = dm.domain_trace(f, cfg.domain)
    t2 = perf_counter()
    pairing = sum(dm.pairing_over_set(f, phi, part) for part in cfg.domain.parts)
    t3 = perf_counter()

    target = dict(m.atoms())
    tol = 1e-9 * (1.0 + sum(abs(c) for c in target.values()))
    problems = checks.match_measures(dict(tr.atoms), target, tol)
    interior = {
        p: c
        for p, c in checks.divergence(checks.as_curves(f)).items()
        if abs(c) > tol and not checks.near_any(p, target)
    }
    stray = [p for p in interior if not checks.near_any(p, cfg.lam)]
    if stray:
        problems.append(f"interior divergence off the net at {stray[:3]}")
    problems += _duality(
        sum(c * phi(p) for p, c in tr.atoms),
        pairing,
        sum(c * phi(p) for p, c in interior.items()),
    )
    return {"lift_ms": 1e3 * (t1 - t0), "trace_ms": 1e3 * (t2 - t1), "pairing_ms": 1e3 * (t3 - t2)}, problems


def _duality(trace_term, pairing, div_term):
    """Trace duality: trace + pairing + interior divergence = 0."""
    scale = 1.0 + abs(trace_term) + abs(pairing) + abs(div_term)
    defect = (trace_term + pairing + div_term) / scale
    return [] if abs(defect) <= 1e-9 else [f"trace duality off by {defect:.3e} (relative)"]


def half_plane_op(f, normal, offset, phi):
    """Trace and pairing on {x . normal > offset}; check duality."""
    E = dm.half_plane(normal, offset)
    tr = dm.normal_trace(f, E)
    pairing = dm.pairing_over_set(f, phi, E)
    div = checks.divergence(checks.as_curves(f))
    inside = sum(
        c * phi(p) for p, c in div.items() if p[0] * normal[0] + p[1] * normal[1] > offset
    )
    return {}, _duality(sum(c * phi(p) for p, c in tr.atoms), pairing, inside)


def crosses(f, normal, offset) -> bool:
    """Whether some segment has its ends strictly on both sides of the line."""
    side = [
        [np.sign(x * normal[0] + y * normal[1] - offset) for x, y in c.vertices] for c in f
    ]
    return any(a * b < 0 for s in side for a, b in zip(s, s[1:]))


def reconstruct_op(gf, Phi, n, dt, rng_seed, curves):
    """One Monte-Carlo reconstruction check of a closed-loop field."""
    t0 = perf_counter()
    lhs, est, se, left = dm.reconstruct_check(gf, Phi, n, T=1.0, dt=dt, rng_seed=rng_seed)
    t1 = perf_counter()
    problems = []
    exact = checks.rotation_flux(curves)
    if abs(lhs - exact) > 1e-9 * (1.0 + abs(exact)):
        problems.append(f"grid integral {lhs!r} differs from twice the area {exact!r}")
    tau = checks.mass(curves) + gf.eps
    if abs(gf.total_tau() - tau) > 1e-9 * tau:
        problems.append(f"total tau {gf.total_tau()!r}, expected mass + eps = {tau!r}")
    if not abs(lhs - est) <= Z_GATE * se:
        problems.append(f"estimate {est!r} is {abs(lhs - est) / se:.2f} stderr from {lhs!r}")
    if left:
        problems.append(f"{left} trajectories truncated")
    return {"mc_check_s": t1 - t0}, problems


def invariant_op(gf_coarse, gf_fine, seed, T):
    """Transport invariant at (h, dt) and at (h/2, dt/2); the drift must
    shrink to at most 0.65 of itself."""
    t0 = perf_counter()
    d1 = dm.transport_invariant(gf_coarse, seed, T=T, dt=1e-3)
    d2 = dm.transport_invariant(gf_fine, seed, T=T, dt=5e-4)
    t1 = perf_counter()
    ok = d1 > 0.0 and d2 / d1 <= 0.65
    return {"invariant_ms": 1e3 * (t1 - t0)}, [] if ok else [f"drift ratio {d2!r}/{d1!r} above 0.65"]


def _flux_and_divergence(expect, got, c, A, tol_div):
    problems = []
    want, size = checks.affine_flux(expect, c, A)
    have, _ = checks.affine_flux(got, c, A)
    if abs(want - have) > 1e-9 * (1.0 + size):
        problems.append(f"affine flux {have!r}, input has {want!r}")
    problems += checks.match_measures(checks.divergence(got), checks.divergence(expect), tol_div)
    return problems


def decompose_op(fields, c, A):
    """Snap and peel each real-coordinate field; the decomposition keeps
    the flux of an affine Phi and the divergence."""
    elapsed = 0.0
    problems = []
    for f in fields:
        t0 = perf_counter()
        dec = dm.graph_decompose(dm.snap_to_graph(f))
        elapsed += perf_counter() - t0
        problems += _flux_and_divergence(checks.as_curves(f), checks.as_curves(dec), c, A, 1e-9)
    return {"decompose_ms": 1e3 * elapsed}, problems


def grid_op(f, c, A):
    """Solenoidal round trip: lift to space, snap, peel, project back.
    The peeled curves must add up to exactly the snapped edges."""
    t0 = perf_counter()
    g = dm.snap_to_graph(dm.lift_solenoidal(f))
    dec = dm.graph_decompose(g)
    back = dm.project_curves(dec)
    t1 = perf_counter()
    problems = []
    graph = [((g.nodes[u], g.nodes[v]), wt) for u, v, wt in g.edges]
    if checks.edge_weights(checks.as_curves(dec)) != checks.edge_weights(graph):
        problems.append("the decomposition does not recompose the snapped edges")
    problems += _flux_and_divergence(checks.as_curves(f), checks.as_curves(back), c, A, 1e-12)
    return {"decompose_grid_ms": 1e3 * (t1 - t0)}, problems


def ae_op(m):
    """Transport norm with its primal and dual certificate."""
    t0 = perf_counter()
    value, rep, dual = dm.ae_norm(m)
    t1 = perf_counter()
    return {"ae_norm_ms": 1e3 * (t1 - t0)}, checks.check_ae_certificate(m.atoms(), value, rep.terms, dual)


# ---------------------------------------------------------------------------
# host speed

# The reference loop's median time on the reference host (README.md).
REFERENCE_S = 2.9e-3

_REF_X = np.random.default_rng(0).random((5000, 2))
_REF_D = {(i * 7919 % 200003, i % 17): float(i) for i in range(200_000)}
_REF_K = [(int(i) * 7919 % 200003, int(i) % 17) for i in np.random.default_rng(1).integers(0, 200_000, 1500)]


def reference() -> float:
    """A fixed loop of benchmark code, never dmfields: float arithmetic
    on small dicts, numpy on small arrays, and lookups in a dict of
    200,000 entries. Run after every operation, its time tracks the
    host's speed while the run measures. Returns its wall-clock time."""
    t0 = perf_counter()
    acc = 0.0
    d = {}
    for i in range(1000):
        p = (i % 97 * 0.5, i % 13 * 0.25)
        acc += p[0] * p[1]
        d[p] = d.get(p, 0.0) + acc
    for _ in range(5):
        ij = np.floor(_REF_X * 50.0).astype(int)
        np.sin(_REF_X[:, 0]) * _REF_X[:, 1] + ij[:, 0]
    for k in _REF_K:
        acc += _REF_D[k]
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# runs


class Run:
    """Operation counts, timings and failures of one run.

    times[metric][slot] holds one timing per round: every round repeats
    the same operations on the same inputs, so the samples of a slot
    differ only by the machine's state when they ran. reference holds
    the reference loop's time after each operation."""

    def __init__(self, seed: int, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.times: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.known_fault = 0  # failures explained by the half-plane fault
        self.unexpected: list[str] = []
        self.reference: list[float] = []

    def attempt(self, slot: int, op, args, known_fault: bool = False):
        self.attempted += 1
        try:
            times, problems = op(*args)
        except Exception:  # one failed operation must not end the run
            times, problems = {}, [traceback.format_exc(limit=3)]
        self.reference.append(reference())
        if problems:
            self.failed += 1
            if known_fault:
                self.known_fault += 1
            else:
                self.unexpected.append(f"{op.__name__}: {problems[0]}")
            return
        for key, value in times.items():
            self.times[key][slot].append(value)

    def seed(self) -> int:
        """An rng seed for an operation that draws its own randomness."""
        return int(self.rng.integers(0, 2**31 - 1))

    def phi(self, center):
        """Rotation about center, an (N, 2) -> (N, 2) map; spanned when
        traced, since its time is the benchmark's and not the program's."""
        cx, cy = center

        def Phi(X):
            return np.stack([-(X[:, 1] - cy), X[:, 0] - cx], axis=1)

        return self.tracer.span("smirnov.phi", Phi) if self.tracer else Phi

    def host_factor(self) -> float:
        """How much slower than the reference host this run's host was:
        the reference loop's median time over REFERENCE_S."""
        return statistics.median(self.reference) / REFERENCE_S

    def wall_clock(self) -> dict:
        """Each slot's median over the rounds, then the geometric mean
        over the slots of a metric (see README.md for why)."""
        out = {}
        for name in END_TO_END:
            if name != "setup_s":
                slots = self.times.get(name)
                out[name] = statistics.geometric_mean(statistics.median(v) for v in slots.values()) if slots else 0.0
        return out

    def metrics(self, setup_s: float) -> dict:
        """The end-to-end metrics: set-up time as measured, and every
        operation time divided by the host factor, that is, at the
        reference host's speed."""
        factor = self.host_factor()
        return {"setup_s": setup_s, **{k: v / factor for k, v in self.wall_clock().items()}}


def mc_grids(loops):
    """Mollified grids of each loop field at h 0.02 and 0.01."""
    out = []
    for curves in loops:
        f = gen.field(curves)
        verts = [v for c, _ in curves for v in c]
        center = (sum(x for x, _ in verts) / len(verts), sum(y for _, y in verts) / len(verts))
        out.append(
            (curves, center, dm.mollify(f, MC_EPS, 0.02), dm.mollify(f, MC_EPS, 0.01), f.curves[0].point_at(0.5))
        )
    return out


# Slots: each draws its inputs from run.rng once per run and returns
# (operation, arguments, known_fault); every round repeats them.


def _lift(run, cfg, n_atoms):
    m = gen.boundary_functional(run.rng, cfg.domain, n_atoms)
    return lift_op, (cfg, m, gen.lip_function(run.rng)), False


def _half_plane(run, item, crossing):
    return half_plane_op, item, crossing


def _reconstruct(run, grids, n, dt):
    curves, center, gf, _, _ = grids[int(run.rng.integers(len(grids)))]
    return reconstruct_op, (gf, run.phi(center), n, dt, run.seed(), curves), False


def _invariant(run, grid, T):
    _, _, gf, gf_fine, start = grid
    return invariant_op, (gf, gf_fine, start, T), False


def _decompose(run, many, few, pool):
    fields = [gen.many_node_field(run.rng, many), gen.few_node_field(run.rng, few, pool)]
    return decompose_op, (fields, *gen.affine_map(run.rng)), False


def _grid(run, paths, loops):
    return grid_op, (gen.lattice_field(run.rng, paths, loops), *gen.affine_map(run.rng)), False


def _ae(run, domain, n_atoms):
    return ae_op, (gen.boundary_functional(run.rng, domain, n_atoms),), False


def interleave(groups: list) -> list:
    """One round from groups of slots, one group per kind of operation:
    the k-th of n slots of a group goes at fraction (k + 1/2) / n of the
    round, so every kind is spread over the whole round and its metric
    samples the whole run, not one stretch of it."""
    placed = [((k + 0.5) / len(g), i, slot) for i, g in enumerate(groups) for k, slot in enumerate(g)]
    return [slot for _, _, slot in sorted(placed, key=lambda t: t[:2])]


def probe_groups(lift=False, mc=False, decompose=False) -> list:
    """Small fixed instances of the verbs a workload does not load
    itself, so that it still reports every end-to-end metric."""
    groups = []
    if lift:
        cfg = dm.lift_config(dm.domain_preset("square"), h=PROBE_H)
        cfg.sep()
        groups.append([partial(_lift, cfg=cfg, n_atoms=1 + k % MAX_ATOMS) for k in range(PROBE_LIFTS)])
    if mc:
        grid = mc_grids([gen.MC_LOOPS[gen.MC_RECONSTRUCT[0]]])[0]
        groups.append([partial(_reconstruct, grids=[grid], n=PROBE_MC_N, dt=PROBE_MC_DT)])
        groups.append([partial(_invariant, grid=grid, T=PROBE_INVARIANT_T)] * PROBE_INVARIANT_OPS)
    if decompose:
        ann = dm.domain_preset("annulus")
        groups.append([partial(_decompose, many=PROBE_MANY, few=PROBE_FEW, pool=PROBE_POOL)] * PROBE_DECOMPOSE_OPS)
        groups.append([partial(_grid, paths=PROBE_GRID[0], loops=PROBE_GRID[1])] * PROBE_GRID_OPS)
        groups.append([partial(_ae, domain=ann, n_atoms=PROBE_AE_ATOMS)] * PROBE_AE_OPS)
    return groups


def lift_setup() -> list:
    """Lift, trace and pair on the four interior presets at h = 0.02,
    6 lifts per preset, with the odd atom counts 1..11 on square and
    koch2 and the even ones 2..12 on lshape and annulus, plus the fixed
    half-plane batch."""
    cfgs = []
    for name in PRESETS:
        cfg = dm.lift_config(dm.domain_preset(name), h=H)
        cfg.sep()
        cfgs.append(cfg)
    lifts = [partial(_lift, cfg=cfg, n_atoms=k + i % 2) for k in range(1, MAX_ATOMS, 2) for i, cfg in enumerate(cfgs)]
    half_planes = [partial(_half_plane, item=item, crossing=crosses(*item[:3])) for item in gen.half_plane_batch()]
    return interleave([lifts, half_planes, *probe_groups(mc=True, decompose=True)])


def montecarlo_setup() -> list:
    """transport_invariant on AC-9's three loops and reconstruct_check
    at 10k particles on one of two of them, drawn per run."""
    grids = mc_grids(gen.MC_LOOPS)
    reconstruct = [partial(_reconstruct, grids=[grids[i] for i in gen.MC_RECONSTRUCT], n=MC_N, dt=1e-3)]
    invariant = [partial(_invariant, grid=grid, T=INVARIANT_T) for grid in grids]
    return interleave([reconstruct, invariant, *probe_groups(lift=True, decompose=True)])


def decompose_setup() -> list:
    """Exact decomposition and the transport norm at large sizes."""
    ann = dm.domain_preset("annulus")
    return interleave(
        [
            [partial(_decompose, many=MANY_SEGMENTS, few=FEW_SEGMENTS, pool=FEW_POOL)] * DECOMPOSE_OPS,
            [partial(_grid, paths=GRID[0], loops=GRID[1])] * GRID_OPS,
            [partial(_ae, domain=ann, n_atoms=AE_ATOMS)] * AE_OPS,
            *probe_groups(lift=True, mc=True),
        ]
    )


WORKLOADS = {
    "lift": lift_setup,
    "montecarlo": montecarlo_setup,
    "decompose": decompose_setup,
}


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> tuple[Run, float]:
    """Set up, draw the run's inputs, then run whole rounds until
    `seconds` have passed. Returns the run and the set-up time."""
    t0 = perf_counter()
    slots = WORKLOADS[name]()
    setup_s = perf_counter() - t0
    run = Run(seed, tracer)
    ops = [slot(run) for slot in slots]
    deadline = perf_counter() + seconds
    while True:
        for i, (op, args, known_fault) in enumerate(ops):
            run.attempt(i, op, args, known_fault)
        run.rounds += 1
        if perf_counter() >= deadline:
            return run, setup_s
