"""Golden digests of the deterministic outputs.

Nets and routing graphs (of the presets, of the square's complement in
the box [-1, 2]^2, of the annulus's two-component complement in the
box [-3, 3]^2 and of the complement, in the box [-1, 5]^2, of a framed
square hole with an island in it), lifts with provenance (on the presets and on the
annulus's complement, with atoms on both components), a divergence-free
extension across the annulus that keeps its punctures, the routes on
which `route` falls back to the grid, the snapped graph and the
decomposition of two seeded fields at scale, flow curves, drifts and
Monte-Carlo checks on AC-9's loops and on a grid that truncates
trajectories, checks of 10,000 particles on AC-9's triangle and on that
grid (stepped in slices where there is more than one CPU), transport
norms with their dipoles and duals (120-atom elements on the annulus, and
elements on a dyadic lattice where distances tie), and the JSON
of the `trace`, `pairing`, `ae-norm`, `lift`, `extend`,
`extend-divfree`, `decompose` and `smirnov-sim` verbs are written
through the deterministic JSON writer and hashed with SHA-256,
so a change that moves any of them by one ulp fails here. When a change
to one of them is intended, print the new digests with
`PYTHONPATH=src python tests/test_golden.py` (each digest that differs
from `GOLDEN` is marked) and record the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
from functools import partial

import numpy as np
import pytest

from dmfields import (
    AEElement,
    AtomicMeasure,
    CurveField,
    PolyCurve,
    ae_norm,
    cli,
    fileio,
)
from dmfields.acceptance import _preset_loops, _rand_boundary_measure
from dmfields.domain import (
    PolygonalDomain,
    RoutingGraph,
    complement_region,
    domain_preset,
    route,
    routing_graph,
)
from dmfields.regions import PolyRegion, box_region
from dmfields.smirnov import (
    GridField,
    flow_trace,
    graph_decompose,
    lift_solenoidal,
    mollify,
    reconstruct_check,
    rotation,
    snap_to_graph,
    transport_invariant,
)
from dmfields.tracext import extend_divfree, lift_config, lift_surject

PRESETS = ("square", "annulus", "lshape", "koch2")
NETS = (*PRESETS, "square-complement", "annulus-complement", "island-complement")
LIFTS = (*PRESETS, "annulus-complement")
FIELDS = ("pool", "lattice")
FLOWS = ("ac9-loops", "stretch", "split")
NORMS = ("annulus-120", "ties")

GOLDEN = {
    "net-graph[square]": "e51f4ecd59b549eacb94fa460628c17a149953cab2283fe8d9edf21ad0f43670",
    "net-graph[annulus]": "3dc4634a345cf98ace632da5dbd4f3cba8d66a88be56a4ce6f7d7472e8a46fdd",
    "net-graph[lshape]": "35b4cef34d9b14e5c27498198e75fac835bd5304a61bf1288d80391661371027",
    "net-graph[koch2]": "8d63658575eb48278da159f3ca728fe545f6cf193c9345b29c583499c7440815",
    "net-graph[square-complement]": "cf4b746cb158a9bd444559e4599d01d1d1c0bf80a5cec6eabad52ccee0743bd3",
    "net-graph[annulus-complement]": "1ea37f019fd06b30f62770c00cdc8be8077de42513e74e0585d6478f9ab41499",
    "net-graph[island-complement]": "e1a956798342f22c0ee74ffba2d04be5062dce342ac0105d4cf31c0ec9a7384e",
    "lifts[square]": "b93b7172652bb24f0b671e9281b6f4bd84d5774ba2efb9632326ecffe5e19fb5",
    "lifts[annulus]": "510e7413858981386b7a9762a47f1e1e3258c49609642a46fe000c6c5f314e2e",
    "lifts[lshape]": "3ef6fbfc2871c1471e326ddafd744cee294387da555147a4ea098c1ce06b47ac",
    "lifts[koch2]": "6bf88538a183ce9f2988bddc5579e3970af783a6cad0bc9dae7ee74536a82b10",
    "lifts[annulus-complement]": "68b2a3bd4bed4577cfcb93baeed55cc81aebff7cd7316afae94255e630707796",
    "extend-divfree[annulus-complement]": "897c73ace354211cd638214b917d0afaec1530f182d358dbb2304ec9d18bb749",
    "decompose[pool]": "feea6f82b64034220c7527286fe5595e62e812788095cde66937473d707c952c",
    "decompose[lattice]": "e9484b06c45629bd1edb9a1fb0f6f43c792b50b3116bf9e802943c525fa5dd1e",
    "cli[trace]": "b5c9172ea49a4ae94ea3f9c84b6b2647af2b640f436f04c2f6940a72b3046b71",
    "cli[pairing]": "3eb032bb9f27a3c0f346df46a1d75229150ac4ddacdd6eadfc3a69a3c7be6b53",
    "cli[ae-norm]": "385502ec635c13e9814c5fa558858c2767812142c105aac22cae2d5d92205ca6",
    "cli[lift]": "bbde7bf485b72a8f724181591a0231d637b11b2c0b4249087f5c5256246763c3",
    "cli[extend]": "96784b5b0fc9e947d539482425c5efbeb87430c8ef2a05a2205a16eabcef9bb3",
    "cli[extend-divfree]": "e12ae73b008e72cb6ae258f776a22b516b33820e804e057caf23b35de7b95773",
    "cli[decompose]": "3f6b6c0fb5228371e8a2db9611586e161d33b38ddcb0683059b477807da6a7af",
    "routes[fallback]": "1131970c42313953af53d335efb2b2eed29e65c45ea1e7fb9fbbedd4ef0c6b30",
    "flows[ac9-loops]": "f571e35e364269f68143b518e69420125b098c33dec701df04a3b647ffc7ad6e",
    "flows[stretch]": "d6d5632810bef2c51d815dc18002ff01b31f7ba22e049382929e77d5e10cea47",
    "flows[split]": "91ba79808c16a89c3c05b08c4d57983ab4d5c7e98caac822795cef4850368d0c",
    "cli[smirnov-sim]": "2424220b0be5897a0c80fe716f37a24e70f8b647eb9df51fb0ba45ccb40e5965",
    "ae[annulus-120]": "784f3d19da85d9bf31e2353fab1b1873b27b7b2073102f4648d0301651c5688e",
    "ae[ties]": "83980ac28c9b73e9339168a7210a60e135b17dd67c39786f6ba029622d20f86c",
}
VERBS = (
    "trace",
    "pairing",
    "ae-norm",
    "lift",
    "extend",
    "extend-divfree",
    "decompose",
    "smirnov-sim",
)

SQUARE = {
    "regions": [{"outer": [[0, 0], [1, 0], [1, 1], [0, 1]], "holes": []}],
    "eps": 0.5,
    "delta": 0.4,
}
BOX = {"outer": [[-1, -1], [2, -1], [2, 2], [-1, 2]], "holes": []}
ELEMENT = {
    "atoms": [
        {"location": [0.0, 0.3], "coefficient": 1.0},
        {"location": [1.0, 0.7], "coefficient": -1.0},
        {"location": [0.5, 0.0], "coefficient": 0.25},
    ]
}
# two boundary-to-boundary chords and a loop: divergence-free inside
CHORDS = {
    "curves": [
        {"weight": 1.0, "vertices": [[0.0, 0.3], [0.5, 0.45], [1.0, 0.7]]},
        {"weight": 0.5, "vertices": [[0.2, 1.0], [0.4, 0.6], [0.8, 0.0]]},
        {
            "weight": 0.75,
            "vertices": [[0.3, 0.3], [0.6, 0.2], [0.5, 0.5], [0.3, 0.3]],
        },
    ]
}
# a chord plus a curve ending inside, with a T-junction and a shared vertex
WEB = {
    "curves": [
        {"weight": 1.0, "vertices": [[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]]},
        {"weight": 0.5, "vertices": [[0.5, 0.5], [0.5, 0.8]]},
        {"weight": 2.0, "vertices": [[0.25, 0.5], [0.25, 0.0]]},
    ]
}
# max of a linear function and a distance: kinks inside the square
PHI = {
    "kind": "max",
    "f": {"kind": "linear", "v": [1.0, -0.5]},
    "g": {"kind": "dist", "p": [0.3, 0.6]},
}


def _digest(payload) -> str:
    text = payload if isinstance(payload, str) else fileio.dumps(payload)
    return hashlib.sha256(text.encode()).hexdigest()


def _config(name):
    if name == "square-complement":  # AC-5's frame around the square
        d = complement_region(domain_preset("square"), box_region(-1, -1, 2, 2))
        return lift_config(d, 0.02, 0.3)
    if name == "annulus-complement":  # two routing components
        d = complement_region(domain_preset("annulus"), box_region(-3, -3, 3, 3))
        return lift_config(d, 0.05, 0.3)
    if name == "island-complement":  # a frame and the ring between hole and island
        frame = PolyRegion(box_region(0, 0, 4, 4).outer, [box_region(1, 1, 3, 3).outer])
        d = PolygonalDomain((frame, box_region(1.5, 1.5, 2.5, 2.5)))
        return lift_config(complement_region(d, box_region(-1, -1, 5, 5)), 0.05, 0.3)
    return lift_config(domain_preset(name), 0.02)


def _net_graph(name):
    cfg = _config(name)
    g = routing_graph(cfg.domain, cfg.h)
    return {
        "lam": cfg.lam,
        "e": cfg.e,
        "sep": cfg.sep(),
        "comp": g.comp,
        "clearance": g.clearance,
    }


def _lifts(name):
    cfg = _config(name)
    d = cfg.domain
    rng = np.random.default_rng(7)
    out = []
    for _ in range(12):
        m = _rand_boundary_measure(rng, d, int(rng.integers(1, 7)))
        prov: list = []
        payload = fileio.field_to_json(lift_surject(cfg, m, provenance=prov))
        payload["provenance"] = prov
        out.append(payload)
    return out


def _extend_divfree():
    """Three curves across the annulus: their trace sits on both circles,
    and its two halves lift in the complement's two components, to
    different nets, so residual divergence stays as punctures."""
    f = CurveField(
        [
            PolyCurve([(0.1, 0.2), (1.5, 0.4), (2.5, 0.7)], 1.0),
            PolyCurve([(-2.5, -0.5), (-1.5, 0.2), (-0.3, 0.1)], 0.5),
            PolyCurve([(0.3, -2.5), (0.5, -1.5), (1.9, 0.2), (2.6, 1.0)], 2.0),
        ]
    )
    cfg = _config("annulus-complement")
    g, punctures = extend_divfree(f, domain_preset("annulus"), cfg)
    return {"field": fileio.field_to_json(g), "punctures": punctures}


# the (domain, p, q) of the routes that reach `route`'s grid fallback in
# AC-4 (koch2) and AC-5 and AC-6 (the square's complement), grid step 0.02
FALLBACK = (
    (
        "koch2",
        (0.3701967223811453, 0.7059510961495126),
        (0.21882841634776184, 0.5832285133952169),
    ),
    ("square-complement", (0.15422822158444902, 1.0), (0.0, 0.8576687915469355)),
    ("square-complement", (0.0, 0.10594660115375287), (0.12500994726609244, 0.0)),
    ("square-complement", (0.12479169643946353, 0.0), (0.0, 0.14005543224476613)),
)


def _fallback_routes():
    """The routes in FALLBACK, and the number of grid searches run for
    them."""
    searches = 0
    dijkstra = RoutingGraph.dijkstra

    def counted(self, *args):
        nonlocal searches
        searches += 1
        return dijkstra(self, *args)

    out = []
    for name, p, q in FALLBACK:
        d = _config(name).domain
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RoutingGraph, "dijkstra", counted)
            out.append([list(v) for v in route(d, p, q, 0.02).vertices])
    return out, searches


# sigma = (3x, 0) on [0, 16] x [0, 1] with tau = 1: particles seeded far
# out leave the grid, so a Monte-Carlo check truncates some of them
_IX = np.repeat(np.arange(17.0)[:, None], 2, axis=1)
STRETCH = GridField(
    (0.0, 0.0), 1.0, 0.1, 3.0 * _IX, np.zeros_like(_IX), np.ones_like(_IX)
)


def _flows(name):
    if name == "stretch":
        Phi = partial(rotation, 8.0, 0.5)
        return reconstruct_check(STRETCH, Phi, 500, T=0.25, dt=0.05)
    if name == "split":
        # clouds of 10,000 particles, large enough to be stepped in
        # slices on a machine with more than one CPU: AC-9's triangle at
        # a shorter time, and the stretch grid, which truncates
        # trajectories all over the cloud, so in every slice
        f = _preset_loops()[1]
        gf = mollify(f, 0.1, 0.02)
        vs = [v for c in f for v in c.vertices]
        cx, cy = (sum(v[k] for v in vs) / len(vs) for k in (0, 1))
        Phi = partial(rotation, cx, cy)
        return {
            "triangle": [
                reconstruct_check(gf, Phi, 10000, T=0.05, dt=1e-3, rng_seed=s)
                for s in (0, 1)
            ],
            "stretch": reconstruct_check(
                STRETCH, partial(rotation, 8.0, 0.5), 10000, T=0.25, dt=0.05
            ),
        }
    # AC-9's loops, Phi, seeds and steps, at shorter times and fewer
    # particles
    out = []
    for f in _preset_loops():
        gf = mollify(f, 0.1, 0.02)
        gf2 = mollify(f, 0.1, 0.01)
        vs = [v for c in f for v in c.vertices]
        cx, cy = (sum(v[k] for v in vs) / len(vs) for k in (0, 1))
        Phi = partial(rotation, cx, cy)
        seed = f.curves[0].point_at(0.5)
        out.append(
            {
                "trace": [list(v) for v in flow_trace(gf, seed, T=0.25).vertices],
                "drift": [
                    transport_invariant(gf, seed, T=0.25, dt=1e-3),
                    transport_invariant(gf2, seed, T=0.25, dt=5e-4),
                ],
                "checks": [
                    reconstruct_check(gf, Phi, 2000, T=0.2, dt=1e-3, rng_seed=s)
                    for s in (0, 1)
                ],
            }
        )
    return out


def _field(name):
    rng = np.random.default_rng(11)
    curves = []
    if name == "pool":
        # 1,000 segments over 100 real points: segments repeat in both
        # directions, so the snap merges and cancels and the peel leaves
        # float residues
        pool = [tuple(p) for p in rng.uniform(-1, 1, (100, 2)).tolist()]
        for _ in range(250):
            pts = [pool[i] for i in rng.choice(100, 5, replace=False).tolist()]
            curves.append((pts, float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1, 1]))))
        return CurveField([PolyCurve(p, w) for p, w in curves])
    # the lift of paths and loops on a 6 x 6 lattice with dyadic weights:
    # segments cross lattice points and overlap, and the peel finds paths
    # and cycles in space
    lattice = [(float(x), float(y)) for x in range(6) for y in range(6)]
    for k in range(16):
        pts = [lattice[i] for i in rng.choice(36, int(rng.integers(2, 6)), replace=False).tolist()]
        if k % 2:
            pts.append(pts[0])  # a loop
        curves.append((pts, float(rng.integers(1, 33)) / 16.0))
    return lift_solenoidal(CurveField([PolyCurve(p, w) for p, w in curves]))


def _decompose(name):
    g = snap_to_graph(_field(name))
    return {
        "graph": {
            "nodes": [list(p) for p in g.nodes],
            "edges": [list(e) for e in g.edges],
            "imbalance": list(g.imbalance),
        },
        "decomposition": fileio.decomposition_to_json(graph_decompose(g)),
    }


def _ae_payload(m):
    value, rep, dual = ae_norm(m)
    return {
        "value": value,
        "dipole": fileio.dipole_to_json(rep),
        "dual": [
            [fileio._node_to_json(k), v]
            for k, v in sorted(dual.items(), key=lambda kv: str(kv[0]))
        ],
    }


def _norms(name):
    if name == "annulus-120":  # the size of the benchmark's transport norms
        rng = np.random.default_rng(5)
        d = domain_preset("annulus")
        return [_ae_payload(_rand_boundary_measure(rng, d, 120)) for _ in range(3)]
    # atoms on the lattice (Z/4)^2 in [0, 3]^2 with coefficients in Z/4:
    # many pairs tie in distance, many are capped at 2, and some sit at
    # exactly 1, the distance to the base point
    rng = np.random.default_rng(13)
    out = []
    for _ in range(20):
        k = int(rng.integers(2, 16))
        ij = rng.integers(0, 13, (k, 2)).tolist()
        cs = (rng.integers(1, 9, k) * rng.choice([-1, 1], k)).tolist()
        atoms = [((i / 4, j / 4), c / 4) for (i, j), c in zip(ij, cs)]
        out.append(_ae_payload(AEElement(AtomicMeasure(atoms))))
    return out


def _cli(verb, tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(fileio.dumps(payload))
        return str(path)

    square = write("square.json", SQUARE)
    if verb == "trace":
        args = ["--field", write("web.json", WEB), "--region", square]
    elif verb == "pairing":
        args = ["--field", write("chords.json", CHORDS), "--region", square]
        args += ["--phi", write("phi.json", PHI)]
    elif verb == "ae-norm":
        args = ["--element", write("elem.json", ELEMENT)]
    elif verb == "lift":
        args = ["--element", write("elem.json", ELEMENT), "--domain", square]
    elif verb == "decompose":
        args = ["--field", write("web.json", WEB)]
    elif verb == "smirnov-sim":  # AC-9's triangle
        tri = fileio.field_to_json(_preset_loops()[1])
        args = ["--field", write("tri.json", tri), "--seed", "3", "--samples", "2000"]
    else:
        field = CHORDS if verb == "extend-divfree" else WEB
        args = ["--field", write("field.json", field), "--domain", square]
        args += ["--box", write("box.json", BOX)]
    out = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):  # ae-norm's summary
        assert cli.main([verb, *args, "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", NETS)
def test_net_and_graph(name):
    assert _digest(_net_graph(name)) == GOLDEN[f"net-graph[{name}]"]


@pytest.mark.parametrize("name", LIFTS)
def test_lifts_with_provenance(name):
    assert _digest(_lifts(name)) == GOLDEN[f"lifts[{name}]"]


def test_divergence_free_extension_with_punctures():
    key = "extend-divfree[annulus-complement]"
    assert _digest(_extend_divfree()) == GOLDEN[key]


def test_routes_that_fall_back_to_the_grid():
    routes, searches = _fallback_routes()
    assert searches == len(FALLBACK)
    assert _digest(routes) == GOLDEN["routes[fallback]"]


@pytest.mark.parametrize("name", FLOWS)
def test_flows_and_monte_carlo_checks(name):
    payload = _flows(name)
    if name == "stretch":
        assert 0 < payload[3] < 500  # some trajectories were truncated
    if name == "split":
        assert 0 < payload["stretch"][3] < 10000
    assert _digest(payload) == GOLDEN[f"flows[{name}]"]


@pytest.mark.parametrize("name", FIELDS)
def test_graph_and_decomposition(name):
    assert _digest(_decompose(name)) == GOLDEN[f"decompose[{name}]"]


@pytest.mark.parametrize("name", NORMS)
def test_transport_norms_dipoles_and_duals(name):
    assert _digest(_norms(name)) == GOLDEN[f"ae[{name}]"]


@pytest.mark.parametrize("verb", VERBS)
def test_cli_json(verb, tmp_path):
    assert _digest(_cli(verb, tmp_path)) == GOLDEN[f"cli[{verb}]"]


if __name__ == "__main__":
    import pathlib
    import tempfile

    def show(key, payload):
        digest = _digest(payload)
        mark = "" if GOLDEN.get(key) == digest else "  # differs from GOLDEN"
        print(f'    "{key}": "{digest}",{mark}')

    for name in NETS:
        show(f"net-graph[{name}]", _net_graph(name))
    for name in LIFTS:
        show(f"lifts[{name}]", _lifts(name))
    show("extend-divfree[annulus-complement]", _extend_divfree())
    show("routes[fallback]", _fallback_routes()[0])
    for name in FLOWS:
        show(f"flows[{name}]", _flows(name))
    for name in FIELDS:
        show(f"decompose[{name}]", _decompose(name))
    for name in NORMS:
        show(f"ae[{name}]", _norms(name))
    for verb in VERBS:
        with tempfile.TemporaryDirectory() as tmp:
            show(f"cli[{verb}]", _cli(verb, pathlib.Path(tmp)))
