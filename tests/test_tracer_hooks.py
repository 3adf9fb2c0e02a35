"""The benchmark's traced run (`perfbench/run.py --trace 1`) patches
dmfields' functions and methods by name from outside. A rename in
dmfields would break that run without failing any other test, and so
would a move that leaves a patched method's count meaning something
else."""

import sys
from functools import partial
from pathlib import Path

import numpy as np

import dmfields
from dmfields.domain import domain_preset, select_lambda
from dmfields.regions import box_region
from dmfields.smirnov import GridField, rotation
from test_golden import FALLBACK

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import COUNTS, SPANS, Tracer  # noqa: E402


def test_tracer_installs_every_hook_and_uninstalls_cleanly():
    t = Tracer()
    try:
        t.install()
        patched = list(t._undo)
        targets = {(owner, attr) for owner, attr, _ in patched}
        for modname, clsname, attr, *_ in SPANS + COUNTS:
            home = getattr(dmfields, modname)
            owner = home if clsname is None else getattr(home, clsname)
            assert (owner, attr) in targets, f"{modname}.{clsname}.{attr}"
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr}"


def test_traced_sample_counts_follow_the_rk4_stages():
    # four sigma samples of the whole cloud per step: a change to the
    # sampler's signature that the tracer's argument hook misreads shows
    # here, not only in a traced benchmark run
    g = np.linspace(-1.0, 1.0, 9)
    gf = GridField(
        (-1.0, -1.0), 0.25, 0.1,
        -np.tile(g, (9, 1)), np.tile(g[:, None], (1, 9)), np.ones((9, 9)),
    )
    N, steps = 50, 5
    t = Tracer()
    try:
        t.install()
        dmfields.smirnov.reconstruct_check(
            gf, partial(rotation, 0.0, 0.0), N, T=0.05, dt=0.01
        )
    finally:
        t.uninstall()
    assert t.counts["smirnov.sample"] == 4 * steps
    assert t.counts["smirnov.sample.points"] == 4 * N * steps


def test_a_domain_query_counts_once_through_the_inherited_predicates():
    # a domain is one region over its parts' rings: one membership query
    # is one `contains` and one `on_boundary`, whichever part holds the point
    d = dmfields.PolygonalDomain((box_region(0, 0, 1, 1), box_region(2, 0, 3, 1)))
    t = Tracer()
    try:
        t.install()
        assert d.contains((2.5, 0.5))
    finally:
        t.uninstall()
    assert t.counts["regions.contains.other"] == 1
    assert t.counts["regions.on_boundary.other"] == 1


def test_each_grid_hop_opens_one_nearest_visible_span():
    # separation hops its 400 boundary samples in one call, and a route
    # that falls back to the grid hops both endpoints in one call
    square = domain_preset("square")
    lam = select_lambda(square, 0.4, 0.02)
    name, p, q = FALLBACK[0]
    koch = domain_preset(name)
    calls = {
        "domain.separation": lambda: dmfields.domain.separation(square, lam, 0.02),
        "domain.route": lambda: dmfields.domain.route(koch, p, q, 0.02),
    }
    for span, call in calls.items():
        t = Tracer()
        try:
            t.install()
            call()
        finally:
            t.uninstall()
        assert t.counts[span] == 1
        assert t.counts["domain.nearest_visible"] == 1
