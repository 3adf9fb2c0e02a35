"""Command-line interface.

One verb per operator. All outputs go through the deterministic JSON
writer, so identical invocations produce byte-identical files. Exit
codes: 0 success, 1 bad input (unparsable files, bad flags), 2 domain
errors raised by the library.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, NamedTuple

from . import fileio
from .errors import DMFieldError
from .regions import pairing_over_set
from .aespace import ae_norm
from .domain import complement_region, domain_preset
from .tracext import (
    domain_trace,
    extend_divfree,
    extend_field,
    lift_config,
    lift_surject,
)
from .smirnov import graph_decompose, mollify, reconstruct_check, rotation, snap_to_graph
from .acceptance import SUITES, run_suites


# every file flag, by the reader of its JSON
_READERS = {
    "field": fileio.field_from_json,
    "region": fileio.domain_from_json,
    "domain": fileio.domain_from_json,
    "box": fileio.region_from_json,
    "element": fileio.element_from_json,
    "phi": fileio.lipfunc_from_json,
}


class Verb(NamedTuple):
    help: str
    files: tuple[str, ...]  # required, read in this order
    flags: dict  # flag -> add_argument keywords
    run: Callable  # args, files read -> payload
    report: Callable | None = None  # args, payload -> exit code, after the write
    stdout: bool = True  # the payload goes to stdout when there is no --out


def _lift(a):
    prov: list = []
    f = lift_surject(lift_config(a.domain, a.grid_h, a.delta), a.element, provenance=prov)
    return {**fileio.field_to_json(f), "provenance": prov}


def _exterior(a):
    return lift_config(complement_region(a.domain, a.box), a.grid_h, a.delta)


def _extend_divfree(a):
    g, punctures = extend_divfree(a.field, a.domain, _exterior(a))
    return {**fileio.field_to_json(g), "punctures": [list(p) for p in punctures]}


def _ae_norm_summary(a, payload):
    if a.out:
        print(f"value {payload['value']!r}")
        for row in payload["dual"]:
            print(f"  {row['node']}  {row['potential']!r}")
    return 0


def _smirnov_sim(a):
    gf = mollify(a.field, a.eps, a.grid_h)
    nx, ny = gf.shape
    cx = gf.origin[0] + (nx - 1) * gf.h / 2
    cy = gf.origin[1] + (ny - 1) * gf.h / 2
    lhs, est, se, left = reconstruct_check(
        gf, partial(rotation, cx, cy), a.samples, dt=a.dt, rng_seed=a.seed
    )
    return {
        "lhs": lhs,
        "estimate": est,
        "stderr": se,
        "truncated": left,
        "tau_mass": gf.total_tau(),
        "within_3_stderr": bool(abs(lhs - est) <= 3 * se),
    }


def _verify(a):
    results = run_suites(a.suite)
    for name, passed, detail in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'} - {detail}")
    return {"results": [{"suite": n, "passed": p, "detail": d} for n, p, d in results]}


_GRID_H = {"--grid-h": dict(type=float, default=0.02)}
_EXTEND = {**_GRID_H, "--delta": dict(type=float, default=0.3)}

VERBS = {
    "trace": Verb(
        "normal trace of a field on a region", ("field", "region"), {},
        lambda a: fileio.measure_to_json(domain_trace(a.field, a.region)),
    ),
    "pairing": Verb(
        "pairing of a Lipschitz function with a field over a region",
        ("field", "phi", "region"), {},
        lambda a: {"value": pairing_over_set(a.field, a.phi, a.region)},
    ),
    "ae-norm": Verb(
        "transport norm with dipole representation and dual", ("element",), {},
        lambda a: fileio.ae_norm_to_json(*ae_norm(a.element)), _ae_norm_summary,
    ),
    "lift": Verb(
        "curve field realizing a boundary functional as its trace", ("element", "domain"),
        {**_GRID_H, "--delta": dict(type=float)}, _lift,
    ),
    "extend": Verb(
        "extend a field beyond its domain", ("field", "domain", "box"), _EXTEND,
        lambda a: fileio.field_to_json(extend_field(a.field, a.domain, _exterior(a))),
    ),
    "extend-divfree": Verb(
        "extend a field beyond its domain", ("field", "domain", "box"), _EXTEND, _extend_divfree
    ),
    "decompose": Verb(
        "snap to a graph and peel paths and cycles", ("field",),
        {"--tolerance": dict(type=float, default=1e-9)},
        lambda a: fileio.decomposition_to_json(
            graph_decompose(snap_to_graph(a.field, a.tolerance))
        ),
    ),
    "smirnov-sim": Verb(
        "mollify, trace flow curves, Monte-Carlo check", ("field",),
        {
            "--seed": dict(type=int, required=True),
            "--eps": dict(type=float, default=0.1),
            **_GRID_H,
            "--dt": dict(type=float, default=1e-3),
            "--samples": dict(type=int, default=10000),
        },
        _smirnov_sim,
    ),
    "verify": Verb(
        "run acceptance suites", (), {"--suite": dict(action="append", choices=SUITES)}, _verify,
        lambda a, payload: 0 if all(row["passed"] for row in payload["results"]) else 2,
        stdout=False,
    ),
    "domain-preset": Verb(
        "write a named preset domain", (), {"--name": dict(required=True)},
        lambda a: fileio.domain_to_json(domain_preset(a.name)),
    ),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; flag problems are validation
    # problems here, so the same report exits 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dmfields")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        s = sub.add_parser(name, help=verb.help)
        for flag in verb.files:
            s.add_argument(f"--{flag}", required=True)
        for flag, kwargs in verb.flags.items():
            s.add_argument(flag, **kwargs)
        s.add_argument("--out")
    return p


def _run(args) -> int:
    verb = VERBS[args.verb]
    for flag in verb.files:
        setattr(args, flag, _READERS[flag](fileio.load(getattr(args, flag))))
    payload = verb.run(args)
    if args.out:
        fileio.save(args.out, payload)
    elif verb.stdout:
        sys.stdout.write(fileio.dumps(payload))
    return verb.report(args, payload) if verb.report else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _run(args)
    # before DMFieldError: InvalidInput is both; a file nested past the
    # recursion limit is bad input too
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as e:
        print(f"invalid input: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except DMFieldError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
