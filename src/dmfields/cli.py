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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; flag problems are validation
    # problems here, so the same report exits 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dmfields")
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("trace", help="normal trace of a field on a region")
    s.add_argument("--field", required=True)
    s.add_argument("--region", required=True)
    s.add_argument("--out")

    s = sub.add_parser("pairing", help="pairing of a Lipschitz function with a field over a region")
    s.add_argument("--field", required=True)
    s.add_argument("--phi", required=True)
    s.add_argument("--region", required=True)
    s.add_argument("--out")

    s = sub.add_parser("ae-norm", help="transport norm with dipole representation and dual")
    s.add_argument("--element", required=True)
    s.add_argument("--out")

    s = sub.add_parser("lift", help="curve field realizing a boundary functional as its trace")
    s.add_argument("--element", required=True)
    s.add_argument("--domain", required=True)
    s.add_argument("--grid-h", type=float, default=0.02)
    s.add_argument("--delta", type=float)
    s.add_argument("--out")

    for verb in ("extend", "extend-divfree"):
        s = sub.add_parser(verb, help="extend a field beyond its domain")
        s.add_argument("--field", required=True)
        s.add_argument("--domain", required=True)
        s.add_argument("--box", required=True)
        s.add_argument("--grid-h", type=float, default=0.02)
        s.add_argument("--delta", type=float, default=0.3)
        s.add_argument("--out")

    s = sub.add_parser("decompose", help="snap to a graph and peel paths and cycles")
    s.add_argument("--field", required=True)
    s.add_argument("--tolerance", type=float, default=1e-9)
    s.add_argument("--out")

    s = sub.add_parser("smirnov-sim", help="mollify, trace flow curves, Monte-Carlo check")
    s.add_argument("--field", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--eps", type=float, default=0.1)
    s.add_argument("--grid-h", type=float, default=0.02)
    s.add_argument("--dt", type=float, default=1e-3)
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--out")

    s = sub.add_parser("verify", help="run acceptance suites")
    s.add_argument("--suite", action="append", choices=SUITES)
    s.add_argument("--out")

    s = sub.add_parser("domain-preset", help="write a named preset domain")
    s.add_argument("--name", required=True)
    s.add_argument("--out")
    return p


def _emit(payload: dict, out: str | None) -> None:
    if out:
        fileio.save(out, payload)
    else:
        sys.stdout.write(fileio.dumps(payload))


def _run(args) -> int:
    if args.verb == "trace":
        f = fileio.field_from_json(fileio.load(args.field))
        d = fileio.domain_from_json(fileio.load(args.region))
        m = domain_trace(f, d)
        _emit(fileio.measure_to_json(m), args.out)
        return 0

    if args.verb == "pairing":
        f = fileio.field_from_json(fileio.load(args.field))
        phi = fileio.lipfunc_from_json(fileio.load(args.phi))
        d = fileio.domain_from_json(fileio.load(args.region))
        value = pairing_over_set(f, phi, d)
        _emit({"value": value}, args.out)
        return 0

    if args.verb == "ae-norm":
        m = fileio.element_from_json(fileio.load(args.element))
        value, rep, dual = ae_norm(m)
        payload = {
            "value": value,
            "dipole": fileio.dipole_to_json(rep),
            "dual": [
                {"node": fileio._node_to_json(k), "potential": v}
                for k, v in sorted(dual.items(), key=lambda kv: str(kv[0]))
            ],
        }
        _emit(payload, args.out)
        if args.out:
            print(f"value {value!r}")
            for row in payload["dual"]:
                print(f"  {row['node']}  {row['potential']!r}")
        return 0

    if args.verb == "lift":
        m = fileio.element_from_json(fileio.load(args.element))
        d = fileio.domain_from_json(fileio.load(args.domain))
        cfg = lift_config(d, args.grid_h, args.delta)
        prov: list = []
        f = lift_surject(cfg, m, provenance=prov)
        payload = fileio.field_to_json(f)
        payload["provenance"] = prov
        _emit(payload, args.out)
        return 0

    if args.verb in ("extend", "extend-divfree"):
        f = fileio.field_from_json(fileio.load(args.field))
        d = fileio.domain_from_json(fileio.load(args.domain))
        box = fileio.region_from_json(fileio.load(args.box))
        comp = complement_region(d, box)
        cfg_out = lift_config(comp, args.grid_h, args.delta)
        if args.verb == "extend":
            out_field = extend_field(f, d, cfg_out)
            payload = fileio.field_to_json(out_field)
        else:
            connected = len(comp.parts) == 1
            out_field, punctures = extend_divfree(f, d, cfg_out, connected)
            payload = fileio.field_to_json(out_field)
            payload["punctures"] = [list(p) for p in punctures]
        _emit(payload, args.out)
        return 0

    if args.verb == "decompose":
        f = fileio.field_from_json(fileio.load(args.field))
        dec = graph_decompose(snap_to_graph(f, args.tolerance))
        _emit(fileio.decomposition_to_json(dec), args.out)
        return 0

    if args.verb == "smirnov-sim":
        f = fileio.field_from_json(fileio.load(args.field))
        gf = mollify(f, args.eps, args.grid_h)
        nx, ny = gf.shape
        cx = gf.origin[0] + (nx - 1) * gf.h / 2
        cy = gf.origin[1] + (ny - 1) * gf.h / 2
        Phi = partial(rotation, cx, cy)
        lhs, est, se, left = reconstruct_check(
            gf, Phi, args.samples, dt=args.dt, rng_seed=args.seed
        )
        _emit(
            {
                "lhs": lhs,
                "estimate": est,
                "stderr": se,
                "truncated": left,
                "tau_mass": gf.total_tau(),
                "within_3_stderr": bool(abs(lhs - est) <= 3 * se),
            },
            args.out,
        )
        return 0

    if args.verb == "verify":
        results = run_suites(args.suite)
        for name, passed, detail in results:
            print(f"{name}: {'PASS' if passed else 'FAIL'} - {detail}")
        if args.out:
            _emit(
                {
                    "results": [
                        {"suite": n, "passed": p, "detail": d}
                        for n, p, d in results
                    ]
                },
                args.out,
            )
        return 0 if all(p for _, p, _ in results) else 2

    if args.verb == "domain-preset":
        d = domain_preset(args.name)
        _emit(fileio.domain_to_json(d), args.out)
        return 0

    raise AssertionError(args.verb)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _run(args)
    # before DMFieldError: InvalidInput is both
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"invalid input: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except DMFieldError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
