"""Tracing overhead, measured op by op.

    python3 perfbench/overhead.py

Runs each operation twice on the same inputs in one process, once with
the tracer installed and once without, alternating which goes first,
and prints the median traced/untraced time ratio per operation kind.
Comparing a traced run with a separate untraced run mixes the overhead
with run-to-run machine noise, which on a shared host is larger.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import dmfields as dm  # noqa: E402
import gen  # noqa: E402
import workloads as w  # noqa: E402
from tracer import Tracer  # noqa: E402


def operations(rng):
    cfgs = [dm.lift_config(dm.domain_preset(n)) for n in ("square", "lshape", "koch2")]
    ann = dm.domain_preset("annulus")
    curves, center, gf, gf_fine, start = w.mc_grids([gen.MC_LOOPS[1]])[0]
    ops = []
    for k in range(36):
        cfg = cfgs[k % 3]
        m = gen.boundary_functional(rng, cfg.domain, 1 + k % w.MAX_ATOMS)
        ops.append(("lift", w.lift_op, (cfg, m, gen.lip_function(rng))))
    for _ in range(8):
        ops.append(("ae_norm", w.ae_op, (gen.boundary_functional(rng, ann, 60),)))
        fields = [gen.many_node_field(rng, 100), gen.few_node_field(rng, 200, 30)]
        ops.append(("decompose", w.decompose_op, (fields, *gen.affine_map(rng))))
        ops.append(("grid", w.grid_op, (gen.lattice_field(rng, 3, 4), *gen.affine_map(rng))))
    for k in range(3):
        phi = w.Run(0).phi(center)
        ops.append(("reconstruct", w.reconstruct_op, (gf, phi, 1000, 2e-3, k, curves)))
        ops.append(("invariant", w.invariant_op, (gf, gf_fine, start, 0.25)))
    return ops


def main() -> int:
    ops = operations(np.random.default_rng(5))
    ratios: dict[str, list[float]] = {}
    for rep in range(2):
        for name, op, args in ops:
            took = {}
            for traced in (rep == 0, rep == 1):
                tracer = Tracer()
                if traced:
                    tracer.install()
                try:
                    times, problems = op(*args)
                finally:
                    tracer.uninstall()
                if problems:
                    raise RuntimeError(f"{name}: {problems}")
                took[traced] = sum(times.values())
            ratios.setdefault(name, []).append(took[True] / took[False])
    for name, r in ratios.items():
        print(f"{name:12s} n={len(r):3d} traced/untraced median {statistics.median(r):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
