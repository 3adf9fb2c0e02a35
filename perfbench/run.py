"""Benchmark entry point for dmfields.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 12 --trace 0

Runs one workload (lift, montecarlo or decompose) in this process, with
BLAS and OpenMP pinned to one thread, against the dmfields sources in
src/ of the checkout that holds this file. Prints an environment block,
then as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics from a traced run with --trace 1. The same object,
with the environment, goes to perfbench/out/; a traced run also writes
its spans there. See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("lift", "montecarlo", "decompose"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dmfields" / "__init__.py").is_file():
        print(f"no dmfields sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dmfields  # noqa: F401  (the tracer patches loaded modules)

    import workloads
    from tracer import Tracer

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        run, setup_s = workloads.run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    end_to_end = {k: {"value": v, "unit": workloads.END_TO_END[k]} for k, v in run.metrics(setup_s).items()}
    if tracer:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    else:
        metrics = end_to_end
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    for msg in run.unexpected[:5]:
        print("unexpected failure: " + msg.strip().replace("\n", " | "), file=sys.stderr)
    print(
        f"info known_fault_failures={run.known_fault} setup_s={setup_s:.3f} rounds={run.rounds} "
        f"host_factor={run.host_factor():.4f} "
        f"slots={ {k: len(v) for k, v in sorted(run.times.items())} }",
        flush=True,
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {"env": env, "known_fault_failures": run.known_fault, "unexpected": run.unexpected,
             "samples": run.times, "reference": run.reference, "host_factor": run.host_factor(),
             "wall_clock": run.wall_clock(), "end_to_end": end_to_end, **result},
            indent=1,
        )
    )
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
