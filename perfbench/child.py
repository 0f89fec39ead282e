"""One benchmark operation in its own process.

  child.py cli [--spans DIR] -- ARG...
      run `ksparse ARG...` in this process through ksparse.cli.main
  child.py sweep --seed N --setups R --seconds S --out PATH [--spans DIR]
      build the paper-size planted matrix in memory R times, then run the
      tuning sweep in a closed loop until S seconds have passed

BLAS is pinned to one thread before numpy loads, as the ksparse CLI does.
With --spans, ksparse's public functions are traced (see tracing.py) and
the spans are written to DIR when the work ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# the acceptance tuning sweep: sweep_eta(X, 4, [3, 5, 8], labels_true, n_jobs=2)
SWEEP_K, SWEEP_ETAS, SWEEP_JOBS = 4, (3.0, 5.0, 8.0), 2


def pin_blas() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _tracer(spans_dir):
    if spans_dir is None:
        return None
    from tracing import Tracer

    tracer = Tracer(spans_dir)
    tracer.install()
    if tracer.missing:
        print(f"perfbench: not traced, gone from ksparse: {tracer.missing}", file=sys.stderr)
    return tracer


def run_cli(argv, spans_dir) -> int:
    tracer = _tracer(spans_dir)
    from ksparse import cli

    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.flush()


def run_sweep(seed: int, setups: int, seconds: float, out: str, spans_dir) -> int:
    from ksparse import dataio, driver

    spec = dataio.SyntheticSpec(seed=seed)
    setup_s = []
    for _ in range(setups):
        start = time.monotonic()
        dataset = dataio.generate_synthetic(spec)
        setup_s.append(time.monotonic() - start)
    tracer = _tracer(spans_dir)

    ops = []
    loop_start = time.monotonic()
    while True:
        cpu0, start = _cpu_s(), time.monotonic()
        records = driver.sweep_eta(dataset.matrix, SWEEP_K, list(SWEEP_ETAS),
                                   labels_true=dataset.labels_true, n_jobs=SWEEP_JOBS)
        ops.append({"wall_s": time.monotonic() - start, "cpu_s": _cpu_s() - cpu0})
        if time.monotonic() - loop_start >= seconds:
            break
    if tracer is not None:
        tracer.flush()

    rows = [{"eta": r.eta, "selected_count": r.selected_count,
             "frobenius_objective": r.frobenius_objective,
             "accuracy": r.accuracy, "ari": r.ari, "nmi": r.nmi} for r in records]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "ops": ops, "records": rows,
                   "d": spec.d}, fh, indent=1)
    return 0


def main(argv=None) -> int:
    pin_blas()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", default=None)
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("sweep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setups", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rest = args.args[1:] if args.args[:1] == ["--"] else args.args
        return run_cli(rest, args.spans)
    return run_sweep(args.seed, args.setups, args.seconds, args.out, args.spans)


if __name__ == "__main__":
    sys.exit(main())
