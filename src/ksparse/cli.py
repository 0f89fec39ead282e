"""Command-line surface: cluster, sweep, synth, and eval subcommands.

Numerical libraries are imported lazily so that BLAS threading can be
pinned before they load: all in-process linear algebra runs single-threaded,
which makes outputs byte-identical for any ``--threads`` value.  The
``--threads`` flag instead sizes the processes: ``cluster`` shares the
k-means replicates of its start out over that many, this one and forked
workers; the sweep shares its budgets out over them, and each budget's
replicates over what is left; and ``cluster``, ``sweep`` and ``synth``
split the load or write of a CSV above a size threshold (two blocks of 4
MiB) into that many blocks of whole rows.  The records, the matrix, the
files written and every error message are the same for any value.

Summary lines are stable and tab-separated:

  cluster:  eta  selected  frobenius  [accuracy  ari  nmi]
  sweep:    a table with header eta/selected/frobenius/accuracy/ari/nmi
  eval:     accuracy ari nmi  (space-separated, 6 decimals)

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

_NORMALIZE_STAGES = ("cpm", "spectral", "none")


def _pin_blas_threads() -> None:
    # one BLAS thread per process keeps every floating-point reduction order
    # fixed; already-set variables are respected
    if "numpy" in sys.modules:
        return
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, "1")


def _usable_cpus() -> int:
    """CPUs this process may run on; ``os.cpu_count()`` also counts those it may not."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time", action="store_true",
                   help="print wall-clock time per phase to stderr")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="delimited matrix, rows are samples")
    p.add_argument("--labels", default=None, help="true labels file, one integer per line")
    p.add_argument("--header", action="store_true", help="input has a feature-name header row")
    p.add_argument("--rownames", action="store_true", help="input has a sample-id first column")
    p.add_argument("--delimiter", choices=("comma", "tab"), default=None,
                   help="field delimiter (default: auto-detect)")
    p.add_argument("--normalize", default="spectral",
                   help="comma-separated stages among cpm/spectral, or none "
                        "(default: %(default)s)")
    p.add_argument("--filter-min-count", type=float, default=None,
                   help="with --filter-min-cells, drop features below this count")
    p.add_argument("--filter-min-cells", type=int, default=None,
                   help="minimum samples reaching --filter-min-count")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="number of clusters (>= 2)")
    p.add_argument("--dbar", type=int, default=None,
                   help="projected-space dimension (default: k+4)")
    p.add_argument("--loops", type=int, default=10,
                   help="outer alternating loops (default: %(default)s)")
    p.add_argument("--inner-iters", type=int, default=300,
                   help="projected-gradient iterations per loop (default: %(default)s)")
    p.add_argument("--replicates", type=int, default=40,
                   help="k-means++ replicates per clustering step (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="run seed (default: %(default)s)")
    _add_threads_flag(p)


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"--threads must be >= 1, got {value}")
    return value


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_threads, default=_usable_cpus(),
                   help="processes: k-means replicates and sweep budgets are shared "
                        "out over that many, and a large CSV is read or written in that "
                        "many blocks; results do not depend on it (default: usable "
                        "CPUs, %(default)s here)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksparse",
        description="Clustering with embedded sparse feature selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster one dataset at a fixed l1 budget")
    _add_input_flags(p)
    _add_solver_flags(p)
    p.add_argument("--eta", type=float, required=True, help="l1 budget (> 0)")
    p.add_argument("--out", required=True, help="result document path (JSON)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("sweep", help="run a sweep over l1 budgets, emit a table")
    _add_input_flags(p)
    _add_solver_flags(p)
    p.add_argument("--eta-list", default=None, help="comma-separated eta values")
    p.add_argument("--eta-range", default=None,
                   help="START:STOP:STEP inclusive range of eta values")
    p.add_argument("--out", default=None, help="table path (default: stdout)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic Gaussian-cluster dataset")
    p.add_argument("--m", type=int, default=600, help="samples (default: %(default)s)")
    p.add_argument("--d", type=int, default=5000, help="features (default: %(default)s)")
    p.add_argument("--k", type=int, default=4, help="clusters (default: %(default)s)")
    p.add_argument("--informative", type=int, default=100,
                   help="features carrying cluster structure (default: %(default)s)")
    p.add_argument("--shift", type=float, default=2.0,
                   help="between-cluster mean separation (default: %(default)s)")
    p.add_argument("--noise-sd", type=float, default=1.0,
                   help="noise standard deviation (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: %(default)s)")
    p.add_argument("--out", required=True, help="output path prefix")
    _add_threads_flag(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score predicted labels against true labels")
    p.add_argument("--pred", required=True, help="predicted labels file")
    p.add_argument("--truth", required=True, help="true labels file")
    p.set_defaults(func=_cmd_eval)

    return parser


class _Phases:
    """Optional per-phase wall-clock reporting to stderr."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._t0 = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        if self.enabled:
            print(f"[time] {name}: {now - self._t0:.3f}s", file=sys.stderr)
        self._t0 = now


def _parse_normalize(parser, text: str) -> list[str]:
    stages = [s.strip() for s in text.split(",") if s.strip()]
    for s in stages:
        if s not in _NORMALIZE_STAGES:
            parser.error(f"--normalize: unknown stage {s!r} (choose from cpm, spectral, none)")
    if "none" in stages and len(stages) > 1:
        parser.error("--normalize: 'none' cannot be combined with other stages")
    return [] if stages == ["none"] else stages


def _validate_cluster_args(parser, args) -> None:
    if args.k < 2:
        parser.error(f"--k must be >= 2, got {args.k}")
    if args.command == "cluster" and not 0 < args.eta < math.inf:
        parser.error(f"--eta must be positive and finite, got {args.eta}")
    if args.loops < 0 or args.inner_iters < 0:
        parser.error("--loops and --inner-iters must be nonnegative")
    if args.replicates < 1:
        parser.error("--replicates must be >= 1")
    if args.dbar is not None and args.dbar < 1:
        parser.error("--dbar must be >= 1")
    if (args.filter_min_count is None) != (args.filter_min_cells is None):
        parser.error("--filter-min-count and --filter-min-cells go together")
    if args.filter_min_count is not None and not math.isfinite(args.filter_min_count):
        parser.error(f"--filter-min-count must be finite, got {args.filter_min_count}")
    if args.filter_min_cells is not None and args.filter_min_cells < 0:
        parser.error(f"--filter-min-cells must be >= 0, got {args.filter_min_cells}")


def _load_and_preprocess(args, stages, phases):
    from . import dataio

    delim = {"comma": ",", "tab": "\t"}.get(args.delimiter)
    dataset = dataio.load_matrix_csv(
        args.input, has_header=args.header, has_rownames=args.rownames, delimiter=delim,
        n_jobs=args.threads,
    )
    m = len(dataset.sample_ids)
    if args.k > m:
        raise ValueError(f"{args.input}: cannot form --k {args.k} clusters from {m} samples")
    labels_true = dataio.load_labels(args.labels) if args.labels else None
    if labels_true is not None and len(labels_true) != m:
        raise ValueError(
            f"{args.labels}: labels_true has {len(labels_true)} entries for "
            f"{m} samples in {args.input}"
        )
    phases.mark("load")

    X = dataset.matrix
    names = dataset.feature_names
    if args.filter_min_count is not None:
        if args.filter_min_cells > m:
            raise ValueError(
                f"{args.input}: --filter-min-cells {args.filter_min_cells} "
                f"exceeds its {m} samples"
            )
        try:
            X, kept = dataio.filter_low_expressed(
                X, args.filter_min_count, args.filter_min_cells
            )
        except ValueError:
            # the flags and the matrix are checked by now; only an empty
            # result is left
            raise ValueError(
                f"{args.input}: no feature reaches --filter-min-count "
                f"{args.filter_min_count:g} in --filter-min-cells "
                f"{args.filter_min_cells} samples"
            ) from None
        names = [names[j] for j in kept]
        phases.mark("filter")
    if "cpm" in stages:
        try:
            X = dataio.cpm_normalize(X)
        except ValueError as exc:
            # cpm_normalize numbers the filtered matrix; name the input's own cell
            fault = dataio._count_fault(X, X.sum(axis=1), dataset.sample_ids, names)
            raise ValueError(f"{args.input}: {fault or exc}") from None
        phases.mark("cpm")
    return dataio.Dataset(X, names, dataset.sample_ids, labels_true)


def _prepare_run(parser, args):
    """Flag checks, load and preprocessing: the first steps of cluster and sweep."""
    phases = _Phases(args.time)
    stages = _parse_normalize(parser, args.normalize)
    _validate_cluster_args(parser, args)
    etas = [args.eta] if args.command == "cluster" else _parse_etas(parser, args)

    from .driver import SolverConfig

    dataset = _load_and_preprocess(args, stages, phases)
    cfg = SolverConfig(
        inner_iters=args.inner_iters,
        outer_loops=args.loops,
        dbar=args.dbar,
        replicates=args.replicates,
        seed=args.seed,
        normalize="spectral" in stages,
    )
    return phases, etas, dataset, cfg


def _cmd_cluster(parser, args) -> int:
    phases, (eta,), dataset, cfg = _prepare_run(parser, args)

    from . import dataio
    from .driver import k_sparse

    result = k_sparse(dataset.matrix, args.k, eta, cfg, labels_true=dataset.labels_true,
                      n_jobs=args.threads)
    phases.mark("cluster")

    dataio.write_result(result, dataset, args.out)
    phases.mark("write")

    line = f"{eta:g}\t{result.selected_features.size}\t{result.objective_trace[-1]:.15g}"
    if result.metrics is not None:
        line += (
            f"\t{result.metrics['accuracy']:.6f}"
            f"\t{result.metrics['ari']:.6f}\t{result.metrics['nmi']:.6f}"
        )
    print(line)
    return 0


def _parse_etas(parser, args) -> list[float]:
    if (args.eta_list is None) == (args.eta_range is None):
        parser.error("give exactly one of --eta-list or --eta-range")
    if args.eta_list is not None:
        try:
            etas = [float(tok) for tok in args.eta_list.split(",") if tok.strip()]
        except ValueError:
            parser.error(f"--eta-list: could not parse {args.eta_list!r}")
        if not etas:
            parser.error("--eta-list is empty")
    else:
        parts = args.eta_range.split(":")
        if len(parts) != 3:
            parser.error("--eta-range must be START:STOP:STEP")
        try:
            start, stop, step = (float(tok) for tok in parts)
        except ValueError:
            parser.error(f"--eta-range: could not parse {args.eta_range!r}")
        if not all(math.isfinite(v) for v in (start, stop, step)):
            parser.error("--eta-range needs finite START, STOP and STEP")
        if step <= 0 or stop < start:
            parser.error("--eta-range needs STOP >= START and STEP > 0")
        etas = []
        value = start
        while value <= stop * (1 + 1e-12):
            etas.append(value)
            value = start + len(etas) * step
    if not all(0 < e < math.inf for e in etas):
        parser.error("all eta values must be positive and finite")
    return sorted(etas)


def _cmd_sweep(parser, args) -> int:
    phases, etas, dataset, cfg = _prepare_run(parser, args)

    from . import dataio
    from .driver import sweep_eta

    records = sweep_eta(
        dataset.matrix, args.k, etas, labels_true=dataset.labels_true, cfg=cfg,
        n_jobs=args.threads,
    )
    phases.mark("sweep")

    rows = ["eta\tselected\tfrobenius\taccuracy\tari\tnmi"]
    for rec in records:
        acc = "nan" if rec.accuracy is None else f"{rec.accuracy:.6f}"
        ari = "nan" if rec.ari is None else f"{rec.ari:.6f}"
        nmi = "nan" if rec.nmi is None else f"{rec.nmi:.6f}"
        rows.append(
            f"{rec.eta:g}\t{rec.selected_count}\t{rec.frobenius_objective:.15g}"
            f"\t{acc}\t{ari}\t{nmi}"
        )
    table = "\n".join(rows) + "\n"
    if args.out:
        dataio._atomic_write(args.out, table)
    else:
        sys.stdout.write(table)
    return 0


def _cmd_synth(parser, args) -> int:
    phases = _Phases(args.time)
    from . import dataio

    try:
        spec = dataio.SyntheticSpec(
            m=args.m, d=args.d, k=args.k, n_informative=args.informative,
            shift=args.shift, noise_sd=args.noise_sd, seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    # one staged group: a failed run, or a directory target, which fails before
    # any work, leaves the previous run's files as they were and none of its own
    paths = [args.out + s for s in ("_matrix.csv", "_labels.txt", "_informative.txt")]
    with dataio._atomic_file(*paths) as (matrix, labels, informative):
        dataset = dataio.generate_synthetic(spec)
        phases.mark("generate")
        dataio._write_matrix(matrix, dataset, header=False, rownames=False, n_jobs=args.threads)
        labels.write(dataio._integer_lines(dataset.labels_true).encode())
        informative.write(dataio._integer_lines(dataset.informative_features).encode())
    phases.mark("write")
    print(f"{paths[0]}\t{spec.m}\t{spec.d}\t{spec.k}")
    return 0


def _cmd_eval(parser, args) -> int:
    from . import dataio, metrics

    pred = dataio.load_labels(args.pred)
    truth = dataio.load_labels(args.truth)
    if len(pred) != len(truth):
        raise ValueError(
            f"length mismatch: --pred {args.pred} has {len(pred)} labels, "
            f"--truth {args.truth} has {len(truth)}"
        )
    acc = metrics.accuracy(truth, pred)
    ari = metrics.ari(truth, pred)
    nmi = metrics.nmi(truth, pred)
    print(f"{acc:.6f} {ari:.6f} {nmi:.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _pin_blas_threads()
    try:
        return args.func(parser, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
