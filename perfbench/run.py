"""ksparse benchmark: one command, closed-loop workloads, independent output checks.

Run from the repository root:

  python3 perfbench/run.py --workload paper-cluster --seed 1 --seconds 1 --trace 0

Each run builds its inputs from --seed, prepares them several times and
reports the median as ``setup_s``, then runs whole rounds of operations one
after another until --seconds have passed (at least one round).  Every
operation's outputs are checked by checks.py.  With --trace 0 the last line of stdout
holds the end-to-end metrics; with --trace 1 the operations run with the
program's public functions traced and the line holds the per-layer metrics.
Work files go under perfbench/_work/; the generated inputs are deleted at
the end of the run.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing
from child import BLAS_VARS, SWEEP_ETAS

HERE = Path(__file__).resolve().parent
# a run has to end within 180 s; stop waiting on the program a little before
RUN_DEADLINE_S = 170.0
SETUPS = {"paper-cluster": 3, "counts-tall": 5, "tuning-sweep": 5}
# operations per round; a run makes whole rounds, and its figures are their medians
ROUND = {"paper-cluster": 2, "counts-tall": 1, "tuning-sweep": 1}
OUTER_LOOPS = 10  # the CLI's and SolverConfig's default

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class RunFailed(Exception):
    """The benchmark could not produce a result (for example, set-up failed)."""


@dataclass
class Finished:
    """A child process that ran to its end, with its resource use."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawned_at: float
    stdout: str
    stderr: str


class Run:
    """Paths, child environment, deadline and check failures of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.problems: list[str] = []
        self.dir = HERE / "_work" / workload / f"seed{seed}"
        self.inputs = self.dir / "inputs"
        self.out = self.dir / ("traced" if trace else "untraced")
        for path in (self.inputs, self.out):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
        # one BLAS thread in every program process, as the CLI pins it
        self.env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self._procs = 0

    @property
    def setups(self) -> int:
        return 1 if self.trace else SETUPS[self.workload]

    def verify(self, check, *args) -> None:
        """Run one check; a failure marks the run incorrect but measuring goes on."""
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))
            print(f"perfbench: check failed: {exc}", file=sys.stderr)

    def spawn(self, args: list[str]) -> Finished:
        """Run `python3 ARGS` to its end; time it from spawn to exit."""
        self._procs += 1
        stdout_path = self.out / f"proc{self._procs}.stdout"
        stderr_path = self.out / f"proc{self._procs}.stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            spawned_at = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            watchdog = threading.Timer(max(self.deadline - spawned_at, 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Finished(
            code=proc.returncode,
            wall_s=ended - spawned_at,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            spawned_at=spawned_at,
            stdout=stdout_path.read_text(encoding="utf-8"),
            stderr=stderr_path.read_text(encoding="utf-8"),
        )

    def ksparse(self, args: list[str], spans_dir: Path | None = None) -> Finished:
        """The ksparse CLI as a user runs it, or in process under the tracer."""
        if spans_dir is None:
            return self.spawn(["-m", "ksparse", *args])
        spans_dir.mkdir(parents=True)
        return self.spawn([str(HERE / "child.py"), "cli", "--spans", str(spans_dir), "--",
                           *args])

    def loop(self, op) -> list:
        """Closed loop: whole rounds of operations until --seconds have passed, at least one.

        A traced run makes exactly one operation, so its layer metrics describe one.
        """
        started, results = time.monotonic(), []
        while True:
            for _ in range(1 if self.trace else ROUND[self.workload]):
                results.append(op(len(results)))
            if self.trace or time.monotonic() - started >= self.seconds:
                return results


def environment(env: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: env.get(var) for var in BLAS_VARS},
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _require_ok(proc: Finished, what: str) -> None:
    if proc.code != 0:
        raise RunFailed(f"{what} exited with {proc.code}: {proc.stderr.strip()[-500:]}")


# ---------------------------------------------------------------- workloads


def _cluster_op(run: Run, args: list[str], check):
    """An operation that is one `ksparse cluster` call, its outputs checked by `check`."""
    result_path = run.out / "result.json"

    def check_outputs(stdout):
        try:
            doc = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise checks.CheckFailed(f"unreadable result document: {exc}") from None
        check(doc, stdout)

    def op(i):
        spans = run.out / f"spans-op{i}" if run.trace else None
        proc = run.ksparse([*args, "--out", str(result_path)], spans)
        if proc.code == 0:
            (run.out / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
            run.verify(check_outputs, proc.stdout)
        else:
            print(f"perfbench: ksparse exited with {proc.code}: {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
        return proc, spans

    return op


def _cluster_outcome(run: Run, results, setup_s, synth_spans=()) -> dict:
    done = [(proc, spans) for proc, spans in results if proc.code == 0]
    if not done:
        raise RunFailed("every operation failed")
    outcome = {"attempted": len(results), "failed": len(results) - len(done),
               "setup_s": setup_s, "wall_s": [p.wall_s for p, _ in done],
               "cpu_s": [p.cpu_s for p, _ in done],
               "peak_rss_mb": [p.peak_rss_mb for p, _ in done]}
    if run.trace:
        proc, spans = done[0]
        outcome["layers"] = tracing.layer_metrics(tracing.read_spans(spans), proc.spawned_at,
                                                  synth_spans)
    return outcome


def paper_cluster(run: Run) -> dict:
    """`ksparse synth` at paper size, then `ksparse cluster --k 4 --eta 3 --labels`."""
    from ksparse.dataio import SyntheticSpec, generate_synthetic

    prefix = run.inputs / "paper"
    synth = ["synth", "--seed", str(run.seed), "--out", str(prefix)]
    setup_s, synth_spans = [], []
    for i in range(run.setups):
        spans = run.out / f"spans-synth{i}" if run.trace else None
        proc = run.ksparse(synth, spans)
        _require_ok(proc, "ksparse synth")
        setup_s.append(proc.wall_s)
        if spans is not None:
            synth_spans = tracing.read_spans(spans)

    spec = SyntheticSpec(seed=run.seed)
    planted = generate_synthetic(spec)
    X = np.loadtxt(f"{prefix}_matrix.csv", delimiter=",")
    labels = np.loadtxt(f"{prefix}_labels.txt", dtype=int)
    informative = np.loadtxt(f"{prefix}_informative.txt", dtype=int)
    run.verify(checks.require, np.array_equal(X, planted.matrix),
               "the synth CSV does not parse back to the generated matrix")
    run.verify(checks.require, np.array_equal(labels, planted.labels_true)
               and np.array_equal(informative, planted.informative_features),
               "the synth label or informative-feature file is wrong")
    run.verify(checks.check_planted_gaps, X, labels, informative, spec.shift)
    del X, planted

    def check(doc, stdout):
        checks.check_cluster_result(doc, stdout, labels, 4, 3.0, OUTER_LOOPS)
        checks.check_paper_selection(doc["selected_features"], informative)

    op = _cluster_op(run, ["cluster", "--input", f"{prefix}_matrix.csv",
                           "--labels", f"{prefix}_labels.txt", "--k", "4", "--eta", "3"], check)
    return _cluster_outcome(run, run.loop(op), setup_s, synth_spans)


def counts_tall(run: Run) -> dict:
    """A 4000-cell x 400-gene count CSV through filter, CPM and spectral scaling."""
    csv_path, labels_path = run.inputs / "counts.csv", run.inputs / "labels.txt"
    setup_s = []
    for _ in range(run.setups):
        start = time.monotonic()
        counts = inputs.make_counts(run.seed)
        inputs.write_counts_csv(csv_path, counts)
        labels_path.write_text("".join(f"{v}\n" for v in counts.labels), encoding="utf-8")
        setup_s.append(time.monotonic() - start)
    names = counts.gene_names
    kept = {names[j] for j in inputs.kept_genes(counts.matrix)}

    def check(doc, stdout):
        checks.check_cluster_result(doc, stdout, counts.labels, inputs.COUNTS_K, 3.0,
                                    OUTER_LOOPS)
        checks.check_counts_result(doc, kept, inputs.COUNTS_CELLS)

    op = _cluster_op(run, [
        "cluster", "--input", str(csv_path), "--labels", str(labels_path), "--header",
        "--rownames", "--filter-min-count", str(inputs.COUNTS_FILTER_MIN_COUNT),
        "--filter-min-cells", str(inputs.COUNTS_FILTER_MIN_CELLS),
        "--normalize", "cpm,spectral", "--k", str(inputs.COUNTS_K), "--eta", "3"], check)
    return _cluster_outcome(run, run.loop(op), setup_s)


def tuning_sweep(run: Run) -> dict:
    """sweep_eta(X, 4, [3, 5, 8], labels_true, n_jobs=2) on the paper-size matrix in memory."""
    out = run.out / "sweep.json"
    spans = run.out / "spans-sweep" if run.trace else None
    args = [str(HERE / "child.py"), "sweep", "--seed", str(run.seed),
            "--setups", str(run.setups), "--seconds", str(0 if run.trace else run.seconds),
            "--out", str(out)]
    if spans is not None:
        spans.mkdir()
        args += ["--spans", str(spans)]
    proc = run.spawn(args)
    _require_ok(proc, "the sweep")
    doc = json.loads(out.read_text(encoding="utf-8"))
    run.verify(checks.check_sweep, doc["records"], SWEEP_ETAS, doc["d"])
    (run.out / "records.json").write_text(json.dumps(doc["records"], indent=1) + "\n",
                                          encoding="utf-8")
    ops = doc["ops"]
    outcome = {"attempted": len(ops) * len(SWEEP_ETAS), "failed": 0,
               "setup_s": doc["setup_s"], "wall_s": [o["wall_s"] for o in ops],
               "cpu_s": [o["cpu_s"] for o in ops], "peak_rss_mb": [proc.peak_rss_mb]}
    if run.trace:
        outcome["layers"] = tracing.layer_metrics(tracing.read_spans(spans), None)
    return outcome


WORKLOADS = {"paper-cluster": paper_cluster, "counts-tall": counts_tall,
             "tuning-sweep": tuning_sweep}


# ---------------------------------------------------------------- reporting


def _compare_with_untraced(run: Run, record: dict) -> None:
    """Outputs and wall time of this traced run against the untraced run of the same seed."""
    untraced = run.dir / "untraced"
    names = ("records.json",) if run.workload == "tuning-sweep" else ("result.json", "stdout.txt")
    if not (untraced / "run.json").exists():
        record["outputs_vs_untraced"] = "no untraced run of this seed"
        return
    same = all((untraced / n).read_bytes() == (run.out / n).read_bytes() for n in names)
    run.verify(checks.require, same, "the traced run's outputs differ from the untraced run's")
    record["outputs_vs_untraced"] = "identical" if same else "different"
    base = json.loads((untraced / "run.json").read_text(encoding="utf-8"))
    base_wall = base["metrics"]["wall_s"]["value"]
    traced_wall = record["metrics"]["trace.wall_s"]["value"]
    record["tracing_overhead_s"] = traced_wall - base_wall
    record["tracing_overhead_share"] = (traced_wall - base_wall) / base_wall


def report(run: Run, outcome: dict) -> dict:
    """The run record; its metrics are those of the last output line."""
    if run.trace:
        metrics = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                   for name, value in outcome["layers"].items()}
        metrics["trace.wall_s"] = {"value": _median(outcome["wall_s"]), "unit": "s"}
    else:
        metrics = {name: {"value": _median(outcome[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    record = {"workload": run.workload, "seed": run.seed, "trace": run.trace,
              "environment": environment(run.env), "setup_s": outcome["setup_s"],
              "wall_s": outcome["wall_s"], "metrics": metrics}
    if run.trace:
        _compare_with_untraced(run, record)
    record.update(attempted=outcome["attempted"], failed=outcome["failed"],
                  correct=not run.problems, problems=run.problems)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ksparse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ksparse" / "__init__.py").is_file():
        print(f"perfbench: no ksparse sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        record = report(run, WORKLOADS[args.workload](run))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.inputs, ignore_errors=True)

    (run.out / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(record["environment"]))
    if "tracing_overhead_s" in record:
        print(f"tracing overhead {record['tracing_overhead_s']:+.3f} s "
              f"({record['tracing_overhead_share']:+.2%}); outputs "
              f"{record['outputs_vs_untraced']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                    "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
