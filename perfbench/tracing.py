"""Outside-in span tracing of ksparse's public functions.

The tracer replaces module attributes where the program's callers look them
up (``ksparse.driver.solve_weights_fista``, ``ksparse.solver.project_l1_ball``
and so on) with wrappers that record one span per call: name, start, end,
parent and a few counts read from the arguments or the result.  Spans stay
in memory and are written out as JSON lines when the traced work ends; a
forked worker process writes its own spans each time its outermost span
closes, because pool workers are terminated rather than shut down.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics.  A wrapped name that a later version of the program no longer has
is skipped, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np


def _sparse_product_counts(args, kwargs, result):
    # which path ran is internal to the solver; read its row-fraction threshold
    fraction = getattr(sys.modules["ksparse.solver"], "_SPARSE_ROW_FRACTION", None)
    if fraction is None:
        return None
    W = args[1] if len(args) > 1 else kwargs["W"]
    nonzero_rows = np.count_nonzero(np.any(np.asarray(W) != 0.0, axis=1))
    return {"dense": int(nonzero_rows >= fraction * W.shape[0])}


def _fista_counts(args, kwargs, report):
    trace = report.objective_trace
    # the driver keeps the endpoint only when it is no worse than the start
    return {"iters": int(report.iterations_run), "rejected": int(trace[-1] > trace[0])}


def _sweep_counts(args, kwargs, records):
    etas = np.atleast_1d(np.asarray(args[2] if len(args) > 2 else kwargs["etas"]))
    n_jobs = kwargs.get("n_jobs", args[5] if len(args) > 5 else 1)
    return {"workers": int(min(max(n_jobs, 1), etas.size))}


# (module, attribute looked up by callers, span name, counts from a call)
WRAPS = [
    ("ksparse.dataio", "load_matrix_csv", "dataio.load_matrix_csv",
     lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("ksparse.dataio", "write_matrix_csv", "dataio.write_matrix_csv", None),
    ("ksparse.dataio", "filter_low_expressed", "dataio.preprocess", None),
    ("ksparse.dataio", "cpm_normalize", "dataio.preprocess", None),
    ("ksparse.dataio", "write_result", "dataio.write_result", None),
    ("ksparse.driver", "sweep_eta", "driver.sweep_eta", _sweep_counts),
    ("ksparse.driver", "k_sparse", "driver.k_sparse",
     lambda a, kw, r: {"loops": len(r.objective_trace) - 1}),
    ("ksparse.driver", "spectral_norm", "core.spectral_norm", None),
    ("ksparse.driver", "solve_weights_fista", "solver.solve_weights_fista", _fista_counts),
    ("ksparse.driver", "sparse_aware_product", "solver.sparse_aware_product",
     _sparse_product_counts),
    ("ksparse.solver", "sparse_aware_product", "solver.sparse_aware_product",
     _sparse_product_counts),
    ("ksparse.solver", "project_l1_ball", "projection.project_l1_ball",
     lambda a, kw, r: {"entries": int(np.size(a[0]))}),
    ("ksparse.driver", "best_of_replicates", "kmeans.best_of_replicates", None),
    ("ksparse.driver", "lloyd", "kmeans.lloyd", lambda a, kw, r: {"iters": r.iterations}),
    ("ksparse.kmeans", "lloyd", "kmeans.lloyd", lambda a, kw, r: {"iters": r.iterations}),
    ("ksparse.kmeans", "kmeanspp_seed", "kmeans.kmeanspp_seed", None),
    ("ksparse.metrics", "accuracy", "metrics", None),
    ("ksparse.metrics", "ari", "metrics", None),
    ("ksparse.metrics", "nmi", "metrics", None),
]


class Tracer:
    """Records spans of wrapped calls in this process and its forked children."""

    def __init__(self, out_dir):
        self.out_dir = os.fspath(out_dir)
        self.missing: list[str] = []
        self._reset()
        self._owner = self._pid
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._flushed = 0  # spans of this process already written out

    def install(self) -> None:
        for module_name, attr, span_name, counts in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name, counts))

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = self._flushed + len(self._spans)
            span = [name, time.monotonic(), None, parent, None]
            self._spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            if not self._stack and self._pid != self._owner:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        """Append this process's recorded spans to its own file and forget them."""
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self._spans:
                fh.write(json.dumps({"pid": self._pid, "name": name, "start": start,
                                     "end": end, "parent": parent, "counts": counts}) + "\n")
        self._flushed += len(self._spans)
        self._spans.clear()


def read_spans(out_dir) -> list[dict]:
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


class _Spans:
    """Totals, self times and counts over one run's spans, by span name."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        child_time: dict[tuple, float] = {}
        # a parent is the index of a span among its process's spans, in write order
        by_pid: dict[int, list[dict]] = {}
        for s in spans:
            by_pid.setdefault(s["pid"], []).append(s)
        for pid, group in by_pid.items():
            for s in group:
                if s["parent"] is not None:
                    key = (pid, s["parent"])
                    child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
            for i, s in enumerate(group):
                s["self"] = s["end"] - s["start"] - child_time.get((pid, i), 0.0)

    def of(self, name):
        return [s for s in self.spans if s["name"] == name]

    def total(self, name) -> float:
        return sum(s["end"] - s["start"] for s in self.of(name))

    def self_time(self, name) -> float:
        return sum(s["self"] for s in self.of(name))

    def calls(self, name) -> int:
        return len(self.of(name))

    def count(self, name, key) -> int:
        return sum((s["counts"] or {}).get(key, 0) for s in self.of(name))

    def first_start(self):
        return min((s["start"] for s in self.spans), default=None)


def _unit(name: str) -> str:
    special = {"dataio.load_mb_per_s": "MB/s", "projection.entries_per_s": "1/s",
               "solver.iter_us": "us", "driver.sweep_efficiency": "ratio"}
    if name in special:
        return special[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], spawned_at: float | None, synth_spans=()) -> dict:
    """Per-layer metrics of one traced operation (plus its traced set-up).

    ``spawned_at`` is the monotonic time the CLI process was started, or
    None for an in-memory operation; ``synth_spans`` are the spans of the
    traced ``ksparse synth`` set-up, if the workload has one.
    """
    S = _Spans(spans)
    load_s = S.total("dataio.load_matrix_csv")
    first = S.first_start()
    fista_s = S.total("solver.solve_weights_fista")
    iters = S.count("solver.solve_weights_fista", "iters")
    proj_s = S.total("projection.project_l1_ball")
    sweep_s = S.total("driver.sweep_eta")
    workers = S.count("driver.sweep_eta", "workers")
    busy_s = S.total("driver.k_sparse") if sweep_s > 0 else 0.0
    return {
        "cli.startup_s": first - spawned_at if spawned_at is not None and first is not None
        else 0.0,
        "dataio.load_matrix_csv_s": load_s,
        "dataio.load_mb_per_s": _ratio(S.count("dataio.load_matrix_csv", "bytes") / 1e6, load_s),
        "dataio.write_matrix_csv_s": _Spans(list(synth_spans)).total("dataio.write_matrix_csv"),
        "dataio.preprocess_s": S.total("dataio.preprocess"),
        "dataio.write_result_s": S.total("dataio.write_result"),
        "core.spectral_norm_s": S.total("core.spectral_norm"),
        "core.spectral_norm_calls": S.calls("core.spectral_norm"),
        "driver.k_sparse_s": S.total("driver.k_sparse"),
        "driver.k_sparse_calls": S.calls("driver.k_sparse"),
        "driver.outer_loops": S.count("driver.k_sparse", "loops"),
        "driver.self_s": S.self_time("driver.k_sparse"),
        "driver.sweep_eta_s": sweep_s,
        "driver.sweep_busy_s": busy_s,
        "driver.sweep_efficiency": _ratio(busy_s, sweep_s * workers),
        "solver.solve_weights_fista_s": fista_s,
        "solver.inner_iters": iters,
        "solver.iter_us": _ratio(fista_s * 1e6, iters),
        "solver.self_s": S.self_time("solver.solve_weights_fista"),
        "solver.sparse_aware_product_s": S.total("solver.sparse_aware_product"),
        "solver.sparse_aware_product_calls": S.calls("solver.sparse_aware_product"),
        "solver.dense_path_calls": S.count("solver.sparse_aware_product", "dense"),
        "solver.endpoints_rejected": S.count("solver.solve_weights_fista", "rejected"),
        "projection.project_l1_ball_s": proj_s,
        "projection.project_l1_ball_calls": S.calls("projection.project_l1_ball"),
        "projection.entries_per_s": _ratio(S.count("projection.project_l1_ball", "entries"),
                                           proj_s),
        "kmeans.best_of_replicates_s": S.total("kmeans.best_of_replicates"),
        "kmeans.lloyd_s": S.total("kmeans.lloyd"),
        "kmeans.lloyd_iters": S.count("kmeans.lloyd", "iters"),
        "kmeans.kmeanspp_seed_s": S.total("kmeans.kmeanspp_seed"),
        "metrics.s": S.total("metrics"),
    }


LAYER_UNITS = {name: _unit(name) for name in layer_metrics([], None)}
