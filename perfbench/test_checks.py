"""Self-test of the output checker: it passes good outputs and rejects corrupted ones.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TRACE = [1.0, 0.6, 0.5, 0.45, 0.42, 0.4, 0.39, 0.385, 0.38, 0.38, 0.379]


def _result(labels, truth, selected, trace=TRACE, k=inputs.COUNTS_K):
    """A result document and summary line as `ksparse cluster --labels` writes them."""
    doc = {
        "format": "ksparse-result", "version": 1, "eta": 3.0, "k": k,
        "sample_ids": [f"cell{i}" for i in range(len(labels))],
        "labels": [int(v) for v in labels], "selected_features": list(selected),
        "objective_trace": list(trace),
        "metrics": {"accuracy": checks.best_accuracy(truth, labels), "ari": 1.0, "nmi": 1.0},
    }
    m = doc["metrics"]
    stdout = (f"3\t{len(selected)}\t{trace[-1]:.15g}\t{m['accuracy']:.6f}"
              f"\t{m['ari']:.6f}\t{m['nmi']:.6f}\n")
    return doc, stdout


@pytest.fixture(scope="module")
def counts():
    data = inputs.make_counts(0)
    names = data.gene_names
    kept = {names[j] for j in inputs.kept_genes(data.matrix)}
    markers = [names[j] for j in data.markers.ravel()]
    return data, kept, markers


def _check_counts(doc, stdout, data, kept):
    checks.check_cluster_result(doc, stdout, data.labels, inputs.COUNTS_K, 3.0, 10)
    checks.check_counts_result(doc, kept, inputs.COUNTS_CELLS)


def test_correct_counts_output_passes(counts):
    data, kept, markers = counts
    relabelled = (data.labels + 1) % inputs.COUNTS_K  # same partition, other names
    doc, stdout = _result(relabelled, data.labels, markers)
    _check_counts(doc, stdout, data, kept)


def test_rejects_labels_swapped_until_accuracy_drops(counts):
    data, kept, markers = counts
    labels = data.labels.copy()
    first, second = np.flatnonzero(data.labels == 0), np.flatnonzero(data.labels == 1)
    for a, b in zip(first, second):
        labels[a], labels[b] = labels[b], labels[a]
        if checks.best_accuracy(data.labels, labels) < checks.MIN_ACCURACY:
            break
    doc, stdout = _result(labels, data.labels, markers)
    with pytest.raises(checks.CheckFailed, match="accuracy"):
        _check_counts(doc, stdout, data, kept)


def test_rejects_a_trace_with_one_increase(counts):
    data, kept, markers = counts
    trace = list(TRACE)
    trace[5] = trace[4] * 1.001
    doc, stdout = _result(data.labels, data.labels, markers, trace=trace)
    with pytest.raises(checks.CheckFailed, match="rises after loop"):
        _check_counts(doc, stdout, data, kept)


def test_rejects_a_selected_gene_that_the_filter_drops(counts):
    data, kept, markers = counts
    dropped = next(name for name in data.gene_names if name not in kept)
    doc, stdout = _result(data.labels, data.labels, markers + [dropped])
    with pytest.raises(checks.CheckFailed, match="filter drops"):
        _check_counts(doc, stdout, data, kept)


def test_rejects_a_summary_line_that_disagrees(counts):
    data, kept, markers = counts
    doc, stdout = _result(data.labels, data.labels, markers)
    with pytest.raises(checks.CheckFailed, match="disagrees"):
        _check_counts(doc, stdout.replace(f"\t{len(markers)}\t", f"\t{len(markers) + 1}\t"),
                      data, kept)


SWEEP = [{"eta": eta, "selected_count": n, "frobenius_objective": f, "accuracy": 1.0,
          "ari": 1.0, "nmi": 1.0}
         for eta, n, f in [(3.0, 115, 0.0025), (5.0, 111, 0.0042), (8.0, 114, 0.0065)]]


def test_correct_sweep_passes():
    checks.check_sweep(SWEEP, (3.0, 5.0, 8.0), d=5000)


def test_rejects_a_sweep_table_out_of_eta_order():
    shuffled = [SWEEP[1], SWEEP[0], SWEEP[2]]
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_sweep(shuffled, (3.0, 5.0, 8.0), d=5000)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = dict(tracing.LAYER_UNITS, **{"trace.wall_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert all(w["name"] in run.WORKLOADS for w in spec["workloads"])
