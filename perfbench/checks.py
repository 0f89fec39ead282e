"""Independent checks of the program's outputs.

None of these trusts the program's own quality metrics as the judge:
accuracy comes from the benchmark's own search over label permutations,
the feature filter is restated from its rule, and the planted structure is
measured from the data.  Each check raises ``CheckFailed`` with a message
saying what was wrong.
"""

from __future__ import annotations

import itertools

import numpy as np

MIN_ACCURACY = 0.95
TRACE_RTOL = 1e-9
MIN_TRACE_DROP = 0.10
# a planted column's mean gap between neighbouring clusters has a standard
# error near 0.04 at paper size, so this tolerance is about nine of them
GAP_TOL = 0.35


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def best_accuracy(truth, pred) -> float:
    """Share of samples matched under the best one-to-one relabelling of pred."""
    truth = np.asarray(truth, dtype=int)
    pred = np.asarray(pred, dtype=int)
    require(truth.shape == pred.shape, f"{pred.size} labels for {truth.size} samples")
    n = int(max(truth.max(), pred.max())) + 1
    require(n <= 8, f"{n} label values; the permutation search stops at 8")
    table = np.zeros((n, n), dtype=int)
    np.add.at(table, (truth, pred), 1)
    rows = np.arange(n)
    best = max(int(table[rows, list(p)].sum()) for p in itertools.permutations(range(n)))
    return best / truth.size


def check_clusters(truth, labels, k: int) -> float:
    """k non-empty clusters and accuracy at least MIN_ACCURACY; returns accuracy."""
    labels = np.asarray(labels, dtype=int)
    require(labels.min() >= 0 and labels.max() < k, f"labels outside 0..{k - 1}")
    sizes = np.bincount(labels, minlength=k)
    require(np.all(sizes > 0), f"empty clusters {np.flatnonzero(sizes == 0).tolist()}")
    acc = best_accuracy(truth, labels)
    require(acc >= MIN_ACCURACY, f"accuracy {acc:.4f} < {MIN_ACCURACY}")
    return acc


def check_trace(trace, outer_loops: int) -> None:
    """One entry per loop plus the start; never rising; falling by over 10%."""
    trace = np.asarray(trace, dtype=float)
    require(trace.size == outer_loops + 1,
            f"objective trace has {trace.size} entries, expected {outer_loops + 1}")
    rises = np.flatnonzero(trace[1:] > trace[:-1] * (1.0 + TRACE_RTOL))
    require(rises.size == 0, f"objective trace rises after loop {rises.tolist()}")
    require(trace[-1] < (1.0 - MIN_TRACE_DROP) * trace[0],
            f"objective falls only from {trace[0]:.6g} to {trace[-1]:.6g}")


def check_summary(stdout: str, doc: dict) -> None:
    """The CLI's summary line says what the result document says."""
    lines = stdout.strip().splitlines()
    require(len(lines) == 1, f"expected one summary line, got {len(lines)}")
    fields = lines[0].split("\t")
    expected = [f"{doc['eta']:g}", str(len(doc["selected_features"])),
                f"{doc['objective_trace'][-1]:.15g}"]
    if doc.get("metrics") is not None:
        expected += [f"{doc['metrics'][name]:.6f}" for name in ("accuracy", "ari", "nmi")]
    require(fields == expected, f"summary {fields} disagrees with the result {expected}")


def check_cluster_result(doc: dict, stdout: str, truth, k: int, eta: float,
                         outer_loops: int) -> float:
    """Checks shared by every `ksparse cluster` run; returns the accuracy."""
    require(doc.get("format") == "ksparse-result", "not a ksparse result document")
    require(doc["k"] == k and doc["eta"] == eta, f"k={doc['k']} eta={doc['eta']}")
    acc = check_clusters(truth, doc["labels"], k)
    if doc.get("metrics") is not None:
        reported = doc["metrics"]["accuracy"]
        require(abs(reported - acc) <= 1e-9,
                f"reported accuracy {reported} but the labels score {acc}")
    check_trace(doc["objective_trace"], outer_loops)
    check_summary(stdout, doc)
    return acc


def check_paper_selection(selected_names, informative, lo=100, hi=200,
                          min_recall=0.95) -> None:
    """Feature count in [lo, hi], with nearly every planted-informative feature among them."""
    selected = np.array([int(name[1:]) for name in selected_names], dtype=int)
    require(lo <= selected.size <= hi, f"{selected.size} features selected, not {lo}..{hi}")
    recall = np.isin(informative, selected).mean()
    require(recall >= min_recall,
            f"only {recall:.2%} of the planted-informative features are selected")


def check_planted_gaps(X, labels, informative, shift: float) -> None:
    """Planted columns step by about `shift` from cluster to cluster; others stay flat."""
    labels = np.asarray(labels, dtype=int)
    k = int(labels.max()) + 1
    means = np.stack([X[labels == c].mean(axis=0) for c in range(k)])
    gap = (means[-1] - means[0]) / (k - 1)
    planted = np.zeros(X.shape[1], dtype=bool)
    planted[informative] = True
    worst_planted = np.abs(gap[planted] - shift).max(initial=0.0)
    worst_other = np.abs(gap[~planted]).max(initial=0.0)
    require(worst_planted <= GAP_TOL,
            f"a planted column's mean gap is {worst_planted:.3f} away from {shift}")
    require(worst_other <= GAP_TOL, f"an unplanted column has mean gap {worst_other:.3f}")


def check_counts_result(doc: dict, kept_names: set, n_cells: int) -> None:
    """Cell ids in order, and every selected gene one that the filter keeps."""
    expected_ids = [f"cell{i}" for i in range(n_cells)]
    require(doc["sample_ids"] == expected_ids, "sample ids are not cell0..cellN in order")
    dropped = sorted(set(doc["selected_features"]) - kept_names)
    require(not dropped, f"selected genes the filter drops: {dropped[:5]}")


def check_sweep(records: list[dict], etas, d: int, lo=100, hi=200) -> None:
    """Records in budget order, sane counts, quality at every budget."""
    got = [r["eta"] for r in records]
    require(got == list(etas), f"sweep records for etas {got}, expected {list(etas)}")
    first = records[0]["selected_count"]
    require(lo <= first <= hi, f"eta={got[0]:g} selects {first} features, not {lo}..{hi}")
    for r in records:
        require(r["accuracy"] >= MIN_ACCURACY and r["ari"] >= 0.90 and r["nmi"] >= 0.85,
                f"eta={r['eta']:g}: accuracy {r['accuracy']}, ari {r['ari']}, nmi {r['nmi']}")
    for a, b in zip(records, records[1:]):
        require(b["selected_count"] >= a["selected_count"] - 0.02 * d,
                f"selected count falls from {a['selected_count']} to {b['selected_count']}")
