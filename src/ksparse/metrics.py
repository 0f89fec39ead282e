"""Clustering agreement metrics: matched accuracy, ARI, and NMI.

All three are computed from the contingency table of the two partitions
and are invariant under relabeling of either side.
"""

from __future__ import annotations

import numpy as np

__all__ = ["contingency_table", "accuracy", "ari", "nmi"]


def _check_pair(truth, pred):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.ndim != 1 or pred.ndim != 1:
        raise ValueError("label vectors must be 1-D")
    if truth.shape[0] != pred.shape[0]:
        raise ValueError(
            f"length mismatch: truth has {truth.shape[0]} labels, pred has {pred.shape[0]}"
        )
    if truth.shape[0] == 0:
        raise ValueError("empty label vectors")
    return truth, pred


def contingency_table(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Counts matrix C with C[i, j] = #samples in true cluster i and predicted cluster j."""
    truth, pred = _check_pair(truth, pred)
    _, ti = np.unique(truth, return_inverse=True)
    _, pi = np.unique(pred, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def accuracy(truth: np.ndarray, pred: np.ndarray) -> float:
    """Fraction of agreeing samples under the best one-to-one cluster matching.

    The matching is the optimal assignment on the contingency table
    (rectangular Hungarian on the negated counts); predicted clusters left
    unmatched when the cluster counts differ contribute no agreement.
    """
    # imported here: scipy.optimize takes most of a second to load, and a run
    # without true labels never computes a metric
    from scipy.optimize import linear_sum_assignment

    C = contingency_table(truth, pred)
    rows, cols = linear_sum_assignment(-C)
    return float(C[rows, cols].sum()) / C.sum()


def _pair_sums(C: np.ndarray):
    # all exact integer arithmetic; "n choose 2" as n*(n-1)//2
    a = C.sum(axis=1)
    b = C.sum(axis=0)
    n = int(C.sum())
    sum_cells = int(sum(int(x) * (int(x) - 1) // 2 for x in C.ravel()))
    sum_a = int(sum(int(x) * (int(x) - 1) // 2 for x in a))
    sum_b = int(sum(int(x) * (int(x) - 1) // 2 for x in b))
    return n, sum_cells, sum_a, sum_b


def ari(truth: np.ndarray, pred: np.ndarray) -> float:
    """Adjusted Rand index: pair-counting agreement corrected for chance.

    Identical partitions give 1.0, including the all-singleton and
    single-cluster edge cases where the adjustment denominator vanishes
    (0/0 reads as 1).
    """
    truth, pred = _check_pair(truth, pred)
    if truth.shape[0] < 2:
        raise ValueError("ARI needs at least 2 samples")
    n, sum_cells, sum_a, sum_b = _pair_sums(contingency_table(truth, pred))
    total_pairs = n * (n - 1) // 2
    expected = sum_a * sum_b / total_pairs
    max_index = 0.5 * (sum_a + sum_b)
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return float((sum_cells - expected) / denom)


def nmi(truth: np.ndarray, pred: np.ndarray) -> float:
    """Normalized mutual information between two partitions.

    Mutual information of the contingency distribution divided by the
    arithmetic mean of the two entropies.  Entropies use natural log; the
    result does not depend on the base.  Two trivial partitions (zero
    entropy on both sides) read as 1.0.
    """
    truth, pred = _check_pair(truth, pred)
    C = contingency_table(truth, pred).astype(float)
    n = C.sum()
    pa = C.sum(axis=1) / n
    pb = C.sum(axis=0) / n
    h_true = -float(np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))))
    h_pred = -float(np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))))
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0

    P = C / n
    outer = pa[:, None] * pb[None, :]
    mask = P > 0
    mi = float(np.sum(P[mask] * np.log(P[mask] / outer[mask])))
    if mi <= 0.0:
        return 0.0
    denom = 0.5 * (h_true + h_pred)
    return float(min(max(mi / denom, 0.0), 1.0))
