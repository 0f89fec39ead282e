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


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost perfect matching of a square matrix.

    The O(n^3) Hungarian method by shortest augmenting paths: each row in
    turn enters through a virtual column ``n`` and a Dijkstra search over
    the reduced costs ``cost[r, j] - u[r] - v[j]``, which the dual
    potentials ``u``, ``v`` keep nonnegative; the matching is then flipped
    along the path to the first free column.  On integer costs every
    potential is an integer, so the result is exact.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)
    row_of = np.full(n + 1, -1)  # row matched to each column; n is the virtual one
    for i in range(n):
        row_of[n] = i
        j0 = n
        minv = np.full(n, np.inf)  # shortest reduced distance to each column
        way = np.full(n, n)  # previous column on that path
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0] != -1:
            used[j0] = True
            r = row_of[j0]
            free = ~used[:n]
            reduced = cost[r] - u[r] - v[:n]
            better = free & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            j0 = int(np.argmin(np.where(free, minv, np.inf)))
            delta = minv[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[free] -= delta
        while j0 != n:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    cols = np.empty(n, dtype=np.int64)
    cols[row_of[:n]] = np.arange(n)
    return cols


def accuracy(truth: np.ndarray, pred: np.ndarray) -> float:
    """Fraction of agreeing samples under the best one-to-one cluster matching.

    The matching is the optimal assignment on the negated contingency
    table, padded with zeros to a square; predicted clusters left unmatched
    when the cluster counts differ contribute no agreement.
    """
    C = contingency_table(truth, pred)
    n = max(C.shape)
    square = np.zeros((n, n))
    square[: C.shape[0], : C.shape[1]] = C
    cols = _min_cost_assignment(-square)
    return float(square[np.arange(n), cols].sum()) / C.sum()


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
