"""K-means in the projected space: D^2-weighted seeding, Lloyd iterations,
empty-cluster repair, and best-of-replicates selection.

Determinism rules used throughout: assignment ties break toward the lower
cluster index, replicate ties toward the lower replicate index, and every
random draw comes from a generator seeded per replicate, so any replicate
is reproducible in isolation, in any process.

Assignment: a sample goes to its nearest center, ties to the lower index,
exactly where ``np.argmin`` over the broadcast distances of
``_squared_distances`` puts it, but those distances are formed only when
some row needs them.  One GEMM, of the centers with ``||c_j||^2`` appended
against ``Z.T`` over a row of ones, gives ``g_ji = ||c_j||^2 - 2 c_j . z_i``:
the squared distance less the row constant ``||z_i||^2``.  Let
``tol_i = s ((||z_i|| + max_j ||c_j||)^2 + tiny)`` with
``s = 4 (dbar + 4) eps``.  It bounds how far rounding moves either form
from the exact distance, and its ``tiny`` term covers underflow.  A row
whose smallest ``g_ji`` has no other center within ``2 tol_i`` of it is
certified: both forms have the same strict minimum there, so that center is
its label.  Every other row (exact ties, duplicate centers, data far from
the origin, overflow) takes ``np.argmin`` over the broadcast distances
themselves.  Labels, and with them centers, wcss and iteration counts, are
therefore the broadcast form's.  The rounding bound assumes finite inputs,
so a non-finite ``Z`` or ``init_centers`` is rejected.

Layout: the functions that take ``Z`` work on a column-major copy, whatever
the caller passes, and every result is the same for any input layout.
Seeding runs about twice as fast on it.  For a 4000 x 10 ``Z`` and 6
centers, one thread, a certified assignment takes 80-125 us, against
560-760 us for the broadcast distances and their ``argmin``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy imports numpy.random on first use; importing it here, before any fork,
# lets forked replicate and sweep workers inherit it instead of each importing it
from numpy.random import default_rng

from .core import _forked, _split, centroids, check_labels

__all__ = [
    "KmeansOutcome",
    "kmeanspp_seed",
    "lloyd",
    "repair_empty_clusters",
    "best_of_replicates",
]


@dataclass
class KmeansOutcome:
    """Converged clustering: labels, centers (per-cluster means), half-SSQ, iterations."""

    labels: np.ndarray
    centers: np.ndarray
    wcss: float
    iterations: int


def _squared_distances(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # broadcast rather than the |z|^2 - 2 z.c expansion: exact ties stay exact,
    # and no BLAS reduction order is involved
    diff = Z[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass(frozen=True)
class _Samples:
    """A validated ``Z`` with what every assignment on it reuses.

    Passed as ``Z`` to ``best_of_replicates``, ``kmeanspp_seed`` and ``lloyd``,
    one lets every run on the same ``Z`` share the checks, the transposed
    copy and the row norms.
    """

    Z: np.ndarray  # column-major and finite
    ZT1: np.ndarray  # Z.T over a row of ones, the GEMM's right operand
    norms: np.ndarray  # ||z_i||


def _samples(Z) -> _Samples:
    if isinstance(Z, _Samples):
        return Z
    Z = np.asfortranarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError(f"Z must be 2-D, got shape {Z.shape}")
    if not np.isfinite(Z).all():
        raise ValueError("Z contains NaN or Inf entries")
    ZT1 = np.vstack([Z.T, np.ones(Z.shape[0])])
    return _Samples(Z, ZT1, np.sqrt(np.einsum("ij,ij->i", Z, Z)))


def _tolerance(norms: np.ndarray, centers_sq: np.ndarray, dbar: int) -> np.ndarray:
    """Per-row bound on the rounding of both distance forms (module docstring)."""
    s = 4.0 * (dbar + 4) * np.finfo(float).eps
    return s * ((norms + np.sqrt(centers_sq.max())) ** 2 + np.finfo(float).tiny)


def _exact_distances(Z: np.ndarray, centers: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The broadcast distances of the uncertified ``rows``."""
    return _squared_distances(Z, centers)[rows]


def _assign(S: _Samples, centers: np.ndarray) -> np.ndarray:
    """``np.argmin(_squared_distances(S.Z, centers), axis=1)``, certified row by row."""
    k, dbar = centers.shape
    centers_sq = np.einsum("ij,ij->i", centers, centers)
    # g[j, i] = ||c_j||^2 - 2 c_j . z_i; the row of ones in ZT1 adds ||c_j||^2
    g = np.hstack([-2.0 * centers, centers_sq[:, None]]) @ S.ZT1
    near = g <= g.min(axis=0) + 2.0 * _tolerance(S.norms, centers_sq, dbar)
    # per row, the number of near centers and the sum of their indices: a
    # certified row has one, and the sum is its label
    count, index = np.vstack([np.ones(k), np.arange(k)]) @ near
    labels = index.astype(np.intp)
    unsure = np.flatnonzero(count != 1)
    if unsure.size:
        labels[unsure] = np.argmin(_exact_distances(S.Z, centers, unsure), axis=1)
    return labels


def _wcss(S: _Samples, labels: np.ndarray, centers: np.ndarray) -> float:
    """Half the squared distance of each sample to its center, summed.

    ``vdot`` sums in row-major order whatever the residual's layout, so the
    result does not depend on the layout of the caller's ``Z``.
    """
    R = S.Z - np.take(centers, labels, axis=0)
    return 0.5 * float(np.vdot(R, R))


def kmeanspp_seed(Z: np.ndarray, k: int, rng_seed: int) -> np.ndarray:
    """k-means++ seeding: first center uniform, then D^2-weighted draws.

    Each center is a row of ``Z``.  Raises if ``Z`` has fewer than ``k``
    distinct rows (the weighting would run out of mass) or is not finite.
    """
    Z = _samples(Z).Z
    m = Z.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < k:
        raise ValueError(f"cannot seed {k} clusters from {m} samples")

    rng = default_rng(rng_seed)
    centers = np.empty((k, Z.shape[1]))
    centers[0] = Z[rng.integers(m)]
    d2 = np.sum((Z - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        # D^2 draws never pick a zero-weight row, so the j centers so far are
        # distinct rows; no mass left means Z has exactly j distinct rows
        total = d2.sum()
        if total == 0:
            raise ValueError(f"need at least {k} distinct rows to seed, found {j}")
        centers[j] = Z[rng.choice(m, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((Z - centers[j]) ** 2, axis=1))
    return centers


def repair_empty_clusters(
    labels: np.ndarray, Z: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Fill empty clusters by moving in the sample farthest from its own center.

    Empty clusters are treated in index order; each receives the sample with
    the largest assignment distance among clusters that can spare one
    (size >= 2).  Returns a repaired copy; input labels are not modified.
    """
    Z = np.asarray(Z, dtype=float)
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    m = Z.shape[0]
    if m < k:
        raise ValueError(f"cannot fill {k} clusters with {m} samples")
    labels = check_labels(labels, m=m)
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return labels
    dist = np.sum((Z - centers[labels]) ** 2, axis=1)
    for j in empty:
        donors = np.flatnonzero(counts[labels] >= 2)
        # m >= k guarantees a donor: if every cluster had <= 1 sample there
        # could be no empty cluster
        i = donors[np.argmax(dist[donors])]
        counts[labels[i]] -= 1
        labels[i] = j
        counts[j] = 1
        dist[i] = np.sum((Z[i] - centers[j]) ** 2)
    return labels


def lloyd(Z: np.ndarray, init_centers: np.ndarray, max_iter: int = 100) -> KmeansOutcome:
    """Lloyd iterations from the given centers until assignments stabilize.

    Alternates nearest-center assignment (ties to the lower index) with
    center recomputation; empty clusters are repaired before centers are
    recomputed.  The returned centers are the exact per-cluster means of
    the returned labels, and ``wcss`` is half the squared distance sum.
    ``Z`` and ``init_centers`` must be finite.
    """
    S = _samples(Z)
    Z = S.Z
    centers = np.array(init_centers, dtype=float, copy=True)
    if centers.ndim != 2 or Z.shape[1] != centers.shape[1]:
        raise ValueError(
            f"incompatible shapes: Z {Z.shape} vs init_centers {centers.shape}"
        )
    if not np.isfinite(centers).all():
        raise ValueError("init_centers contains NaN or Inf entries")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    k = centers.shape[0]
    if Z.shape[0] < k:
        raise ValueError(f"cannot form {k} clusters from {Z.shape[0]} samples")

    labels = repair_empty_clusters(_assign(S, centers), Z, centers)
    for it in range(1, max_iter + 1):
        centers = centroids(labels, Z, k)
        new_labels = repair_empty_clusters(_assign(S, centers), Z, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    else:
        # stopped at max_iter: the last assignment moved, so recenter on it
        centers = centroids(labels, Z, k)
    return KmeansOutcome(labels, centers, _wcss(S, labels, centers), it)


def best_of_replicates(
    Z: np.ndarray, k: int, replicates: int, seed: int, n_jobs: int = 1
) -> KmeansOutcome:
    """Best (lowest-wcss) of ``replicates`` seeded k-means++ runs.

    Replicate ``r`` uses seed ``seed + r``; ties keep the lowest replicate
    index.  ``Z`` must be finite.  ``n_jobs > 1`` shares the replicates out
    over up to that many processes, this one and forked children, process
    ``i`` of ``n`` running the replicates ``r`` with ``r % n == i``.  Each
    process returns its best replicate with its index, or its first failure,
    and the lowest ``(wcss, r)``, or the failure of the lowest ``r``, is
    taken; the outcome, its iteration count and every error are those of a
    one-process run.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    S = _samples(Z)
    n = _split(n_jobs, replicates)
    shares = [(S, k, seed, range(i, replicates, n)) for i in range(n)]
    with _forked(_best_replicate, shares) as results:
        bests = list(results)
    failures = [(r, exc) for r, exc in bests if isinstance(exc, ValueError)]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return min(bests, key=lambda b: (b[1].wcss, b[0]))[1]


def _best_replicate(S: _Samples, k: int, seed: int, rs: range):
    """``(r, outcome)`` for the lowest-wcss replicate of ``rs``, the first on
    ties, or ``(r, error)`` for the first replicate that fails."""
    best = None
    for r in rs:
        try:
            outcome = lloyd(S, kmeanspp_seed(S, k, seed + r))
        except ValueError as exc:
            return r, exc
        if best is None or outcome.wcss < best[1].wcss:
            best = r, outcome
    return best
