"""Independent brute-force oracles used by the test suite.

Each oracle recomputes a quantity along a different path than the library:
explicit pair loops instead of contingency algebra, candidate enumeration
instead of a closed-form threshold, exhaustive partition search instead of
Lloyd iterations.  They are deliberately slow and simple.  The k-means
references are different in kind: frozen copies of the library's earlier
sequential form, whose results the library must reproduce bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


def l1_projection_oracle(w: np.ndarray, eta: float) -> np.ndarray:
    """Projection onto the l1 ball by enumerating every active-set size.

    Builds the candidate solution for each support size, keeps the feasible
    ones, and returns the candidate closest to w in l2.  A support size r
    can only be feasible when its threshold lies between the r-th and the
    (r+1)-th largest magnitudes (otherwise the candidate's l1 norm exceeds
    eta by at least the gap), so sizes far outside that bracket are skipped
    before the full candidate is built; this keeps inputs of tens of
    thousands of entries affordable.  The search runs on ``w`` and ``eta``
    scaled by a power of two to ``max|w|`` in [0.5, 1), which is exact for
    all but entries more than 2^1021 below the largest, so no sum or norm
    overflows.
    """
    w = np.asarray(w, dtype=float)
    e = int(np.frexp(np.abs(w).max(initial=0.0))[1])
    v = np.ldexp(w, -e)
    a = np.abs(v)
    eta = np.ldexp(eta, -e)
    if a.sum() <= eta:
        return w.copy()
    s = np.sort(a)[::-1]
    taus = (np.cumsum(s) - eta) / np.arange(1, s.size + 1)
    below = np.append(s[1:], -np.inf)
    # 1e-9 * max(1, eta) in w's units, capped at 1e-9 * max(2^e, eta) for tiny
    # w, and raised to the rounding of the candidate's sum where it is below it
    tol = max(1e-9 * max(min(1.0, np.ldexp(1.0, -e)), eta), 4 * s.size * np.finfo(float).eps)
    bracketed = (s >= taus - 1e-6) & (below <= taus + 1e-6)
    best = None
    best_dist = np.inf
    for r in np.flatnonzero(bracketed) + 1:
        tau = (s[:r].sum() - eta) / r
        x = np.sign(w) * np.maximum(a - tau, 0.0)
        if abs(np.abs(x).sum() - eta) > tol:
            continue
        dist = np.linalg.norm(x - v)
        if dist < best_dist:
            best = x
            best_dist = dist
    assert best is not None
    return np.ldexp(best, e)


def accuracy_oracle(truth, pred) -> float:
    """Best agreement over all injective maps of predicted onto true clusters."""
    truth = list(truth)
    pred = list(pred)
    true_ids = sorted(set(truth))
    pred_ids = sorted(set(pred))
    # pad the smaller side with dummies so permutations enumerate injections
    width = max(len(true_ids), len(pred_ids))
    targets = true_ids + [("dummy", i) for i in range(width - len(true_ids))]
    best = 0
    for assignment in itertools.permutations(targets, len(pred_ids)):
        mapping = dict(zip(pred_ids, assignment))
        agree = sum(1 for t, p in zip(truth, pred) if mapping[p] == t)
        best = max(best, agree)
    return best / len(truth)


def ari_oracle(truth, pred) -> float:
    """Adjusted Rand index from explicit pair loops (Hubert-Arabie identity)."""
    truth = list(truth)
    pred = list(pred)
    n11 = n00 = n10 = n01 = 0
    n = len(truth)
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            if same_t and same_p:
                n11 += 1
            elif same_t:
                n10 += 1
            elif same_p:
                n01 += 1
            else:
                n00 += 1
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def nmi_oracle(truth, pred) -> float:
    """NMI from dictionary counts and direct p*log(p) sums (arithmetic mean)."""
    truth = list(truth)
    pred = list(pred)
    n = len(truth)
    ct = Counter(truth)
    cp = Counter(pred)
    cj = Counter(zip(truth, pred))
    h_t = -sum(c / n * math.log(c / n) for c in ct.values())
    h_p = -sum(c / n * math.log(c / n) for c in cp.values())
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    mi = sum(
        c / n * math.log((c / n) / ((ct[t] / n) * (cp[p] / n)))
        for (t, p), c in cj.items()
    )
    if mi <= 0.0:
        return 0.0
    return mi / (0.5 * (h_t + h_p))


def partitions_up_to(n_items: int, max_clusters: int):
    """All canonical label vectors of n_items elements into <= max_clusters blocks."""
    out = []

    def extend(prefix, used):
        if len(prefix) == n_items:
            out.append(tuple(prefix))
            return
        for c in range(min(used + 1, max_clusters - 1) + 1):
            extend(prefix + [c], max(used, c))

    extend([0], 0)
    return out


def best_two_cluster_wcss(Z: np.ndarray) -> float:
    """Exhaustive minimum of the half squared scatter over all 2-partitions."""
    m = Z.shape[0]
    best = np.inf
    for mask in range(1, 2 ** (m - 1)):
        sel = np.array([(mask >> i) & 1 for i in range(m)], dtype=bool)
        if not sel.any() or sel.all():
            continue
        wcss = 0.0
        for part in (Z[sel], Z[~sel]):
            mu = part.mean(axis=0)
            wcss += 0.5 * float(np.sum((part - mu) ** 2))
        best = min(best, wcss)
    return best


def projected_gradient_reference(X, labels, mu, W0, n_iters, gamma, eta, accelerated):
    """The inner weight solve written out as in the textbook.

    Every iteration recomputes the residual ``X @ W - Y @ mu`` and the
    gradient ``X.T @ R`` at the extrapolated point, projects with
    :func:`l1_projection_oracle`, and relaxes with
    ``W = (1 - lambda) W + lambda P(V)``, where ``t_n = (n + 5) / 4`` and
    ``lambda = 1 + (t_{n-1} - 1) / t_n`` (``lambda = 1`` without acceleration).
    Returns the last projected point and the objective at every projected point.
    """
    Ymu = mu[labels]

    def project(V):
        return l1_projection_oracle(V.ravel(), eta).reshape(V.shape)

    def objective(W):
        R = X @ W - Ymu
        return 0.5 * float(np.sum(R * R))

    W_proj = project(W0)
    trace = [objective(W_proj)]
    W = W_proj
    t = 1.0
    for n in range(n_iters):
        W_proj = project(W - gamma * (X.T @ (X @ W - Ymu)))
        trace.append(objective(W_proj))
        lam = 1.0
        if accelerated:
            t_new = (n + 5) / 4.0
            lam = 1.0 + (t - 1.0) / t_new
            t = t_new
        W = (1.0 - lam) * W + lam * W_proj
    return W_proj, np.asarray(trace)


def _broadcast_sq_distances(Z, centers):
    diff = Z[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def kmeanspp_seed_reference(Z, k, rng_seed):
    """k-means++ seeding as the library did it before its assignment was certified."""
    Z = np.asfortranarray(Z, dtype=float)
    m = Z.shape[0]
    rng = np.random.default_rng(rng_seed)
    centers = np.empty((k, Z.shape[1]))
    centers[0] = Z[rng.integers(m)]
    d2 = np.sum((Z - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        centers[j] = Z[rng.choice(m, p=d2 / d2.sum())]
        d2 = np.minimum(d2, np.sum((Z - centers[j]) ** 2, axis=1))
    return centers


def lloyd_reference(Z, init_centers, max_iter=100):
    """Lloyd iterations with every sample assigned by ``argmin`` over the
    broadcast ``einsum`` distances of the whole column-major ``Z``.

    A frozen copy of the library's sequential form before assignment went
    through a GEMM under a rounding certificate; the library must reproduce
    its labels, centers, wcss and iteration count bit for bit.  Returns them
    as a tuple.
    """
    from ksparse.core import centroids
    from ksparse.kmeans import repair_empty_clusters

    Z = np.asfortranarray(Z, dtype=float)
    centers = np.array(init_centers, dtype=float, copy=True)
    k = centers.shape[0]

    def assign(C):
        labels = np.argmin(_broadcast_sq_distances(Z, C), axis=1)
        return repair_empty_clusters(labels, Z, C)

    labels = assign(centers)
    iterations = 0
    for it in range(1, max_iter + 1):
        centers = centroids(labels, Z, k)
        new_labels = assign(centers)
        iterations = it
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    centers = centroids(labels, Z, k)
    R = Z - centers[labels]
    return labels, centers, 0.5 * float(np.vdot(R, R)), iterations


def best_of_replicates_reference(Z, k, replicates, seed):
    """Lowest-wcss :func:`lloyd_reference` run over seeds ``seed + r``, first on ties."""
    Z = np.asfortranarray(Z, dtype=float)
    best = None
    for r in range(replicates):
        run = lloyd_reference(Z, kmeanspp_seed_reference(Z, k, seed + r))
        if best is None or run[2] < best[2]:
            best = run
    return best


def k_sparse_reference(X, k, eta, inner_iters, outer_loops, replicates, seed=0, normalize=True):
    """:func:`ksparse.driver.k_sparse` written out plainly, on ``X / sigma``
    with ``normalize`` and on ``X`` otherwise.

    ``sigma`` comes from an SVD.  The start clusters the ``k + 4`` columns of
    largest ``X.var``.  Each weight solve is :func:`projected_gradient_reference`
    with FISTA at step ``1 / ||X||^2`` of the data solved on, and its endpoint
    is kept only if it ends no worse than it started.  Each loop then keeps
    the lower-wcss of the warm Lloyd run and the previous labels, the warm
    run on ties.  Returns the labels, ``W``, the selected features and the
    trace of Frobenius residual norms.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    dbar = k + 4
    cols = np.argsort(-X.var(axis=0), kind="stable")[:dbar]
    if normalize:
        X = X / np.linalg.svd(X, compute_uv=False)[0]
    gamma = 1.0 / np.linalg.svd(X, compute_uv=False)[0] ** 2
    labels, mu, _, _ = best_of_replicates_reference(X[:, cols], k, replicates, seed)
    W = np.zeros((d, dbar))
    W[np.arange(dbar), np.arange(dbar)] = eta / dbar
    trace = [np.linalg.norm(mu[labels] - X @ W)]
    for _ in range(outer_loops):
        W_proj, inner = projected_gradient_reference(
            X, labels, mu, W, inner_iters, gamma, eta, accelerated=True)
        if inner[-1] <= inner[0]:
            W = W_proj
        Z = X @ W
        prev_mu = np.array([Z[labels == j].mean(axis=0) for j in range(k)])
        R = Z - prev_mu[labels]
        candidates = [lloyd_reference(Z, prev_mu), (labels, prev_mu, 0.5 * np.sum(R * R), 0)]
        labels, mu, wcss, _ = min(candidates, key=lambda c: c[2])
        trace.append(np.sqrt(2.0 * wcss))
    selected = np.flatnonzero(np.linalg.norm(W, axis=1) > 1e-10 * eta)
    return labels, W, selected, np.asarray(trace)
