"""Outer alternating minimization and the l1-budget sweep.

Each outer loop solves the weight subproblem for the current labels
(accelerated projected gradient), then re-clusters the projected samples.
The re-clustering step keeps the better of a Lloyd run warm-started from
the previous labels and the previous labels themselves, scored by the same
wcss on one shared set of k-means samples, with ties to the warm start.
Together with a matching guard on the weight step, this makes the reported
Frobenius trace non-increasing loop over loop.  The one replicated
k-means++ run of a call is the start's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kmeans as _kmeans
from . import metrics as _metrics
from .core import _forked, _split, centroids, check_data_matrix, check_labels, spectral_norm
from .kmeans import KmeansOutcome, best_of_replicates, lloyd
from .solver import _Design, default_weight_init, solve_weights_fista

__all__ = [
    "SolverConfig",
    "ClusteringResult",
    "SweepRecord",
    "k_sparse",
    "selected_features",
    "sweep_eta",
]

@dataclass
class SolverConfig:
    """Tuning knobs for :func:`k_sparse`.

    ``dbar`` is the projected-space dimensionality and defaults to ``k + 4``.
    ``normalize`` runs on the data divided by its spectral norm
    ``sigma_max``: the weights and ``eta`` are on that scale.  The gradient
    step is not a setting: the weight solves step at ``1/sigma_max^2`` of
    the data they solve on.  A feature counts as selected when its weight
    row norm exceeds ``1e-10 * eta``.
    """

    inner_iters: int = 300
    outer_loops: int = 10
    dbar: int | None = None
    replicates: int = 40
    seed: int = 0
    normalize: bool = True

    def validate(self) -> None:
        if self.inner_iters < 0 or self.outer_loops < 0:
            raise ValueError("iteration counts must be nonnegative")
        if self.dbar is not None and self.dbar < 1:
            raise ValueError(f"dbar must be >= 1, got {self.dbar}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")


@dataclass
class ClusteringResult:
    """Labels, weights, and bookkeeping from one :func:`k_sparse` run.

    ``objective_trace`` holds the unsquared Frobenius norm of the residual,
    one entry at initialization plus one per completed outer loop; it is
    non-increasing.
    """

    labels: np.ndarray
    k: int
    weights: np.ndarray
    eta: float
    selected_features: np.ndarray
    objective_trace: np.ndarray
    metrics: dict | None = None


@dataclass
class SweepRecord:
    """One row of an l1-budget sweep."""

    eta: float
    selected_count: int
    frobenius_objective: float
    accuracy: float | None = None
    ari: float | None = None
    nmi: float | None = None


def selected_features(W: np.ndarray, tol: float) -> np.ndarray:
    """Indices of features with row norm above tol, ascending."""
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    W = np.asarray(W, dtype=float)
    return np.flatnonzero(np.linalg.norm(W, axis=1) > tol)


def _compute_metrics(labels_true, labels) -> dict:
    return {
        "accuracy": _metrics.accuracy(labels_true, labels),
        "ari": _metrics.ari(labels_true, labels),
        "nmi": _metrics.nmi(labels_true, labels),
    }


# columns per block of _column_variances; a block's centred copy is m x 256
_VARIANCE_BLOCK = 256


def _column_variances(X: np.ndarray) -> np.ndarray:
    """``X.var(axis=0)`` bit for bit, without an X-sized centred temporary."""
    d = X.shape[1]
    return np.concatenate(
        [X[:, j : j + _VARIANCE_BLOCK].var(axis=0) for j in range(0, d, _VARIANCE_BLOCK)]
    )


def _top_variance_columns(X: np.ndarray, dbar: int) -> np.ndarray:
    var = _column_variances(X)
    order = np.argsort(-var, kind="stable")
    return order[: min(dbar, X.shape[1])]


def k_sparse(
    X: np.ndarray,
    k: int,
    eta: float,
    cfg: SolverConfig | None = None,
    labels_true: np.ndarray | None = None,
    n_jobs: int = 1,
) -> ClusteringResult:
    """Cluster X into k groups while selecting a sparse feature subset.

    Measures the spectral norm ``sigma_max`` of X and passes it to the
    weight solves, which step at ``1/sigma_max^2``.  With ``cfg.normalize``
    (the default) the run is that on ``X / sigma_max``, and the weights are
    on its scale; no copy of X is made for it: each solve runs on X itself
    with the weights and ``eta`` divided by ``sigma_max``, which is the same
    problem up to rounding.  Otherwise the run works on the data's own
    scale.  When ``labels_true`` is given the result carries accuracy/ARI/NMI
    against it.  Each call runs best-of-replicates k-means once, for the
    start, with its replicates shared out over up to ``n_jobs`` processes
    (:func:`~ksparse.kmeans.best_of_replicates`); the result does not
    depend on ``n_jobs``.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    # the solver's products are laid out for C-ordered X; copy only other layouts
    X = np.ascontiguousarray(check_data_matrix(X))
    m, d = X.shape
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m < k:
        raise ValueError(f"cannot form {k} clusters from {m} samples")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if labels_true is not None:
        labels_true = check_labels(labels_true, m=m)

    # every solve reuses its column norms and, on tall data, its X.T @ X, from
    # which the spectral norm comes too when m > d; otherwise spectral_norm is
    # called by this module's name, where the benchmark's tracer times it
    design = _Design(X)
    sigma_max = design.spectral_norm() if m > d else spectral_norm(X)
    # W lives on the scale of X / scale; the solves run on X itself with W /
    # scale and eta / scale, so the run holds no normalized copy of X
    scale = sigma_max if cfg.normalize else 1.0

    dbar = cfg.dbar if cfg.dbar is not None else k + 4

    # initial labels and centroids: replicated k-means++ on the
    # highest-variance columns.  The centroids anchor the first weight solve
    # at data scale; deriving mu0 from X @ W0 instead would make the whole
    # run positively homogeneous in eta, and the budget could never steer
    # the selected-feature count.
    init_cols = _top_variance_columns(X, dbar)
    Z0 = X[:, init_cols] / scale  # the columns of X / scale, bit for bit
    if Z0.shape[1] < dbar:
        Z0 = np.hstack([Z0, np.zeros((m, dbar - Z0.shape[1]))])
    best = best_of_replicates(Z0, k, cfg.replicates, cfg.seed, n_jobs)

    W = default_weight_init(d, dbar, eta)
    Z = X @ (W / scale)
    res0 = best.centers[best.labels] - Z
    trace = [np.sqrt(float(np.vdot(res0, res0)))]

    for _ in range(cfg.outer_loops):
        report = solve_weights_fista(
            design, best.labels, best.centers, W / scale, cfg.inner_iters, eta / scale,
            sigma_max=sigma_max,
        )
        # the accelerated solver is not monotone; never accept a worse endpoint
        if report.objective_trace[-1] <= report.objective_trace[0]:
            W = report.final_weights * scale
        Z = X @ (W / scale)

        # the warm start, or the previous labels where they score strictly lower
        S = _kmeans._samples(Z)
        prev_mu = centroids(best.labels, Z, k)
        prev_wcss = _kmeans._wcss(S, best.labels, prev_mu)
        best = min(lloyd(S, prev_mu), KmeansOutcome(best.labels, prev_mu, prev_wcss, 0),
                   key=lambda c: c.wcss)
        trace.append(np.sqrt(2.0 * best.wcss))

    selected = selected_features(W, 1e-10 * eta)
    result_metrics = (
        _compute_metrics(labels_true, best.labels) if labels_true is not None else None
    )
    return ClusteringResult(
        labels=best.labels,
        k=k,
        weights=W,
        eta=float(eta),
        selected_features=selected,
        objective_trace=np.asarray(trace),
        metrics=result_metrics,
    )


def _sweep_records(X, k, etas, labels_true, cfg, n_jobs) -> list[SweepRecord]:
    """The sweep's records for ``etas``, run one after another in this process,
    each run's replicates shared out over ``n_jobs`` processes."""
    records = []
    for eta in etas:
        res = k_sparse(X, k, eta, cfg, labels_true=labels_true, n_jobs=n_jobs)
        records.append(SweepRecord(
            eta=float(eta),
            selected_count=int(res.selected_features.size),
            frobenius_objective=float(res.objective_trace[-1]),
            **(res.metrics or {}),  # accuracy, ari and nmi against labels_true
        ))
    return records


def sweep_eta(
    X: np.ndarray,
    k: int,
    etas,
    labels_true: np.ndarray | None = None,
    cfg: SolverConfig | None = None,
    n_jobs: int = 1,
) -> list[SweepRecord]:
    """One independent :func:`k_sparse` run per l1 budget, same seed each time.

    Records are returned in the order of ``etas``; each is exactly what
    :func:`k_sparse` returns for its budget.  ``n_jobs > 1`` shares the
    budgets out over up to that many processes: this one and forked
    children, process ``i`` running ``etas[i::n]``, and each of the ``n``
    shares its runs' k-means replicates out over ``n_jobs // n`` processes,
    so no more than ``n_jobs`` run at once.  Results do not depend on the
    process count.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    etas = [float(e) for e in np.atleast_1d(np.asarray(etas, dtype=float))]
    if not etas:
        raise ValueError("etas must be nonempty")
    if not all(0 < e < np.inf for e in etas):
        raise ValueError("all eta values must be positive and finite")
    X = check_data_matrix(X)

    n = _split(n_jobs, len(etas))
    shares = [(X, k, etas[i::n], labels_true, cfg, n_jobs // n) for i in range(n)]
    with _forked(_sweep_records, shares) as results:
        parts = list(results)
    return [parts[i % n][i // n] for i in range(len(etas))]
