"""Outer alternating minimization and the l1-budget sweep.

Each outer loop solves the weight subproblem for the current labels
(accelerated projected gradient), then re-clusters the projected samples.
The re-clustering step keeps the best of three candidates: a fresh
best-of-replicates k-means++ run, a Lloyd run warm-started from the
previous labels, and the previous labels themselves.  All three are scored
by the same wcss on one shared set of k-means samples, and ties go to the
warm start, then the fresh run, then the previous labels.  Together with a
matching guard on the weight step, this makes the reported Frobenius trace
non-increasing loop over loop.

With ``n_jobs >= 2`` the fresh run, the costliest candidate and the one
that least often wins, goes to one forked worker process while the parent
scores the other two.  When the warm start won the previous loop, the
parent does not wait for the fresh outcome: it guesses that the better of
the warm start and the previous labels wins again and starts the next
weight solve on that guess.  When the fresh outcome arrives, the winner is
picked from all three with the tie order above, and a solve on a wrong
guess is discarded and run again on the winner.  Every candidate and every
kept solve is the same call on the same arrays as in a run without the
worker, so results do not depend on ``n_jobs``.  The first loop never
guesses, and with ``n_jobs = 1`` the fresh outcome is in hand before any
guess could be made, so that run is the plain serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kmeans as _kmeans
from . import metrics as _metrics
from .core import _fork_context, centroids, check_data_matrix, check_labels, spectral_norm
from .kmeans import best_of_replicates, lloyd
from .solver import _Design, default_weight_init, solve_weights_fista

__all__ = [
    "SolverConfig",
    "ClusteringResult",
    "SweepRecord",
    "k_sparse",
    "selected_features",
    "sweep_eta",
]

# spacing between per-loop replicate seed blocks; prime and far larger than
# any sensible replicate count, so blocks never collide
_LOOP_SEED_STRIDE = 100003


@dataclass
class SolverConfig:
    """Tuning knobs for :func:`k_sparse`.

    ``dbar`` is the projected-space dimensionality and defaults to ``k + 4``.
    ``normalize`` divides the data by its spectral norm before the run.  The
    gradient step is not a setting: the weight solves step at
    ``1/sigma_max^2`` of the data they solve on, which is 1 after
    normalization.  A feature counts as selected when its weight row norm
    exceeds ``1e-10 * eta``.
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


def _fresh_worker(conn, parent_end, k: int, replicates: int) -> None:
    """Worker loop: one fresh run per ``(S, seed)`` received, until the parent is gone.

    Calls ``best_of_replicates`` through this module's global name, so a
    wrapper installed there before the fork sees the worker's calls too.
    """
    parent_end.close()  # so that the parent's exit reads as EOF here
    while True:
        try:
            S, seed = conn.recv()
        except EOFError:
            return
        try:
            outcome = best_of_replicates(S, k, replicates, seed)
        except Exception as exc:
            conn.send((False, exc))
        else:
            conn.send((True, outcome))


class _FreshRuns:
    """Each loop's fresh best-of-replicates run, inline or in one forked worker.

    Inline, ``submit`` runs it at once and raises as it does; with a worker,
    ``result`` waits for it and raises the worker's exception, or
    ``ChildProcessError`` if the worker died.  On leaving the ``with`` block
    the worker is stopped and reaped, on every path.
    """

    def __init__(self, k: int, replicates: int, ctx):
        self.k, self.replicates = k, replicates
        self._outcome = self._conn = self._proc = None
        if ctx is not None:
            self._conn, child_end = ctx.Pipe()
            self._proc = ctx.Process(
                target=_fresh_worker, args=(child_end, self._conn, k, replicates)
            )
            self._proc.start()
            child_end.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._proc is not None:
            # idle after its last run, or mid-run on an error: it holds nothing to keep
            self._proc.kill()
            self._proc.join()
            self._conn.close()

    def submit(self, S, seed: int) -> None:
        if self._proc is None:
            self._outcome = best_of_replicates(S, self.k, self.replicates, seed)
        else:
            self._conn.send((S, seed))

    @property
    def pending(self) -> bool:
        """Whether the submitted run's outcome is still out of hand."""
        return self._outcome is None

    def result(self) -> _kmeans.KmeansOutcome:
        outcome, self._outcome = self._outcome, None
        if outcome is not None:
            return outcome
        try:
            ok, value = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise ChildProcessError(
                f"the k-means worker process exited with code {self._proc.exitcode}"
            ) from None
        if not ok:
            raise value
        return value


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
    (the default) X is first divided by ``sigma_max``, so the step is 1;
    otherwise the run works on the data's own scale.  When ``labels_true`` is given the
    result carries accuracy/ARI/NMI against it.  ``n_jobs >= 2`` runs each
    loop's fresh k-means in one forked worker process, overlapped with the
    parent's work (module docstring); results do not depend on it.
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

    sigma_max = spectral_norm(X)
    if cfg.normalize:
        X = X / sigma_max
        sigma_max = 1.0

    dbar = cfg.dbar if cfg.dbar is not None else k + 4

    # initial labels and centroids: replicated k-means++ on the
    # highest-variance columns.  The centroids anchor the first weight solve
    # at data scale; deriving mu0 from X @ W0 instead would make the whole
    # run positively homogeneous in eta, and the budget could never steer
    # the selected-feature count.
    init_cols = _top_variance_columns(X, dbar)
    Z0 = X[:, init_cols]
    if Z0.shape[1] < dbar:
        Z0 = np.hstack([Z0, np.zeros((m, dbar - Z0.shape[1]))])
    best = best_of_replicates(Z0, k, cfg.replicates, cfg.seed)

    # every solve reuses its column norms and, on tall data, its factor of
    # [X, Y] while the labels stay the same
    design = _Design(X)
    W = default_weight_init(d, dbar, eta)
    Z = X @ W
    res0 = best.centers[best.labels] - Z
    trace = [np.sqrt(float(np.vdot(res0, res0)))]

    def solve(start):
        return solve_weights_fista(
            design, start.labels, start.centers, W, cfg.inner_iters, eta,
            sigma_max=sigma_max,
        )

    # one worker, and only when a later loop's solve can overlap its run
    ctx = _fork_context() if n_jobs > 1 and cfg.outer_loops > 1 else None
    ahead = None  # (guess, report): the next solve, started on a guessed winner
    warm_won = False  # the first loop's previous labels are a fresh run's
    with _FreshRuns(k, cfg.replicates, ctx) as fresh_runs:
        for loop in range(cfg.outer_loops):
            report = ahead[1] if ahead is not None and ahead[0] is best else solve(best)
            # the accelerated solver is not monotone; never accept a worse endpoint
            if report.objective_trace[-1] <= report.objective_trace[0]:
                W = report.final_weights
            Z = X @ W

            S = _kmeans._samples(Z)
            fresh_runs.submit(S, cfg.seed + (loop + 1) * _LOOP_SEED_STRIDE)
            ahead = None
            try:
                prev_mu = centroids(best.labels, Z, k)
                warm = lloyd(S, prev_mu)
                prev_wcss = _kmeans._wcss(S, best.labels, prev_mu)
                previous = _kmeans.KmeansOutcome(best.labels, prev_mu, prev_wcss, 0)
                if fresh_runs.pending and warm_won and loop + 1 < cfg.outer_loops:
                    guess = min((warm, previous), key=lambda c: c.wcss)
                    ahead = (guess, solve(guess))
            except Exception:
                fresh_runs.result()  # the fresh run's error comes first, as run serially
                raise
            fresh = fresh_runs.result()

            best = min((warm, fresh, previous), key=lambda c: c.wcss)
            warm_won = best is warm
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


_SWEEP_STATE: dict = {}


def _sweep_one(eta: float) -> SweepRecord:
    X, k, cfg, labels_true = _SWEEP_STATE["args"]
    res = k_sparse(X, k, eta, cfg, labels_true=labels_true)
    rec = SweepRecord(
        eta=float(eta),
        selected_count=int(res.selected_features.size),
        frobenius_objective=float(res.objective_trace[-1]),
    )
    if res.metrics is not None:
        rec.accuracy = res.metrics["accuracy"]
        rec.ari = res.metrics["ari"]
        rec.nmi = res.metrics["nmi"]
    return rec


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
    :func:`k_sparse` returns for its budget.  ``n_jobs > 1`` runs budgets in
    parallel worker processes; results do not depend on the worker count.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    etas = [float(e) for e in np.atleast_1d(np.asarray(etas, dtype=float))]
    if not etas:
        raise ValueError("etas must be nonempty")
    if not all(0 < e < np.inf for e in etas):
        raise ValueError("all eta values must be positive and finite")
    X = check_data_matrix(X)

    ctx = _fork_context() if n_jobs > 1 and len(etas) > 1 else None
    # forked workers start after this and inherit the state
    _SWEEP_STATE["args"] = (X, k, cfg, labels_true)
    try:
        if ctx is None:
            return [_sweep_one(eta) for eta in etas]
        with ctx.Pool(min(n_jobs, len(etas))) as pool:
            return pool.map(_sweep_one, etas)
    finally:
        # the module-level state must not keep the caller's matrix alive
        _SWEEP_STATE.clear()
