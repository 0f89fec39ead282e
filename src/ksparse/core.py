"""Clustering criterion in the projected feature space.

The criterion is half the squared Frobenius norm of ``Y @ mu - X @ W``:
rows of ``X`` are samples, ``W`` is the ``d x dbar`` projection matrix,
``labels`` encode the one-hot assignment matrix ``Y`` (one cluster per
sample) and ``mu`` holds one centroid of the projected samples per row.
Labels are kept as an index vector; products with ``Y`` are realized as
row gathers (``mu[labels]``) and per-cluster reductions.

The module also holds the one way ksparse runs work in other processes:
:func:`_forked`, used by the k-means replicates, the budget sweep and the
split CSV load and write.
"""

from __future__ import annotations

import contextlib
import multiprocessing

import numpy as np

__all__ = [
    "check_data_matrix",
    "check_labels",
    "objective",
    "gradient",
    "centroids",
    "spectral_norm",
]


def check_data_matrix(X: np.ndarray) -> np.ndarray:
    """Validate a sample matrix: 2-D, finite, not identically zero, m >= 2.

    Returns the input as a float ndarray (copying only if needed).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {X.shape}")
    m, d = X.shape
    if m < 2:
        raise ValueError(f"need at least 2 samples, got m={m}")
    if d < 1:
        raise ValueError("need at least 1 feature")
    if not np.all(np.isfinite(X)):
        raise ValueError("data matrix contains NaN or Inf entries")
    if not np.any(X):
        raise ValueError("data matrix is identically zero")
    return X


def check_labels(labels: np.ndarray, m: int | None = None, k: int | None = None) -> np.ndarray:
    """Validate a cluster assignment vector.

    Every entry must lie in ``{0, ..., k-1}`` and, when ``k`` is given,
    every cluster must be occupied (no empty clusters).  Returns the
    labels as an int ndarray.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        as_int = labels.astype(int)
        if labels.dtype.kind == "f" and not np.array_equal(as_int, labels):
            raise ValueError("labels must be integers")
        labels = as_int
    if m is not None and labels.shape[0] != m:
        raise ValueError(f"labels length {labels.shape[0]} does not match sample count m={m}")
    if labels.size and labels.min() < 0:
        raise ValueError(f"negative cluster index {labels.min()}")
    if k is not None:
        if labels.size and labels.max() >= k:
            raise ValueError(f"cluster index {labels.max()} out of range for k={k}")
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(f"cluster {empty[0]} is empty")
    return labels.astype(int)


def _check_dims(X, W, labels, mu):
    m, d = X.shape
    if W.shape[0] != d:
        raise ValueError(
            f"feature axis mismatch: X has {d} columns but W has {W.shape[0]} rows"
        )
    if mu.shape[1] != W.shape[1]:
        raise ValueError(
            f"projected axis mismatch: W has {W.shape[1]} columns but mu has {mu.shape[1]}"
        )
    if labels.shape[0] != m:
        raise ValueError(
            f"sample axis mismatch: X has {m} rows but labels has length {labels.shape[0]}"
        )
    if labels.size and labels.max() >= mu.shape[0]:
        raise ValueError(
            f"cluster index {labels.max()} out of range: mu has {mu.shape[0]} rows"
        )


def objective(X: np.ndarray, W: np.ndarray, labels: np.ndarray, mu: np.ndarray) -> float:
    """Half the squared Frobenius norm of the assignment residual Y@mu - X@W."""
    X = np.asarray(X, float)
    W = np.asarray(W, float)
    mu = np.asarray(mu, float)
    labels = check_labels(labels)
    _check_dims(X, W, labels, mu)
    R = mu[labels] - X @ W
    return 0.5 * float(np.vdot(R, R))


def gradient(X: np.ndarray, W: np.ndarray, labels: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Gradient of :func:`objective` with respect to W: ``X.T @ (X@W - Y@mu)``."""
    X = np.asarray(X, float)
    W = np.asarray(W, float)
    mu = np.asarray(mu, float)
    labels = check_labels(labels)
    _check_dims(X, W, labels, mu)
    # same product as X.T @ R; for C-ordered X, OpenBLAS runs this layout faster
    return ((X @ W - mu[labels]).T @ X).T


def centroids(labels: np.ndarray, Z: np.ndarray, k: int | None = None) -> np.ndarray:
    """Per-cluster means of the rows of Z.

    Row ``j`` of the result is the arithmetic mean of the rows of ``Z``
    assigned to cluster ``j``.  ``k`` defaults to ``labels.max() + 1``;
    passing it explicitly lets trailing empty clusters be detected.
    Raises if any cluster in ``{0, ..., k-1}`` is empty.
    """
    Z = np.asarray(Z, float)
    if Z.ndim != 2:
        raise ValueError(f"Z must be 2-D, got shape {Z.shape}")
    labels = check_labels(labels, m=Z.shape[0])
    if k is None:
        k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"cluster {empty[0]} is empty; repair assignments first")
    # bincount with weights gives a deterministic, index-ordered reduction
    out = np.empty((k, Z.shape[1]))
    for j in range(Z.shape[1]):
        out[:, j] = np.bincount(labels, weights=Z[:, j], minlength=k)
    out /= counts[:, None]
    return out


def spectral_norm(X: np.ndarray) -> float:
    """Largest singular value of X, computed exactly from the smaller Gram matrix.

    ``sigma_max(X)^2`` is the largest eigenvalue of ``X @ X.T`` or
    ``X.T @ X``, whichever is smaller; a symmetric eigensolver gives it to
    rounding error whatever the gap to the next singular value.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains NaN or Inf entries")
    if not np.any(X):
        raise ValueError("spectral norm of an all-zero matrix is undefined here")
    return _gram_norm(_gram(X))


def _gram(X: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of X: ``X @ X.T`` when ``m <= d``, else ``X.T @ X``."""
    return X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X


def _gram_norm(G: np.ndarray) -> float:
    """The spectral norm of X from a Gram matrix ``G`` of it."""
    return float(np.sqrt(np.linalg.eigvalsh(G)[-1]))


def _fork_context():
    """The ``fork`` start method, or None where this process cannot fork workers.

    ksparse forks rather than spawns: its workers need the caller's arrays
    without a re-import or a copy, and it forks only where no thread of its
    own is running.
    """
    if multiprocessing.current_process().daemon:
        return None  # a daemonic process may not have children
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _split(n_jobs: int, limit: int):
    """The fork context and process count for work in at most ``limit`` parts.

    ``(None, 1)`` where the work stays in this process: fewer than two jobs
    or parts, a daemonic process, or no ``fork`` start method.
    """
    n = min(n_jobs, limit)
    ctx = _fork_context() if n > 1 else None
    return (ctx, n) if ctx is not None else (None, 1)


@contextlib.contextmanager
def _forked(ctx, work, blocks):
    """Run ``work(*block)`` in one forked child per block; yield a :class:`_Child` each.

    A child sends what ``work`` returns, or the exception it raises, as one
    pickled message through a pipe.  Leaving the ``with`` block kills and
    reaps every child, on every path.
    """
    procs, conns = [], []
    try:
        for block in blocks:
            conn, child_end = ctx.Pipe(duplex=False)
            conns.append(conn)
            try:
                proc = ctx.Process(target=_run_block, args=(child_end, work, block))
                proc.start()
            finally:
                child_end.close()  # so that a dead child reads as EOF here
            procs.append(proc)
        yield [_Child(proc, conn) for proc, conn in zip(procs, conns)]
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _run_block(conn, work, block) -> None:
    """Child side of :func:`_forked`: send ``(True, result)`` or ``(False, exception)``."""
    try:
        reply = True, work(*block)
    except Exception as exc:
        reply = False, exc
    conn.send(reply)


class _Child:
    """The parent's end of one forked block."""

    def __init__(self, proc, conn):
        self._proc, self._conn = proc, conn

    def result(self):
        """What the block's ``work`` returned; raises the exception it raised."""
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError):  # no message, or one cut short by the child's death
            self._proc.join()
            raise ChildProcessError(
                f"a worker process exited with code {self._proc.exitcode}"
            ) from None
        if not ok:
            raise value
        return value
