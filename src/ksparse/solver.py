"""Inner weight solvers for a fixed clustering.

Both solvers minimize the criterion over the projection matrix ``W``
subject to ``||W||_1 <= eta`` by forward-backward splitting: a gradient
step on the smooth term followed by an exact projection onto the l1 ball.
The accelerated variant adds momentum with the Chambolle-Dossal parameter
rule ``t_n = (n + 5) / 4``, which also guarantees convergence of the
iterates.  Both run one loop: the plain variant is the extrapolation weight
``lambda = 1`` case, where the extrapolated point is the projected point.
Step sizes are validated against the squared spectral norm of
``X`` (the Lipschitz constant of the gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_labels, spectral_norm
from .projection import project_l1_ball

__all__ = [
    "InnerSolveReport",
    "default_weight_init",
    "sparse_aware_product",
    "momentum_schedule",
    "solve_weights_ista",
    "solve_weights_fista",
]

# below this nonzero-row fraction, X @ W goes through the sparse path
_SPARSE_ROW_FRACTION = 0.25


@dataclass
class InnerSolveReport:
    """Outcome of one inner solve: final weights, per-iteration objective, count.

    Every solve runs its full budget, so ``iterations_run == n_iters``.
    """

    final_weights: np.ndarray
    objective_trace: np.ndarray
    iterations_run: int


def default_weight_init(d: int, dbar: int, eta: float) -> np.ndarray:
    """Deterministic feasible start: min(d, dbar) diagonal entries of eta / min(d, dbar).

    Lies on the boundary of the l1 ball, which avoids the trivial W = 0
    stationary point.
    """
    if d < 1 or dbar < 1:
        raise ValueError("weight matrix dimensions must be positive")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    W0 = np.zeros((d, dbar))
    r = min(d, dbar)
    W0[np.arange(r), np.arange(r)] = eta / r
    return W0


def sparse_aware_product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W, restricted to the nonzero rows of W when W is row-sparse.

    Agrees with the dense product to rounding error; the sparse path only
    changes the summation support, not the result.
    """
    nz = np.flatnonzero(np.any(W != 0.0, axis=1))
    if nz.size < _SPARSE_ROW_FRACTION * W.shape[0]:
        if nz.size == 0:
            return np.zeros((X.shape[0], W.shape[1]))
        return X[:, nz] @ W[nz]
    # same product as X @ W; for C-ordered X, OpenBLAS runs this layout faster
    return (W.T @ X.T).T


def _prepare(X, labels, mu, W0, n_iters, gamma, eta, sigma_max, accelerated):
    # the loop's products are laid out for C-ordered X; copy only other layouts
    X = np.ascontiguousarray(X, float)
    mu = np.asarray(mu, float)
    W0 = np.asarray(W0, float)
    labels = check_labels(labels, m=X.shape[0], k=mu.shape[0])
    if W0.shape != (X.shape[1], mu.shape[1]):
        raise ValueError(
            f"W0 shape {W0.shape} does not match (d, dbar) = ({X.shape[1]}, {mu.shape[1]})"
        )
    if n_iters < 0:
        raise ValueError("iteration count must be nonnegative")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if sigma_max is None:
        sigma_max = spectral_norm(X)
    bound_factor = 1.0 if accelerated else 2.0
    bound = bound_factor / sigma_max**2
    # the accelerated bound is inclusive; its small slack absorbs rounding in
    # sigma_max and in the normalization that makes gamma = 1 the intended step
    ok = 0.0 < gamma <= bound * (1.0 + 1e-9) if accelerated else 0.0 < gamma < bound
    if not ok:
        paren = "]" if accelerated else ")"
        raise ValueError(
            f"step size gamma={gamma} outside (0, {bound_factor:g}/sigma_max(X)^2{paren} = "
            f"(0, {bound:.6g}{paren}; the gradient is sigma_max(X)^2-Lipschitz, which caps "
            "the admissible constant step"
        )
    return X, labels, mu, W0


def momentum_schedule(n: int, t: float) -> tuple[float, float]:
    """One step of the acceleration schedule: returns (t_new, lambda).

    ``t_new = (n + 5) / 4`` and ``lambda = 1 + (t - 1) / t_new``; the first
    step (n = 0, t = 1) gives lambda = 1, i.e. no extrapolation.
    """
    t_new = (n + 5) / 4.0
    return t_new, 1.0 + (t - 1.0) / t_new


def _solve(X, labels, mu, W0, n_iters, gamma, eta, sigma_max, accelerated):
    X, labels, mu, W0 = _prepare(
        X, labels, mu, W0, n_iters, gamma, eta, sigma_max, accelerated
    )
    Ymu = mu[labels]
    W_proj = project_l1_ball(W0, eta)
    R_proj = sparse_aware_product(X, W_proj) - Ymu
    trace = [0.5 * float(np.vdot(R_proj, R_proj))]

    W = W_proj  # extrapolated point, gradient is evaluated here
    R = R_proj
    t = 1.0
    for n in range(n_iters):
        # same product as X.T @ R; for C-ordered X, OpenBLAS runs this layout faster
        G = (R.T @ X).T
        W_proj = project_l1_ball(W - gamma * G, eta)
        R_proj = sparse_aware_product(X, W_proj) - Ymu
        trace.append(0.5 * float(np.vdot(R_proj, R_proj)))
        if accelerated:
            t, lam = momentum_schedule(n, t)
            W = (1.0 - lam) * W + lam * W_proj
            # residual is affine in W, so recombine instead of re-multiplying
            R = (1.0 - lam) * R + lam * R_proj
        else:  # lambda = 1: the extrapolated point is the projected point
            W, R = W_proj, R_proj
    return InnerSolveReport(W_proj, np.asarray(trace), n_iters)


def solve_weights_ista(
    X: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    W0: np.ndarray,
    n_iters: int,
    gamma: float,
    eta: float,
    *,
    sigma_max: float | None = None,
) -> InnerSolveReport:
    """Projected gradient descent: V = W - gamma * X.T @ (X@W - Y@mu); W = P_eta(V).

    Requires ``gamma`` in ``(0, 2/sigma_max(X)^2)``; with
    ``gamma <= 1/sigma_max^2`` the objective trace is non-increasing.
    ``W0`` is projected onto the ball if it is not already feasible.
    ``objective_trace[0]`` is the objective at the (projected) start point,
    followed by one entry per iteration.
    """
    return _solve(X, labels, mu, W0, n_iters, gamma, eta, sigma_max, accelerated=False)


def solve_weights_fista(
    X: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    W0: np.ndarray,
    n_iters: int,
    gamma: float,
    eta: float,
    *,
    sigma_max: float | None = None,
) -> InnerSolveReport:
    """Accelerated projected gradient with the t = (n+5)/4 momentum rule.

    Requires ``gamma`` in ``(0, 1/sigma_max(X)^2]``.  The extrapolated
    iterate may leave the l1 ball transiently; the reported weights and
    trace are taken at the projected points, which are always feasible.
    """
    return _solve(X, labels, mu, W0, n_iters, gamma, eta, sigma_max, accelerated=True)
