"""Inner weight solvers for a fixed clustering.

Both solvers minimize the criterion over the projection matrix ``W``
subject to ``||W||_1 <= eta`` by forward-backward splitting: a gradient
step on the smooth term followed by an exact projection onto the l1 ball.
The accelerated variant adds momentum with the Chambolle-Dossal parameter
rule ``t_n = (n + 5) / 4``, which also guarantees convergence of the
iterates.  Both run one loop: the plain variant is the extrapolation weight
``lambda = 1`` case, where the extrapolated point is the projected point.
Both step at ``gamma = 1/sigma_max^2``, one over the gradient's Lipschitz
constant, with ``sigma_max`` the spectral norm of ``X``: given or measured,
and rejected when provably too small (below the largest column norm of ``X``).

Each projection's threshold scan starts from 0.9 times the last step's
threshold where that provably lies below the new one, and gives the bits
of a cold scan (:func:`ksparse.projection._tau_scan`).

Working set.  When the projected weights keep few rows, most of the
full-width gradient ``G = X.T @ R`` only confirms that a row stays zero.
So after a full step with threshold ``tau`` (the projection returns it with
``sign(v) max(|v| - tau, 0)`` on ``V = W - gamma G``), the loop keeps the
candidate rows ``C`` whose largest ``|V_ij|`` exceeds ``0.8 tau``.  While
they are at most a fifth of the rows, the next steps compute the
gradient, the projection and the residual product on ``X[:, C]`` alone.
Such a step is accepted only under a certificate that the projection of
the full ``V`` would have zeroed every row outside ``C``, in the style of
safe feature elimination (El Ghaoui et al., 2012).  With ``R_ref`` and
``G_ref`` the residual and gradient of the last full step, and ``x_i`` the
i-th column of ``X``, Cauchy-Schwarz on ``G_ij - G_ref_ij = x_i . (R_j -
R_ref_j)`` bounds every excluded entry:

    |V_ij| <= |W_ij - gamma G_ref_ij| + gamma ||x_i|| ||R_j - R_ref_j||.

If every such bound is at most the threshold ``tau_C`` of the projection on
``C`` (less a relative 1e-9 for rounding), the full projection has the same
threshold and is zero outside ``C``, so the step is the full-width step up
to rounding.  Otherwise that iteration takes a full-width step, which also
picks a new ``C``.  A block inside the ball (``tau_C = 0``) certifies
nothing and also takes a full step.  A full step that opens a set forms
its own residual on ``X[:, C]`` too: every entry the projection keeps has
``|V_ij| > tau``, so the projected weights are zero outside ``C``.

Ghost rows are excluded rows that still carry weight: the extrapolation
``(1 - lambda) W + lambda P`` keeps every row that was ever in the support,
several hundred at paper size, against about a hundred in the support.
Keeping them in ``C`` would pin ``C`` at that size.  Outside ``C`` their
weights only scale by ``1 - lambda`` per step, and the ``W_ij`` term of the
bound covers them, so ``C`` stays near the support.

Tall data.  When ``d + dbar <= m`` the solve factors ``[X, Y]`` as ``Q F``
(QR, ``Q`` with orthonormal columns, ``F`` upper triangular), with ``Y``
the m x k one-hot matrix of the labels, and runs the loop on ``X_r =
F[:d, :d]`` and ``Ymu_r = F[:d, d:] mu``, which are ``d`` rows instead of
``m``.  Since ``[X, Y mu] = Q [X_r, F[:d, d:] mu; 0, F[d:, d:] mu]``, the
residual splits into orthogonal parts, for any ``X``, rank-deficient or
not:

    ||X W - Y mu||^2 = ||X_r W - Ymu_r||^2 + ||F[d:, d:] mu||^2,

and the gradient ``X_r.T (X_r W - Ymu_r)`` equals ``X.T (X W - Y mu)``.  So
every iterate is the one the loop on ``X`` would take, up to rounding, and
each trace entry is ``0.5 ||F[d:, d:] mu||^2 + 0.5 ||X_r W - Ymu_r||^2``:
two squared norms, where a Gram form ``0.5 <W, X.T X W> - <W, X.T Y mu> +
c`` would lose to cancellation once the objective is small against
``||Y mu||^2``.  ``Q[:, :d]`` also preserves column norms ``||x_i||`` and
residual differences ``||R_j - R_ref_j||``, so the working-set certificate
holds on ``X_r`` unchanged.  ``F`` depends on the labels and not on
``mu``, so a run that passes the same :class:`_Design` to every solve
factors once per label set: the labels stop moving after a few outer
loops, while ``mu`` changes in each.  Above a few MiB, ``[X, Y]`` is never
formed: its factor is built over blocks of rows, each stacked under the
factor of the rows above it (sequential TSQR; Demmel, Grigori, Hoemmen and
Langou, 2012).  Only ``F.T F = [X, Y].T [X, Y]`` and the triangular shape
enter the reduction, so any such ``F`` serves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_labels, spectral_norm
from .projection import _shrink

__all__ = [
    "InnerSolveReport",
    "default_weight_init",
    "momentum_schedule",
    "solve_weights_ista",
    "solve_weights_fista",
]

# after a full step, rows whose largest |V| entry exceeds this fraction of the
# threshold are the working set; the margin absorbs the residual's drift until
# the certificate fails.  In-process k_sparse at paper size (seed 1, one BLAS
# thread, two cores) took 7.6, 5.2, 3.9 and 5.5 s at 0.5, 0.7, 0.8 and 0.9.
_CANDIDATE_FRACTION = 0.8
# a working set opens only when it holds at most this fraction of the rows
_WORKING_SET_FRACTION = 0.2
# relative margin of the certificate against rounding in its bound
_CERTIFICATE_SLACK = 1e-9
# each threshold scan starts from this fraction of the last step's threshold
_TAU_HINT = 0.9
# [X, Y] above this size is factored in row blocks of about a quarter of its
# rows, so that no m x (d + k) matrix is formed (the scale of dataio's split)
_FACTOR_BLOCK_BYTES = 4 << 20


@dataclass
class InnerSolveReport:
    """Outcome of one inner solve: final weights, per-iteration objective, counts.

    Every solve runs its full budget, so ``iterations_run == n_iters``.
    ``objective_trace`` holds half the squared residual norm at each
    projected point; on tall data (``d + dbar <= m``) each entry is computed
    as ``offset + 0.5 ||R_r||^2``, with ``offset = 0.5 ||F[d:, d:] mu||^2``
    and ``R_r = X_r W - Ymu_r`` from the R factor ``F`` of ``[X, Y]`` (see
    the module docstring).
    ``full_gradients`` counts the iterations that computed the full-width
    gradient ``X.T @ R``, on tall data ``X_r.T @ R_r`` over all ``d`` rows
    of the d x d factor; the others stepped on a certified working set.
    """

    final_weights: np.ndarray
    objective_trace: np.ndarray
    iterations_run: int
    full_gradients: int


def default_weight_init(d: int, dbar: int, eta: float) -> np.ndarray:
    """Deterministic feasible start: min(d, dbar) diagonal entries of eta / min(d, dbar).

    Lies on the boundary of the l1 ball, which avoids the trivial W = 0
    stationary point.
    """
    if d < 1 or dbar < 1:
        raise ValueError("weight matrix dimensions must be positive")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    W0 = np.zeros((d, dbar))
    r = min(d, dbar)
    W0[np.arange(r), np.arange(r)] = eta / r
    return W0


class _Design:
    """A C-ordered ``X`` with what every solve on it reuses.

    ``driver.k_sparse`` prepares one per run and passes it as ``X`` to each
    weight solve; a solve given an ndarray prepares its own.  It holds the
    column norms ``||x_i||`` and, on tall data, the factor of ``[X, Y]`` for
    the last label set it was asked for (module docstring).
    """

    def __init__(self, X):
        # the loop's products are laid out for C-ordered X; copy only other layouts
        self.X = np.ascontiguousarray(X, float)
        self.norms = np.sqrt(np.einsum("ij,ij->j", self.X, self.X))
        # finite norms imply a finite X, so X itself is scanned only when one is not
        if not np.isfinite(self.norms).all() and not np.isfinite(self.X).all():
            raise ValueError("X contains NaN or Inf entries")
        self._labels = None
        self._factor = None  # (X_r, Rxy, Ryy) of self._labels

    def factor(self, labels, k):
        """``(F[:d, :d], F[:d, d:], F[d:, d:])`` of ``[X, Y] = Q F``, ``Y`` one-hot in k columns."""
        # checked labels occupy all k clusters, so equal labels mean equal k
        if self._factor is None or not np.array_equal(labels, self._labels):
            d = self.X.shape[1]
            F = _stacked_r(self.X, labels, k)
            self._labels = labels.copy()
            self._factor = (np.ascontiguousarray(F[:d, :d]), F[:d, d:].copy(), F[d:, d:].copy())
        return self._factor


def _stacked_r(X, labels, k):
    """The R factor of ``[X, Y]``, ``Y`` one-hot in k columns, without forming ``[X, Y]``.

    Up to :data:`_FACTOR_BLOCK_BYTES` it is one QR of the whole matrix.
    Above, it is sequential TSQR: each block of rows is stacked under the R
    factor of the rows before it, and the stack's R factor carries on.  The
    result is upper triangular with the same Gram matrix ``F.T F = [X, Y].T
    [X, Y]``, which is all the solves use of it.
    """
    m, d = X.shape
    n = d + k
    rows = m if m * n * 8 <= _FACTOR_BLOCK_BYTES else max(-(-m // 4), 4 * n)
    top = n if rows < m else 0  # the carried R factor sits above each later block
    S = np.empty((top + min(rows, m), n))
    F = S[:0]
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        S[: len(F)] = F
        B = S[len(F) : len(F) + hi - lo]
        B[:, :d] = X[lo:hi]
        B[:, d:] = 0.0
        B[np.arange(hi - lo), d + labels[lo:hi]] = 1.0
        F = np.linalg.qr(S[: len(F) + hi - lo], mode="r")
    return F


def _prepare(X, labels, mu, W0, n_iters, eta, sigma_max):
    design = X if isinstance(X, _Design) else _Design(X)
    X = design.X
    mu = np.asarray(mu, float)
    W0 = np.asarray(W0, float)
    labels = check_labels(labels, m=X.shape[0], k=mu.shape[0])
    if W0.shape != (X.shape[1], mu.shape[1]):
        raise ValueError(
            f"W0 shape {W0.shape} does not match (d, dbar) = ({X.shape[1]}, {mu.shape[1]})"
        )
    if n_iters < 0:
        raise ValueError("iteration count must be nonnegative")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    for name, A in (("mu", mu), ("W0", W0)):
        if not np.isfinite(A).all():
            raise ValueError(f"{name} contains NaN or Inf entries")
    if sigma_max is None:
        sigma_max = spectral_norm(X)
    if not 0 < sigma_max < np.inf:
        raise ValueError(f"sigma_max must be positive and finite, got {sigma_max}")
    return design, labels, mu, W0, sigma_max


def momentum_schedule(n: int, t: float) -> tuple[float, float]:
    """One step of the acceleration schedule: returns (t_new, lambda).

    ``t_new = (n + 5) / 4`` and ``lambda = 1 + (t - 1) / t_new``; the first
    step (n = 0, t = 1) gives lambda = 1, i.e. no extrapolation.
    """
    t_new = (n + 5) / 4.0
    return t_new, 1.0 + (t - 1.0) / t_new


def _relax(old, new, lam):
    """The extrapolated point ``(1 - lambda) old + lambda new``; lambda = 1 gives ``new``."""
    return new if lam == 1.0 else (1.0 - lam) * old + lam * new


class _WorkingSet:
    """Candidate rows of the last full step, and the certificate for steps on them.

    While open it holds the extrapolated point: ``W`` on ``rows``,
    ``W_ghost`` on ``ghosts`` (excluded rows that still carry weight), and
    zero on every other row.  ``R_ref`` and ``G_ref`` are the residual and
    gradient of the full step that opened it.
    """

    def __init__(self, X, norms, rows, W, R_ref, G_ref, gamma):
        self.rows = rows
        self.X = X[:, rows]
        self.W = W[rows]
        self.P = None
        excluded = np.ones(W.shape[0], dtype=bool)
        excluded[rows] = False
        excluded = np.flatnonzero(excluded)
        weighted = np.any(W[excluded] != 0.0, axis=1)
        self.ghosts = excluded[weighted]
        self.W_ghost = W[self.ghosts]
        self.R_ref = R_ref
        self.gG_ghost = gamma * G_ref[self.ghosts]
        self.gx_ghost = gamma * norms[self.ghosts, None]
        zero = excluded[~weighted]
        self.gG_zero = gamma * np.abs(G_ref[zero])
        self.gx_zero = gamma * norms[zero, None]
        # columnwise maxima give a cheap first check, which usually settles the zero rows
        self.zero_caps = (self.gG_zero.max(axis=0), self.gx_zero.max()) if zero.size else None

    def step(self, R, gamma, eta, lo):
        """Project on the rows alone; True when the result is certified, kept in ``P``.

        ``lo`` is the threshold scan's guess (:func:`_tau_scan`), and the
        threshold is kept in ``tau``.
        """
        # same product as X_C.T @ R, in the layout of the full gradient
        V = self.W - gamma * (R.T @ self.X).T
        self.P, self.tau = _shrink(V, eta, lo)
        return self.tau > 0.0 and self.certifies(R, self.tau)

    def certifies(self, R, tau):
        """True when every excluded entry of the full ``V`` is provably at most ``tau``."""
        limit = tau * (1.0 - _CERTIFICATE_SLACK)
        D = R - self.R_ref
        delta = np.sqrt(np.einsum("ij,ij->j", D, D))
        if self.ghosts.size:
            bound = np.abs(self.W_ghost - self.gG_ghost) + self.gx_ghost * delta
            if bound.max() > limit:
                return False
        if self.zero_caps is not None:
            gG_max, gx_max = self.zero_caps
            if np.any(gG_max + gx_max * delta > limit):
                return bool((self.gG_zero + self.gx_zero * delta).max() <= limit)
        return True

    def relax(self, lam):
        self.W = _relax(self.W, self.P, lam)
        self.W_ghost = (1.0 - lam) * self.W_ghost

    def extrapolated_point(self, shape):
        W = np.zeros(shape)
        W[self.rows] = self.W
        W[self.ghosts] = self.W_ghost
        return W

    def projected_point(self, shape):
        P = np.zeros(shape)
        P[self.rows] = self.P
        return P


def _solve(X, labels, mu, W0, n_iters, eta, sigma_max, accelerated):
    design, labels, mu, W0, sigma_max = _prepare(X, labels, mu, W0, n_iters, eta, sigma_max)
    X, norms = design.X, design.norms  # on tall data, X_r has the same column norms
    d, dbar = W0.shape
    if d + dbar <= X.shape[0]:
        # tall X: step on the R factor of [X, Y] (see the module docstring)
        X, Rxy, Ryy = design.factor(labels, mu.shape[0])
        Ymu = Rxy @ mu
        tail = Ryy @ mu
        offset = 0.5 * float(np.vdot(tail, tail))  # the part of the objective no W changes
    else:
        Ymu = mu[labels]
        offset = 0.0
    # a column norm is a lower bound on the spectral norm; the margin absorbs rounding
    if norms.max(initial=0.0) > sigma_max * (1.0 + 1e-9):
        raise ValueError(
            f"sigma_max={sigma_max} is below the largest column norm {norms.max():.6g} "
            "of X, so it cannot be the spectral norm of X"
        )
    gamma = 1.0 / sigma_max**2
    W_proj, tau = _shrink(W0, eta)
    # same product as X @ W_proj; for C-ordered X, OpenBLAS runs this layout faster
    R_proj = (W_proj.T @ X.T).T - Ymu
    trace = [offset + 0.5 * float(np.vdot(R_proj, R_proj))]

    W = W_proj  # extrapolated point, gradient is evaluated here
    R = R_proj
    t = 1.0
    lam = 1.0  # without acceleration the extrapolated point is the projected point
    ws = None  # the open working set, which then holds W
    full_gradients = 0
    for n in range(n_iters):
        if accelerated:
            t, lam = momentum_schedule(n, t)
        # the threshold moves little from step to step, so the last one starts its scan
        lo = _TAU_HINT * tau
        if ws is not None and ws.step(R, gamma, eta, lo):
            tau = ws.tau
            W_proj = None  # held by ws until needed
            R_proj = ws.X @ ws.P - Ymu
            ws.relax(lam)
        else:
            if ws is not None:
                W, ws = ws.extrapolated_point(W0.shape), None
            full_gradients += 1
            # same product as X.T @ R; for C-ordered X, OpenBLAS runs this layout faster
            G = (R.T @ X).T
            V = W - gamma * G
            W_proj, tau = _shrink(V, eta, lo)
            W = _relax(W, W_proj, lam)
            rows = np.flatnonzero(np.abs(V).max(axis=1) > _CANDIDATE_FRACTION * tau)
            if tau > 0.0 and rows.size <= _WORKING_SET_FRACTION * W.shape[0]:
                ws = _WorkingSet(X, norms, rows, W, R, G, gamma)
                # every kept entry has |V| > tau, so the support of W_proj lies in rows
                R_proj = ws.X @ W_proj[rows] - Ymu
            else:
                R_proj = (W_proj.T @ X.T).T - Ymu
        trace.append(offset + 0.5 * float(np.vdot(R_proj, R_proj)))
        # residual is affine in W, so recombine instead of re-multiplying
        R = _relax(R, R_proj, lam)
    if W_proj is None:
        W_proj = ws.projected_point(W0.shape)
    return InnerSolveReport(W_proj, np.asarray(trace), n_iters, full_gradients)


def solve_weights_ista(
    X: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    W0: np.ndarray,
    n_iters: int,
    eta: float,
    *,
    sigma_max: float | None = None,
) -> InnerSolveReport:
    """Projected gradient descent: V = W - gamma * X.T @ (X@W - Y@mu); W = P_eta(V).

    Steps at ``gamma = 1/sigma_max^2``, so the objective trace is non-increasing.
    ``sigma_max``, the spectral norm of ``X``, is measured when not given; one
    that is not positive and finite, or is below the largest column norm of
    ``X``, raises ``ValueError``.  ``W0`` is projected onto the ball if it is
    not already feasible.  ``objective_trace[0]`` is the objective at the
    (projected) start point, followed by one entry per iteration.
    """
    return _solve(X, labels, mu, W0, n_iters, eta, sigma_max, accelerated=False)


def solve_weights_fista(
    X: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    W0: np.ndarray,
    n_iters: int,
    eta: float,
    *,
    sigma_max: float | None = None,
) -> InnerSolveReport:
    """Accelerated projected gradient with the t = (n+5)/4 momentum rule.

    Steps at ``gamma = 1/sigma_max^2``, with ``sigma_max`` measured and
    checked as in :func:`solve_weights_ista`.  The extrapolated iterate may
    leave the l1 ball transiently; the reported weights and trace are taken
    at the projected points, which are always feasible.
    """
    return _solve(X, labels, mu, W0, n_iters, eta, sigma_max, accelerated=True)
