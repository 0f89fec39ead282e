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
full-width gradient ``G`` only confirms that a row stays zero.  So after a
full step with threshold ``tau`` (the projection returns it with
``sign(v) max(|v| - tau, 0)`` on ``V = W - gamma G``), the loop keeps the
candidate rows ``C`` whose largest ``|V_ij|`` exceeds ``0.8 tau``.  While
they are at most a fifth of the rows, the next steps compute the
gradient, the projection and the product that updates the residual on
``C`` alone.  Such a step is accepted only under a certificate that the
projection of the full ``V`` would have zeroed every row outside ``C``, in
the style of safe feature elimination (El Ghaoui et al., 2012).  With
``G_ref`` and ``R_ref`` the full gradient and the residual at the
extrapolated point of the full step that opened the set, ``G_ij - G_ref_ij
= x_i . (R_j - R_ref_j)`` with ``x_i`` the i-th column of ``X``, so by
Cauchy-Schwarz every excluded entry obeys

    |V_ij| <= |W_ij - gamma G_ref_ij| + gamma ||x_i|| ||R_j - R_ref_j||.

If every such bound is at most the threshold ``tau_C`` of the projection on
``C`` (less a relative 1e-9 for rounding), the full projection has the same
threshold and is zero outside ``C``, so the step is the full-width step up
to rounding.  Otherwise that iteration takes a full-width step, which also
picks a new ``C``.  A block inside the ball (``tau_C = 0``) certifies
nothing and also takes a full step.  A full step that opens a set forms
its own product on ``C`` too: every entry the projection keeps has
``|V_ij| > tau``, so the projected weights are zero outside ``C``.

Ghost rows are excluded rows that still carry weight: the extrapolation
``(1 - lambda) W + lambda P`` keeps every row that was ever in the support,
several hundred at paper size, against about a hundred in the support.
Keeping them in ``C`` would pin ``C`` at that size.  Outside ``C`` their
weights only scale by ``1 - lambda`` per step, and the ``W_ij`` term of the
bound covers them, so ``C`` stays near the support.

Tall data.  When ``d + dbar <= m`` the loop runs on the Gram matrix ``H =
X.T X`` (d x d), which does not depend on the labels, and on ``b = X.T Y
mu``, with ``Y`` the m x k one-hot matrix of the labels.  The gradient ``H
W - b`` is affine in ``W``, so the loop carries ``G``, the gradient at the
extrapolated point, by the points' own recombination: ``G = (1 - lambda)
G + lambda (H P - b)`` after each projected point ``P``.  That is one d x
d x dbar product per step, where the loop on ``X`` takes two m x d x dbar
ones.  A :class:`_Design` shared by the solves of a run forms ``H`` once;
each solve forms ``b`` from a k x m one-hot.  Every step on ``H`` is
full-width.  A working set opens only while the candidate rows are at most
a fifth of ``d``, and the tall solves of a clustering run keep a large
share of their few hundred features, so a set would carry few of their
steps and save only part of one d x d x dbar product on each.  The
objective trace's first and last entries are computed on ``X``, as ``0.5
||X P - Y mu||^2``; the entries between are ``0.5 ||Y mu||^2 + 0.5 <P, H P
- 2 b>`` (see :class:`InnerSolveReport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core as _core
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
# threshold are the working set; the margin absorbs the state's drift until
# the certificate fails.  In-process k_sparse at paper size (seed 1, one BLAS
# thread, two cores) took 7.6, 5.2, 3.9 and 5.5 s at 0.5, 0.7, 0.8 and 0.9.
_CANDIDATE_FRACTION = 0.8
# a working set opens only when it holds at most this fraction of the rows
_WORKING_SET_FRACTION = 0.2
# relative margin of the certificate against rounding in its bound
_CERTIFICATE_SLACK = 1e-9
# each threshold scan starts from this fraction of the last step's threshold
_TAU_HINT = 0.9


@dataclass
class InnerSolveReport:
    """Outcome of one inner solve: final weights, per-iteration objective, counts.

    Every solve runs its full budget, so ``iterations_run == n_iters``.
    ``objective_trace`` holds half the squared residual norm at each
    projected point.  On tall data (``d + dbar <= m``) the first and last
    entries are computed on ``X`` as ``0.5 ||X P - Y mu||^2``, and the
    entries between in Gram form, as ``0.5 ||Y mu||^2 + 0.5 <P, H P - 2
    b>`` with ``H = X.T X`` and ``b = X.T Y mu`` (see the module
    docstring).  Their error relative to the objective ``f`` is about
    ``eps ||Y mu||^2 / f``: about 1e-15 on the benchmark's counts-tall
    solves, and up to 1.6e-9 where ``Y mu`` lies within 1e-2 of the range
    of ``X``, which leaves ``f`` near 5e-7 of ``||Y mu||^2``.
    ``full_gradients`` counts the iterations that computed the gradient
    over all ``d`` rows; the others stepped on a certified working set.
    On tall data every step is full-width, so it equals ``n_iters``.
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
    column norms ``||x_i||`` and, formed on first use, the Gram matrix ``H =
    X.T @ X`` that the tall solves step on (module docstring).  With ``m >
    d`` the spectral norm comes from ``H`` too, so a tall run forms it once.
    """

    def __init__(self, X):
        # the loop's products are laid out for C-ordered X; copy only other layouts
        self.X = np.ascontiguousarray(X, float)
        self.norms = np.sqrt(np.einsum("ij,ij->j", self.X, self.X))
        # finite norms imply a finite X, so X itself is scanned only when one is not
        if not np.isfinite(self.norms).all() and not np.isfinite(self.X).all():
            raise ValueError("X contains NaN or Inf entries")

    @cached_property
    def gram(self):
        """``H = X.T @ X``; asked for only when ``m > d``, where it is the smaller Gram."""
        return _core._gram(self.X)

    def spectral_norm(self):
        """``spectral_norm(X)`` bit for bit; from :attr:`gram` when ``m > d``."""
        if self.X.shape[0] > self.X.shape[1] and self.norms.any():
            return _core._gram_norm(self.gram)
        return spectral_norm(self.X)  # which also rejects an all-zero X


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
        sigma_max = design.spectral_norm()
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


def _candidates(V, tau):
    """The rows of a working set after a full step on ``V``, or None when none opens."""
    rows = np.flatnonzero(np.abs(V).max(axis=1) > _CANDIDATE_FRACTION * tau)
    return rows if tau > 0.0 and rows.size <= _WORKING_SET_FRACTION * V.shape[0] else None


class _WorkingSet:
    """Candidate rows of the last full step, and the certificate for steps on them.

    While open it holds the extrapolated point on ``S``, ``WS``: ``W`` on
    ``rows``, then ``W_ghost`` on ``ghosts`` (excluded rows that still
    carry weight); it is zero on every other row.  ``G_ref`` and ``R_ref``
    are the full gradient and the residual at the reference point, and
    ``self.X`` holds ``X[:, rows]`` (module docstring).
    """

    def __init__(self, design, rows, W, G_ref, gamma, R_ref):
        self.rows = rows
        excluded = np.ones(W.shape[0], dtype=bool)
        excluded[rows] = False
        excluded = np.flatnonzero(excluded)
        weighted = np.any(W[excluded] != 0.0, axis=1)
        self.ghosts = excluded[weighted]
        self.S = np.concatenate([rows, self.ghosts])
        self.WS = W[self.S]
        self.P = None
        self.X = design.X[:, rows]
        self.ref = R_ref
        a = design.norms[excluded]
        self.gG_ghost = gamma * G_ref[self.ghosts]
        self.ga_ghost = gamma * a[weighted, None]
        zero = excluded[~weighted]
        self.gG_zero = gamma * np.abs(G_ref[zero])
        self.ga_zero = gamma * a[~weighted, None]
        # columnwise maxima give a cheap first check, which usually settles the zero rows
        self.zero_caps = (self.gG_zero.max(axis=0), self.ga_zero.max()) if zero.size else None

    @property
    def W(self):
        return self.WS[: self.rows.size]

    @property
    def W_ghost(self):
        return self.WS[self.rows.size :]

    def step(self, V, eta, lo, R):
        """Project ``V`` on the rows; True when the result is certified, kept in ``P``.

        ``lo`` is the threshold scan's guess (:func:`_tau_scan`), and the
        threshold is kept in ``tau``.  ``R`` is the residual at the
        extrapolated point.
        """
        self.P, self.tau = _shrink(V, eta, lo)
        return self.tau > 0.0 and self.certifies(R, self.tau)

    def certifies(self, R, tau):
        """True when every excluded entry of the full ``V`` is provably at most ``tau``."""
        limit = tau * (1.0 - _CERTIFICATE_SLACK)
        D = R - self.ref
        delta = np.sqrt(np.einsum("ij,ij->j", D, D))
        if self.ghosts.size:
            bound = np.abs(self.W_ghost - self.gG_ghost) + self.ga_ghost * delta
            if bound.max() > limit:
                return False
        if self.zero_caps is not None:
            gG_max, ga_max = self.zero_caps
            if np.any(gG_max + ga_max * delta > limit):
                return bool((self.gG_zero + self.ga_zero * delta).max() <= limit)
        return True

    def relax(self, lam):
        n = self.rows.size
        self.WS[:n] = _relax(self.WS[:n], self.P, lam)
        self.WS[n:] *= 1.0 - lam

    def extrapolated_point(self, shape):
        W = np.zeros(shape)
        W[self.S] = self.WS
        return W

    def projected_point(self, shape):
        P = np.zeros(shape)
        P[self.rows] = self.P
        return P


def _solve(X, labels, mu, W0, n_iters, eta, sigma_max, accelerated):
    design, labels, mu, W0, sigma_max = _prepare(X, labels, mu, W0, n_iters, eta, sigma_max)
    norms = design.norms
    # a column norm is a lower bound on the spectral norm; the margin absorbs rounding
    if norms.max(initial=0.0) > sigma_max * (1.0 + 1e-9):
        raise ValueError(
            f"sigma_max={sigma_max} is below the largest column norm {norms.max():.6g} "
            "of X, so it cannot be the spectral norm of X"
        )
    d, dbar = W0.shape
    # tall X: step on H = X.T X (see the module docstring)
    loop = _gram_loop if d + dbar <= design.X.shape[0] else _residual_loop
    W_proj, trace, full_gradients = loop(
        design, labels, mu, W0, n_iters, eta, 1.0 / sigma_max**2, accelerated
    )
    return InnerSolveReport(W_proj, np.asarray(trace), n_iters, full_gradients)


def _residual_loop(design, labels, mu, W0, n_iters, eta, gamma, accelerated):
    """The loop on ``X``, carrying the residual at the extrapolated point.

    Returns the last projected point, the objective trace and the count of
    full-width gradients.
    """
    X = design.X
    Ymu = mu[labels]
    W_proj, tau = _shrink(W0, eta)
    # same product as X @ W_proj; for C-ordered X, OpenBLAS runs this layout faster
    R_proj = (W_proj.T @ X.T).T - Ymu
    trace = [0.5 * float(np.vdot(R_proj, R_proj))]

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
        # same product as X_C.T @ R, in the layout of the full gradient
        if ws is not None and ws.step(ws.W - gamma * (R.T @ ws.X).T, eta, lo, R):
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
            rows = _candidates(V, tau)
            if rows is not None:
                ws = _WorkingSet(design, rows, W, G, gamma, R)
                # every kept entry has |V| > tau, so the support of W_proj lies in rows
                R_proj = ws.X @ W_proj[rows] - Ymu
            else:
                R_proj = (W_proj.T @ X.T).T - Ymu
        trace.append(0.5 * float(np.vdot(R_proj, R_proj)))
        # residual is affine in W, so recombine instead of re-multiplying
        R = _relax(R, R_proj, lam)
    if W_proj is None:
        W_proj = ws.projected_point(W0.shape)
    return W_proj, trace, full_gradients


def _half_squared_residual(X, P, labels, mu):
    """``0.5 ||X P - Y mu||^2`` on ``X`` itself."""
    # same product as X @ P; for C-ordered X, OpenBLAS runs this layout faster
    R = (P.T @ X.T).T - mu[labels]
    return 0.5 * float(np.vdot(R, R))


def _gram_target(X, labels, mu):
    """``b = X.T @ Y @ mu`` through the k x m one-hot ``Y.T``, and ``0.5 ||Y mu||^2``.

    ``b`` is Fortran-ordered, as are the projection's outputs and so the
    loop's gradients, whose sums then run in one layout.
    """
    k, m = mu.shape[0], X.shape[0]
    Yt = np.zeros((k, m))
    Yt[labels, np.arange(m)] = 1.0
    counts = np.bincount(labels, minlength=k)
    return (mu.T @ (Yt @ X)).T, 0.5 * float(counts @ np.einsum("ij,ij->i", mu, mu))


def _sym_product(H, P):
    """``H @ P`` for a symmetric ``H``, as ``(P.T @ H).T``.

    For the Fortran-ordered ``P`` that the projection returns, OpenBLAS
    runs this layout faster: 60 against 114-123 us at d = 298, dbar = 10
    (one BLAS thread, best of 7).
    """
    return (P.T @ H).T


def _gram_loop(design, labels, mu, W0, n_iters, eta, gamma, accelerated):
    """The loop on ``H = X.T X``, carrying the gradient at the extrapolated point.

    Every step is full-width.  Returns what :func:`_residual_loop` returns.
    """
    X, H = design.X, design.gram
    b, half_ymu = _gram_target(X, labels, mu)
    W_proj, tau = _shrink(W0, eta)
    trace = [_half_squared_residual(X, W_proj, labels, mu)]

    W = W_proj  # extrapolated point, G is the gradient here
    G = _sym_product(H, W) - b
    t = 1.0
    lam = 1.0
    for n in range(n_iters):
        if accelerated:
            t, lam = momentum_schedule(n, t)
        W_proj, tau = _shrink(W - gamma * G, eta, _TAU_HINT * tau)
        W = _relax(W, W_proj, lam)
        G_proj = _sym_product(H, W_proj) - b
        trace.append(half_ymu + 0.5 * float(np.vdot(W_proj, G_proj - b)))
        # the gradient is affine in W, so recombine instead of re-multiplying
        G = _relax(G, G_proj, lam)
    if n_iters:
        trace[-1] = _half_squared_residual(X, W_proj, labels, mu)
    return W_proj, trace, n_iters


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
