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
they are at most a fifth of the rows, the next steps compute the gradient,
the projection and the gradient's update on ``C`` alone.  Such a step is
accepted only under a certificate that the projection of the full ``V``
would have zeroed every row outside ``C``, in the style of safe feature
elimination (El Ghaoui et al., 2012).  Otherwise that iteration takes a
full-width step, which also picks a new ``C``.  A block inside the ball
(``tau_C = 0``) certifies nothing and also takes a full step.  A full step
that opens a set computes its product on ``C`` too: every entry the
projection keeps has ``|V_ij| > tau``, so the projected weights are zero
outside ``C``.

A set steps on its own Gram.  With ``X_C = X[:, C]`` and at most ``2 m``
rows, it forms ``H_C = X_C.T X_C`` and ``b_C = X_C.T Y mu`` when it opens.
The gradient ``H_C W - b_C`` is affine in ``W``, so the set carries it at
the extrapolated point by the points' own recombination, one Gram step
(:func:`_gram_gradient`) per step: ``G_C = (1 - lambda) G_C + lambda (H_C
P - b_C)`` after each projected point ``P``.  Below ``2 m`` rows one |C| x
|C| x dbar product costs fewer flops than two m x |C| x dbar ones, and
``H_C`` is at most twice the size of ``X_C``.  ``P`` is zero outside its
support, so when that is under half of ``C`` the product reads only those
rows of ``H_C``; large sets, whose ``H_C`` outgrows the cache, mostly step
that way.  A set of more than ``2 m`` rows takes the same product through
``X_C`` twice, which bounds the set's memory by that of ``X_C``.  A set
holds at most a fifth of the rows, so only data with ``d > 10 m`` reach
that path; no benchmark workload does.  On 150 x 8000 (k = 3, eta = 3,
seeds 1-3, one BLAS thread) the path is the faster one: with such sets
taking full steps instead, the full-width steps of a run rose from 69-77 to
157-180 and every run took more CPU, and with every set forming its Gram
the runs took more CPU still and peaked at 79-88 MB instead of 57 MB.
The set updates no m x dbar residual: ``R`` is rebuilt once, when the set
closes, with one product on ``X_C``.

The certificate.  Let ``G_ref`` and ``R_ref`` be the full gradient and the
residual at the reference, the extrapolated point of the full step that
opened the set, and ``D = R - R_ref`` the residual's drift since.  Then
``G_ij - G_ref_ij = x_i . D_j``, with ``x_i`` the i-th column of ``X``.  The
part of ``D_j`` along ``R_ref_j``, ``beta_j R_ref_j`` with ``beta_j = D_j .
R_ref_j / ||R_ref_j||^2`` (0 where ``R_ref_j`` is zero), moves every entry
by ``beta_j G_ref_ij``, which is known.  Cauchy-Schwarz on the rest bounds
every excluded entry:

    |V_ij| <= |W_ij - gamma (1 + beta_j) G_ref_ij| + gamma ||x_i|| ||D_j - beta_j R_ref_j||.

If every such bound is at most the threshold ``tau_C`` of the projection on
``C`` (less a relative 1e-9 for rounding), the full projection has the same
threshold and is zero outside ``C``, so the step is the full-width step up
to rounding.

The drift is not formed either.  Excluded rows hold ``c W_ref``, with ``c``
the product of ``1 - lambda`` since the reference.  With ``dW = W_C -
W_ref_C`` and ``Q0 = X_excl W_ref_excl = R_ref + Y mu - X_C W_ref_C``,
formed at opening with ``M0 = X_C.T Q0``, the drift is ``D = X_C dW + (c -
1) Q0`` and ``X_C.T D = G_C - G_ref_C``, so

    ||D_j||^2 = dW_j . (G_C - G_ref_C + (c - 1) M0)_j + (c - 1)^2 ||Q0_j||^2,
    D_j . R_ref_j = dW_j . G_ref_C_j + (c - 1) Q0_j . R_ref_j,

and ``||D_j - beta_j R_ref_j||^2 = ||D_j||^2 - beta_j D_j . R_ref_j``.  These
terms cancel, so under the square root the bound adds a rounding margin of
``4 (m + |C|) eps`` times their magnitudes, from Frobenius norms, and
outside it the same multiple of ``||R_ref|| + ||Y mu||`` for the rounding
that ``R_ref`` itself carries.  ``G_C`` is carried from ``H_C P - b_C``,
whose rounding grows with ``||H_C|| ||P|| + ||b_C||``, not with
``||G_C||``: where ``Y mu`` lies near the range of ``X`` the two cancel to
far below ``||b_C||``.  So the margin also takes their bounds ``||X_C||^2
||P|| + ||X_C|| ||Y mu||``, with the largest ``||P||`` since opening.

Every excluded row is checked against this one bound.  Per row the set keeps
``max_j |W_ref_ij|``, ``gamma max_j |G_ref_ij|`` and ``gamma ||x_i||``;
times ``|c|``, ``max_j |1 + beta_j|`` and the largest drift term, they sum to
a cap on the row's bounds that rounds no lower, so the exact bound is taken
only on rows whose cap exceeds ``tau_C``.  Rows that were ever in the support
keep weight under the extrapolation ``(1 - lambda) W + lambda P``: several
hundred at paper size, against about a hundred in the support.  Keeping them
in ``C`` would pin ``C`` at that size; the ``W_ij`` term covers them instead.

Tall data.  When ``d + dbar <= m`` the loop opens a set of every row right
after the start's projection.  It steps on the Gram matrix ``H = X.T X``
(d x d), which does not depend on the labels, and on ``b = X.T Y mu``, with
``Y`` the m x k one-hot matrix of the labels: one d x d x dbar product per
step, where the loop on ``X`` takes two m x d x dbar ones.  A
:class:`_Design` shared by the solves of a run forms ``H`` once.  The set
excludes no row, so it forms no reference or certificate, takes every step
(one inside the ball too) and never closes; its steps count as full-width.
No set of some rows opens on tall data: such a set holds at most a fifth of
``d``, and the tall solves of a clustering run keep a large share of their
few hundred features, so it would carry few of their steps.  The objective
trace's first and last entries are computed on ``X``, as ``0.5 ||X P - Y
mu||^2``; the entries between are ``0.5 ||Y mu||^2 + 0.5 <P, H P - 2 b>``
(see :class:`InnerSolveReport`).
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
# the Gram-form drift's rounding margin, in units of (m + |C|) eps times its terms
_DRIFT_ROUNDING = 4.0
# each threshold scan starts from this fraction of the last step's threshold
_TAU_HINT = 0.9


@dataclass
class InnerSolveReport:
    """Outcome of one inner solve: final weights, per-iteration objective, counts.

    Every solve runs its full budget, so ``iterations_run == n_iters``.
    ``objective_trace`` holds half the squared residual norm at each
    projected point.  The first and last entries are computed on ``X``, as
    ``0.5 ||X P - Y mu||^2``.  The entries between are in Gram form, as
    ``0.5 ||Y mu||^2 + 0.5 <P, H P - 2 b>`` with ``H = X.T X`` and ``b = X.T
    Y mu``, at the steps of a working set of at most ``2 m`` rows and of
    the steps that open one, there with ``H_C`` and ``b_C`` on the set's
    rows.  On tall data (``d + dbar <= m``) every step is one of a set of
    all ``d`` rows, on ``H`` itself (see the module docstring).  The other
    entries are computed on ``X``.  A Gram-form entry's error relative
    to the objective ``f`` is about ``eps ||Y mu||^2 / f``: about 1e-15 on
    the benchmark's counts-tall solves, and up to 1.6e-9 where ``Y mu`` lies
    within 1e-2 of the range of ``X``, which leaves ``f`` near 5e-7 of ``||Y
    mu||^2``.  ``full_gradients`` counts the iterations that computed the
    gradient over all ``d`` rows; the others stepped on a certified working
    set of some rows.  On tall data every step is one of the set of every
    row, so it equals ``n_iters``.
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
    X.T @ X``, which a tall solve's set of every row steps on (module
    docstring).  With ``m > d`` the spectral norm comes from ``H`` too, so a
    tall run forms it once.
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


def _fdot(A, B):
    """``vdot(A, B)`` over Fortran order, which reads the projection's outputs without a copy."""
    return float(np.vdot(A.ravel(order="F"), B.ravel(order="F")))


def _gram_gradient(H, b, half_ymu, P):
    """The gradient ``H P - b`` at a projected point ``P``, and its trace entry.

    ``H`` is a symmetric Gram, ``b = X.T Y mu`` on its rows and ``half_ymu =
    0.5 ||Y mu||^2``.  The product reads only the rows of ``H`` in the
    support of ``P`` when that is under half of them.  ``(P.T @ H).T`` is
    ``H @ P`` in the layout OpenBLAS runs faster for the Fortran-ordered ``P``.
    """
    supp = np.flatnonzero(P.any(axis=1))
    if 2 * supp.size < P.shape[0]:
        G = (P[supp].T @ H[supp]).T - b
    else:
        G = (P.T @ H).T - b
    return G, half_ymu + 0.5 * _fdot(P, G - b)


def _candidates(V, tau):
    """The rows of a working set after a full step on ``V``, or None when none opens."""
    rows = np.flatnonzero(np.abs(V).max(axis=1) > _CANDIDATE_FRACTION * tau)
    return rows if tau > 0.0 and rows.size <= _WORKING_SET_FRACTION * V.shape[0] else None


class _WorkingSet:
    """Candidate rows of a full step, and the steps on them until the certificate fails.

    The reference is the extrapolated point of the full step that opened the
    set, with its weights ``W_all``, gradient ``G_all`` and residual ``ref``
    (``R_ref``), and ``W_ref`` and ``G_ref`` on ``rows``.  There the set
    carries the extrapolated weights ``W`` and their gradient ``G``, and holds
    ``X[:, rows]`` in ``X`` and, for at most ``2 m`` rows, its Gram ``H``
    (module docstring).  The ``excluded`` rows keep ``c`` times their
    reference weights, with ``c`` the product of ``1 - lambda`` since then.

    With ``rows`` None the set holds every row (``full``) and opens at the
    projected start, where ``lambda = 1``.  It steps on the design's ``X``
    and ``H``, and it excludes no row, so it has no reference or
    certificate, takes every step and never closes.
    """

    def __init__(
        self, design, P, Ymu, gamma, lam=1.0, rows=None, W_ref=None, G_ref=None, R_ref=None
    ):
        m = design.X.shape[0]
        self.rows = rows
        self.full = rows is None
        self.gamma = gamma
        self.Ymu = Ymu
        self.c = 1.0 - lam
        self.half_ymu = 0.5 * float(np.vdot(Ymu, Ymu))
        if self.full:
            self.X, self.H = design.X, design.gram
        else:
            self.X = design.X[:, rows]
            self.H = self.X.T @ self.X if rows.size <= 2 * m else None
        # X_C.T @ A is written (A.T @ X_C).T, in the layout of the gradient
        self.b = None if self.H is None else (Ymu.T @ self.X).T
        self.p_max = 0.0  # the largest ||P|| whose product G carries
        self.P = P if self.full else np.asfortranarray(P[rows])
        G_proj, self.objective = self._product(self.P)
        if self.full:
            self.W, self.G = self.P, G_proj
            return
        self.W_ref = np.asfortranarray(W_ref[rows])
        self.G_ref = np.asfortranarray(G_ref[rows])
        self.W = _relax(self.W_ref, self.P, lam)
        self.G = _relax(self.G_ref, G_proj, lam)
        self.ref = R_ref
        self.W_all, self.G_all = W_ref, G_ref
        self.excluded = np.delete(np.arange(W_ref.shape[0]), rows)
        # the excluded rows' share of the reference residual, X_excl @ W_ref_excl
        self.Q0 = R_ref + Ymu - self.X @ self.W_ref
        self.M0 = (self.Q0.T @ self.X).T
        self.n0 = np.einsum("ij,ij->j", self.Q0, self.Q0)
        self.q0 = np.einsum("ij,ij->j", self.Q0, R_ref)
        self.r = np.einsum("ij,ij->j", R_ref, R_ref)
        # drift's rounding margin takes its terms' sizes from these Frobenius
        # norms; its floor covers the rounding that R_ref itself carries
        self.eps = _DRIFT_ROUNDING * (m + rows.size) * np.finfo(float).eps
        self.sizes = (
            np.linalg.norm(self.G_ref),
            np.linalg.norm(self.M0),
            np.linalg.norm(self.Q0) * np.sqrt(self.r.sum()),
            self.n0.sum(),
        )
        # G's own rounding scales with the terms it is carried from, H_C P and
        # b_C (or their factors through X_C), at most ||X_C||^2 ||P|| and ||X_C||
        # ||Y mu||; they cancel where Y mu lies near the range of X
        x_sq = float(np.sum(design.norms[rows] ** 2))
        self.product_sizes = (x_sq, np.sqrt(x_sq * 2.0 * self.half_ymu))
        self.floor = self.eps * (np.sqrt(self.r.sum()) + np.sqrt(2.0 * self.half_ymu))
        # each excluded row's caps on the bound's three terms (module docstring)
        self.W_max = np.abs(W_ref).max(axis=1)[self.excluded]
        self.gG_max = gamma * np.abs(G_ref).max(axis=1)[self.excluded]
        self.ga = gamma * design.norms[self.excluded]

    def _product(self, P):
        """The gradient at a projected point ``P`` on the rows, and its trace entry."""
        if not self.full:  # only the certificate reads p_max
            self.p_max = max(self.p_max, np.sqrt(_fdot(P, P)))
        if self.H is not None:
            return _gram_gradient(self.H, self.b, self.half_ymu, P)
        R = self.X @ P - self.Ymu
        return (R.T @ self.X).T, 0.5 * float(np.vdot(R, R))

    def step(self, eta, lo, lam):
        """One step on the rows; True when it is certified, and then taken.

        A set of every row takes every step.  ``lo`` is the threshold scan's
        guess (:func:`_tau_scan`).  The projected point is kept in ``P``, its
        threshold in ``tau`` and its trace entry in ``objective``.
        """
        self.P, self.tau = _shrink(self.W - self.gamma * self.G, eta, lo)
        if not (self.full or (self.tau > 0.0 and self.certifies(self.tau))):
            return False
        G_proj, self.objective = self._product(self.P)
        self.W = _relax(self.W, self.P, lam)
        self.G = _relax(self.G, G_proj, lam)
        self.c *= 1.0 - lam
        return True

    def drift(self):
        """``(beta, delta)``: the drift's share along ``R_ref`` and a bound on the rest.

        With ``D = R - R_ref``, ``beta_j = D_j . R_ref_j / ||R_ref_j||^2``
        (0 where ``R_ref_j`` is zero) and ``delta_j >= ||D_j - beta_j
        R_ref_j||``, from the Gram-form drift (module docstring).
        """
        e = self.c - 1.0
        dW = self.W - self.W_ref
        A = self.G - self.G_ref
        A += e * self.M0
        s = np.einsum("ij,ij->j", dW, A) + e * e * self.n0
        p = np.einsum("ij,ij->j", dW, self.G_ref) + e * self.q0
        beta = np.divide(p, self.r, out=np.zeros_like(p), where=self.r > 0.0)
        G_ref_norm, M0_norm, QR_norm, Q0_sq = self.sizes
        X_sq, b_norm = self.product_sizes
        size = np.sqrt(_fdot(self.G, self.G)) + X_sq * self.p_max + b_norm
        size += G_ref_norm + abs(e) * M0_norm
        size *= np.sqrt(_fdot(dW, dW))
        size = (1.0 + np.abs(beta).max()) * (size + abs(e) * QR_norm) + e * e * Q0_sq
        return beta, np.sqrt(np.maximum(s - beta * p, 0.0) + self.eps * size) + self.floor

    def certifies(self, tau):
        """True when every excluded entry of the full ``V`` is provably at most ``tau``."""
        limit = tau * (1.0 - _CERTIFICATE_SLACK)
        beta, delta = self.drift()
        scale = 1.0 + beta
        caps = abs(self.c) * self.W_max
        caps += np.abs(scale).max() * self.gG_max
        caps += delta.max() * self.ga
        flagged = np.flatnonzero(caps > limit)
        if not flagged.size:
            return True
        rows = self.excluded[flagged]
        W = self.c * self.W_all[rows]
        bound = np.abs(W - self.gamma * self.G_all[rows] * scale) + self.ga[flagged, None] * delta
        return bool(bound.max() <= limit)

    def extrapolated_point(self):
        W = np.multiply(self.c, self.W_all, order="F")
        W[self.rows] = self.W
        return W

    def residual(self):
        """The residual at the extrapolated point, ``R_ref + X_C dW + (c - 1) Q0``."""
        return self.ref + self.X @ (self.W - self.W_ref) + (self.c - 1.0) * self.Q0

    def projected_point(self, shape):
        if self.full:
            return self.P
        P = np.zeros(shape, order="F")
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
    W_proj, trace, full_gradients = _loop(
        design, labels, mu, W0, n_iters, eta, 1.0 / sigma_max**2, accelerated
    )
    return InnerSolveReport(W_proj, np.asarray(trace), n_iters, full_gradients)


def _loop(design, labels, mu, W0, n_iters, eta, gamma, accelerated):
    """The projected-gradient loop, carrying the residual at the extrapolated point.

    While a working set is open, the set carries the gradient on its rows
    instead, and the residual is rebuilt when it closes.  On tall data a set
    of every row opens at the start and carries every step.  Returns the
    last projected point, the objective trace and the count of full-width
    gradients.
    """
    X = design.X
    d, dbar = W0.shape
    Ymu = mu[labels]
    W_proj, tau = _shrink(W0, eta)
    # same product as X @ W_proj; for C-ordered X, OpenBLAS runs this layout faster
    R_proj = (W_proj.T @ X.T).T - Ymu
    trace = [0.5 * float(np.vdot(R_proj, R_proj))]

    W = W_proj  # extrapolated point, gradient is evaluated here
    R = R_proj
    t = 1.0
    lam = 1.0  # without acceleration the extrapolated point is the projected point
    # the open working set, which then holds the iterates; on tall X the set of
    # every row steps on H = X.T X from the start (see the module docstring)
    ws = _WorkingSet(design, W_proj, Ymu, gamma) if d + dbar <= X.shape[0] else None
    full_gradients = 0
    for n in range(n_iters):
        if accelerated:
            t, lam = momentum_schedule(n, t)
        # the threshold moves little from step to step, so the last one starts its scan
        lo = _TAU_HINT * tau
        if ws is not None:
            if ws.step(eta, lo, lam):
                tau = ws.tau
                trace.append(ws.objective)
                # a step on every row is full-width
                full_gradients += ws.full
                continue
            W, R, ws = ws.extrapolated_point(), ws.residual(), None
        full_gradients += 1
        # same product as X.T @ R; for C-ordered X, OpenBLAS runs this layout faster
        G = (R.T @ X).T
        # Fortran order, as G is: W is C-ordered where _shrink returned a copy
        V = np.subtract(W, gamma * G, order="F")
        W_proj, tau = _shrink(V, eta, lo)
        rows = _candidates(V, tau)
        if rows is not None:
            # every kept entry has |V| > tau, so the support of W_proj lies in rows
            ws = _WorkingSet(design, W_proj, Ymu, gamma, lam, rows, W, G, R)
            trace.append(ws.objective)
            continue
        W = _relax(W, W_proj, lam)
        R_proj = (W_proj.T @ X.T).T - Ymu
        trace.append(0.5 * float(np.vdot(R_proj, R_proj)))
        # residual is affine in W, so recombine instead of re-multiplying
        R = _relax(R, R_proj, lam)
    if ws is not None:
        W_proj = ws.projected_point(W0.shape)
        # same product as X @ P; for C-ordered X, OpenBLAS runs this layout faster
        R_proj = (ws.P.T @ ws.X.T).T - Ymu
        trace[-1] = 0.5 * float(np.vdot(R_proj, R_proj))
    return W_proj, trace, full_gradients


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
