"""Inner weight solvers for a fixed clustering.

Every solver minimizes the criterion over the projection matrix ``W``
subject to ``||W||_1 <= eta`` by forward-backward splitting: a gradient
step on the smooth term followed by an exact projection onto the l1 ball.
The accelerated variant adds momentum with the Chambolle-Dossal parameter
rule ``t_n = (n + 5) / 4``, which also guarantees convergence of the
iterates.  All run one loop, :func:`_fista`: the plain variant is the
extrapolation weight ``lambda = 1`` case, where the extrapolated point is
the projected point.  A step on all of ``X`` is at ``gamma =
1/sigma_max^2``, one over the gradient's Lipschitz constant, with
``sigma_max`` the spectral norm of ``X``: given or measured, and rejected
when provably too small (below the largest column norm of ``X``).

The loop takes one gradient product per step, at the projected point
``P``.  The gradient is affine in ``W``, so the loop carries it at the
extrapolated point by the points' own recombination, ``G = (1 - lambda) G
+ lambda G(P)``.  On tall data (``d + dbar <= m``) the product is one d x d
x dbar product on the Gram matrix ``H = X.T X`` of a :class:`_Design`, all
of it whatever the support of ``P``: ``H P - b`` with ``b = X.T Y mu`` and
``Y`` the m x k one-hot matrix of the labels.  Otherwise the product is two
m x d x dbar ones through ``X``: ``R = X P - Y mu`` and ``X.T R``.

Each projection's threshold scan starts from 0.9 times the last step's
threshold where that provably lies below the new one, and gives the bits
of a cold scan (:func:`ksparse.projection._tau_scan`).

The gap-stopped solve.  :func:`ksparse.driver.k_sparse` runs
:func:`_solve_to_gap`, which stops on the Frank-Wolfe duality gap (Jaggi,
ICML 2013) ``gap = <G, W> + eta max|G|``, an upper bound on ``f(W) - f*``
over the ball, once ``gap <= 1e-2 f``.  On tall data it is the loop above,
one FISTA run on all of ``X``, which tests the gap at its projected point
after every 10th step; FISTA is not monotone, so the run may end above its
start, and the driver then keeps the start.  On wide data it runs in
rounds, each of which forms the full gradient ``G`` and the gap at ``W``
and ends the solve at ``gap <= 1e-2 f``.  Otherwise the round takes a
working set ``C``, in the style of Blitz (Johnson & Guestrin, ICML 2015):
the support of ``W`` plus the 64 other rows with the largest ``max_j
|G_ij|`` (fewer where ``d`` runs out).  It runs FISTA on those rows alone
until the restricted gap, tested every 10 steps, is at most 0.2 times the
full gap.  Rows outside the set stay exactly zero, so the result is a point
of the full problem, whose gap the next round tests.  A round is kept only
when ``f`` does not rise, and otherwise the solve ends.  ``n_iters`` caps
the steps of all rounds together.  A set grows by 64 rows and not in
proportion to its support: with ``2 |supp|`` more rows, paper-size sets
reached up to 903 rows, whose eigenvalues and Gram cost more than they
saved, and paper seeds 1-20 ended at a higher objective on all 20.  The
start's full gradient reads only the columns of ``X`` in the support of
``W`` when that is under half of its rows (:func:`_on_support`).

A set steps at one over its own Lipschitz constant ``lambda_max(H_C)``,
with ``H_C = X_C.T X_C`` and ``X_C = X[:, C]``; at ``1/sigma_max^2``
instead, paper-size runs ended at a higher objective on all of seeds 1-20.
A set of at most ``2 m`` rows steps on ``H_C``: below ``2 m`` rows one |C|
x |C| x dbar product costs fewer flops than two m x |C| x dbar ones, and
``H_C`` is at most twice the size of ``X_C``.  A larger set takes its
products through ``X_C`` twice, bounding its memory by that of ``X_C``.
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

# a gap-stopped solve ends when its Frank-Wolfe gap is at most this fraction of f
_GAP_RTOL = 1e-2
# a round's restricted solve ends when its own gap is at most this fraction of the full gap
_ROUND_GAP_FRACTION = 0.2
# a stopped FISTA run tests its gap after every this many steps
_GAP_TEST_STEPS = 10
# a working set adds this many rows to the support, fewer where d runs out
_NEW_ROWS = 64
# each threshold scan starts from this fraction of the last step's threshold
_TAU_HINT = 0.9


@dataclass
class InnerSolveReport:
    """Outcome of one inner solve: final weights, objective trace, counts.

    ``iterations_run`` counts the projected-gradient steps, at most
    ``n_iters``.  :func:`solve_weights_ista` and :func:`solve_weights_fista`
    take them all, and for them ``full_gradients`` equals ``n_iters``, as
    every step forms the gradient over all ``d`` rows.  Their
    ``objective_trace`` holds half the squared residual norm at the
    projected start and at each step's projected point.  On tall data (``d +
    dbar <= m``) the entries between the first and the last are in Gram
    form, ``0.5 ||Y mu||^2 + 0.5 <P, H P - 2 b>`` with ``H = X.T X`` and ``b
    = X.T Y mu``; the first and last are computed on ``X``, as ``0.5 ||X P -
    Y mu||^2``.  A Gram-form entry's error relative to the objective ``f``
    is about ``eps ||Y mu||^2 / f``: about 1e-15 on the benchmark's
    counts-tall solves, and up to 1.6e-9 where ``Y mu`` lies within 1e-2 of
    the range of ``X``.

    The gap-stopped solve (module docstring) may stop before ``n_iters``.
    On tall data it is the loop above, stopped by its gap: its trace has an
    entry per step, with the first and last on ``X``, ``full_gradients``
    counts its steps, and it may end above its start.  On wide data its
    ``objective_trace`` holds the objective at the projected start and after
    each kept round, so it never rises, and ``full_gradients`` counts its
    rounds, each of which forms the full gradient once, for its gap.
    """

    final_weights: np.ndarray
    objective_trace: np.ndarray
    iterations_run: int
    full_gradients: int


def default_weight_init(d: int, dbar: int, eta: float) -> np.ndarray:
    """Deterministic feasible start: min(d, dbar) diagonal entries of eta / min(d, dbar).

    On the boundary of the l1 ball.  ``W = 0`` is stationary for a weight
    solve only where ``X.T Y mu = 0``, as for the centroids of ``X W = 0``.
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
    X.T @ X``, which a tall solve steps on (module docstring).  With ``m >
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
    """Check a solve's inputs; returns the design, ``Y mu``, the projected start and the step."""
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
    norms = design.norms
    # a column norm is a lower bound on the spectral norm; the margin absorbs rounding
    if norms.max(initial=0.0) > sigma_max * (1.0 + 1e-9):
        raise ValueError(
            f"sigma_max={sigma_max} is below the largest column norm {norms.max():.6g} "
            "of X, so it cannot be the spectral norm of X"
        )
    return design, mu[labels], _shrink(W0, eta)[0], 1.0 / sigma_max**2


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


def _gap(W, G, eta):
    """The Frank-Wolfe gap ``<G, W> + eta max|G|`` of a feasible ``W`` with gradient ``G``."""
    return _fdot(G, W) + eta * float(np.abs(G).max())


def _residual(A, P, Ymu):
    """``A @ P - Y mu``; for C-ordered ``A``, OpenBLAS runs this layout faster."""
    return (P.T @ A.T).T - Ymu


def _half_sq(R):
    """``0.5 ||R||^2``."""
    return 0.5 * float(np.vdot(R, R))


def _through(A, B, Ymu, P):
    """``(B.T R, 0.5 ||R||^2)`` with ``R = A P - Y mu``: the gradient on the
    columns of ``B`` at a point whose rows outside the columns of ``A`` are zero."""
    R = _residual(A, P, Ymu)
    # same product as B.T @ R; for C-ordered B, OpenBLAS runs this layout faster
    return (R.T @ B).T, _half_sq(R)


def _gram_gradient(H, b, half_ymu, P):
    """The gradient ``H P - b`` at a projected point ``P``, and its trace entry.

    ``H`` is a symmetric Gram, ``b = X.T Y mu`` on its rows and ``half_ymu =
    0.5 ||Y mu||^2``.  The product reads all of ``H``.  ``(P.T @ H).T`` is
    ``H @ P`` in the layout OpenBLAS runs faster for the Fortran-ordered ``P``.
    """
    G = (P.T @ H).T - b
    return G, half_ymu + 0.5 * _fdot(P, G - b)


def _on_support(X, W):
    """``(X_S, W_S)`` with ``X_S @ W_S`` equal to ``X @ W`` up to rounding:
    the columns of ``X`` and rows of ``W`` in the support of ``W`` when that
    is under half of its rows, else ``(X, W)``."""
    supp = np.flatnonzero(W.any(axis=1))
    return (X[:, supp], W[supp]) if 2 * supp.size < W.shape[0] else (X, W)


def _product(X, Ymu, H=None):
    """``P -> (G, f)`` at a projected point, on the columns of ``X``: one product
    on their Gram ``H`` (:func:`_gram_gradient`), or without it two through ``X``."""
    if H is None:
        return lambda P: _through(X, X, Ymu, P)
    # X.T @ Ymu, written (Ymu.T @ X).T in the layout of the gradient
    b = (Ymu.T @ X).T
    half_ymu = _half_sq(Ymu)
    return lambda P: _gram_gradient(H, b, half_ymu, P)


def _fista(product, W, eta, gamma, n_steps, accelerated, stop=None):
    """Up to ``n_steps`` projected-gradient steps from a feasible ``W``.

    ``product(P)`` gives the gradient and the objective ``f`` at a projected
    point.  With a ``stop = (a, r)``, the loop ends after any tenth step whose
    gap (:func:`_gap`) is at most ``a + r f``.  Returns the last projected
    point, the gradient there and the objectives at ``W`` and at every
    projected point.
    """
    P = W
    G_P, f = product(P)
    trace = [f]
    G = G_P  # the gradient at the extrapolated point W
    t = 1.0
    lam = 1.0  # without acceleration the extrapolated point is the projected point
    tau = 0.0
    for n in range(n_steps):
        if accelerated:
            t, lam = momentum_schedule(n, t)
        # Fortran order, as G is; the threshold moves little from step to
        # step, so the last one starts the scan
        P, tau = _shrink(np.subtract(W, gamma * G, order="F"), eta, _TAU_HINT * tau)
        G_P, f = product(P)
        trace.append(f)
        W = _relax(W, P, lam)
        G = _relax(G, G_P, lam)
        if stop is not None and (n + 1) % _GAP_TEST_STEPS == 0:
            if _gap(P, G_P, eta) <= stop[0] + stop[1] * f:
                break
    return P, G_P, trace


def _solve(design, Ymu, P, gamma, n_iters, eta, accelerated, stop=None):
    """The loop on all of ``X`` from :func:`_prepare`'s outputs; ``stop`` as in :func:`_fista`."""
    X = design.X
    tall = X.shape[1] + Ymu.shape[1] <= X.shape[0]
    # Gram-form entries lose digits where Y mu lies near the range of X, so a
    # tall solve takes its first and last entries on X itself
    first = _half_sq(_residual(X, P, Ymu)) if tall else None
    product = _product(X, Ymu, design.gram if tall else None)
    P, _, trace = _fista(product, P, eta, gamma, n_iters, accelerated, stop)
    if tall:
        trace[0], trace[-1] = first, _half_sq(_residual(X, P, Ymu))
    return InnerSolveReport(P, np.asarray(trace), len(trace) - 1, len(trace) - 1)


def _working_set(W, G):
    """A round's rows: the support of ``W`` and the ``_NEW_ROWS`` other
    rows with the largest ``max_j |G_ij|`` (all of them where fewer are left),
    ascending."""
    score = np.abs(G).max(axis=1)
    supp = W.any(axis=1)
    score[supp] = np.inf
    n = min(W.shape[0], int(np.count_nonzero(supp)) + _NEW_ROWS)
    return np.sort(np.argpartition(-score, n - 1)[:n])


def _solve_to_gap(X, labels, mu, W0, n_iters, eta, *, sigma_max=None):
    """FISTA stopped by the Frank-Wolfe gap, in one run on tall data (module docstring).

    Takes the arguments of :func:`solve_weights_fista` and checks them as it
    does; ``n_iters`` caps the steps of the run, or of all rounds together.
    """
    design, Ymu, W, gamma = _prepare(X, labels, mu, W0, n_iters, eta, sigma_max)
    X = design.X
    m = X.shape[0]
    if X.shape[1] + Ymu.shape[1] <= m:
        # a working set would be every row, so rounds would only restart the momentum
        return _solve(design, Ymu, W, gamma, n_iters, eta, True, stop=(0.0, _GAP_RTOL))
    X_S, W_S = _on_support(X, W)
    G, f = _through(X_S, X, Ymu, W_S)
    trace, steps, rounds = [f], 0, 1
    while steps < n_iters:
        gap = _gap(W, G, eta)
        if gap <= _GAP_RTOL * f:
            break
        rows = _working_set(W, G)
        X_C = X[:, rows]
        H_C = X_C.T @ X_C if rows.size <= 2 * m else None
        # the set's own Lipschitz constant, lambda_max(H_C), from the Gram at hand
        gamma_C = 1.0 / _core._gram_norm(X_C @ X_C.T if H_C is None else H_C) ** 2
        product = _product(X_C, Ymu, H_C)
        stop = (_ROUND_GAP_FRACTION * gap, 0.0)
        P, _, inner = _fista(product, W[rows], eta, gamma_C, n_iters - steps, True, stop)
        W_new = np.zeros(W.shape, order="F")
        W_new[rows] = P
        G_new, f_new = _through(X_C, X, Ymu, P)
        steps += len(inner) - 1
        rounds += 1
        # FISTA is not monotone; the next round would repeat this one from the same point
        if f_new > f:
            break
        W, G, f = W_new, G_new, f_new
        trace.append(f)
    return InnerSolveReport(W, np.asarray(trace), steps, rounds)


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
    return _solve(*_prepare(X, labels, mu, W0, n_iters, eta, sigma_max), n_iters, eta, False)


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
    return _solve(*_prepare(X, labels, mu, W0, n_iters, eta, sigma_max), n_iters, eta, True)
