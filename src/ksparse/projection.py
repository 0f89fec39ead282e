"""Exact Euclidean projections onto the scaled simplex and the l1 ball.

The threshold search is an active-set filtering scan in the style of
Michelot (1986), which runs in expected linear time on typical inputs.  It
computes the unique threshold ``tau`` such that ``w = max(v - tau, 0)``
sums to ``eta``.  ``_shrink``, the l1-ball projection without the public
checks, also returns ``tau``, which the weight solver's certificate reads.
Finite input whose magnitudes sum past the largest float, and an ``eta``
below the rounding of the entries it is shared among, go through a scan on
the gaps below the largest entry instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_simplex", "project_l1_ball"]


def _tau_scan(v: np.ndarray, eta: float, lo: float = 0.0) -> float | None:
    """The threshold ``tau`` with ``sum(max(v - tau, 0)) = eta``, or None.

    A positive ``lo`` is a guess below ``tau``.  When ``sum(max(v - lo, 0))``
    exceeds ``eta`` by a margin, ``lo`` is below ``tau`` for certain, and the
    filter starts from the entries above ``lo`` rather than from all of
    ``v``; otherwise it starts cold.  Both starts hold the final active set,
    and each pass's threshold is at most ``tau``, so the filter never drops
    an entry of that set and both end on it; a set keeps its entries'
    order, so its sum and ``tau`` have the same bits either way.

    None means a pass kept no entry: ``eta`` is below the rounding of the
    entries it is shared among, so ``v - tau`` cannot give the output, and
    :func:`_gap_projection` does.
    """
    active = v
    if lo > 0.0:
        above = v[v > lo]
        # a sum of nonnegative terms, so its rounding is far inside the margin
        if (above - lo).sum() >= eta * (1.0 + 1e-9):
            active = above
    while active.size:
        tau = (active.sum() - eta) / active.size
        keep = active > tau
        if keep.all():
            return tau
        active = active[keep]
    return None


def project_simplex(v: np.ndarray, eta: float) -> np.ndarray:
    """Project a vector onto the simplex {w >= 0, sum(w) = eta}.

    Returns the unique l2-closest point, which has the thresholded form
    ``max(v - tau, 0)``.  Entries exactly at the threshold map to zero.
    Negative inputs are permitted; the projection is still well-defined.
    ``eta`` must be a positive, finite scalar.
    """
    if not (np.isscalar(eta) and 0 < eta < np.inf):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input contains NaN or Inf entries")
    tau = None if _overflows(v) else _tau_scan(v, eta)
    return _gap_projection(v, eta) if tau is None else np.maximum(v - tau, 0.0)


def project_l1_ball(W: np.ndarray, eta: float) -> np.ndarray:
    """Project a vector or matrix onto the l1 ball of radius eta.

    ``eta`` must be a positive, finite scalar.  Points already inside the
    ball are returned unchanged.  Otherwise the result is ``sign(w) * v``
    where ``v`` is the simplex projection of the absolute values, so the
    output l1 norm equals ``eta``.  Matrix inputs are vectorized in
    column-major order and reshaped back; the order is irrelevant to the
    result but fixed for determinism.
    """
    if not (np.isscalar(eta) and 0 < eta < np.inf):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)):
        raise ValueError("input contains NaN or Inf entries")
    if _overflows(W):  # so outside the ball
        shrunk = _gap_projection(np.abs(W).ravel(order="F"), eta)
        return np.sign(W) * shrunk.reshape(W.shape, order="F")
    return _shrink(W, eta)[0]


def _overflows(v: np.ndarray) -> bool:
    """True when ``sum|v|`` of a finite ``v`` overflows."""
    with np.errstate(over="ignore"):
        return not np.isfinite(np.abs(v).sum())


def _gap_projection(v: np.ndarray, eta: float) -> np.ndarray:
    """``max(v - tau, 0)`` summing to eta, where ``v - tau`` cannot give it.

    That is a finite ``v`` whose sums overflow, or an ``eta`` below the
    rounding of the entries it is shared among.

    With ``M = max(v)`` the threshold is ``tau = M - c`` and the output is
    ``c - g`` on the gaps ``g = M - v`` below ``c``, so the scan filters the
    gaps: ``c = (eta + sum g) / n`` over the ``n`` active gaps.  The gaps
    are taken on ``v`` scaled by a power of two near ``max|v|``, where no sum
    overflows.  Entries tied at ``M`` get ``eta / n``, which ``v - tau``
    would lose to rounding at the scale of ``v``.
    """
    s = np.ldexp(1.0, int(np.frexp(np.abs(v).max())[1]) - 1)  # max|v| / s in [1, 2)
    g = v.max() / s - v / s
    active = g
    while True:
        c = (eta / s + active.sum()) / active.size
        keep = active < c
        # no gap below c: the active gaps are equal, and eta / s rounds away beside them
        if keep.all() or not keep.any():
            break
        active = active[keep]
    n = active.size
    out = np.zeros_like(g)
    kept = g <= active.max()
    out[kept] = eta / n + (active.sum() / n - g[kept]) * s
    return out


def _shrink(W: np.ndarray, eta: float, lo: float = 0.0) -> tuple[np.ndarray, float]:
    """``(project_l1_ball(W, eta), tau)``, ``tau`` 0.0 inside the ball; checks ``sum|W|`` only.

    ``lo`` is passed to the threshold scan (:func:`_tau_scan`).
    """
    flat = W.ravel(order="F")
    a = np.abs(flat)
    total = np.sum(a)
    if not np.isfinite(total):
        raise ValueError("input contains NaN or Inf entries")
    # relative slack makes re-projecting an already-projected point an exact
    # no-op despite rounding in the norm sum
    if total <= eta * (1.0 + 1e-12):
        return W.copy(), 0.0
    tau = _tau_scan(a, eta, lo)
    if tau is None:
        shrunk = _gap_projection(a, eta)
        tau = float(a.max() - shrunk.max())  # a kept entry's a - out, to rounding
    else:
        shrunk = np.maximum(a - tau, 0.0)
    out = np.sign(flat) * shrunk
    return (out.reshape(W.shape, order="F") if W.ndim > 1 else out), tau
