"""Exact Euclidean projections onto the scaled simplex and the l1 ball.

The threshold search is an active-set filtering scan in the style of
Michelot (1986), which runs in expected linear time on typical inputs.  It
computes the unique threshold ``tau`` such that ``w = max(v - tau, 0)``
sums to ``eta``.  ``_shrink``, the l1-ball projection without the public
checks, also returns ``tau``, which the weight solver's certificate reads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_simplex", "project_l1_ball"]


def _tau_scan(v: np.ndarray, eta: float) -> float:
    active = v
    while True:
        tau = (active.sum() - eta) / active.size
        keep = active > tau
        if keep.all():
            return tau
        active = active[keep]


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
    return np.maximum(v - _tau_scan(v, eta), 0.0)


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
    return _shrink(W, eta)[0]


def _shrink(W: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """``(project_l1_ball(W, eta), tau)``, ``tau`` 0.0 inside the ball; checks ``sum|W|`` only."""
    flat = W.ravel(order="F")
    a = np.abs(flat)
    total = np.sum(a)
    if not np.isfinite(total):
        raise ValueError("input contains NaN or Inf entries")
    # relative slack makes re-projecting an already-projected point an exact
    # no-op despite rounding in the norm sum
    if total <= eta * (1.0 + 1e-12):
        return W.copy(), 0.0
    tau = _tau_scan(a, eta)
    out = np.sign(flat) * np.maximum(a - tau, 0.0)
    return (out.reshape(W.shape, order="F") if W.ndim > 1 else out), tau
