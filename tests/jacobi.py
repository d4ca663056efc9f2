"""Cyclic Jacobi eigensolver: the independent reference for `sgpower.spectra`.

Sweeps of Givens rotations annihilate off-diagonal entries until the
off-diagonal Frobenius norm drops below `tol` (default 1e-10).  For the
integer matrices produced here the iteration converges in a handful of
sweeps; a 100 sweep cap guards against non-symmetric garbage.  It loops
in Python, so it is kept for the tests only, where it cross-checks the
LAPACK-backed `sgpower.eigenvalues` and the exact spectral balance test.
"""

from __future__ import annotations

import math

import numpy as np

from sgpower.spectra import (
    DEFAULT_TOL,
    NoConvergenceError,
    NotSymmetricError,
    Spectrum,
    _cluster,
)

_MAX_SWEEPS = 100


def _off_norm(a: np.ndarray) -> float:
    # Sum the off-diagonal squares directly: subtracting the diagonal
    # mass from the full Frobenius norm cancels catastrophically once
    # the off-diagonal part is tiny, and would floor the result near
    # sqrt(eps) * ||a|| instead of letting it reach zero.
    off = a.astype(np.float64, copy=True)
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt(np.sum(off * off)))


def eigenvalues(m: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of a symmetric matrix by the cyclic Jacobi method."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("need a square matrix of order >= 1")
    if not np.array_equal(a, a.T):
        raise NotSymmetricError("matrix is not symmetric")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = a.astype(np.float64, copy=True)
    n = a.shape[0]
    if n > 1:
        for _ in range(_MAX_SWEEPS):
            if _off_norm(a) < tol:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if apq == 0.0:
                        continue
                    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    col_p = a[:, p].copy()
                    col_q = a[:, q].copy()
                    a[:, p] = c * col_p - s * col_q
                    a[:, q] = s * col_p + c * col_q
                    row_p = a[p, :].copy()
                    row_q = a[q, :].copy()
                    a[p, :] = c * row_p - s * row_q
                    a[q, :] = s * row_p + c * row_q
                    a[p, q] = a[q, p] = 0.0
        else:
            raise NoConvergenceError(f"no convergence within {_MAX_SWEEPS} sweeps")
    values = sorted((float(x) for x in np.diag(a)), reverse=True)
    return Spectrum(tuple(values), _cluster(values, tol), tol)


def matches_balanced_pattern(spec: Spectrum, order: int, tol: float = DEFAULT_TOL) -> bool:
    """Eigenvalues equal {order-1 once, -1 repeated} within 10 * tol."""
    atol = 10.0 * tol
    targets = [float(order - 1)] + [-1.0] * (order - 1)
    return all(abs(x - t) <= atol for x, t in zip(spec.eigenvalues, targets))
