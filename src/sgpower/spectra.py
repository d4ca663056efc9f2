"""Spectra of signed adjacency matrices and the spectral balance test.

A balanced signed complete graph on m vertices is switching-equivalent
to the all-positive one, so its adjacency spectrum is m-1 (once) and
-1 (m-1 times); conversely that spectrum forces balance.  Combining
this with the common-sign completion of a compatible graph gives a
purely spectral balance criterion (Acharya, J. Graph Theory 4, 1980).
Through the power balance equivalence it is also a criterion for the
balance of powers, which the `sgs` key of `verify` checks.

`eigenvalues` calls LAPACK's symmetric eigensolver through
`numpy.linalg.eigvalsh`; its `tol` only sets how close consecutive
eigenvalues must lie to be grouped.  The balance test decides the
spectral criterion exactly, on integers, without computing eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NotCompatibleError, SignedGraph, SignedGraphError
from .distance import is_compatible
from .power import associated_complete

DEFAULT_TOL = 1e-10


class NotSymmetricError(SignedGraphError):
    """The eigensolver needs a symmetric matrix."""


class NoConvergenceError(SignedGraphError):
    """The eigensolver did not converge."""


def adjacency_matrix(g: SignedGraph) -> np.ndarray:
    """Dense signed adjacency matrix with integer entries."""
    n = g.vertex_count
    a = np.zeros((n, n), dtype=np.int64)
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order plus multiplicity grouping.

    `groups` clusters consecutive eigenvalues closer than 10 * tol into
    (value, multiplicity) pairs, value being the cluster mean.
    """

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    tol: float

    @property
    def order(self) -> int:
        return len(self.eigenvalues)


def eigenvalues(m: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of a symmetric matrix, by LAPACK's symmetric eigensolver."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("need a square matrix of order >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.array_equal(a, a.T):
        raise NotSymmetricError("matrix is not symmetric")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    try:
        ascending = np.linalg.eigvalsh(a.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from None
    values = [float(x) for x in ascending[::-1]]
    return Spectrum(tuple(values), _cluster(values, tol), tol)


def _cluster(values: list[float], tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[tuple[float, int]] = []
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j - 1] - values[j] < 10.0 * tol:
            j += 1
        block = values[i:j]
        groups.append((sum(block) / len(block), len(block)))
        i = j
    return tuple(groups)


def _is_sign_outer_product(b: np.ndarray) -> bool:
    """True iff b = x x^T for some x in {+1, -1}^m, given b[0, 0] = 1."""
    return bool(np.array_equal(b, np.outer(b[0], b[0])))


def balanced_spectrum_test(g: SignedGraph) -> bool:
    """Spectral balance test for a connected compatible graph.

    True iff the common-sign completion of g has spectrum
    {m-1 once, -1 (m-1) times}, which holds iff g is balanced.

    The check on B is exact and O(m^2).  Let A be the adjacency matrix
    of the completion and B = A + I: symmetric, unit diagonal, every
    other entry +1 or -1.  Then

        spectrum of A is {m-1 once, -1 (m-1) times}
        <=> B^2 = m B
        <=> B has rank one (with unit diagonal)
        <=> B = x x^T for some x in {+1, -1}^m.

    First: B is orthogonally diagonalizable with eigenvalues
    mu = lambda + 1, so B^2 = m B iff every mu is 0 or m, and
    trace B = m then leaves m exactly once.  Second: rank B is the
    number of nonzero mu, so that spectrum gives rank one; conversely a
    symmetric rank-one B is c y y^T, the unit diagonal forces c > 0 and
    puts x = sqrt(c) y in {+1, -1}^m, and B^2 = x (x^T x) x^T = m B.
    Last, B = x x^T holds iff B = B[0] B[0]^T, since B[0] = x_0 x and
    x_0^2 = 1.  Read entrywise, B = x x^T gives every completion edge
    the sign x_u x_v: switching by x makes it all positive.
    """
    if not is_compatible(g):  # raises DisconnectedError when disconnected
        raise NotCompatibleError("the spectral balance test needs a compatible graph")
    b = adjacency_matrix(associated_complete(g, "pm"))
    np.fill_diagonal(b, 1)
    return _is_sign_outer_product(b)
