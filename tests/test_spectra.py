"""LAPACK eigenvalues against the Jacobi reference, and the spectral balance tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobi
from sgpower import (
    NoConvergenceError,
    NotCompatibleError,
    NotSymmetricError,
    Spectrum,
    adjacency_matrix,
    associated_complete,
    balanced_spectrum_test,
    eigenvalues,
    is_balanced,
    power,
    switch,
)

from conftest import (
    all_negative_cycle,
    complete_graph,
    connected_signed_graphs,
    cycle_graph,
)
from sgpower.spectra import _is_sign_outer_product


def _assert_close_to_jacobi(m, tol=1e-9):
    ours = eigenvalues(m).eigenvalues
    ref = jacobi.eigenvalues(m).eigenvalues
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert abs(a - b) < tol


# -- the eigensolver -----------------------------------------------------------


@st.composite
def symmetric_int_matrices(draw, max_order=8, max_entry=3):
    n = draw(st.integers(1, max_order))
    vals = st.integers(-max_entry, max_entry)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = draw(vals)
    return m


@given(symmetric_int_matrices())
@settings(max_examples=120, deadline=None)
def test_eigenvalues_match_jacobi_reference(m):
    _assert_close_to_jacobi(m)


def test_jacobi_handles_degenerate_clusters():
    # regression: the off-diagonal norm of this matrix used to be
    # computed by subtracting Frobenius sums, whose cancellation error
    # floored near sqrt(eps) and made the sweep loop appear stuck
    m = np.array([[0, 1, 1, 1], [1, 0, -1, 1], [1, -1, 0, 1], [1, 1, 1, 0]])
    root5 = np.sqrt(5.0)
    for solve in (jacobi.eigenvalues, eigenvalues):
        spec = solve(m)
        for got, want in zip(spec.eigenvalues, (root5, 1.0, -1.0, -root5)):
            assert abs(got - want) < 1e-9


def test_spectrum_of_all_positive_complete_graph():
    spec = eigenvalues(adjacency_matrix(complete_graph(4)))
    assert [m for _, m in spec.groups] == [1, 3]
    assert spec.groups[0][0] == pytest.approx(3.0, abs=1e-9)
    assert spec.groups[1][0] == pytest.approx(-1.0, abs=1e-9)


def test_spectrum_grouping_tolerance():
    spec = eigenvalues(np.diag([2.0, 2.0, 1.0]), tol=1e-8)
    assert spec.groups == ((2.0, 2), (1.0, 1))
    assert spec.order == 3
    assert isinstance(spec, Spectrum)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_eigenvalues_needs_a_positive_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        eigenvalues(np.eye(2), tol=tol)


def test_eigenvalues_input_validation():
    with pytest.raises(NotSymmetricError):
        eigenvalues(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 2)), tol=0.0)
    for bad in (np.inf, -np.inf, np.nan):  # rejected before LAPACK sees them
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues(np.array([[bad, 1.0], [1.0, 1.0]]))
    assert eigenvalues(np.array([[7.0]])).eigenvalues == (7.0,)


def test_lapack_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError):
        eigenvalues(np.eye(2))


@given(connected_signed_graphs(max_vertices=7), st.sets(st.integers(0, 6)))
@settings(max_examples=60, deadline=None)
def test_switching_preserves_the_spectrum(g, vertices):
    chosen = {v for v in vertices if v < g.vertex_count}
    a = eigenvalues(adjacency_matrix(g)).eigenvalues
    b = eigenvalues(adjacency_matrix(switch(g, chosen))).eigenvalues
    for x, y in zip(a, b):
        assert abs(x - y) < 1e-9


# -- spectral balance ------------------------------------------------------------


def test_balanced_completion_has_two_point_spectrum():
    g = switch(cycle_graph([1] * 6), [1, 4])
    assert is_balanced(g).balanced
    spec = eigenvalues(adjacency_matrix(associated_complete(g, "pm")))
    assert spec.groups[0][0] == pytest.approx(5.0, abs=1e-9)
    assert spec.groups[1] == (pytest.approx(-1.0, abs=1e-9), 5)


def test_unbalanced_completion_spectrum_differs():
    g = all_negative_cycle(5)
    spec = eigenvalues(adjacency_matrix(associated_complete(g, "pm")))
    root5 = np.sqrt(5.0)
    assert [m for _, m in spec.groups] == [2, 1, 2]
    assert spec.groups[0][0] == pytest.approx(root5, abs=1e-9)
    assert spec.groups[1][0] == pytest.approx(0.0, abs=1e-9)
    assert spec.groups[2][0] == pytest.approx(-root5, abs=1e-9)


@given(connected_signed_graphs())
@settings(max_examples=80, deadline=None)
def test_spectral_balance_agrees_with_direct_test(g):
    from sgpower import is_compatible

    if not is_compatible(g):
        with pytest.raises(NotCompatibleError):
            balanced_spectrum_test(g)
        return
    assert balanced_spectrum_test(g) == is_balanced(g).balanced


@given(connected_signed_graphs())
@settings(max_examples=80, deadline=None)
def test_exact_balance_test_matches_jacobi_pattern(g):
    from sgpower import is_compatible

    if not is_compatible(g):
        return
    spec = jacobi.eigenvalues(adjacency_matrix(associated_complete(g, "pm")))
    assert balanced_spectrum_test(g) == jacobi.matches_balanced_pattern(spec, g.vertex_count)


def test_sign_outer_product_at_order_300():
    # a switched positive 300-cycle is balanced: its completion is x x^T - I
    g = switch(cycle_graph([1] * 300), range(0, 300, 7))
    b = adjacency_matrix(associated_complete(g, "pm"))
    np.fill_diagonal(b, 1)
    assert _is_sign_outer_product(b)
    assert balanced_spectrum_test(g)
    b[17, 203] = b[203, 17] = -b[17, 203]
    assert not _is_sign_outer_product(b)


def test_power_balance_spectrum_on_cycles(c7_negative):
    # on a 2-connected compatible graph the n-th power is balanced iff the spectral test passes
    cases = [(c7_negative, 2), (cycle_graph([1] * 7), 2), (switch(cycle_graph([1] * 6), [0, 2]), 3)]
    for g, n in cases:
        assert is_balanced(power(g, n).power_max).balanced == balanced_spectrum_test(g)
