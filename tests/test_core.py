"""Graph construction, switching, connectivity, walk and path signs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpower import (
    BadSignError,
    DuplicateEdgeError,
    LoopEdgeError,
    NotAPathError,
    SignedGraph,
    VertexOutOfRangeError,
    diameter,
    is_connected,
    is_two_connected,
    path_sign,
    serialize_graph,
    switch,
    walk_sign,
)

from conftest import (
    brute_articulation_free,
    brute_balanced,
    complete_graph,
    connected_signed_graphs,
    cycle_graph,
    path_graph,
)


# -- construction ------------------------------------------------------------


def test_edges_are_canonical_and_sorted():
    g = SignedGraph(4, [(2, 0, -1), (3, 1, 1), (0, 1, 1)])
    assert g.edges == ((0, 1, 1), (0, 2, -1), (1, 3, 1))
    assert g.edge_count == 3
    assert g.sign(2, 0) == -1 and g.sign(0, 2) == -1
    assert g.has_edge(1, 3) and not g.has_edge(2, 3)


def test_adjacency_is_built_by_the_first_walk_only():
    g = SignedGraph(4, [(2, 0, -1), (3, 1, 1), (0, 1, 1)])
    assert g == SignedGraph(4, g.edges) and hash(g) and g.sign(0, 2) == -1
    assert serialize_graph(g) and repr(g)
    assert diameter(g) == 3  # the sign table reads the edge map, not the adjacency
    assert g._adjacency is None
    cached = set(g._cache)
    assert g.neighbors(0) == ((1, 1), (2, -1)) and g.degree(3) == 1
    assert g._adjacency is not None and set(g._cache) == cached  # kept in its own slot


def test_vertex_count_must_be_positive():
    with pytest.raises(ValueError):
        SignedGraph(0)
    with pytest.raises(ValueError):
        SignedGraph(-3)


def test_loop_edge_rejected():
    with pytest.raises(LoopEdgeError):
        SignedGraph(3, [(1, 1, 1)])


def test_duplicate_edge_rejected_in_either_orientation():
    with pytest.raises(DuplicateEdgeError):
        SignedGraph(3, [(0, 1, 1), (1, 0, -1)])


def test_bad_sign_rejected():
    with pytest.raises(BadSignError):
        SignedGraph(3, [(0, 1, 2)])
    with pytest.raises(BadSignError):
        SignedGraph(3, [(0, 1, 0)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(VertexOutOfRangeError):
        SignedGraph(3, [(0, 3, 1)])
    with pytest.raises(VertexOutOfRangeError):
        SignedGraph(3, [(-1, 0, 1)])


def test_neighbors_sorted_with_signs():
    g = SignedGraph(4, [(0, 3, -1), (0, 1, 1)])
    assert g.neighbors(0) == ((1, 1), (3, -1))
    assert g.degree(0) == 2 and g.degree(2) == 0
    with pytest.raises(VertexOutOfRangeError):
        g.neighbors(4)


def test_equality_and_hash_ignore_edge_order():
    a = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    b = SignedGraph(3, [(2, 1, -1), (1, 0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != SignedGraph(3, [(0, 1, -1), (1, 2, -1)])
    assert a != SignedGraph(4, [(0, 1, 1), (1, 2, -1)])


def test_a_graph_equals_no_other_type():
    assert (SignedGraph(2, [(0, 1, 1)]) == 5) is False


# -- switching ---------------------------------------------------------------


def test_switching_negates_exactly_the_cut():
    g = cycle_graph([1, 1, 1, 1])
    s = switch(g, [0])
    assert s.sign(0, 1) == -1 and s.sign(3, 0) == -1
    assert s.sign(1, 2) == 1 and s.sign(2, 3) == 1


@given(connected_signed_graphs(), st.sets(st.integers(0, 7)))
def test_switching_is_an_involution(g, vertices):
    chosen = {v for v in vertices if v < g.vertex_count}
    assert switch(switch(g, chosen), chosen) == g


@given(connected_signed_graphs(max_vertices=7), st.sets(st.integers(0, 6)))
@settings(max_examples=60)
def test_switching_preserves_balance(g, vertices):
    chosen = {v for v in vertices if v < g.vertex_count}
    assert brute_balanced(switch(g, chosen)) == brute_balanced(g)


def test_switching_whole_vertex_set_changes_nothing():
    g = cycle_graph([1, -1, 1])
    assert switch(g, range(3)) == g
    assert switch(g, []) == g


# -- connectivity ------------------------------------------------------------


def test_connectivity_basics():
    assert is_connected(SignedGraph(1))
    assert not is_connected(SignedGraph(2))
    assert is_connected(path_graph([1, 1]))
    assert not is_connected(SignedGraph(4, [(0, 1, 1), (2, 3, 1)]))
    # fewer than V - 1 edges: answered without a search over 2^29 vertices
    assert not is_connected(SignedGraph(2**29, [(0, 1, 1)]))


def test_two_connected_basics():
    assert not is_two_connected(SignedGraph(2, [(0, 1, 1)]))  # too small
    assert not is_two_connected(path_graph([1, 1]))  # cut vertex 1
    assert is_two_connected(cycle_graph([1, 1, 1, -1]))
    assert is_two_connected(complete_graph(5))
    # two triangles sharing vertex 2: 2 is a cut vertex
    bowtie = SignedGraph(
        5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)]
    )
    assert not is_two_connected(bowtie)
    # no cut vertex, but not connected
    triangle_and_isolated = SignedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    assert not is_two_connected(triangle_and_isolated)
    two_triangles = SignedGraph(6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)])
    assert not is_two_connected(two_triangles)


@given(connected_signed_graphs(min_vertices=3, max_vertices=8))
@settings(max_examples=80)
def test_two_connected_matches_vertex_deletion(g):
    assert is_two_connected(g) == brute_articulation_free(g)


# -- walk and path signs -----------------------------------------------------


def test_walk_sign_multiplies_edge_signs():
    g = cycle_graph([1, -1, 1, -1])
    assert walk_sign(g, [0, 1, 2]) == -1
    assert walk_sign(g, [0, 1, 0, 1]) == 1  # repeats allowed
    assert walk_sign(g, [2]) == 1  # empty product


def test_walk_sign_rejects_bad_sequences():
    g = path_graph([1, 1])
    with pytest.raises(NotAPathError):
        walk_sign(g, [])
    with pytest.raises(NotAPathError):
        walk_sign(g, [0, 2])  # not an edge
    with pytest.raises(NotAPathError):
        walk_sign(g, [0, 5])  # out of range
    # every vertex is range-checked before any edge is looked up
    with pytest.raises(NotAPathError, match=r"^vertex 5 outside \[0, 3\)$"):
        walk_sign(g, [0, 2, 5])
    with pytest.raises(NotAPathError, match=r"^\(0, 0\) is not an edge$"):
        walk_sign(g, [0, 0])
    with pytest.raises(NotAPathError, match=r"^\(2, 0\) is not an edge$"):
        walk_sign(g, [1, 2, 0])


def test_path_sign_rejects_repeats():
    g = cycle_graph([1, 1, 1])
    with pytest.raises(NotAPathError):
        path_sign(g, [0, 1, 0])
    assert path_sign(g, [0, 1, 2]) == 1


@given(connected_signed_graphs(max_vertices=6))
def test_every_edge_is_a_length_one_path(g):
    for u, v, s in g.edges:
        assert path_sign(g, [u, v]) == s
