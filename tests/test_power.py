"""Powers, uniqueness, completions, and the diameter collapse.

Includes the pinned counterexamples showing that taking the distance
completion does not commute with taking powers: the all-negative
7-cycle has a unique square whose max-completion differs from the
max-completion of the cycle itself, and a 5-vertex graph (the smallest)
has a unique square whose min-completion differs from its own.
"""

import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpower import (
    BadExponentError,
    DisconnectedError,
    NotCompatibleError,
    PathSigns,
    SignedGraph,
    associated_complete,
    diameter,
    first_incompatible_pair,
    first_incompatible_pair_within,
    is_balanced,
    is_compatible,
    is_power_unique,
    lift_path,
    oracle_signs,
    path_sign,
    power,
    serialize_graph,
    shortest_path_with_sign,
    sign_reachability,
    switch,
)
from sgpower.cli import main
from sgpower.distance import _Table, _reach_table

from conftest import (
    all_negative_cycle,
    c4_one_negative,
    complete_graph,
    connected_signed_graphs,
    cycle_graph,
    path_graph,
)


def test_power_of_a_disconnected_graph_raises_at_call_time():
    with pytest.raises(DisconnectedError):
        power(SignedGraph(3, [(0, 1, 1)]), 2)


def test_exponent_must_be_at_least_one():
    g = path_graph([1])
    for bad in (0, -2):
        with pytest.raises(BadExponentError):
            power(g, bad)
        with pytest.raises(BadExponentError):
            is_power_unique(g, bad)
        with pytest.raises(BadExponentError):
            first_incompatible_pair_within(g, bad)


def test_exponent_must_be_an_integer():
    g = path_graph([1, -1, 1])
    checks = (
        lambda n: power(g, n),
        lambda n: is_power_unique(g, n),
        lambda n: lift_path(g, (0, 1, 2), n),
        lambda n: first_incompatible_pair_within(g, n),
    )
    for bad, shown in ((1.5, "1.5"), (2.0, "2.0"), (math.nan, "nan"), (math.inf, "inf"), ("2", "'2'")):
        for check in checks:
            with pytest.raises(BadExponentError, match=rf"^power exponent must be an integer, got {shown}$"):
                check(bad)
    # any integer type passes, numpy's too
    two = np.int64(2)
    assert power(g, two).power_max == power(g, 2).power_max
    assert power(g, two).witnesses_max[0, 2] == (0, 1, 2)
    assert is_power_unique(g, two) and first_incompatible_pair_within(g, two) is None
    assert lift_path(g, (0, 1, 2, 3), two) == (0, 2, 3)


@given(connected_signed_graphs(), st.integers(1, 5))
@settings(max_examples=100)
def test_power_edges_are_exactly_the_close_pairs(g, n):
    pr = power(g, n)
    for u in range(g.vertex_count):
        reach = sign_reachability(g, u)
        for v in range(u + 1, g.vertex_count):
            close = reach[v].distance <= n
            assert pr.power_max.has_edge(u, v) == close
            assert pr.power_min.has_edge(u, v) == close
            if close:
                assert pr.power_max.sign(u, v) == reach[v].signs.sigma_max
                assert pr.power_min.sign(u, v) == reach[v].signs.sigma_min


@given(connected_signed_graphs(), st.integers(1, 4))
@settings(max_examples=80)
def test_uniqueness_three_ways(g, n):
    # flag == pairwise criterion == whole-graph sign comparison, with the
    # pairwise criterion recomputed from exhaustive enumeration
    pr = power(g, n)
    by_signs = pr.power_max == pr.power_min
    by_oracle = all(
        oracle_signs(g, u, v).is_single
        for u in range(g.vertex_count)
        for v in range(u + 1, g.vertex_count)
        if sign_reachability(g, u)[v].distance <= n
    )
    assert pr.unique == is_power_unique(g, n) == by_signs == by_oracle


@given(connected_signed_graphs(max_vertices=7), st.integers(1, 3))
@settings(max_examples=60)
def test_power_distance_is_ceiling_of_base_distance(g, n):
    pr = power(g, n)
    for u in range(g.vertex_count):
        base = sign_reachability(g, u)
        lifted = sign_reachability(pr.power_max, u)
        for v in range(g.vertex_count):
            assert lifted[v].distance == math.ceil(base[v].distance / n)


def _check_witnesses(g, n):
    pr = power(g, n)
    for (u, v), w in pr.witnesses_max.items():
        assert w[0] == u and w[-1] == v
        assert len(w) - 1 == sign_reachability(g, u)[v].distance
        assert path_sign(g, w) == pr.power_max.sign(u, v)
    for (u, v), w in pr.witnesses_min.items():
        assert path_sign(g, w) == pr.power_min.sign(u, v)


@given(connected_signed_graphs(max_vertices=7), st.integers(1, 3))
@settings(max_examples=60)
def test_witnesses_realize_their_edges(g, n):
    _check_witnesses(g, n)


def test_a_sign_blind_witness_fails_the_witness_check(monkeypatch):
    # a fault no `verify` key sees: a witness of either sign, the least shortest path
    def least(g, u, v, sign):
        return min(p for p in (shortest_path_with_sign(g, u, v, s) for s in (1, -1)) if p is not None)

    g = c4_one_negative()
    assert not is_power_unique(g, 2)
    _check_witnesses(g, 2)
    monkeypatch.setattr(importlib.import_module("sgpower.power"), "shortest_path_with_sign", least)
    # the max witness of the positive edge (1, 3) is the negative path (1, 0, 3)
    with pytest.raises(AssertionError, match=r"where -1 = path_sign\(.*, \(1, 0, 3\)\)"):
        _check_witnesses(g, 2)


@given(connected_signed_graphs(), st.integers(1, 4))
@settings(max_examples=80)
def test_lazy_witnesses_equal_the_eager_ones(g, n):
    pr = power(g, n)
    for h, witnesses in ((pr.power_max, pr.witnesses_max), (pr.power_min, pr.witnesses_min)):
        eager = {(u, v): shortest_path_with_sign(g, u, v, s) for u, v, s in h.edges}
        assert list(witnesses) == list(eager) == list(h._sign_by_pair)
        assert len(witnesses) == len(eager)
        assert dict(witnesses) == eager


def test_power_builds_no_witness_until_one_is_read(monkeypatch):
    module = importlib.import_module("sgpower.power")  # the package's `power` is the function
    built = []

    def counting(g, u, v, sign):
        built.append((u, v))
        return shortest_path_with_sign(g, u, v, sign)

    monkeypatch.setattr(module, "shortest_path_with_sign", counting)
    pr = power(all_negative_cycle(7), 2)
    assert built == []
    assert len(pr.witnesses_max) == 14 and (0, 2) in pr.witnesses_max
    assert (0, 3) not in pr.witnesses_max and pr.witnesses_max.get((0, 3)) is None
    assert built == []
    assert pr.witnesses_max[(0, 2)] == (0, 1, 2)
    assert pr.witnesses_max[(0, 2)] == (0, 1, 2)
    assert built == [(0, 2)]  # built once, then kept
    witnesses = dict(pr.witnesses_max)
    assert sorted(built) == sorted(witnesses)  # each of the 14 built exactly once
    assert dict(pr.witnesses_min) == witnesses  # the square of C7 is unique
    with pytest.raises(TypeError):
        pr.witnesses_max[(0, 1)] = (0, 1)
    with pytest.raises(AttributeError):
        pr.unique = False


def test_reading_uniqueness_and_witnesses_builds_no_graph(monkeypatch):
    g = all_negative_cycle(7)
    built = []
    init = SignedGraph.__init__

    def counting(self, vertex_count, edges=()):
        built.append(vertex_count)
        init(self, vertex_count, edges)

    monkeypatch.setattr(SignedGraph, "__init__", counting)
    pr = power(g, 2)
    assert pr.unique
    assert len(pr.witnesses_max) == 14 and (0, 2) in pr.witnesses_max
    assert pr.witnesses_max[(0, 2)] == (0, 1, 2)
    assert pr.witnesses_min.get((0, 2)) == (0, 1, 2)
    assert built == []
    assert pr.power_max.edge_count == 14 and pr.power_max is pr.power_max
    assert built == [7]  # built on first read, then kept


def test_witness_map_holds_only_the_power_edges():
    witnesses = power(all_negative_cycle(7), 2).witnesses_max
    assert witnesses[(0, 2)] == (0, 1, 2)  # built first: the checks below pass it by
    misses = ((2, 0), (0, 0), (0, 3), (5, 7), (-1, 1), (7, 9), [0, 2], "02", 2, (0, 1, 2), None)
    for key in (*misses, (0.5, 1), (1 + 1j, 3), ("a", "b")):
        assert key not in witnesses
        with pytest.raises(KeyError):
            witnesses[key]
        assert witnesses.get(key) is None
    # keys equal and hash-equal to (1, 3) find it, as in a dict, before and after it is built
    equal = ((np.int64(1), np.int64(3)), (1.0, 3), (True, 3), (1 + 0j, 3))
    for key in equal:
        fresh = power(all_negative_cycle(7), 2).witnesses_max
        assert key in fresh and fresh.get(key) == fresh[key] == (1, 2, 3)
    assert witnesses[(1, 3)] == (1, 2, 3)
    for key in equal:
        assert key in witnesses and witnesses.get(key) == witnesses[key] == (1, 2, 3)


def test_first_power_is_the_graph_itself():
    g = c4_one_negative()
    pr = power(g, 1)
    assert pr.unique
    assert pr.power_max is g and pr.power_min is g


def test_non_unique_square_of_the_one_negative_four_cycle():
    g = c4_one_negative()
    pr = power(g, 2)
    assert not pr.unique
    # the ambiguous pairs are the two diagonals
    assert pr.power_max.sign(0, 2) == 1 and pr.power_min.sign(0, 2) == -1
    assert pr.power_max.sign(1, 3) == 1 and pr.power_min.sign(1, 3) == -1


# -- the negative 7-cycle square ----------------------------------------------


def test_square_of_negative_seven_cycle_is_unique_but_incompatible(c7_negative):
    pr = power(c7_negative, 2)
    assert pr.unique
    sq = pr.power_max
    # distance-1 edges keep their sign, distance-2 edges get product of two
    for i in range(7):
        assert sq.sign(i, (i + 1) % 7) == -1
        assert sq.sign(i, (i + 2) % 7) == 1
    assert not is_compatible(sq)


def test_completion_does_not_commute_with_squaring(c7_negative):
    # max-completions of the cycle and of its square disagree on every
    # antipodal (distance 3) pair; the min versions happen to agree here
    base = associated_complete(c7_negative, "max")
    squared = associated_complete(power(c7_negative, 2).power_max, "max")
    differing = [
        (u, v)
        for u in range(7)
        for v in range(u + 1, 7)
        if base.sign(u, v) != squared.sign(u, v)
    ]
    assert differing == [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]
    base_min = associated_complete(c7_negative, "min")
    squared_min = associated_complete(power(c7_negative, 2).power_min, "min")
    assert base_min == squared_min


def test_min_completion_does_not_commute_with_squaring_on_five_vertices():
    # an unbalanced triangle 0-1-2 with pendants 3 (at 0) and 4 (at 1);
    # no graph on 3 or 4 vertices breaks the identity
    g = SignedGraph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, -1), (1, 4, 1)])
    pr = power(g, 2)
    assert pr.unique
    base = associated_complete(g, "min")
    squared = associated_complete(pr.power_min, "min")
    differing = [(u, v, s) for u, v, s in base.edges if squared.sign(u, v) != s]
    assert differing == [(3, 4, 1)]
    # the only shortest 3-4 path of g is 3-0-1-4 (+); in the square they are
    # 3-0-4 (+), 3-1-4 (+) and 3-2-4 (-)
    assert oracle_signs(g, 3, 4) == PathSigns(True, False)
    assert oracle_signs(pr.power_min, 3, 4) == PathSigns(True, True)


def test_completion_commutes_for_balanced_two_connected_graphs():
    g = switch(cycle_graph([1] * 8), [0, 3, 4])
    assert is_balanced(g).balanced
    for n in range(1, diameter(g) + 1):
        pr = power(g, n)
        assert associated_complete(g, "max") == associated_complete(pr.power_max, "max")
        assert associated_complete(g, "min") == associated_complete(pr.power_min, "min")
        assert associated_complete(g, "pm") == associated_complete(pr.power_max, "pm")


# -- associated complete graphs -------------------------------------------------


def test_completion_modes_and_existing_edges():
    g = c4_one_negative()
    kmax = associated_complete(g, "max")
    kmin = associated_complete(g, "min")
    for u, v, s in g.edges:  # original edges keep their signs in every mode
        assert kmax.sign(u, v) == s and kmin.sign(u, v) == s
    assert kmax.edge_count == 6 and kmin.edge_count == 6
    assert kmax.sign(0, 2) == 1 and kmin.sign(0, 2) == -1


def test_common_completion_needs_compatibility():
    with pytest.raises(NotCompatibleError):
        associated_complete(c4_one_negative(), "pm")
    with pytest.raises(ValueError):
        associated_complete(path_graph([1]), "middle")


def test_common_completion_of_negative_five_cycle():
    g = all_negative_cycle(5)
    k = associated_complete(g, "pm")
    for i in range(5):
        assert k.sign(i, (i + 1) % 5) == -1
        assert k.sign(i, (i + 2) % 5) == 1


@given(connected_signed_graphs())
@settings(max_examples=60, deadline=None)
def test_completion_is_complete_and_consistent(g):
    kmax = associated_complete(g, "max")
    n = g.vertex_count
    assert kmax.edge_count == n * (n - 1) // 2
    if is_compatible(g):
        assert associated_complete(g, "pm") == kmax == associated_complete(g, "min")
    # edges keep their signs and non-edges take the oracle's, which never reads the mask
    for mode in ("max", "min", "pm") if is_compatible(g) else ("max", "min"):
        for u, v, s in associated_complete(g, mode).edges:
            if g.has_edge(u, v):
                assert s == g.sign(u, v)
            else:
                signs = oracle_signs(g, u, v)
                assert s == (signs.sigma_min if mode == "min" else signs.sigma_max)


_MIXED_K6 = SignedGraph(6, [(u, v, -1 if u * v % 3 else 1) for u in range(6) for v in range(u)])


@pytest.mark.parametrize(
    "k", [complete_graph(1), complete_graph(2), complete_graph(5, -1), _MIXED_K6],
    ids=["K1", "K2", "K5-negative", "K6-mixed"],
)
def test_a_complete_graph_is_its_own_completion(k):
    for mode in ("max", "min", "pm"):
        assert associated_complete(k, mode) is k
    assert not any(isinstance(entry, _Table) for entry in k._cache.values())


# -- diameter collapse ----------------------------------------------------------


def _oracle_completion(g, mode):
    """K^max or K^min pair by pair: an edge keeps its sign, any other pair takes
    the oracle's sign, which reads no sign table and no power builder."""
    k = g.vertex_count
    pick = (lambda p: p.sigma_min) if mode == "min" else (lambda p: p.sigma_max)
    return SignedGraph(k, [
        (u, v, g.sign(u, v) if g.has_edge(u, v) else pick(oracle_signs(g, u, v)))
        for u in range(k) for v in range(u + 1, k)
    ])


@given(connected_signed_graphs(max_vertices=7))
@settings(max_examples=80)
def test_high_powers_equal_completions(g):
    k_max, k_min = _oracle_completion(g, "max"), _oracle_completion(g, "min")
    assert associated_complete(g, "max") == k_max
    assert associated_complete(g, "min") == k_min
    d = max(diameter(g), 1)
    for n in (d, d + 2):
        pr = power(g, n)
        assert pr.power_max == k_max
        assert pr.power_min == k_min


def test_exponents_past_int64_read_the_int16_table_like_the_diameter(capsys, tmp_path):
    rng = random.Random(3)
    side = 5  # a grid with random signs: many incompatible pairs
    edges = [(v, v + 1, rng.choice((1, -1))) for v in range(side * side) if v % side < side - 1]
    edges += [(v, v + side, rng.choice((1, -1))) for v in range(side * (side - 1))]
    g = SignedGraph(side * side, edges)
    table = _reach_table(g)
    assert table.dist.dtype == np.int16
    assert table.dist.nbytes + table.mask.nbytes == 3 * g.vertex_count**2
    d, huge = diameter(g), 10**20
    at_d, at_huge = power(g, d), power(g, huge)
    assert at_huge.power_max == at_d.power_max and at_huge.power_min == at_d.power_min
    complete = g.vertex_count * (g.vertex_count - 1) // 2  # every pair is within d
    assert len(at_huge.witnesses_max) == len(at_d.witnesses_max) == complete
    assert all(key in at_huge.witnesses_max for key in at_d.witnesses_max)
    assert (0, 0) not in at_huge.witnesses_max
    pair = first_incompatible_pair_within(g, huge)
    assert pair == first_incompatible_pair_within(g, d) == first_incompatible_pair(g) is not None
    f = tmp_path / "grid.sg"
    f.write_text(serialize_graph(g))
    outs = []
    for n in (str(d), "100000000000000000000"):
        assert main(["power", "-n", n, "--mode", "max", str(f)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_power_of_complete_graph_is_itself():
    g = complete_graph(5, -1)
    for n in (1, 2, 3):
        pr = power(g, n)
        assert pr.power_max == g == pr.power_min


def test_single_vertex_graph_has_empty_powers():
    g = SignedGraph(1)
    pr = power(g, 3)
    assert pr.unique and pr.power_max.edge_count == 0
