"""Balance certificates, path lifting/projection, and the harness checks
of the balance theorems (`t27`, `blcm`, `cbp`, `nbc`).

Two pinned examples document why the length/sign statements for lifted
and projected paths hypothesize *shortest* paths: a non-shortest path
can change sign under lifting and break the length lower bound under
projection.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpower import (
    BadExponentError,
    DisconnectedError,
    MissingWitnessError,
    NonUniquePowerError,
    NotAPathError,
    SignedGraph,
    is_balanced,
    is_compatible,
    is_two_connected,
    lift_path,
    path_sign,
    power,
    project_path,
    switch,
    walk_sign,
)
from sgpower import balance, core, harness, oracle
from sgpower.balance import BalanceReport
from sgpower.oracle import CorpusSpec, enumerate_shortest_paths, generate

from conftest import (
    all_negative_cycle,
    brute_balanced,
    c4_one_negative,
    complete_graph,
    connected_signed_graphs,
    cycle_graph,
    path_graph,
)


# -- balance with certificates -------------------------------------------------


@given(connected_signed_graphs())
@settings(max_examples=120)
def test_balance_matches_exhaustive_labeling_search(g):
    assert is_balanced(g).balanced == brute_balanced(g)


@given(connected_signed_graphs())
@settings(max_examples=120)
def test_balance_certificates_check_out(g):
    report = is_balanced(g)
    if report.balanced:
        labels = report.switching_labels
        assert labels[0] == 1 and len(labels) == g.vertex_count
        assert all(labels[u] * labels[v] == s for u, v, s in g.edges)
        assert report.witness is None
    else:
        cyc = report.witness
        assert cyc[0] == cyc[-1] and len(set(cyc)) == len(cyc) - 1
        assert walk_sign(g, cyc) == -1
        assert report.switching_labels is None


def test_trees_are_balanced():
    assert is_balanced(path_graph([-1, -1, 1])).balanced
    assert is_balanced(SignedGraph(1)).balanced


def test_disconnected_graph_names_the_first_unreached_vertex():
    g = SignedGraph(5, [(0, 2, 1), (2, 4, -1), (1, 3, 1)])
    with pytest.raises(DisconnectedError, match="^vertex 1 unreachable from 0$"):
        is_balanced(g)


def test_negative_cycle_witness_is_the_cycle():
    g = all_negative_cycle(5)
    report = is_balanced(g)
    assert not report.balanced
    assert sorted(set(report.witness)) == [0, 1, 2, 3, 4]


def test_certificates_on_seeded_corpora_are_pinned():
    # labels, negative cycles and 2-connectivity of 1,200 graphs of 3-120 vertices
    digest = hashlib.sha256()
    for seed, lo, hi, p in ((1, 3, 9, 0.3), (2, 10, 40, 0.15), (3, 40, 120, 0.05)):
        for g in generate(CorpusSpec(seed, (lo, hi), p, frozenset(), 400)):
            r = is_balanced(g)
            digest.update(repr((r.balanced, r.witness, r.switching_labels, is_two_connected(g))).encode())
    assert digest.hexdigest() == "92a0755681695333668fbc4c82c940d7f61a8251befdf82d9bd4642d9658a66c"


# -- lifting -------------------------------------------------------------------


def test_lift_cuts_into_blocks():
    g = path_graph([1, -1, 1, -1])
    assert lift_path(g, (0, 1, 2, 3, 4), 2) == (0, 2, 4)
    assert lift_path(g, (0, 1, 2, 3, 4), 3) == (0, 3, 4)
    assert lift_path(g, (0, 1, 2, 3, 4), 10) == (0, 4)
    assert lift_path(g, (2,), 2) == (2,)


def test_lift_validates_input():
    g = c4_one_negative()
    with pytest.raises(BadExponentError):
        lift_path(g, (0, 1), 0)
    with pytest.raises(NotAPathError):
        lift_path(g, (0, 1, 0), 1)
    with pytest.raises(NotAPathError):
        lift_path(g, (0, 2), 1)
    with pytest.raises(NonUniquePowerError):
        lift_path(g, (0, 1, 2), 2)  # square is not unique


@given(connected_signed_graphs(max_vertices=7), st.integers(1, 3))
@settings(max_examples=80)
def test_lifted_shortest_paths_keep_sign_and_shrink(g, n):
    pr = power(g, n)
    if not pr.unique:
        return
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            for p in enumerate_shortest_paths(g, u, v)[:4]:
                k = len(p) - 1
                lifted = lift_path(g, p, n)
                assert len(lifted) - 1 == math.ceil(k / n)
                assert walk_sign(pr.power_max, lifted) == path_sign(g, p)


def test_lifting_a_non_shortest_path_can_change_sign():
    # triangle with one negative edge: (0, 1, 2) is a positive walk from
    # 0 to 2 but not a shortest path; its 2-block lift is the single
    # negative edge (0, 2)
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
    pr = power(g, 2)
    assert pr.unique
    p = (0, 1, 2)
    assert path_sign(g, p) == 1
    lifted = lift_path(g, p, 2)
    assert lifted == (0, 2)
    assert walk_sign(pr.power_max, lifted) == -1  # sign flipped


# -- projection ----------------------------------------------------------------


def test_projection_splices_witnesses():
    g = path_graph([1, 1, 1, 1, 1])
    pr = power(g, 2)
    w = project_path(pr.witnesses_max, (0, 2, 4))
    assert w == (0, 1, 2, 3, 4)
    assert walk_sign(g, w) == walk_sign(pr.power_max, (0, 2, 4))


def test_projection_reverses_witnesses_when_needed():
    g = path_graph([1, -1, 1, 1])
    pr = power(g, 2)
    w = project_path(pr.witnesses_max, (4, 2, 0))
    assert w == (4, 3, 2, 1, 0)


def test_projection_validates_input():
    g = path_graph([1, 1])
    pr = power(g, 2)
    with pytest.raises(NotAPathError):
        project_path(pr.witnesses_max, ())
    with pytest.raises(NotAPathError):
        project_path(pr.witnesses_max, (0, 2, 0))
    with pytest.raises(MissingWitnessError):
        project_path({}, (0, 2))


def test_projecting_a_one_vertex_path_checks_the_vertex():
    g = path_graph([1, -1])
    w = power(g, 2).witnesses_max
    assert project_path(w, [1]) == (1,)
    assert project_path(w, [0]) == (0,)  # the lower end of [0, 3)
    for bad in ([7], [3], [-1]):
        with pytest.raises(NotAPathError, match=f"vertex {bad[0]} outside \\[0, 3\\)"):
            project_path(w, bad)
    with pytest.raises(MissingWitnessError):
        project_path({}, (0, 2))


@given(connected_signed_graphs(max_vertices=7), st.integers(1, 3))
@settings(max_examples=80)
def test_projected_shortest_power_paths_bounded_with_equal_sign(g, n):
    pr = power(g, n)
    if not pr.unique:
        return
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            for p in enumerate_shortest_paths(pr.power_max, u, v)[:4]:
                k = len(p) - 1
                w = project_path(pr.witnesses_max, p)
                assert (k - 1) * n + 1 <= len(w) - 1 <= k * n or k == 0
                assert walk_sign(g, w) == walk_sign(pr.power_max, p)


def test_projecting_a_non_shortest_power_path_breaks_the_length_bound():
    # in the square of the 3-vertex path, (0, 1, 2) is a 2-edge path but
    # not shortest (0 and 2 are adjacent); its projection has 2 edges,
    # below the lower bound (k - 1) * n + 1 = 3 for shortest power paths
    g = path_graph([1, 1])
    pr = power(g, 2)
    assert pr.power_max.has_edge(0, 2)
    w = project_path(pr.witnesses_max, (0, 1, 2))
    assert w == (0, 1, 2)
    assert len(w) - 1 == 2 < 3


# -- the four-way balance equivalence (nbc) -------------------------------------


@given(connected_signed_graphs())
@settings(max_examples=100)
def test_balance_equivalence_of_completions(g):
    assert harness._check_nbc(g, 0, {}) is None


def test_balance_equivalence_concrete():
    for g in (switch(complete_graph(5), [1, 2]), all_negative_cycle(6), all_negative_cycle(5)):
        assert harness._check_nbc(g, 0, {}) is None


# -- base balanced iff power balanced (cbp) ----------------------------------------


def test_power_balance_on_switched_cycles():
    notes = {}
    assert harness._check_cbp(switch(cycle_graph([1] * 7), [2, 5]), 0, notes) is None
    assert notes == {}  # every power of a balanced graph is unique


def test_power_balance_with_non_unique_power():
    notes = {}
    assert harness._check_cbp(c4_one_negative(), 0, notes) is None
    assert notes == {"non_unique": 1}  # the square; the first power is g


@pytest.mark.parametrize(
    "g, detail",
    [
        (switch(cycle_graph([1] * 7), [2, 5]), [("n", 2), ("balanced", True)]),
        (c4_one_negative(), [("non_unique", True), ("n", 2), ("balanced", False)]),
    ],
)
def test_power_balance_failure_detail(monkeypatch, g, detail):
    # is_balanced lies about every graph but g, so the square looks wrong; the
    # detail, in this key order, reaches the verify bundle's manifest
    honest = harness.is_balanced

    def lying(h):
        return honest(h) if h is g else BalanceReport(not honest(h).balanced)

    monkeypatch.setattr(harness, "is_balanced", lying)
    assert harness._check_cbp(g, 0, {}) == f"n=2: balance equivalence failed ({dict(detail)})"


@given(connected_signed_graphs(min_vertices=3))
@settings(max_examples=80)
def test_power_balance_property(g):
    if is_two_connected(g):
        assert harness._check_cbp(g, 0, {}) is None


@pytest.mark.parametrize("key, want", [("cbp", ["balance"]), ("blcm", [])])
def test_balance_and_two_connectivity_are_answered_once_per_graph(monkeypatch, key, want):
    # the corpus vouches for 2-connectivity (and, for blcm, balance): no check asks again
    g = switch(cycle_graph([1] * 6), [1, 4])
    asked = []
    report, two = balance._balance_report, core.is_two_connected
    monkeypatch.setattr(balance, "_balance_report", lambda h: asked.append(("balance", h)) or report(h))
    for module in (harness, oracle):  # the 2-connectivity test is not cached: count its callers' calls
        monkeypatch.setattr(module, "is_two_connected", lambda h: asked.append(("2c", h)) or two(h))
    assert harness.check(key, g, 0, {}) is None
    assert [what for what, h in asked if h is g] == want
    assert is_balanced(g) is is_balanced(g)


@pytest.mark.parametrize("g", [switch(cycle_graph([1] * 6), [1, 4]), switch(complete_graph(5), [0, 3])])
def test_a_graph_caches_only_its_sign_table_and_balance_report(g):
    # every key passes on a balanced 2-connected graph; the facts not cached are made again, alike
    for key in harness.THEOREM_ORDER:
        assert harness.check(key, g, 0, {}) is None, key
    for ask in (is_two_connected, lambda h: h.edges, hash):
        first = ask(g)
        assert ask(g) == first
    assert set(g._cache) <= {"reach_table", "balance"}


# -- balanced base gives compatible powers (blcm) ----------------------------------


@given(st.sets(st.integers(0, 7)), st.integers(1, 4))
@settings(max_examples=60)
def test_balanced_implies_power_compatible_on_switched_cycles(vertices, n):
    g = switch(cycle_graph([1] * 8), vertices)
    assert harness._check_blcm(g, 0, {}) is None
    assert is_compatible(power(g, n).power_max)


# -- compatible power forces compatible base (t27) ---------------------------------


def test_compat_transfer_applicable_and_vacuous_cases():
    # all-positive 7-cycle: square compatible, base compatible; all-negative
    # 7-cycle: square incompatible, so the claim holds vacuously at n = 2
    for g in (cycle_graph([1] * 7), all_negative_cycle(7)):
        notes = {}
        assert harness._check_t27(g, 0, notes) is None
        assert notes == {}  # n = 1 lies below the diameter, 3, and is unique
    assert not is_compatible(power(all_negative_cycle(7), 2).power_max)
