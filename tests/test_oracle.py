"""Exhaustive path enumeration and the seeded corpus generator."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpower import (
    CorpusSpec,
    DisconnectedError,
    GenerationExhaustedError,
    PathSigns,
    Reach,
    SignedGraph,
    TooManyPathsError,
    VertexOutOfRangeError,
    enumerate_shortest_paths,
    generate,
    is_balanced,
    is_compatible,
    is_connected,
    is_two_connected,
    oracle_signs,
    path_sign,
    power,
    sign_reachability,
)
from sgpower import balance, core, distance, oracle
from sgpower.oracle import oracle_reachability

from conftest import (
    c4_one_negative,
    complete_graph,
    connected_signed_graphs,
    cycle_graph,
)


def count_shortest_paths(g: SignedGraph, u: int, v: int) -> int:
    """Number of shortest u-v paths by DP over the BFS DAG (no enumeration)."""
    g._check_vertex(v)
    order, du, _ = core.bfs(g, u)
    if du[v] < 0:
        raise DisconnectedError(f"vertex {v} unreachable from {u}")
    count = [0] * g.vertex_count
    count[u] = 1
    for x in order[1:]:  # by distance from u, so each x comes after its predecessors
        count[x] = sum(count[w] for w, _ in g.neighbors(x) if du[w] == du[x] - 1)
    return count[v]


# -- enumeration -----------------------------------------------------------------


@given(connected_signed_graphs())
@settings(max_examples=100)
def test_enumeration_yields_sorted_shortest_paths(g):
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            if u == v:
                continue
            paths = enumerate_shortest_paths(g, u, v)
            assert paths == sorted(paths)
            assert len(paths) == count_shortest_paths(g, u, v)
            lengths = {len(p) for p in paths}
            assert len(lengths) == 1
            for p in paths:
                assert p[0] == u and p[-1] == v
                assert len(set(p)) == len(p)
                assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))


def test_enumeration_respects_budget(monkeypatch):
    g = c4_one_negative()  # two shortest paths between opposite corners
    monkeypatch.setattr(oracle, "MAX_ORACLE_PATHS", 1)
    with pytest.raises(TooManyPathsError):
        enumerate_shortest_paths(g, 0, 2)
    monkeypatch.setattr(oracle, "MAX_ORACLE_PATHS", 2)
    assert len(enumerate_shortest_paths(g, 0, 2)) == 2


def test_enumeration_has_no_depth_limit():
    # deeper than the interpreter's recursion limit
    g = SignedGraph(3000, [(i, i + 1, -1) for i in range(2999)])
    assert enumerate_shortest_paths(g, 0, 2999) == [tuple(range(3000))]
    assert oracle_signs(g, 0, 2999) == oracle_signs(g, 2999, 0) == PathSigns(False, True)
    assert oracle_signs(g, 0, 2998) == PathSigns(True, False)


def test_enumeration_requires_reachability():
    g = SignedGraph(3, [(0, 1, 1)])
    with pytest.raises(DisconnectedError):
        enumerate_shortest_paths(g, 0, 2)
    with pytest.raises(DisconnectedError):
        count_shortest_paths(g, 0, 2)
    for u, v in ((0, 3), (3, 0), (0, -1), (-1, 0)):  # both ends must be vertices
        with pytest.raises(VertexOutOfRangeError):
            enumerate_shortest_paths(g, u, v)
        with pytest.raises(VertexOutOfRangeError):
            count_shortest_paths(g, u, v)


def test_path_counts_grow_on_the_hypercube_like_grid():
    # in K4 every pair has one direct shortest path
    g = complete_graph(4)
    for u in range(4):
        for v in range(4):
            if u != v:
                assert count_shortest_paths(g, u, v) == 1


@given(connected_signed_graphs(max_vertices=7))
@settings(max_examples=60)
def test_oracle_signs_summarize_the_enumeration(g):
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            if u == v:
                continue
            signs = {path_sign(g, p) for p in enumerate_shortest_paths(g, u, v)}
            got = oracle_signs(g, u, v)
            assert got.has_positive == (1 in signs)
            assert got.has_negative == (-1 in signs)


# -- all targets of one source -----------------------------------------------------


def _checked_against_the_listing(g):
    for u in range(g.vertex_count):
        row = oracle_reachability(g, u)
        assert [r.distance for r in row] == core.bfs(g, u)[1]
        assert [r.signs for r in row] == [oracle_signs(g, u, v) for v in range(g.vertex_count)]
        assert row == sign_reachability(g, u)


@given(connected_signed_graphs(max_vertices=7))
@settings(max_examples=60)
def test_reachability_matches_the_listing_and_the_table(g):
    _checked_against_the_listing(g)
    _checked_against_the_listing(power(g, 2).power_max)


def test_reachability_matches_the_listing_on_corpus_graphs_and_their_squares():
    spec = CorpusSpec(seed=17, vertex_range=(3, 9), edge_probability=0.35, trials=30)
    for g in generate(spec):
        _checked_against_the_listing(g)
        _checked_against_the_listing(power(g, 2).power_max)


def test_the_oracles_d0_is_the_tables_on_corpus_graphs():
    # t1 reads d0 off the oracle's rows: the least distance of a pair listed with both signs
    specs = [
        CorpusSpec(seed=41, vertex_range=(3, 9), edge_probability=0.35, require={"connected"}, trials=300),
        CorpusSpec(seed=42, vertex_range=(3, 9), edge_probability=0.3, require={"compatible"}, trials=40),
    ]
    found = []
    for g in (g for spec in specs for g in generate(spec)):
        rows = [oracle_reachability(g, u) for u in range(g.vertex_count)]
        d0 = min((r.distance for row in rows for r in row if r.signs == PathSigns(True, True)), default=None)
        assert d0 == distance._reach_table(g).d0
        found.append(d0)
    assert found.count(None) >= 40 and len(set(found)) >= 3


def test_reachability_reads_no_sign_table(monkeypatch):
    def no_table(graphs):
        raise AssertionError("the oracle must not build a sign table")

    monkeypatch.setattr(distance, "_all_sources", no_table)
    g = c4_one_negative()
    assert oracle_reachability(g, 0) == [
        Reach(0, PathSigns(True, False)),
        Reach(1, PathSigns(True, False)),
        Reach(2, PathSigns(True, True)),
        Reach(1, PathSigns(False, True)),
    ]


def test_reachability_requires_a_connected_graph_and_a_vertex():
    g = SignedGraph(4, [(0, 1, 1), (2, 3, -1)])
    with pytest.raises(DisconnectedError, match="vertex 2 unreachable from 0"):
        oracle_reachability(g, 0)
    with pytest.raises(DisconnectedError, match="vertex 0 unreachable from 3"):
        oracle_reachability(g, 3)
    with pytest.raises(VertexOutOfRangeError):
        oracle_reachability(g, 4)


def test_reachability_respects_the_path_budget(monkeypatch):
    g = c4_one_negative()  # from 0: the empty path, 0-1, 0-3, 0-1-2 and 0-3-2
    monkeypatch.setattr(oracle, "MAX_ORACLE_PATHS", 4)
    with pytest.raises(TooManyPathsError, match="more than 4 shortest paths out of 0"):
        oracle_reachability(g, 0)
    monkeypatch.setattr(oracle, "MAX_ORACLE_PATHS", 5)
    assert oracle_reachability(g, 0)[2].signs == PathSigns(True, True)


def test_reachability_has_no_depth_limit():
    g = SignedGraph(3000, [(i, i + 1, -1) for i in range(2999)])
    row = oracle_reachability(g, 0)
    assert row[2999] == Reach(2999, PathSigns(False, True))
    assert row[2998] == Reach(2998, PathSigns(True, False))


# -- corpus specs ------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(seed=0, vertex_range=(1, 5), edge_probability=0.5)
    with pytest.raises(ValueError):
        CorpusSpec(seed=0, vertex_range=(5, 4), edge_probability=0.5)
    with pytest.raises(ValueError):
        CorpusSpec(seed=0, vertex_range=(2, 5), edge_probability=1.5)
    with pytest.raises(ValueError):
        CorpusSpec(seed=0, vertex_range=(2, 5), edge_probability=0.5, trials=0)
    with pytest.raises(ValueError):
        CorpusSpec(seed=0, vertex_range=(2, 5), edge_probability=0.5, require={"planar"})


def test_spec_accepts_any_iterable_of_requirements():
    spec = CorpusSpec(0, (2, 4), 0.5, require={"balanced", "two_connected"})
    assert spec.require == frozenset({"balanced", "two_connected"})


# -- generation --------------------------------------------------------------------


def test_generation_is_deterministic():
    spec = CorpusSpec(seed=11, vertex_range=(3, 8), edge_probability=0.4, trials=20)
    assert list(generate(spec)) == list(generate(spec))


def test_generation_differs_across_seeds():
    mk = lambda s: list(
        generate(CorpusSpec(seed=s, vertex_range=(3, 8), edge_probability=0.4, trials=10))
    )
    assert mk(1) != mk(2)


def test_generated_graphs_are_connected_and_counted():
    spec = CorpusSpec(seed=3, vertex_range=(2, 9), edge_probability=0.3, trials=25)
    graphs = list(generate(spec))
    assert len(graphs) == 25
    for g in graphs:
        assert 2 <= g.vertex_count <= 9
        assert is_connected(g)


@pytest.mark.parametrize(
    "require, check",
    [
        (frozenset({"balanced"}), lambda g: is_balanced(g).balanced),
        (frozenset({"two_connected"}), is_two_connected),
        (frozenset({"compatible"}), is_compatible),
        (frozenset({"balanced", "two_connected"}), lambda g: is_two_connected(g) and is_balanced(g).balanced),
    ],
)
def test_generation_meets_requirements(require, check):
    spec = CorpusSpec(
        seed=5, vertex_range=(3, 8), edge_probability=0.5, require=require, trials=15
    )
    assert all(check(g) for g in generate(spec))


def test_edge_probability_one_gives_complete_graphs():
    spec = CorpusSpec(seed=0, vertex_range=(5, 5), edge_probability=1.0, trials=3)
    for g in generate(spec):
        assert g.edge_count == 10


def test_generation_exhaustion_on_impossible_requirement():
    # a 2-vertex graph is never 2-connected
    spec = CorpusSpec(
        seed=0,
        vertex_range=(2, 2),
        edge_probability=0.0,
        require=frozenset({"two_connected"}),
        trials=1,
    )
    with pytest.raises(GenerationExhaustedError):
        list(generate(spec))


def test_balanced_generation_covers_unswitched_and_switched_graphs():
    spec = CorpusSpec(
        seed=9,
        vertex_range=(4, 8),
        edge_probability=0.6,
        require=frozenset({"balanced"}),
        trials=30,
    )
    signs = set(
        itertools.chain.from_iterable((s for _, _, s in g.edges) for g in generate(spec))
    )
    assert signs == {1, -1}  # switching actually introduces negative edges


def test_balanced_generation_builds_one_graph_per_attempt_and_runs_no_bfs(monkeypatch):
    attempts, built = [], []
    draw, init = oracle._random_graph, SignedGraph.__init__

    def counted_draw(rng, spec):
        attempts.append(1)
        return draw(rng, spec)

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def no_bfs(*args):
        raise AssertionError("a corpus with these requirements needs no BFS")

    monkeypatch.setattr(oracle, "_random_graph", counted_draw)
    monkeypatch.setattr(SignedGraph, "__init__", counted_init)
    for module in (core, balance, oracle):
        monkeypatch.setattr(module, "bfs", no_bfs)
    spec = CorpusSpec(
        seed=9,
        vertex_range=(3, 8),
        edge_probability=0.5,
        require=frozenset({"balanced", "connected", "two_connected"}),
        trials=20,
    )
    assert len(list(generate(spec))) == 20
    assert len(attempts) > 20  # some drafts fail 2-connectivity and are drawn again
    assert len(built) == len(attempts)


# -- generation in rounds ----------------------------------------------------------


def _sequential(spec):
    """The one-trial-at-a-time loop that `generate` draws in rounds, kept as its reference."""
    for trial in range(spec.trials):
        rng = random.Random(spec.seed * 2**32 + trial)
        for _ in range(oracle._ATTEMPTS_PER_TRIAL):
            g = oracle._random_graph(rng, spec)
            if oracle._meets(g, spec.require):
                yield g
                break
        else:
            raise GenerationExhaustedError(
                f"trial {trial}: no graph met {sorted(spec.require)} "
                f"after {oracle._ATTEMPTS_PER_TRIAL} attempts"
            )


def _outcome(stream):
    """The graphs a stream yields, and its exhaustion message or None."""
    graphs = []
    try:
        for g in stream:
            graphs.append(g)
    except GenerationExhaustedError as exc:
        return graphs, str(exc)
    return graphs, None


_EVERY_REQUIREMENT = [
    (),
    ("connected",),
    ("balanced",),
    ("two_connected",),
    ("compatible",),
    ("balanced", "two_connected"),
    ("compatible", "two_connected"),
]


@pytest.mark.parametrize(
    "vertex_range, p, trials",
    [
        ((2, 2), 0.5, 12),
        ((2, 3), 0.02, 8),
        ((3, 8), 0.4, 40),
        ((120, 120), 0.001, 4),
        ((120, 120), 0.04, 4),
    ],
)
@pytest.mark.parametrize("require", _EVERY_REQUIREMENT)
def test_generation_matches_the_sequential_loop(monkeypatch, require, vertex_range, p, trials):
    # 40 attempts a trial, so exhaustion costs little; at (2, 3) and seed 1, the
    # 2-connected specs yield trial 0 and run out at trial 1
    monkeypatch.setattr(oracle, "_ATTEMPTS_PER_TRIAL", 40)
    for seed in (1, 3):
        spec = CorpusSpec(seed, vertex_range, p, frozenset(require), trials)
        assert _outcome(generate(spec)) == _outcome(_sequential(spec))


def test_rounds_ask_each_draft_about_two_connectivity_once(monkeypatch):
    # a round asks about compatibility only the drafts already found 2-connected
    spec = CorpusSpec(7, (3, 8), 0.5, frozenset({"compatible", "two_connected"}), 50)
    expected = list(_sequential(spec))
    drafts, asked = [], []
    draw, two_connected = oracle._random_graph, oracle.is_two_connected
    monkeypatch.setattr(oracle, "_random_graph", lambda rng, spec: drafts.append(1) or draw(rng, spec))
    monkeypatch.setattr(oracle, "is_two_connected", lambda g: asked.append(1) or two_connected(g))
    assert list(generate(spec)) == expected
    assert len(asked) == len(drafts) > spec.trials


def _drafts_until_exhausted(monkeypatch, require):
    drawn = []
    draw = oracle._random_graph
    monkeypatch.setattr(
        oracle, "_random_graph", lambda rng, spec: drawn.append(1) or draw(rng, spec)
    )
    spec = CorpusSpec(0, (2, 2), 0.5, frozenset(require), 100)  # no 2-vertex graph is 2-connected
    with pytest.raises(GenerationExhaustedError, match="trial 0:"):
        list(generate(spec))
    return len(drawn)


def test_generation_without_compatibility_draws_a_trial_at_a_time(monkeypatch):
    # rounds would draw for every trial of a chunk before the first one ran out
    assert _drafts_until_exhausted(monkeypatch, {"two_connected"}) == oracle._ATTEMPTS_PER_TRIAL


def test_an_unmeetable_compatible_spec_stops_its_rounds_early(monkeypatch):
    # the other 99 trials of the chunk draw only in the rounds; trial 0 then goes on alone
    drafts = _drafts_until_exhausted(monkeypatch, {"compatible", "two_connected"})
    assert drafts == 99 * oracle._ROUNDS + oracle._ATTEMPTS_PER_TRIAL


# chunks of 512 and of 3 trials
@pytest.mark.parametrize("budget", [distance._RUN_BUDGET, 3 * 8**2])
def test_a_shorter_corpus_is_a_prefix_of_a_longer_one(monkeypatch, budget):
    monkeypatch.setattr(oracle, "_RUN_BUDGET", budget)
    spec = CorpusSpec(
        seed=4, vertex_range=(3, 8), edge_probability=0.3, require={"compatible"}, trials=30
    )
    full = list(generate(spec))
    assert full == list(_sequential(spec))
    for k in (1, 2, 7, 29):
        assert list(generate(replace(spec, trials=k))) == full[:k]
