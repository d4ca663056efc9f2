"""Signed distances, compatibility, and sign-constrained shortest paths.

The all-sources kernel behind `_reach_table` is checked pair by pair
against the per-source BFS and sign DP in `reach_reference.py`, and the
sign sets against exhaustive path enumeration and an even dumber DFS
that never looks at the BFS DAG at all.
"""

import contextlib
import functools
import random
import tracemalloc
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpower import (
    DisconnectedError,
    MissingWitnessError,
    PathSigns,
    SignedGraph,
    VertexOutOfRangeError,
    diameter,
    distance_matrices,
    first_incompatible_pair,
    first_incompatible_pair_within,
    is_compatible,
    is_compatible_pair,
    is_power_unique,
    lift_path,
    oracle_signs,
    path_sign,
    power,
    shortest_path_with_sign,
    sign_reachability,
)
from sgpower import core, distance, harness
from sgpower.distance import _Table, _reach_table, build_tables
from sgpower.oracle import CorpusSpec, enumerate_shortest_paths, generate

import reach_reference
from conftest import (
    all_negative_cycle,
    brute_shortest_paths,
    c4_one_negative,
    connected_signed_graphs,
    cycle_graph,
    path_graph,
    random_graph,
)


# -- the core oracle agreement property ---------------------------------------


@given(connected_signed_graphs())
@settings(max_examples=150)
def test_reachability_matches_exhaustive_enumeration(g):
    for u in range(g.vertex_count):
        reach = sign_reachability(g, u)
        for v in range(g.vertex_count):
            if v == u:
                assert reach[v].distance == 0
                assert reach[v].signs == PathSigns(True, False)
                continue
            assert reach[v].signs == oracle_signs(g, u, v)


@given(connected_signed_graphs(max_vertices=6))
@settings(max_examples=60)
def test_enumeration_matches_naive_dfs(g):
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            if u == v:
                continue
            assert enumerate_shortest_paths(g, u, v) == brute_shortest_paths(g, u, v)


def test_disconnected_source_raises():
    g = SignedGraph(3, [(0, 1, 1)])
    with pytest.raises(DisconnectedError):
        sign_reachability(g, 0)


# -- the all-sources kernel against the per-source reference -------------------


def _assert_table_matches_reference(g):
    table = _reach_table(g)
    dist, mask = table.dist, table.mask
    assert dist.shape == mask.shape == (g.vertex_count, g.vertex_count)
    for u, row in enumerate(reach_reference.reach_table(g)):
        for v, (d, signs) in enumerate(row):
            assert dist[u, v] == d
            assert bool(mask[u, v] & 1) == signs.has_positive
            assert bool(mask[u, v] & 2) == signs.has_negative


@given(connected_signed_graphs(min_vertices=1, max_vertices=10))
@settings(max_examples=150)
def test_reach_table_matches_per_source_reference(g):
    _assert_table_matches_reference(g)
    for u in range(g.vertex_count):
        assert sign_reachability(g, u) == reach_reference.sign_reachability(g, u)


def test_reach_table_on_one_and_two_vertices():
    for g in (SignedGraph(1), SignedGraph(2, [(0, 1, 1)]), SignedGraph(2, [(0, 1, -1)])):
        _assert_table_matches_reference(g)
    table = _reach_table(SignedGraph(2, [(0, 1, -1)]))
    assert table.dist.tolist() == [[0, 1], [1, 0]]
    assert table.mask.tolist() == [[1, 2], [2, 1]]


def _signed_grid(side, seed):
    rng = random.Random(seed)  # random signs: many incompatible pairs
    edges = [(v, v + 1, rng.choice((1, -1))) for v in range(side * side) if v % side < side - 1]
    edges += [(v, v + side, rng.choice((1, -1))) for v in range(side * (side - 1))]
    return SignedGraph(side * side, edges)


def test_reach_table_on_a_long_path():
    # one BFS level per edge: diameter 2999, alternating signs
    n = 3000
    signs = [(-1) ** i for i in range(n - 1)]
    g = path_graph(signs)
    table = _reach_table(g)
    dist, mask = table.dist, table.mask
    span = np.arange(n, dtype=np.int32)
    assert np.array_equal(dist, np.abs(np.subtract.outer(span, span)))
    # the only i-j path has sign prefix(i) * prefix(j), prefix(k) = sign of 0..k
    prefix = np.cumprod([1] + signs).astype(np.int8)
    expected = np.where(np.multiply.outer(prefix, prefix) > 0, np.uint8(1), np.uint8(2))
    assert np.array_equal(mask, expected)
    assert diameter(g) == n - 1
    # the witness walk reads its entries in place, from either end of the path
    whole = int(prefix[-1])
    assert shortest_path_with_sign(g, 0, n - 1, whole) == tuple(range(n))
    assert shortest_path_with_sign(g, n - 1, 0, whole) == tuple(range(n - 1, -1, -1))
    assert shortest_path_with_sign(g, 0, n - 1, -whole) is None


def test_reach_table_on_a_grid_matches_reference():
    # many shortest paths per pair, so many repeated keys at every level
    g = _signed_grid(10, 7)
    _assert_table_matches_reference(g)
    assert diameter(g) == 2 * (10 - 1)


def test_disconnected_graph_names_the_reference_pair(monkeypatch):
    builds = []
    kernel = distance._all_sources
    monkeypatch.setattr(distance, "_all_sources", lambda gs: builds.append(list(gs)) or kernel(gs))
    g = SignedGraph(6, [(0, 1, 1), (1, 2, -1), (3, 4, 1), (4, 5, -1)])
    with pytest.raises(DisconnectedError) as ref:
        reach_reference.reach_table(g)
    readers = (
        diameter,
        is_compatible,
        first_incompatible_pair,
        distance_matrices,
        lambda g: is_power_unique(g, 1),
        lambda g: first_incompatible_pair_within(g, 2),
        lambda g: power(g, 2),
    )
    for read in readers:
        with pytest.raises(DisconnectedError) as got:
            read(g)
        assert str(got.value) == str(ref.value) == "vertex 3 unreachable from 0"
    for source in range(g.vertex_count):
        with pytest.raises(DisconnectedError) as ref:
            reach_reference.sign_reachability(g, source)
        with pytest.raises(DisconnectedError) as got:
            sign_reachability(g, source)
        assert str(got.value) == str(ref.value)
    assert builds == [[g]]  # one table serves every reader, not rebuilt per call


def _table_keys(g):
    return [key for key, entry in g._cache.items() if isinstance(entry, _Table)]


def test_a_graph_caches_one_table_record():
    built = [c4_one_negative(), SignedGraph(6, [(0, 1, 1), (3, 4, -1)]), SignedGraph(1)]
    build_tables(built)
    lone = all_negative_cycle(7)
    before = set(lone._cache)
    assert (diameter(lone), is_compatible(lone), first_incompatible_pair(lone)) == (3, True, None)
    power(lone, 2).witnesses_max[0, 2]
    assert set(lone._cache) - before == set(_table_keys(lone))
    assert all(len(_table_keys(g)) == 1 for g in (*built, lone))


def test_a_lone_table_is_built_through_build_tables(monkeypatch):
    # build_tables is the one table writer, so a count of builds has one place to hook
    calls = []
    batched, kernel = distance.build_tables, distance._all_sources
    monkeypatch.setattr(distance, "build_tables", lambda gs: calls.append(list(gs)) or batched(gs))
    monkeypatch.setattr(distance, "_all_sources", lambda gs: calls.append(("kernel", *gs)) or kernel(gs))
    g = all_negative_cycle(7)
    assert (diameter(g), is_compatible(g), diameter(g)) == (3, True, 3)
    assert calls == [[g], ("kernel", g)]


def test_only_the_distance_module_knows_the_table_format():
    # the cache key and the kernel have one owner, so the record's layout can change in one place
    g = SignedGraph(1)
    _reach_table(g)
    (key,) = _table_keys(g)
    sources = {path.name: path.read_text() for path in Path(distance.__file__).parent.glob("*.py")}
    assert f'"{key}"' in sources.pop("distance.py")
    assert sources  # the other modules were found
    for name, text in sources.items():
        for needle in (f'"{key}"', f"'{key}'", "_all_sources"):
            assert needle not in text, f"{name} names {needle}"


# -- a level expanded in runs of whole sources ---------------------------------


@st.composite
def signed_graphs(draw, max_vertices: int = 10):
    """Random signed graph on 1..max_vertices vertices, often disconnected."""
    n = draw(st.integers(1, max_vertices))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else []
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


def _reference_arrays(g):
    """(dist, mask) of the per-source reference, run on each component:
    pairs in different components get dist -1 and mask 0."""
    n = g.vertex_count
    dist = np.full((n, n), -1, dtype=np.int32)
    mask = np.zeros((n, n), dtype=np.uint8)
    done = set()
    for s in range(n):
        if s in done:
            continue
        comp = sorted(core.bfs(g, s)[0])
        done.update(comp)
        index = {v: i for i, v in enumerate(comp)}
        h = SignedGraph(len(comp), [(index[u], index[v], x) for u, v, x in g.edges if u in index])
        for u, row in zip(comp, reach_reference.reach_table(h)):
            for v, (d, signs) in zip(comp, row):
                dist[u, v] = d
                mask[u, v] = signs.has_positive | 2 * signs.has_negative
    return dist, mask


@pytest.mark.parametrize("budget", (1, 2, 5, 64))
@given(st.one_of(connected_signed_graphs(min_vertices=1, max_vertices=10), signed_graphs()))
@settings(max_examples=60, deadline=None)
def test_tiny_run_budgets_give_the_reference_table(budget, g):
    builds = []
    kernel = distance._all_sources
    with mock.patch.object(distance, "_RUN_BUDGET", budget), mock.patch.object(
        distance, "_all_sources", lambda gs: builds.append(list(gs)) or kernel(gs)
    ):
        expected = _reference_arrays(g)
        if core.is_connected(g):
            _reach_table(g)
        else:
            for source in range(g.vertex_count):
                with pytest.raises(DisconnectedError) as got:
                    _reach_table(g, source)
                with pytest.raises(DisconnectedError) as ref:
                    reach_reference.sign_reachability(g, source)
                assert str(got.value) == str(ref.value)
        got = g._cache["reach_table"]  # kept for a disconnected graph too
        assert builds == [[g]]  # the table is kept, not rebuilt per call
    assert got.connected == core.is_connected(g)
    assert np.array_equal(got.dist, expected[0])
    assert np.array_equal(got.mask, expected[1])


def test_a_level_splits_into_runs_at_the_default_budget(monkeypatch):
    split = distance._runs
    runs_per_split = []

    def counted(*args):
        runs = list(split(*args))
        runs_per_split.append(len(runs))
        return runs

    monkeypatch.setattr(distance, "_runs", counted)
    # level 2 of an 8-regular circulant of 640 vertices expands 640 * 8 * 8 candidates:
    # past the budget, but below the dense rule's half of 4E arcs times 10 source words
    rng = random.Random(11)
    g = SignedGraph(640, [(v, (v + k) % 640, rng.choice((1, -1))) for v in range(640) for k in (1, 2, 3, 4)])
    assert distance._RUN_BUDGET < 640 * 8 * 8 <= distance._wide(640, 4 * 640 * 4)
    table = _reach_table(g)
    assert max(runs_per_split, default=0) > 1
    expected = _reference_arrays(g)
    assert np.array_equal(table.dist, expected[0])
    assert np.array_equal(table.mask, expected[1])


# -- many graphs in one search ------------------------------------------------------


def _reference_build(g):
    """(dist, mask, diameter, d0, connected) of the per-source reference: the
    diameter is the largest finite distance, d0 the least distance of a pair
    with both signs, and the graph is connected when no pair is unreached."""
    dist, mask = _reference_arrays(g)
    both = dist[mask == 3]
    return dist, mask, int(dist.max()), int(both.min()) if both.size else None, bool((dist >= 0).all())


@pytest.mark.parametrize("budget", (1, 2, 5, distance._RUN_BUDGET))
@given(
    st.lists(
        st.one_of(connected_signed_graphs(min_vertices=1, max_vertices=10), signed_graphs()),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_a_batch_gives_each_graph_its_lone_build(budget, graphs):
    with mock.patch.object(distance, "_RUN_BUDGET", budget):
        batch = distance._all_sources(graphs)
        lone = [distance._all_sources([g])[0] for g in graphs]
    assert len(batch) == len(graphs)
    for g, got, alone in zip(graphs, batch, lone):
        expected = _reference_build(g)
        for build in (got, alone):
            assert np.array_equal(build[0], expected[0])
            assert np.array_equal(build[1], expected[1])
            assert build[2:] == expected[2:]


def test_a_disconnected_member_raises_as_alone_and_spares_its_batch(monkeypatch):
    split = SignedGraph(6, [(0, 1, 1), (1, 2, -1), (3, 4, 1), (4, 5, -1)])
    others = [c4_one_negative(), all_negative_cycle(5), path_graph([1, -1]), SignedGraph(1)]
    builds = []
    kernel = distance._all_sources
    monkeypatch.setattr(distance, "_all_sources", lambda gs: builds.append(list(gs)) or kernel(gs))
    build_tables([others[0], split, *others[1:]])
    assert builds == [[others[0], split, *others[1:]]]
    alone = SignedGraph(6, split.edges)
    for source in range(split.vertex_count):
        with pytest.raises(DisconnectedError) as got:
            sign_reachability(split, source)
        with pytest.raises(DisconnectedError) as ref:
            sign_reachability(alone, source)
        assert str(got.value) == str(ref.value)
    for g in others:
        expected = _reference_build(g)
        table = _reach_table(g)
        assert np.array_equal(table.dist, expected[0]) and np.array_equal(table.mask, expected[1])
        assert (diameter(g), is_compatible(g)) == (expected[2], expected[3] is None)
    build_tables([split, *others])  # every graph has its table, the disconnected one too
    assert len(builds) == 2  # the lone build of `alone`, and nothing more


def test_build_tables_cuts_batches_at_the_pair_budget(monkeypatch):
    sizes = []
    kernel = distance._all_sources
    monkeypatch.setattr(distance, "_RUN_BUDGET", 100)
    monkeypatch.setattr(
        distance, "_all_sources", lambda gs: sizes.append([g.vertex_count for g in gs]) or kernel(gs)
    )
    graphs = [cycle_graph([1, -1] * k + [1]) for k in (1, 2, 3, 1, 6, 1, 2, 4)]  # 3 to 13 vertices
    build_tables(graphs)
    assert sum(sizes, []) == [g.vertex_count for g in graphs]  # in order, each once
    assert all(len(c) == 1 or len(c) * max(c) ** 2 <= 100 for c in sizes)
    assert sizes == [[3, 5], [7, 3], [13], [3, 5], [9]]


# -- dense levels over packed source bits -----------------------------------------


@contextlib.contextmanager
def _always_dense():
    """Run every level after the first densely, whatever its size; yields
    the first level of each dense stretch, as the kernel calls `_dense`."""
    levels, kernel = [], distance._dense
    with mock.patch.object(distance, "_wide", lambda n, m: 0), mock.patch.object(
        distance, "_dense", lambda *args: levels.append(args[4]) or kernel(*args)
    ):
        yield levels


def _theta(lengths, rng):
    """Internally disjoint paths of the given lengths (at least 2) between vertices 0 and 1."""
    edges, n = [], 2
    for k in lengths:
        walk = [0, *range(n, n + k - 1), 1]
        n += k - 1
        edges += [(min(x, y), max(x, y), rng.choice((1, -1))) for x, y in zip(walk, walk[1:])]
    return SignedGraph(n, edges)


def _shapes():
    rng = random.Random(23)

    def sign():
        return rng.choice((1, -1))

    clique = [(u, v, sign()) for u in range(7) for v in range(u + 1, 7)]
    return {
        "complete": SignedGraph(9, [(u, v, sign()) for u in range(9) for v in range(u + 1, 9)]),
        "complete_positive": SignedGraph(8, [(u, v, 1) for u in range(8) for v in range(u + 1, 8)]),
        "star": SignedGraph(13, [(0, v, sign()) for v in range(1, 13)]),
        "grid": _signed_grid(7, 3),
        "theta": _theta((2, 5, 8), rng),
        "theta_even": _theta((4, 4, 6), rng),
        "lollipop": SignedGraph(19, clique + [(v, v + 1, sign()) for v in range(6, 18)]),
        "isolated_vertex": SignedGraph(7, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, 1), (3, 4, -1)]),
        "random_150": random_graph(150, 4, seed=2),  # three words of 64 sources
    }


def _assert_reference_build(g, build):
    expected = _reference_build(g)
    assert np.array_equal(build.dist, expected[0])
    assert np.array_equal(build.mask, expected[1])
    assert build[2:] == expected[2:]


@pytest.mark.parametrize("budget", (1, 3, distance._RUN_BUDGET))  # 1 and 3: a block of one 64-source word
@pytest.mark.parametrize("name", sorted(_shapes()))
def test_dense_levels_give_the_reference_build_on_named_shapes(name, budget):
    g = _shapes()[name]
    with mock.patch.object(distance, "_RUN_BUDGET", budget), _always_dense() as levels:
        build = distance._all_sources([g])[0]
    _assert_reference_build(g, build)
    assert levels == ([2] if build.diameter > 1 else [])  # one stretch, from level 2 on


@pytest.mark.parametrize("budget", (1, distance._RUN_BUDGET))
def test_dense_levels_give_each_graph_of_a_batch_its_reference_build(budget):
    graphs = list(_shapes().values())
    with mock.patch.object(distance, "_RUN_BUDGET", budget), _always_dense():
        for g, build in zip(graphs, distance._all_sources(graphs)):
            _assert_reference_build(g, build)


@pytest.mark.parametrize("budget", (1, 2, distance._RUN_BUDGET))
@given(
    st.lists(
        st.one_of(connected_signed_graphs(min_vertices=1, max_vertices=10), signed_graphs()),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_dense_levels_give_the_reference_build(budget, graphs):
    with mock.patch.object(distance, "_RUN_BUDGET", budget), _always_dense():
        build_tables(graphs)
        lone = [distance._all_sources([g])[0] for g in graphs]
    for g, alone in zip(graphs, lone):
        _assert_reference_build(g, g._cache["reach_table"])
        _assert_reference_build(g, alone)


def test_dense_levels_give_the_reference_build_on_corpus_batches():
    graphs = list(generate(CorpusSpec(seed=4, vertex_range=(2, 9), edge_probability=0.4, trials=120)))
    with _always_dense():
        build_tables(graphs)
    for g in graphs:
        _assert_reference_build(g, g._cache["reach_table"])


def test_a_level_runs_dense_only_when_its_push_is_wide(monkeypatch):
    dense, batches = [], []
    kernel, wide, build = distance._dense, distance._wide, distance._all_sources
    monkeypatch.setattr(distance, "_dense", lambda *args: dense.append(args[4]) or kernel(*args))
    monkeypatch.setattr(distance, "_all_sources", lambda gs: batches.append(len(gs)) or build(gs))
    # more candidates than half the arcs times the 64-source words, and than a floor tied to the run budget
    floor = distance._RUN_BUDGET // 16
    assert [wide(n, 6 * n) for n in (8, 64, 1000)] == [floor, floor, 6 * 1000 * 16 // 2]
    _reach_table(random_graph(128, 6, seed=3))
    assert dense  # its wide middle levels
    dense.clear()
    _reach_table(path_graph([(-1) ** i for i in range(2999)]))  # about 4V candidates a level
    assert dense == []
    batches.clear()
    for seed in range(30):  # one pass of `verify` at 10 trials a key
        for key in harness.THEOREM_ORDER:
            harness.run_theorem(key, 10, seed)
    assert max(batches) > 1  # batches of several graphs were built
    assert dense == []


@functools.cache
def _core_with_a_tail():
    """A random 128-vertex core with a 100-vertex path hung on vertex 0, and its
    reference build: the wide middle levels run dense, the levels down the path push.
    Its 228 sources fill four 64-source words, so small budgets make several blocks."""
    rng = random.Random(5)
    tail = [(0, 128, rng.choice((1, -1)))] + [(v, v + 1, rng.choice((1, -1))) for v in range(128, 227)]
    g = SignedGraph(228, [*random_graph(128, 6, seed=5).edges, *tail])
    return g, _reference_build(g)


@pytest.mark.parametrize("budget", (1, 3, distance._RUN_BUDGET))  # 1 and 3: blocks of one 64-source word
def test_a_build_that_leaves_a_dense_stretch_gives_the_reference_build(monkeypatch, budget):
    (g, expected), left = _core_with_a_tail(), []
    kernel = distance._dense
    monkeypatch.setattr(distance, "_RUN_BUDGET", budget)
    monkeypatch.setattr(distance, "_dense", lambda *args: (out := kernel(*args), left.append(out[0].size))[0])
    others = [c4_one_negative(), random_graph(40, 3, seed=2)]
    lone, *batch = distance._all_sources([g]) + distance._all_sources([others[0], g, others[1]])
    assert left[0] > 0 and left[-1] > 0  # each build's stretch handed its keys to push levels
    for build in (lone, batch[1]):
        assert np.array_equal(build.dist, expected[0]) and np.array_equal(build.mask, expected[1])
        assert build[2:] == expected[2:]
    for h, build in zip(others, batch[::2]):
        _assert_reference_build(h, build)


def test_sign_table_build_memory_is_bounded():
    # expanding each level at once peaked at about 139 MiB here, and runs of
    # whole sources over an int16 dist at about 30 MiB; dense levels over packed
    # source bits took it to about 17 MiB, and keeping a dense stretch packed
    # until it ends, writing the table once, to about 14 MiB
    g = random_graph(1000, 6, seed=5)
    g._adjacency_rows()
    tracemalloc.start()
    try:
        distance._all_sources([g])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20


# -- diameter and d0, recorded by the build --------------------------------------


@pytest.mark.parametrize("budget", (1, 2, 5, distance._RUN_BUDGET))
@given(connected_signed_graphs(min_vertices=1, max_vertices=10))
@settings(max_examples=60, deadline=None)
def test_build_facts_match_the_per_source_reference(budget, g):
    table = reach_reference.reach_table(g)
    pairs = [(u, v) for u in range(g.vertex_count) for v in range(u + 1, g.vertex_count)]
    bad = [(u, v) for u, v in pairs if table[u][v].signs == PathSigns(True, True)]
    diam = max(r.distance for row in table for r in row)
    with mock.patch.object(distance, "_RUN_BUDGET", budget):
        assert diameter(g) == diam
    assert is_compatible(g) == (not bad)
    for n in range(1, diam + 3):
        close = [(u, v) for u, v in bad if table[u][v].distance <= n]
        assert is_power_unique(g, n) == (not close)
        assert first_incompatible_pair_within(g, n) == min(close, default=None)


def _row_major_first(mask, dist, n=None):
    """Whole-table reference: the first (u, v) in row-major order whose
    mask says both signs (and whose distance is <= n), or None."""
    bad = mask == distance._BOTH
    if n is not None:
        bad &= dist <= n
    hits = np.argwhere(bad)
    return tuple(int(x) for x in hits[0]) if len(hits) else None


@pytest.mark.parametrize(
    "v, hits",
    [
        (6, [(0, 3), (4, 1)]),  # in the first block, and at n = 3 only in the second
        (6, [(5, 2), (5, 4)]),  # only in the last row
        (6, []),  # none
        (10, [(7, 8), (9, 0)]),  # V not a multiple of the block's 3 rows: a last block of 1
    ],
)
def test_the_first_incompatible_pair_scan_reads_blocks_of_rows_in_row_major_order(monkeypatch, v, hits):
    monkeypatch.setattr(distance, "_RUN_BUDGET", 3 * v)  # three rows a block
    rng = np.random.default_rng(v + len(hits))
    mask = rng.choice(np.array([distance._POS, distance._NEG], np.uint8), (v, v))
    dist = rng.integers(1, 5, (v, v)).astype(np.int16)
    for i, (u, w) in enumerate(hits):
        mask[u, w], dist[u, w] = distance._BOTH, 4 - i  # a smaller n leaves only the later hits
    table = _Table(dist, mask, 4, None, True)
    for n in (None, 1, 2, 3, 4):
        assert distance._first_both(table, n) == _row_major_first(mask, dist, n)


@pytest.mark.parametrize("budget", (1, 7, distance._RUN_BUDGET))
def test_the_first_incompatible_pair_scan_reads_tables_built_in_a_batch(monkeypatch, budget):
    graphs = list(generate(CorpusSpec(5, (4, 12), 0.3, frozenset(), 12)))
    build_tables(graphs)
    tables = [_reach_table(g) for g in graphs]
    assert not all(t.mask.flags.c_contiguous for t in tables)  # views into the batch's table
    assert not all(is_compatible(g) for g in graphs)
    monkeypatch.setattr(distance, "_RUN_BUDGET", budget)
    for g, t in zip(graphs, tables):
        mask, dist = np.ascontiguousarray(t.mask), np.ascontiguousarray(t.dist)
        assert first_incompatible_pair(g) == _row_major_first(mask, dist)
        for n in range(1, t.diameter + 1):
            assert first_incompatible_pair_within(g, n) == _row_major_first(mask, dist, n)


@pytest.mark.parametrize("budget", (1, 2, 5, distance._RUN_BUDGET))
@given(connected_signed_graphs(min_vertices=1, max_vertices=10), st.data())
@settings(max_examples=50, deadline=None)
def test_the_table_does_not_depend_on_the_order_edges_are_given_in(budget, g, data):
    edges = data.draw(st.permutations(g.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    given_edges = [(v, u, s) if f else (u, v, s) for (u, v, s), f in zip(edges, flips)]
    h = SignedGraph(g.vertex_count, given_edges)
    with mock.patch.object(distance, "_RUN_BUDGET", budget):
        _assert_table_matches_reference(h)
    table = reach_reference.reach_table(h)
    diam = max(r.distance for row in table for r in row)
    assert diameter(h) == diam
    for n in range(1, diam + 2):
        close = [r.signs for row in table for r in row if r.distance <= n]
        assert is_power_unique(h, n) == all(signs.is_single for signs in close)


def _reference_cover_arcs(graphs, n):
    """`distance._cover_arcs` as first written in numpy (fancy column indexing, list
    operands, per-graph offsets for every batch): the reference for its leaner form."""
    maps = [g._sign_by_pair for g in graphs]
    sizes = list(map(len, maps))
    cover = 2 * np.fromiter(chain.from_iterable(chain.from_iterable(maps)), np.intp).reshape(-1, 2)
    cover += np.arange(0, 2 * n * len(maps), 2 * n).repeat(sizes)[:, None]
    neg = np.fromiter(chain.from_iterable(map(dict.values, maps)), np.intp, len(cover)) < 0
    tails = (cover[:, [0, 0, 1, 1]] + [0, 1, 0, 1]).ravel()
    heads = (cover[:, [1, 1, 0, 0]] + (neg[:, None] ^ [0, 1, 0, 1])).ravel()
    degrees = np.bincount(tails, minlength=2 * n * len(maps))
    return (heads - tails)[tails.argsort()], degrees.cumsum(), degrees


def test_the_cover_arcs_match_the_reference_formulation():
    rng = random.Random(32)
    isolated = SignedGraph(5, [(3, 1, -1), (0, 1, 1), (1, 2, -1)])  # vertex 4 has no arc
    batches = 0
    for trial in range(80):
        batch = []
        for _ in range(rng.randint(1, 6)):  # a batch of one gets no per-graph offsets
            v = rng.randint(1, 12)  # smaller graphs are padded to the batch's largest
            pairs = [(a, b) for a in range(v) for b in range(a + 1, v) if rng.random() < rng.random()]
            rng.shuffle(pairs)  # edges given in any order and either orientation
            edges = [(a, b, rng.choice((1, -1))) for a, b in pairs]
            batch.append(SignedGraph(v, [(b, a, s) if rng.random() < 0.5 else (a, b, s) for a, b, s in edges]))
        if trial % 4 == 0:
            batch.insert(rng.randrange(len(batch) + 1), isolated)
        batches += len(batch) > 1
        n = max(g.vertex_count for g in batch)
        steps, ends, degrees = distance._cover_arcs(batch, n)
        want_steps, want_ends, want_degrees = _reference_cover_arcs(batch, n)
        assert np.array_equal(ends, want_ends) and np.array_equal(degrees, want_degrees)
        for c, (end, d) in enumerate(zip(ends.tolist(), degrees.tolist())):  # each vertex's arcs, in any order
            assert sorted(steps[end - d : end].tolist()) == sorted(want_steps[end - d : end].tolist()), c
    assert 20 < batches < 80


class _Unreadable:
    """Stands in for a cached table array: any read of it fails."""

    def _fail(self, *args):
        raise AssertionError("the table was read")

    __getattr__ = __getitem__ = __iter__ = __len__ = __array__ = __bool__ = _fail
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __and__ = _fail


def test_whole_table_answers_read_no_table_after_the_build():
    for g, lift_n in ((all_negative_cycle(7), 3), (c4_one_negative(), 1)):
        table = _reach_table(g)
        path = tuple(range(g.vertex_count))
        expected = (
            diameter(g),
            is_compatible(g),
            [is_power_unique(g, n) for n in range(1, 5)],
            lift_path(g, path, lift_n),
            power(g, lift_n).unique,
            first_incompatible_pair_within(g, lift_n),
        )
        g._cache["reach_table"] = table._replace(dist=_Unreadable(), mask=_Unreadable())
        assert expected == (
            diameter(g),
            is_compatible(g),
            [is_power_unique(g, n) for n in range(1, 5)],
            lift_path(g, path, lift_n),
            power(g, lift_n).unique,
            first_incompatible_pair_within(g, lift_n),
        )
        if is_compatible(g):
            assert first_incompatible_pair(g) is None
        else:
            with pytest.raises(AssertionError, match="the table was read"):
                first_incompatible_pair(g)


# -- frozen small cases --------------------------------------------------------


def test_four_cycle_one_negative_distance_matrices():
    # expected entries computed by exhaustive shortest-path enumeration
    g = c4_one_negative()
    dmax, dmin = distance_matrices(g)
    expected_max = np.array(
        [[0, 1, 2, -1], [1, 0, 1, 2], [2, 1, 0, 1], [-1, 2, 1, 0]], dtype=np.int64
    )
    expected_min = np.array(
        [[0, 1, -2, -1], [1, 0, 1, -2], [-2, 1, 0, 1], [-1, -2, 1, 0]], dtype=np.int64
    )
    assert np.array_equal(dmax, expected_max)
    assert np.array_equal(dmin, expected_min)
    assert not np.array_equal(dmax, dmin)
    assert first_incompatible_pair(g) == (0, 2)
    assert not is_compatible(g)
    assert is_compatible_pair(g, 0, 1)
    assert not is_compatible_pair(g, 1, 3)


def test_all_negative_five_cycle_distance_matrix():
    # both matrices coincide: every pair has a single shortest path
    g = all_negative_cycle(5)
    dmax, dmin = distance_matrices(g)
    expected = np.array(
        [
            [0, -1, 2, 2, -1],
            [-1, 0, -1, 2, 2],
            [2, -1, 0, -1, 2],
            [2, 2, -1, 0, -1],
            [-1, 2, 2, -1, 0],
        ],
        dtype=np.int64,
    )
    assert np.array_equal(dmax, expected)
    assert np.array_equal(dmax, dmin)
    assert is_compatible(g)


def test_all_negative_seven_cycle_is_compatible_with_diameter_three(c7_negative):
    assert is_compatible(c7_negative)
    assert diameter(c7_negative) == 3
    assert first_incompatible_pair(c7_negative) is None


def test_diameter_of_small_graphs():
    assert diameter(path_graph([1, 1, 1])) == 3
    assert diameter(cycle_graph([1] * 6)) == 3
    assert diameter(SignedGraph(1)) == 0


# -- matrix structure ----------------------------------------------------------


@given(connected_signed_graphs())
@settings(max_examples=60)
def test_distance_matrix_structure(g):
    a, b = distance_matrices(g)
    assert a.shape == b.shape == (g.vertex_count, g.vertex_count)
    assert a.dtype == b.dtype == np.int64
    assert np.array_equal(a, a.T) and np.array_equal(b, b.T)
    assert np.array_equal(np.diag(a), np.zeros(g.vertex_count, dtype=np.int64))
    # same hop distance underneath, and max dominates min entrywise
    assert np.array_equal(np.abs(a), np.abs(b))
    assert (a >= b).all()


@given(connected_signed_graphs())
@settings(max_examples=60)
def test_distance_matrices_sign_each_pair_as_the_oracle_does(g):
    # the CLI's matrices are checked against these, so the sign rule is checked here, by brute force
    dmax, dmin = distance_matrices(g)
    for u in range(g.vertex_count):
        d = core.bfs(g, u)[1]
        for v in range(g.vertex_count):
            signs = oracle_signs(g, u, v)
            assert (dmax[u, v], dmin[u, v]) == (signs.sigma_max * d[v], signs.sigma_min * d[v])


@given(connected_signed_graphs())
@settings(max_examples=60)
def test_compatible_iff_matrices_equal(g):
    dmax, dmin = distance_matrices(g)
    assert is_compatible(g) == np.array_equal(dmax, dmin)
    pair = first_incompatible_pair(g)
    if pair is not None:
        u, v = pair
        assert u < v and not is_compatible_pair(g, u, v)


# -- sign-constrained shortest paths --------------------------------------------


@given(connected_signed_graphs(max_vertices=7))
@settings(max_examples=80)
def test_sign_constrained_path_is_lex_least_of_that_sign(g):
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            if u == v:
                continue
            by_sign = {1: [], -1: []}
            for p in enumerate_shortest_paths(g, u, v):
                by_sign[path_sign(g, p)].append(p)
            for sign in (1, -1):
                got = shortest_path_with_sign(g, u, v, sign)
                want = min(by_sign[sign]) if by_sign[sign] else None
                assert got == want


def test_sign_constrained_path_corner_cases():
    g = path_graph([1, -1])
    assert shortest_path_with_sign(g, 0, 0, 1) == (0,)
    assert shortest_path_with_sign(g, 0, 0, -1) is None
    assert shortest_path_with_sign(g, 0, 2, -1) == (0, 1, 2)
    assert shortest_path_with_sign(g, 0, 2, 1) is None
    with pytest.raises(ValueError):
        shortest_path_with_sign(g, 0, 2, 0)


def test_a_table_that_disagrees_with_its_graph_is_a_missing_witness():
    g = all_negative_cycle(4)
    g._cache["reach_table"] = _reach_table(cycle_graph([1, 1, 1, 1]))  # every path positive
    with pytest.raises(MissingWitnessError, match=r"^no shortest 0-2 path of sign \+1 past vertex 0$"):
        shortest_path_with_sign(g, 0, 2, 1)


class _NoList(np.ndarray):
    """A table array that cannot become a list, so a reader must index it in place."""

    def tolist(self):
        raise AssertionError("a table row was copied into a list")


def _lex_least(g, u, v, sign):
    """The oracle's lexicographically least shortest u-v path of that sign, or None."""
    return min((p for p in enumerate_shortest_paths(g, u, v) if path_sign(g, p) == sign), default=None)


def _assert_walks_match_the_oracle(g, pairs, convert=lambda u: u):
    for u, v in pairs:
        for sign in (1, -1):
            assert shortest_path_with_sign(g, convert(u), convert(v), sign) == _lex_least(g, u, v, sign)


def test_a_witness_walk_reads_the_table_in_place():
    g = _signed_grid(4, 11)
    table = _reach_table(g)
    g._cache["reach_table"] = table._replace(dist=table.dist.view(_NoList), mask=table.mask.view(_NoList))
    pairs = [(u, v) for u in range(16) for v in range(16) if u != v]
    _assert_walks_match_the_oracle(g, pairs)
    pr = power(g, 2)
    close = [(u, v) for u, v in pairs if u < v and table.dist[u, v] <= 2]
    for witnesses, sigma in ((pr.witnesses_max, distance._SIGMA_MAX), (pr.witnesses_min, distance._SIGMA_MIN)):
        for u, v in close:
            assert witnesses[u, v] == _lex_least(g, u, v, sigma[table.mask[u, v]])


def test_witness_walks_read_every_kind_of_table():
    rng = random.Random(5)
    graphs = [_signed_grid(3, 1), c4_one_negative(), all_negative_cycle(7)]
    graphs += [SignedGraph(k, [(i, i + 1, rng.choice((1, -1))) for i in range(k - 1)]) for k in (2, 5)]
    build_tables(graphs)
    tables = [_reach_table(g) for g in graphs]
    assert all(t.dist.base is tables[0].dist.base for t in tables)  # one batch
    assert not all(t.dist.flags.c_contiguous for t in tables)  # views into the batch's table
    for g in graphs:
        pairs = [(u, v) for u in range(g.vertex_count) for v in range(g.vertex_count)]
        _assert_walks_match_the_oracle(g, pairs)
        _assert_walks_match_the_oracle(g, pairs, np.int64)
    # int32 distances, as tables of 2^15 vertices or more have them
    g = _signed_grid(4, 12)
    table = _reach_table(g)
    g._cache["reach_table"] = table._replace(dist=table.dist.astype(np.int32))
    _assert_walks_match_the_oracle(g, [(u, v) for u in range(16) for v in range(16)])


def test_sign_constrained_path_checks_both_vertices():
    g = path_graph([1, 1, 1])  # 0-1-2-3
    for u, v in ((-1, 3), (0, 4)):  # no wrap-around to vertex 3, no numpy IndexError
        with pytest.raises(VertexOutOfRangeError):
            shortest_path_with_sign(g, u, v, 1)


def test_incompatible_pair_yields_paths_of_both_signs():
    g = c4_one_negative()
    pos = shortest_path_with_sign(g, 0, 2, 1)
    neg = shortest_path_with_sign(g, 0, 2, -1)
    assert pos == (0, 1, 2)
    assert neg == (0, 3, 2)
    assert path_sign(g, pos) == 1 and path_sign(g, neg) == -1
