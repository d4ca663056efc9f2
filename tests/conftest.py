"""Shared builders, brute-force reference oracles, and strategies.

The reference implementations here are deliberately naive (exponential
labeling search, DFS over all simple paths) so that agreement with the
package is meaningful.  They are only ever called on small graphs.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from sgpower import SignedGraph


ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict[str, str]:
    """Environment in which a child process imports sgpower from this
    checkout, whatever its working directory (PYTHONPATH may be relative)."""
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


# -- fixed builders ----------------------------------------------------------


def path_graph(signs) -> SignedGraph:
    """Path 0-1-...-k with the given edge signs."""
    signs = list(signs)
    return SignedGraph(len(signs) + 1, [(i, i + 1, s) for i, s in enumerate(signs)])


def cycle_graph(signs) -> SignedGraph:
    """Cycle 0-1-...-(k-1)-0 with the given edge signs."""
    signs = list(signs)
    k = len(signs)
    edges = [(i, (i + 1) % k, s) for i, s in enumerate(signs)]
    return SignedGraph(k, edges)


def all_negative_cycle(k: int) -> SignedGraph:
    return cycle_graph([-1] * k)


def complete_graph(n: int, sign: int = 1) -> SignedGraph:
    return SignedGraph(n, [(u, v, sign) for u in range(n) for v in range(u + 1, n)])


def random_graph(n: int, avg_degree: int, seed: int) -> SignedGraph:
    """Random recursive spanning tree plus random extra edges, random signs."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    while len(pairs) < n * avg_degree // 2:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    return SignedGraph(n, [(u, v, rng.choice((1, -1))) for u, v in sorted(pairs)])


def c4_one_negative() -> SignedGraph:
    """4-cycle with exactly one negative edge: the smallest incompatible graph."""
    return cycle_graph([1, 1, 1, -1])


def all_signings(n: int, pairs):
    """Every signed graph on the fixed underlying edge set `pairs`."""
    pairs = list(pairs)
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        yield SignedGraph(n, [(u, v, s) for (u, v), s in zip(pairs, signs)])


# -- brute-force reference oracles -------------------------------------------


def brute_balanced(g: SignedGraph) -> bool:
    """Exhaustive switching search: balanced iff some +-1 vertex labeling
    theta has sigma(uv) = theta(u) * theta(v) on every edge.  Assumes the
    graph is connected (label 0 can be fixed at +1)."""
    n = g.vertex_count
    edges = g.edges
    for bits in itertools.product((1, -1), repeat=n - 1):
        theta = (1,) + bits
        if all(theta[u] * theta[v] == s for u, v, s in edges):
            return True
    return False


def brute_shortest_paths(g: SignedGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """All shortest u-v paths by DFS over every simple path (no DAG)."""
    best: list[tuple[int, ...]] = []
    best_len = [g.vertex_count]  # paths can't be longer than n-1 edges

    def walk(x, seen, trail):
        if len(trail) - 1 > best_len[0]:
            return
        if x == v:
            k = len(trail) - 1
            if k < best_len[0]:
                best_len[0] = k
                best.clear()
            if k == best_len[0]:
                best.append(tuple(trail))
            return
        for y, _ in g.neighbors(x):
            if y not in seen:
                seen.add(y)
                trail.append(y)
                walk(y, seen, trail)
                trail.pop()
                seen.remove(y)

    walk(u, {u}, [u])
    return sorted(best)


def brute_articulation_free(g: SignedGraph) -> bool:
    """2-connectivity by deleting each vertex and re-checking connectivity."""
    n = g.vertex_count
    if n < 3:
        return False

    def connected_without(banned: int) -> bool:
        keep = [v for v in range(n) if v != banned]
        seen = {keep[0]}
        stack = [keep[0]]
        while stack:
            x = stack.pop()
            for y, _ in g.neighbors(x):
                if y != banned and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n - 1

    return all(connected_without(v) for v in range(n))


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def connected_signed_graphs(draw, min_vertices: int = 2, max_vertices: int = 8):
    """Random connected signed graph: spanning tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.sets(st.sampled_from(all_pairs))) if all_pairs else set()
    chosen = sorted(set(pairs) | extra)
    signs = draw(
        st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen))
    )
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


@pytest.fixture
def c7_negative() -> SignedGraph:
    return all_negative_cycle(7)
