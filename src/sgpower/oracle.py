"""Brute-force ground truth and random corpus generation.

One depth-first walk over a BFS shortest-path DAG lists every shortest
path out of a source, each with its sign, visiting neighbors in ascending
order, so its output order (and therefore everything derived from it) is
deterministic.  Three functions read it.  `enumerate_shortest_paths`
keeps the paths that end at the target, the walk held to the vertices
of its shortest paths; `oracle_signs` reduces those to their sign set;
`oracle_reachability`, the brute-force twin of `sign_reachability`,
marks each path's sign at its end.  They are the reference the sign
table (a BFS over the signed double cover) is tested against, and never
read it.

`generate` draws random connected signed graphs from a CorpusSpec.  The
generator is Python's `random.Random` (the Mersenne Twister MT19937),
seeded per trial with `spec.seed * 2**32 + trial`, so a spec identifies
its corpus exactly, on every platform.  Each graph is a uniformly random
recursive spanning tree plus independent extra edges, so it is connected.
Signs are uniform unless balance is required; then the graph is an
all-positive one switched at a random vertex subset (+ iff both ends lie
on the same side), so it is balanced by construction.  Rejection
sampling, with a bounded number of attempts per trial, meets the
requirements construction does not guarantee (2-connectivity, compatibility).
With compatibility required, `generate` draws in a few rounds, one candidate
for each trial of a chunk still without a graph, and tables a round's candidates
by one search (`build_tables`); a trial still without a graph then draws alone.
A trial draws from its own generator alone, so the stream is the one a trial at
a time gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .core import DisconnectedError, SignedGraph, SignedGraphError, bfs, is_two_connected
from .distance import _RUN_BUDGET, PathSigns, Reach, build_tables, is_compatible


class TooManyPathsError(SignedGraphError):
    """Shortest-path enumeration exceeded its path budget."""


class GenerationExhaustedError(SignedGraphError):
    """Rejection sampling failed to meet the corpus requirements."""


MAX_ORACLE_PATHS = 10**6
_ATTEMPTS_PER_TRIAL = 2000
_ROUNDS = 5  # a chunk's rounds; under 1 % of sgs's trials then still lack a graph

REQUIREMENTS = ("balanced", "compatible", "connected", "two_connected")


def _shortest_paths(g: SignedGraph, source: int, dist: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every path out of `source` whose `dist` rises by one at each edge, the empty
    one first, in lexicographic vertex order, each with its sign.  With `dist` a BFS
    from `source` these are its shortest paths; a vertex at distance -1 is never
    entered.  Paths wait on a stack, not in recursion, so memory bounds the depth."""
    stack = [((source,), 1)]
    while stack:
        path, sign = stack.pop()
        yield path, sign
        x = path[-1]
        step = dist[x] + 1
        # reversed, so the least neighbor's paths come off the stack first
        stack += [(path + (y,), sign * s) for y, s in reversed(g.neighbors(x)) if dist[y] == step]


def _paths_between(g: SignedGraph, u: int, v: int) -> list[tuple[tuple[int, ...], int]]:
    """The shortest u-v paths with their signs, as `enumerate_shortest_paths` lists them."""
    g._check_vertex(u)
    g._check_vertex(v)
    du = bfs(g, u)[1]
    if du[v] < 0:
        raise DisconnectedError(f"vertex {v} unreachable from {u}")
    dv = bfs(g, v)[1]
    # a vertex on no shortest u-v path is, to the walk, unreachable
    on_path = [a if a + b == du[v] else -1 for a, b in zip(du, dv)]
    paths = []
    for item in _shortest_paths(g, u, on_path):
        if item[0][-1] == v:
            if len(paths) == MAX_ORACLE_PATHS:
                raise TooManyPathsError(f"more than {MAX_ORACLE_PATHS} shortest paths")
            paths.append(item)
    return paths


def enumerate_shortest_paths(g: SignedGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u-v path, in lexicographic vertex order.

    Raises DisconnectedError when v is unreachable from u and
    TooManyPathsError when more than `MAX_ORACLE_PATHS` paths exist.
    """
    return [path for path, _ in _paths_between(g, u, v)]


def oracle_signs(g: SignedGraph, u: int, v: int) -> PathSigns:
    """Sign set of the shortest u-v paths, by exhaustive enumeration."""
    signs = {sign for _, sign in _paths_between(g, u, v)}
    return PathSigns(1 in signs, -1 in signs)


def oracle_reachability(g: SignedGraph, source: int) -> list[Reach]:
    """`sign_reachability(g, source)` by brute force: after one `bfs`, the walk lists
    every shortest path out of `source`, the empty one included, merging no
    (vertex, sign) state, and each path's sign is marked at its end.  Raises
    DisconnectedError, and TooManyPathsError past `MAX_ORACLE_PATHS` listed paths."""
    dist = bfs(g, source)[1]
    if -1 in dist:
        raise DisconnectedError(f"vertex {dist.index(-1)} unreachable from {source}")
    seen = [[False, False] for _ in dist]  # [positive, negative] path to each vertex
    for listed, (path, sign) in enumerate(_shortest_paths(g, source, dist), 1):
        if listed > MAX_ORACLE_PATHS:
            raise TooManyPathsError(f"more than {MAX_ORACLE_PATHS} shortest paths out of {source}")
        seen[path[-1]][sign < 0] = True
    return [Reach(d, PathSigns(*signs)) for d, signs in zip(dist, seen)]


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a reproducible random graph corpus.

    require is any subset of {"connected", "two_connected", "balanced",
    "compatible"}; connectivity always holds by construction.
    """

    seed: int
    vertex_range: tuple[int, int]
    edge_probability: float
    require: frozenset[str] = frozenset()
    trials: int = 1

    def __post_init__(self) -> None:
        lo, hi = self.vertex_range
        if lo < 2 or hi < lo:
            raise ValueError("vertex_range must satisfy 2 <= min <= max")
        if not (0.0 <= self.edge_probability <= 1.0):
            raise ValueError("edge_probability must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        req = frozenset(self.require)
        unknown = req.difference(REQUIREMENTS)
        if unknown:
            raise ValueError(f"unknown requirements: {sorted(unknown)}")
        object.__setattr__(self, "require", req)


def _random_graph(rng: random.Random, spec: CorpusSpec) -> SignedGraph:
    lo, hi = spec.vertex_range
    n = rng.randrange(lo, hi + 1)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}  # random recursive tree
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < spec.edge_probability:
                pairs.add((u, v))
    ordered = sorted(pairs)
    if "balanced" in spec.require:
        side = [rng.random() < 0.5 for _ in range(n)]  # the switching set
        return SignedGraph(n, [(u, v, 1 if side[u] == side[v] else -1) for u, v in ordered])
    return SignedGraph(n, [(u, v, rng.choice((1, -1))) for u, v in ordered])


def _meets(g: SignedGraph, require: frozenset[str]) -> bool:
    # "connected" and "balanced" hold by construction (see _random_graph)
    if "two_connected" in require and not is_two_connected(g):
        return False
    if "compatible" in require and not is_compatible(g):
        return False
    return True


def generate(spec: CorpusSpec) -> Iterator[SignedGraph]:
    """Yield spec.trials graphs, deterministically from spec.seed.  With compatibility
    required, a chunk of trials (as many as `_batches` puts in one batch at the largest
    vertex count) draws in up to `_ROUNDS` rounds; a trial still without a graph then
    draws alone, so a spec no graph meets costs about `_ATTEMPTS_PER_TRIAL` drafts."""
    tabled = "compatible" in spec.require
    chunk = max(1, _RUN_BUDGET // spec.vertex_range[1] ** 2) if tabled else 1
    rounds = min(_ROUNDS, _ATTEMPTS_PER_TRIAL) if tabled else 0
    for start in range(0, spec.trials, chunk):
        trials = range(start, min(start + chunk, spec.trials))
        rngs = {t: random.Random(spec.seed * 2**32 + t) for t in trials}
        found: dict[int, SignedGraph] = {}
        for _ in range(rounds):  # tables in one search the drafts that meet the rest of the spec
            drawn = {t: _random_graph(rng, spec) for t, rng in rngs.items() if t not in found}
            build_tables(g for g in drawn.values() if _meets(g, spec.require - {"compatible"}))
            found.update((t, g) for t, g in drawn.items() if _meets(g, spec.require))
        for trial in trials:  # one the rounds left without a graph draws on alone, lazily
            drafts = (_random_graph(rngs[trial], spec) for _ in range(_ATTEMPTS_PER_TRIAL - rounds))
            g = found.get(trial) or next((g for g in drafts if _meets(g, spec.require)), None)
            if g is None:
                raise GenerationExhaustedError(
                    f"trial {trial}: no graph met {sorted(spec.require)} "
                    f"after {_ATTEMPTS_PER_TRIAL} attempts"
                )
            yield g
