"""The benchmark's own graph code: seeded inputs and reference answers.

Nothing here imports sgpower.  Inputs are plain edge lists
`[(u, v, sign), ...]` with u < v, drawn from a `random.Random` the caller
seeds, so a change to the program (its corpus generator included) cannot
change the inputs of another workload.  The reference answers (BFS
distances, shortest-path sign sets, balance labels, 2-connectivity) are
computed by independent code, so checking the program against them does
not depend on the code under test.

Sign sets are bit masks: POS (1) when some shortest path is positive,
NEG (2) when some shortest path is negative.
"""

from __future__ import annotations

import random
from collections import deque

POS, NEG = 1, 2


def _swap(mask: int) -> int:
    return ((mask & POS) << 1) | ((mask & NEG) >> 1)


# -- inputs ------------------------------------------------------------------


def random_edges(rng: random.Random, n: int, avg_degree: float, balanced: bool) -> list:
    """Random recursive spanning tree plus random extra edges.

    Signs are uniform, or, with `balanced`, the all-positive graph
    switched at a random vertex set (edge sign = label(u) * label(v)).
    """
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    target = max(n - 1, min(n * (n - 1) // 2, round(n * avg_degree / 2)))
    while len(pairs) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return _sign(rng, n, sorted(pairs), balanced)


def odd_cycle_with_trees(rng: random.Random, n: int, cycle: int) -> list:
    """A negative odd cycle with random trees hung on it.

    Every pair has exactly one shortest path, so the graph is compatible,
    and the one cycle is negative, so it is unbalanced.
    """
    pairs = [(i, i + 1) for i in range(cycle - 1)] + [(0, cycle - 1)]
    pairs += [(rng.randrange(v), v) for v in range(cycle, n)]
    edges = [(u, v, -1 if (u, v) == (0, cycle - 1) else 1) for u, v in sorted(pairs)]
    labels = [rng.choice((1, -1)) for _ in range(n)]
    return [(u, v, s * labels[u] * labels[v]) for u, v, s in edges]


def _sign(rng: random.Random, n: int, pairs: list, balanced: bool) -> list:
    if balanced:
        labels = [rng.choice((1, -1)) for _ in range(n)]
        return [(u, v, labels[u] * labels[v]) for u, v in pairs]
    return [(u, v, rng.choice((1, -1))) for u, v in pairs]


def to_text(n: int, edges: list) -> str:
    """The `sg 1` graph file format, written without sgpower.fileio."""
    lines = ["sg 1", f"n {n}"]
    lines += [f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in edges]
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> tuple[int, dict]:
    """(vertex count, {(u, v): sign}) of an `sg 1` text; raises ValueError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if lines[0] != ["sg", "1"] or lines[1][0] != "n":
        raise ValueError("not an sg 1 graph")
    signs = {}
    for u, v, s in lines[2:]:
        u, v = int(u), int(v)
        key = (min(u, v), max(u, v))
        if key in signs or s not in ("+", "-"):
            raise ValueError(f"bad edge line {u} {v} {s}")
        signs[key] = 1 if s == "+" else -1
    return int(lines[1][1]), signs


# -- reference answers ---------------------------------------------------------


class Graph:
    """Adjacency view of an edge list with reference computations."""

    def __init__(self, n: int, edges: list):
        self.n = n
        self.edges = edges
        self.sign = {(u, v): s for u, v, s in edges}
        self.adj: list[list] = [[] for _ in range(n)]
        for u, v, s in edges:
            self.adj[u].append((v, s))
            self.adj[v].append((u, s))
        self._rows: dict[int, tuple[list, list]] = {}

    def edge_sign(self, u: int, v: int) -> int | None:
        return self.sign.get((u, v) if u < v else (v, u))

    def row(self, source: int) -> tuple[list, list]:
        """(distances, sign masks) from `source`, by BFS then a level-order DP."""
        got = self._rows.get(source)
        if got is not None:
            return got
        dist = [-1] * self.n
        mask = [0] * self.n
        dist[source] = 0
        mask[source] = POS
        order = deque([source])
        seen = [source]
        while order:
            x = order.popleft()
            for y, _ in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    order.append(y)
                    seen.append(y)
        for y in seen[1:]:
            m = 0
            for x, s in self.adj[y]:
                if dist[x] == dist[y] - 1:
                    m |= mask[x] if s > 0 else _swap(mask[x])
            mask[y] = m
        self._rows[source] = (dist, mask)
        return dist, mask

    def dist(self, u: int, v: int) -> int:
        return self.row(u)[0][v]

    def signs(self, u: int, v: int) -> int:
        return self.row(u)[1][v]

    def diameter(self) -> int:
        return max(max(self.row(u)[0]) for u in range(self.n))

    def first_incompatible_pair(self) -> tuple[int, int] | None:
        for u in range(self.n):
            mask = self.row(u)[1]
            for v in range(u + 1, self.n):
                if mask[v] == POS | NEG:
                    return (u, v)
        return None

    def connected(self, removed: int | None = None) -> bool:
        """Connectivity of the graph, or of the graph minus vertex `removed`."""
        start = 1 if removed == 0 else 0
        seen = {start} if removed is None else {start, removed}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _ in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def two_connected(self) -> bool:
        return self.n >= 3 and all(self.connected(v) for v in range(self.n))

    def labels(self) -> list | None:
        """Switching labels when balanced (label[0] = +1), else None."""
        label = [0] * self.n
        label[0] = 1
        stack = [0]
        while stack:
            x = stack.pop()
            for y, s in self.adj[x]:
                if label[y] == 0:
                    label[y] = label[x] * s
                    stack.append(y)
        if any(label[u] * label[v] != s for u, v, s in self.edges):
            return None
        return label

    def walk_sign(self, walk) -> int | None:
        """Sign of a walk, or None when a step is not an edge."""
        sign = 1
        for a, b in zip(walk, walk[1:]):
            s = self.edge_sign(a, b)
            if s is None:
                return None
            sign *= s
        return sign

    def is_shortest_path(self, path, u: int, v: int) -> bool:
        return (
            len(path) > 0
            and path[0] == u
            and path[-1] == v
            and len(set(path)) == len(path)
            and len(path) - 1 == self.dist(u, v)
            and self.walk_sign(path) is not None
        )

    def random_shortest_path(self, rng: random.Random, u: int, v: int) -> tuple:
        """A uniformly chosen step at each vertex along the BFS DAG from u to v."""
        dv = self.row(v)[0]
        path = [u]
        while path[-1] != v:
            x = path[-1]
            path.append(rng.choice([y for y, _ in self.adj[x] if dv[y] == dv[x] - 1]))
        return tuple(path)
