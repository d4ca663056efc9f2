"""Signed graphs: construction, switching, connectivity, and path signs.

A signed graph is a finite simple undirected graph together with a sign
function assigning +1 or -1 to every edge.  The sign of a path (or any
walk) is the product of the signs of its edges; a cycle is positive or
negative accordingly, and a graph all of whose cycles are positive is
called balanced.

Vertices are dense 0-based integers.  Graphs are immutable after
construction; operations that change a graph (switching, taking powers)
return new graphs.  A graph on a single vertex counts as connected.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence


class SignedGraphError(Exception):
    """Base class for every error raised by this package."""


class LoopEdgeError(SignedGraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(SignedGraphError):
    """The same unordered vertex pair was given more than once."""


class BadSignError(SignedGraphError):
    """An edge sign other than +1 or -1."""


class VertexOutOfRangeError(SignedGraphError):
    """A vertex index outside [0, vertex_count)."""


class NotAPathError(SignedGraphError):
    """A vertex sequence that is not a path (or walk) of the graph."""


class DisconnectedError(SignedGraphError):
    """The operation needs a connected graph."""


class BadExponentError(SignedGraphError):
    """Power exponent that is not an integer of at least 1."""


def _exponent(n) -> int:
    """The power exponent n as an int: BadExponentError unless n is an integer (numpy's too) >= 1."""
    try:
        k = operator.index(n)
    except TypeError:
        raise BadExponentError(f"power exponent must be an integer, got {n!r}") from None
    if k < 1:
        raise BadExponentError(f"power exponent must be >= 1, got {n}")
    return k


class NotCompatibleError(SignedGraphError):
    """The operation needs a graph whose shortest-path signs are unambiguous."""


class NonUniquePowerError(SignedGraphError):
    """The n-th power is not unique (max and min versions differ)."""


class MissingWitnessError(SignedGraphError):
    """No recorded underlying path for an edge of a power graph."""


def error_line(exc: Exception) -> str:
    """The error as one line: its class name less "Error", then its message."""
    return f"{type(exc).__name__.removesuffix('Error')}: {exc}"


Edge = tuple[int, int, int]  # (u, v, sign) with u < v


class SignedGraph:
    """An immutable signed graph.

    `edges` may list endpoints in either order; they are stored
    canonically with u < v.  Loops, repeated pairs, signs outside
    {+1, -1} and out-of-range endpoints are rejected.  The sorted
    adjacency lists are built by the first walk (`neighbors`, `degree`)
    and kept, so a graph that is only compared, hashed, signed,
    serialized or given a sign table never builds them.  `_cache` holds
    the two facts read back: the sign table and the balance report.
    """

    __slots__ = ("vertex_count", "_sign_by_pair", "_adjacency", "_cache")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]] = ()):
        if not isinstance(vertex_count, int) or vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        sign_by_pair: dict[tuple[int, int], int] = {}
        for u, v, s in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise VertexOutOfRangeError(
                    f"edge ({u}, {v}) has an endpoint outside [0, {vertex_count})"
                )
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            if s not in (1, -1):
                raise BadSignError(f"edge ({u}, {v}) has sign {s!r}; signs must be +1 or -1")
            key = (u, v) if u < v else (v, u)
            if key in sign_by_pair:
                raise DuplicateEdgeError(f"edge {key} appears more than once")
            sign_by_pair[key] = s
        self.vertex_count: int = vertex_count
        self._sign_by_pair = sign_by_pair
        self._adjacency: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._cache: dict = {}

    # -- accessors ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._sign_by_pair)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v, sign) with u < v, sorted (made on each call)."""
        return tuple(sorted((u, v, s) for (u, v), s in self._sign_by_pair.items()))

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._sign_by_pair

    def sign(self, u: int, v: int) -> int:
        """Sign of the edge uv.  KeyError if uv is not an edge."""
        key = (u, v) if u < v else (v, u)
        return self._sign_by_pair[key]

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, sign) pairs of v in ascending neighbor order."""
        self._check_vertex(v)
        return (self._adjacency or self._adjacency_rows())[v]

    def _adjacency_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`neighbors` of every vertex, built by the first walk and kept."""
        if self._adjacency is None:
            rows: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
            for (u, v), s in self._sign_by_pair.items():
                rows[u].append((v, s))
                rows[v].append((u, s))
            self._adjacency = tuple(tuple(sorted(row)) for row in rows)
        return self._adjacency

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise VertexOutOfRangeError(f"vertex {v} outside [0, {self.vertex_count})")

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self._sign_by_pair == other._sign_by_pair
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, frozenset(self._sign_by_pair.items())))

    def __repr__(self) -> str:
        return f"SignedGraph({self.vertex_count}, {list(self.edges)!r})"


def switch(g: SignedGraph, vertices: Iterable[int]) -> SignedGraph:
    """Switch g at a vertex set: negate each edge with exactly one end inside.

    Switching preserves the sign of every cycle, so it preserves balance,
    and it never changes the underlying unsigned graph.
    """
    chosen = set(vertices)
    for v in chosen:
        g._check_vertex(v)
    edges = []
    for (u, v), s in g._sign_by_pair.items():
        if (u in chosen) != (v in chosen):
            s = -s
        edges.append((u, v, s))
    return SignedGraph(g.vertex_count, edges)


def bfs(g: SignedGraph, source: int = 0) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from `source`, visiting neighbors in ascending order.

    Returns (order, dist, parent): the reached vertices in the order a
    FIFO queue visits them (so by nondecreasing distance), the hop
    distance of each vertex and its parent in the BFS tree, both -1 for
    an unreached vertex (the source's parent is -1 too).  It walks the
    adjacency lists and never reads the all-pairs sign table, so the
    oracle stays independent of the kernel it checks.
    """
    g._check_vertex(source)
    dist = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    dist[source] = 0
    order = [source]
    for x in order:  # the list is the queue: vertices are appended behind x
        for y, _ in g.neighbors(x):
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                parent[y] = x
                order.append(y)
    return order, dist, parent


def is_connected(g: SignedGraph) -> bool:
    # fewer than V - 1 edges cannot connect V vertices: no search, no V-long lists
    return g.edge_count >= g.vertex_count - 1 and len(bfs(g)[0]) == g.vertex_count


def is_two_connected(g: SignedGraph) -> bool:
    """True iff g has at least 3 vertices, is connected, and has no cut
    vertex.  Each call runs the pass; the answer is not cached."""
    n = g.vertex_count
    if n < 3:
        return False
    # Tarjan's low points in two passes.  A preorder DFS from 0 with an explicit stack:
    # a vertex's parent is the last vertex that pushed it, which makes a DFS tree.
    rows = g._adjacency_rows()
    disc = [-1] * n
    parent = [-1] * n
    order: list[int] = []
    stack = [0]
    while stack:
        x = stack.pop()
        if disc[x] < 0:
            disc[x] = len(order)
            order.append(x)
            for y, _ in rows[x]:
                if disc[y] < 0:
                    parent[y] = x
                    stack.append(y)
    # children before parents: low[x] is the least preorder index one edge out of
    # x's subtree reaches (the edge to parent[x] included)
    low = disc[:]
    for x in reversed(order):
        for y, _ in rows[x]:
            up = low[y] if parent[y] == x else disc[y]
            if up < low[x]:
                low[x] = up
        if parent[x] > 0 and low[x] >= disc[parent[x]]:
            return False  # parent[x] is a cut vertex
    return len(order) == n and parent.count(0) < 2  # all reached, root has one child


def walk_sign(g: SignedGraph, walk: Sequence[int]) -> int:
    """Product of edge signs along a walk; vertices may repeat.

    Raises NotAPathError when the sequence is empty, leaves the vertex
    range, or uses a pair that is not an edge.
    """
    if len(walk) == 0:
        raise NotAPathError("empty vertex sequence")
    for v in walk:
        if not (0 <= v < g.vertex_count):
            raise NotAPathError(f"vertex {v} outside [0, {g.vertex_count})")
    sign = 1
    for a, b in zip(walk, walk[1:]):
        s = g._sign_by_pair.get((a, b) if a < b else (b, a))
        if s is None:
            raise NotAPathError(f"({a}, {b}) is not an edge")
        sign *= s
    return sign


def path_sign(g: SignedGraph, path: Sequence[int]) -> int:
    """Sign of a path: like walk_sign but vertices must be distinct."""
    if len(set(path)) != len(path):
        raise NotAPathError("repeated vertex; not a path")
    return walk_sign(g, path)
