"""Powers of signed graphs and associated signed complete graphs.

The n-th power of the underlying graph joins every pair of vertices at
distance at most n.  For signed graphs there are two natural sign
choices for the new edges: sigma_max gives the max power and sigma_min
the min power.  The two coincide exactly when no pair at distance <= n
is incompatible; the power is then called unique.

The associated signed complete graph keeps all existing signed edges
and joins each non-adjacent pair, signed by sigma_max (mode "max"),
sigma_min (mode "min"), or their common value (mode "pm", defined only
for compatible graphs).  When diameter(g) <= n the n-th power is the
same construction, and a complete graph is its own completion; every
other pair's sign is read off the table.

Every power edge has a witness: the lexicographically least shortest
path between its ends that realizes the edge's sign.  The witnesses
drive path projection from a power back into its base graph.

`power()` checks its input and reads the sign table at once, so a bad
exponent or a disconnected graph raises there; everything else is read
off the table on first access and then kept.  Reading `unique`, or the
keys of a witness map, builds no graph; a witness map's keys are the
edges of its power in row-major order (u < v); each witness is built
the first time it is read.  The first power is the graph itself: each
edge is the one shortest path between its ends.

A power is a choice of pairs and a sign lookup in the table; `_table_graph`
builds every graph here, a completion as the power at the diameter.
`_close_pairs` yields the pairs a block of rows at a time: a witness map's
keys, and the `power` and `complete` commands' text via `fileio.serialize_edges`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import cached_property

import numpy as np

from .core import NotCompatibleError, SignedGraph, _exponent
from .distance import (
    _SIGMA_MAX,
    _SIGMA_MIN,
    _first_both,
    _reach_table,
    _row_blocks,
    diameter,
    first_incompatible_pair,
    shortest_path_with_sign,
)

Witnesses = Mapping[tuple[int, int], tuple[int, ...]]


def _close_pairs(g: SignedGraph, n: int, sigma: tuple[int, ...]) -> Iterator[tuple[np.ndarray, ...]]:
    """(us, vs, signs by `sigma`) of the pairs u < v at distance <= n, row-major, per block of rows."""
    table = _reach_table(g)
    for rows in _row_blocks(g.vertex_count):
        flat = np.flatnonzero(table.dist[rows] <= n)
        us, vs = np.divmod(flat + rows.start * g.vertex_count, g.vertex_count)
        upper = us < vs
        yield us[upper], vs[upper], np.take(sigma, table.mask[rows].ravel()[flat[upper]])


def _table_graph(g: SignedGraph, n: int, sigma: tuple[int, ...]) -> SignedGraph:
    """The graph on V(g) joining the pairs at distance <= n, each signed by `sigma`
    indexed by its mask entry: g itself at n = 1 (each edge is the one shortest
    path between its ends), and every pair, read without a distance, from n = diameter."""
    if n == 1:
        return g
    table = _reach_table(g)
    k = g.vertex_count
    rows = enumerate(table.mask.tolist())
    if n >= table.diameter:
        edges = [(u, v, sigma[row[v]]) for u, row in rows for v in range(u + 1, k)]
    else:
        d = table.dist.tolist()
        edges = [(u, v, sigma[row[v]]) for u, row in rows for v in range(u + 1, k) if d[u][v] <= n]
    return SignedGraph(k, edges)


class _LazyWitnesses(Mapping):
    """Read-only witness map over the edges of one n-th power of g.

    The keys are the pairs u < v at distance at most n, and `sigma`,
    indexed by a mask entry, gives each edge's sign: both are read off
    g's sign table; as in a dict, a key equal to a pair, such as (1.0, 3),
    finds it.  A witness is built by `shortest_path_with_sign` when first read.
    `vertex_count` is g's, so a path of no edge can be checked.
    """

    def __init__(self, g: SignedGraph, n: int, sigma: tuple[int, ...]):
        self.vertex_count = g.vertex_count
        self._g = g
        self._n = n
        self._sigma = sigma
        self._table = _reach_table(g)
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def _edge(self, key: object) -> tuple[int, int] | None:
        """The power edge (u, v) equal to `key`, as a dict matches its keys, or None."""
        if isinstance(key, tuple) and len(key) == 2:
            try:
                u, v = (int(x.real) for x in key)  # `.real`: 1+0j == 1 as well
            except (AttributeError, TypeError, ValueError, OverflowError):  # not a pair of numbers
                return None
            if (u, v) == key and 0 <= u < v < self._g.vertex_count:
                return (u, v) if self._table.dist[u, v] <= self._n else None
        return None

    def __getitem__(self, key: tuple[int, int]) -> tuple[int, ...]:
        # exact tuples only: `dict.get` raises TypeError for a list
        path = self._paths.get(key) if type(key) is tuple else None
        if path is None:
            edge = self._edge(key)
            if edge is None:
                raise KeyError(key)
            sign = self._sigma[self._table.mask[edge]]
            path = self._paths[edge] = shortest_path_with_sign(self._g, *edge, sign)
        return path

    def __contains__(self, key: object) -> bool:
        return self._edge(key) is not None  # without building the witness

    def __iter__(self):
        for us, vs, _ in _close_pairs(self._g, self._n, self._sigma):
            yield from zip(us.tolist(), vs.tolist())

    def __len__(self) -> int:
        # dist is symmetric and its diagonal (0) is always within n
        return (int(np.count_nonzero(self._table.dist <= self._n)) - self._g.vertex_count) // 2


class PowerResult:
    """Both n-th powers of a connected signed graph, with witnesses.

    Made by `power`.  Read-only; each attribute but `n` is built on
    first read and then kept.
    """

    def __init__(self, g: SignedGraph, n: int):
        self.__dict__.update(n=n, _g=g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PowerResult is read-only; cannot set {name!r}")

    @cached_property
    def unique(self) -> bool:
        return is_power_unique(self._g, self.n)

    @cached_property
    def witnesses_max(self) -> Witnesses:
        return _LazyWitnesses(self._g, self.n, _SIGMA_MAX)

    @cached_property
    def witnesses_min(self) -> Witnesses:
        return _LazyWitnesses(self._g, self.n, _SIGMA_MIN)

    @cached_property
    def power_max(self) -> SignedGraph:
        return _table_graph(self._g, self.n, _SIGMA_MAX)

    @cached_property
    def power_min(self) -> SignedGraph:
        return _table_graph(self._g, self.n, _SIGMA_MIN)


def power(g: SignedGraph, n: int) -> PowerResult:
    """Both n-th powers of a connected signed graph, with witnesses.

    Raises BadExponentError and DisconnectedError here; the powers, the
    uniqueness flag and the witnesses are built when first read.
    """
    n = _exponent(n)
    _reach_table(g)  # a disconnected graph raises here, not on first read
    return PowerResult(g, n)


def first_incompatible_pair_within(g: SignedGraph, n: int) -> tuple[int, int] | None:
    """Lexicographically first pair u < v at distance <= n with shortest
    paths of both signs: the first edge where the max and min n-th powers
    differ.  None when the n-th power is unique."""
    if is_power_unique(g, n):  # nothing to find; raises for a bad exponent
        return None
    return _first_both(_reach_table(g), n)  # u < v, as both arrays are symmetric


def is_power_unique(g: SignedGraph, n: int) -> bool:
    """True iff the n-th power is unique: by the uniqueness theorem, iff every
    pair at distance <= n is compatible, i.e. n < d0, recorded by the table's build."""
    n = _exponent(n)
    d0 = _reach_table(g).d0
    return d0 is None or n < d0


def _completion_sigma(g: SignedGraph, mode: str) -> tuple[int, ...] | None:
    """The signs of g's `mode` completion, indexed by a mask entry, or None
    when g is complete and so its own completion.

    Raises ValueError for an unknown mode, and NotCompatibleError in mode
    "pm" when some pair of g has shortest paths of both signs."""
    if mode not in ("max", "min", "pm"):
        raise ValueError(f"mode must be 'max', 'min' or 'pm', got {mode!r}")
    n = g.vertex_count
    if g.edge_count == n * (n - 1) // 2:  # no pair to add, and compatible
        return None
    if mode == "pm":
        bad = first_incompatible_pair(g)
        if bad is not None:
            raise NotCompatibleError(
                f"pair {bad} has shortest paths of both signs; "
                "the common-sign completion is undefined"
            )
    return _SIGMA_MIN if mode == "min" else _SIGMA_MAX  # "pm": the two coincide


def associated_complete(g: SignedGraph, mode: str) -> SignedGraph:
    """Complete graph on V(g) with distance-derived signs on non-edges: a complete
    g as is, any other g as its power at the diameter, where an edge keeps its sign."""
    sigma = _completion_sigma(g, mode)
    return g if sigma is None else _table_graph(g, diameter(g), sigma)
