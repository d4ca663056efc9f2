"""Signed shortest-path distances.

Between two vertices u and v of a connected signed graph there may be
several shortest paths, and they need not agree in sign.  Write
sigma_max(u, v) = +1 when some shortest u-v path is positive (else -1)
and sigma_min(u, v) = -1 when some shortest u-v path is negative
(else +1).  The two signed distances are

    d_max(u, v) = sigma_max(u, v) * d(u, v)
    d_min(u, v) = sigma_min(u, v) * d(u, v)

where d is the ordinary hop distance.  A pair is compatible when every
shortest path between its ends has the same sign (d_max = d_min), and
the graph is compatible when every pair is.

All pairs come from one breadth-first search run from every source at
once over the signed double cover (Zaslavsky, "Signed graphs", Discrete
Appl. Math. 4, 1982): vertex (v, +) stands for "reached v by a positive
walk", (v, -) for a negative one, and an edge of sign s joins (x, e) to
(y, e * s).  A walk of length d(u, v) from u to v is a shortest path, so
the cover vertices of v first reached at level d(u, v) are exactly the
signs of the shortest u-v paths.  The frontier is a flat array of
(source, cover vertex) keys, those first reached at the previous level.
A level follows the cover's edge lists out of every frontier key, keeps
the candidates whose vertex pair is still unreached, and drops repeated
keys; everything is integer indexing, so nothing is approximate.

Cost: a key enters the frontier at most once, so one pass follows each
of the 4E cover arcs at most once per source: O(V * E) work in
`diameter` vectorised levels, whatever the diameter.  Memory: 4 V^2
bytes for `dist`, V^2 for `mask` and 8 V^2 for the key stamps,
plus one level's candidate arrays, about 30 bytes per candidate and at
most 4E candidates per source (a transient 370 MiB for a random graph
of degree 6 at V=1600, whose table keeps 13 MiB).  The result is
cached on the (immutable) graph as two arrays: `dist` (int32, hop
distances) and `mask` (uint8, bit 0 set when a positive shortest path
exists, bit 1 when a negative one does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DisconnectedError, SignedGraph


@dataclass(frozen=True)
class PathSigns:
    """Which signs occur among the shortest paths of a vertex pair."""

    has_positive: bool
    has_negative: bool

    @property
    def sigma_max(self) -> int:
        return 1 if self.has_positive else -1

    @property
    def sigma_min(self) -> int:
        return -1 if self.has_negative else 1

    @property
    def is_single(self) -> bool:
        """True when all shortest paths agree in sign (a compatible pair)."""
        return self.has_positive != self.has_negative


class Reach(NamedTuple):
    distance: int
    signs: PathSigns


_POS, _NEG, _BOTH = 1, 2, 3  # bits of a `mask` entry
# sigma_max / sigma_min / PathSigns indexed by a mask entry (never 0)
_SIGMA_MAX = (0, 1, -1, 1)
_SIGMA_MIN = (0, 1, -1, -1)
_SIGNS = (None, PathSigns(True, False), PathSigns(False, True), PathSigns(True, True))


def _cover_arcs(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge lists of the signed double cover: (heads, ends, degrees).

    Cover vertex (v, +) has index 2v and (v, -) index 2v + 1, and an
    edge of sign s joins (x, e) to (y, e * s).  The arcs out of cover
    vertex c are heads[ends[c] - degrees[c] : ends[c]].
    """
    heads, ends = [], []
    for adj in g._adjacency_rows():
        heads += [2 * y + (s < 0) for y, s in adj]  # out of (x, +)
        ends.append(len(heads))
        heads += [2 * y + (s > 0) for y, s in adj]  # out of (x, -)
        ends.append(len(heads))
    ends = np.array(ends, dtype=np.intp)
    degrees = ends.copy()
    degrees[1:] -= ends[:-1]
    return np.array(heads, dtype=np.intp), ends, degrees


def _all_sources(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(dist, mask) for every pair, by one BFS from all sources at once.

    Pairs in different components keep dist -1 and mask 0.
    """
    n = g.vertex_count
    m = 2 * n
    heads, ends, degrees = _cover_arcs(g)
    flat = np.full(n * n, -1, dtype=np.int32)  # dist, row-major
    flat[:: n + 1] = 0
    # (s, c) -> key s * 2V + c, so a key's vertex pair is key >> 1 and its
    # other sign is key ^ 1.  stamp[key] >= 0 once the key has been reached.
    stamp = np.full(n * m, -1, dtype=np.int32)
    frontier = np.arange(0, n * m, m + 2)  # (s, (s, +)) for every source s
    stamp[frontier] = 0
    remaining = n * n - n
    level = 0
    while remaining:
        level += 1
        # every arc out of every frontier key, as a candidate key
        c = frontier % m
        deg = degrees[c]
        arc = (ends[c] - deg.cumsum()).repeat(deg)
        arc += np.arange(arc.size)
        cand = (frontier - c).repeat(deg)
        cand += heads[arc]
        # keep the keys whose vertex pair is first reached at this level
        cand = cand[flat[cand >> 1] < 0]
        if not cand.size:
            break
        flat[cand >> 1] = level
        # drop repeated keys: exactly one copy reads back its own index
        index = np.arange(cand.size, dtype=np.int32)
        stamp[cand] = index
        frontier = cand[stamp[cand] == index]
        # pairs reached with both signs appear twice in the frontier
        remaining -= frontier.size - np.count_nonzero(stamp[frontier ^ 1] >= 0) // 2
    dist = flat.reshape(n, n)
    mask = np.packbits(stamp.reshape(n, n, 2) >= 0, axis=2, bitorder="little").reshape(n, n)
    dist.setflags(write=False)
    mask.setflags(write=False)
    return dist, mask


def _reach_table(g: SignedGraph, source: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs (dist, mask), cached on the (immutable) graph.

    On a disconnected graph this raises DisconnectedError naming the
    first vertex unreachable from `source` (every source misses one);
    the partial table is cached too, so the next call raises at once.
    """
    table = g._cache.get("reach_table")
    if table is None:
        table = g._cache.get("reach_partial") or _all_sources(g)
        missing = np.flatnonzero(table[0][source] < 0)
        if missing.size:
            g._cache["reach_partial"] = table
            raise DisconnectedError(f"vertex {missing[0]} unreachable from {source}")
        g._cache["reach_table"] = table
    return table


def sign_reachability(g: SignedGraph, source: int) -> list[Reach]:
    """Distance and shortest-path sign set from `source` to every vertex.

    Raises DisconnectedError when some vertex is unreachable.  The
    source itself is at distance 0 with sign set {+1} (the empty path).
    The first call on a graph builds the whole all-pairs table, O(V * E)
    work for all V sources at once (see the module docstring); later
    calls, for any source, read one row of it.
    """
    g._check_vertex(source)
    dist, mask = _reach_table(g, source)
    return [Reach(d, _SIGNS[m]) for d, m in zip(dist[source].tolist(), mask[source].tolist())]


def distance_matrices(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(D_max, D_min) of a connected graph: int64 V x V arrays whose entry
    (u, v) is sigma_max(u, v) * d(u, v), resp. sigma_min(u, v) * d(u, v)."""
    dist, mask = _reach_table(g)
    d = dist.astype(np.int64)
    dmax = np.where(mask & _POS, d, -d)
    dmin = np.where(mask & _NEG, -d, d)
    return dmax, dmin


def is_compatible_pair(g: SignedGraph, u: int, v: int) -> bool:
    """True when all shortest u-v paths share one sign (true when u == v)."""
    g._check_vertex(u)
    g._check_vertex(v)
    return int(_reach_table(g)[1][u, v]) != _BOTH


def is_compatible(g: SignedGraph) -> bool:
    return first_incompatible_pair(g) is None


def first_incompatible_pair(g: SignedGraph) -> tuple[int, int] | None:
    """Lexicographically first pair u < v with shortest paths of both signs."""
    # the first hit in row-major order has u < v, as the mask is symmetric
    i = _reach_table(g)[1].tobytes().find(_BOTH)
    return None if i < 0 else divmod(i, g.vertex_count)


def diameter(g: SignedGraph) -> int:
    return int(_reach_table(g)[0].max())


def shortest_path_with_sign(g: SignedGraph, u: int, v: int, sign: int) -> tuple[int, ...] | None:
    """Lexicographically least shortest u-v path of the requested sign.

    Returns None when no shortest u-v path has that sign.  Greedy
    reconstruction over the shortest-path DAG: at each step take the
    smallest next vertex from which the remaining sign requirement is
    still achievable (checked against the sign row of v).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dist, mask = _reach_table(g)
    to_v = dist[v].tolist()
    signs_v = mask[v].tolist()
    if u == v:
        return (u,) if sign == 1 else None
    if not signs_v[u] & (_POS if sign > 0 else _NEG):
        return None
    path = [u]
    x = u
    acc = 1
    # y continues a shortest u-v path from x iff it is one step closer to v
    for rest in range(to_v[u] - 1, -1, -1):
        for y, s in g.neighbors(x):
            if to_v[y] != rest:
                continue
            need = sign * acc * s  # sign still required on the y..v stretch
            if signs_v[y] & (_POS if need > 0 else _NEG):
                path.append(y)
                acc *= s
                x = y
                break
        else:  # pragma: no cover - the invariant above guarantees progress
            raise AssertionError("sign-constrained reconstruction got stuck")
    return tuple(path)
