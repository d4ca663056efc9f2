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

One search serves a batch of B graphs at once (`build_tables`): each is
padded to N vertices, N the largest vertex count of the batch, and source
s of graph i owns the block of keys s * 2NB + 2N * i + c, c = 2v for
(v, +) and 2v + 1 for (v, -).  So `key >> 1` is the vertex pair (s, i, v)
and `key ^ 1` the same pair with the other sign, a key expands only into
its own block, and `key % 2NB` is its cover vertex in the batch: a level
makes the same numpy calls for B graphs as for one, and a graph alone is
the batch of one.  The table holds B * N^2 padded pairs, not the
(B * N)^2 of the graphs' disjoint union.  A level whose push would expand
more candidates than half its arcs times its 64-source words, and than
_RUN_BUDGET // 16, runs dense (direction-optimizing BFS, Beamer, Asanovic
and Patterson, SC 2012): each cover vertex ORs the packed source bits of
its in-neighbours, the heads of its own arcs, until the frontier narrows
again (see `_dense`).  Paths and `verify`'s batches never go dense.

Cost: a key enters the frontier at most once, so one pass follows each
of the 4E cover arcs at most once per source: O(V * E) work in
`diameter` vectorised levels, whatever the diameter.  Memory: about 11
bytes per padded pair, 2 for `dist`, 1 for `mask` and 8 for the key
stamps, plus about 32 bytes per frontier key and 30 per candidate of
one run of a push level, or about 1.5 bytes per padded pair and one
block of temporaries while levels run dense.  A random graph of degree 6
at V=3000 peaks at about 112 MiB, 86 MiB of it `dist` and the stamps.  The result is
cached on the (immutable) graph as one `_Table` record: two arrays, `dist`
(int16 hop distances, -1 when unreached; int32 from 2^15 vertices) and
`mask` (uint8, bit 0 set when a positive shortest path exists, bit 1 when
a negative one does), and three facts of the build: the diameter, d0,
the first level that reached a pair with both signs (None if none), and
whether the graph is connected.  `build_tables` alone builds and caches
tables; every reader goes through `_reach_table`, and one that scans the
whole table reads it in the blocks of `_row_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import DisconnectedError, MissingWitnessError, SignedGraph


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


class _Table(NamedTuple):
    """One graph's sign table and the facts of its build."""

    dist: np.ndarray
    mask: np.ndarray
    diameter: int  # the largest finite distance
    d0: int | None  # the least distance of a pair with both signs
    connected: bool


_POS, _NEG, _BOTH = 1, 2, 3  # bits of a `mask` entry
_RUN_BUDGET = 1 << 15  # candidates one run of a BFS level expands, and padded pairs of one batch
# sigma_max / sigma_min / PathSigns indexed by a mask entry (never 0)
_SIGMA_MAX = (0, 1, -1, 1)
_SIGMA_MIN = (0, 1, -1, -1)
_SIGNS = (None, PathSigns(True, False), PathSigns(False, True), PathSigns(True, True))


def _cover_arcs(graphs: Sequence[SignedGraph], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge lists of the batch's signed double covers: (steps, ends, degrees).

    Cover vertex (v, +) of graph i has index 2n*i + 2v and (v, -) index
    2n*i + 2v + 1, and an edge of sign s joins (x, e) to (y, e * s).  An
    arc is stored as the step from its tail to its head, so the arcs out
    of cover vertex c lead to c + steps[ends[c] - degrees[c] : ends[c]],
    in no set order (the table does not depend on it).
    """
    maps = [g._sign_by_pair for g in graphs]
    sizes = list(map(len, maps))
    # (u, +) and (v, +) of each edge u < v, whose four arcs leave (u, +), (u, -), (v, +) and (v, -)
    cover = 2 * np.fromiter(chain.from_iterable(chain.from_iterable(maps)), np.intp).reshape(-1, 2)
    cover += np.arange(0, 2 * n * len(maps), 2 * n).repeat(sizes)[:, None]
    neg = np.fromiter(chain.from_iterable(map(dict.values, maps)), np.intp, len(cover)) < 0
    tails = (cover[:, [0, 0, 1, 1]] + [0, 1, 0, 1]).ravel()
    heads = (cover[:, [1, 1, 0, 0]] + (neg[:, None] ^ [0, 1, 0, 1])).ravel()
    degrees = np.bincount(tails, minlength=2 * n * len(maps))
    return (heads - tails)[tails.argsort()], degrees.cumsum(), degrees


def _runs(frontier: np.ndarray, cum: np.ndarray, degrees: np.ndarray, m: int, block: int):
    """Cut a frontier sorted by source, whose keys' cover degrees run up to
    `cum`, into runs of the most whole sources that fit in _RUN_BUDGET
    candidates, at least one source each; a source owns `block` keys.
    Yields a run's keys, their cover vertices (key % m) and degrees, and
    the running total from the run's start.
    """
    lo = 0
    while lo < frontier.size:
        base = cum[lo - 1] if lo else 0
        hi = np.searchsorted(cum, base + _RUN_BUDGET, "right")
        # back off to the first key of a source: source q owns keys [q * block, q * block + block)
        if hi < frontier.size:
            hi = np.searchsorted(frontier, max(frontier[hi] // block, frontier[lo] // block + 1) * block)
        keys = frontier[lo:hi]
        c = keys % m
        yield keys, c, degrees[c], cum[lo:hi] - base
        lo = hi


def _wide(n: int, arcs: int) -> int:  # candidates past which a level runs dense; tiny batches never do
    return max(arcs * -(-n // 64) // 2, _RUN_BUDGET // 16)  # a push candidate costs about 2 dense arc-words


def _dense(frontier, flat, stamp, n: int, level: int, remaining: int, d0, steps, degrees):
    """Run levels densely from `level` while the next push would pass `_wide`, and
    return the keys (none unless push levels follow), the level and the pairs left.
    A level reads and writes only words of 64 sources, in blocks of about 32 * _RUN_BUDGET
    source slots: `bits` and `reached` by cover vertex, `unseen` and `planes` by pair, plane
    i bit i of 1 + the pair's level.  `stamp` and `flat` are written when the stretch ends."""
    flat, stamp = flat.reshape(n, -1), stamp.reshape(n, -1)
    m, arcs = stamp.shape[1], steps.size
    q = min(-(-n // 64), max(1, _RUN_BUDGET // (2 * m)))  # words of a block
    blocks = range(0, n, 64 * q)  # each block's first source

    def unpack(words, j):  # block j of the words as a 0/1 row per source
        return np.unpackbits(words[j].view(np.uint8).T, axis=0, bitorder="little")[: n - blocks[j]]

    bits, unseen = np.zeros((len(blocks), m, q), np.uint64), np.zeros((len(blocks), m // 2, q), np.uint64)
    for j, s in enumerate(blocks):
        x, rows = np.zeros((m, 64 * q), dtype=bool), flat[s : s + 64 * q]
        here = frontier[slice(*np.searchsorted(frontier, (s * m, (s + 64 * q) * m)))] - s * m
        x[here % m, here // m] = True
        bits[j].view(np.uint8)[:] = np.packbits(x, axis=1, bitorder="little")
        packed = np.packbits((rows < 0).T.copy(), axis=1, bitorder="little")
        unseen[j].view(np.uint8)[:, : packed.shape[1]] = packed
    tails = np.arange(m).repeat(degrees) + steps  # the cover is symmetric: into c from its arcs' heads
    has = np.flatnonzero(degrees)
    starts = (degrees.cumsum() - degrees)[has]
    reached, planes, wide = np.zeros_like(bits), [], _wide(n, arcs)
    for level in count(level):
        old, bits, keys = bits.view(f"V{8 * q}")[..., 0], np.zeros_like(bits), 0  # a block's row as one item
        planes += [np.zeros_like(unseen) for _ in range((level + 1).bit_length() - len(planes))]
        for j, new in enumerate(bits):
            new[has] = np.bitwise_or.reduceat(old[j].take(tails).view(np.uint64).reshape(-1, q), starts)
            signs = new.reshape(-1, 2, q)
            signs &= unseen[j][:, None]
            pairs = signs[:, 0] | signs[:, 1]
            unseen[j] ^= pairs
            reached[j] |= new
            for plane in (plane for i, plane in enumerate(planes) if level + 1 >> i & 1):
                plane[j] |= pairs
            keys += (k := np.count_nonzero(np.unpackbits(new.view(np.uint8))))
            remaining -= (p := np.count_nonzero(np.unpackbits(pairs.view(np.uint8))))
            if k > p and not d0.all():  # some pair took both signs
                d0[(signs[:, 0] & signs[:, 1]).reshape(len(d0), -1).any(axis=1) & (d0 == 0)] = level
        if not remaining or keys * arcs <= wide * has.size:  # next push: keys * mean degree with arcs
            break
    for j, s in enumerate(blocks):  # each key reached here was at stamp -1, and its pair at dist -1
        stamp[s : s + 64 * q] += unpack(reached, j)
        flat[s : s + 64 * q] += sum(unpack(p, j) * flat.dtype.type(1 << i) for i, p in enumerate(planes))
    if not (remaining and keys):
        return frontier[:0], level, remaining
    w = np.flatnonzero(bits)  # the words with a key of the next frontier, then their bits
    at = np.flatnonzero(np.unpackbits(bits.ravel()[w].view(np.uint8), bitorder="little").view(bool))
    w, bit = w[at >> 6], at & 63
    return np.sort((64 * (w // (m * q) * q + w % q) + bit) * m + w // q % m), level, remaining


def _expand(keys: np.ndarray, c: np.ndarray, deg: np.ndarray, cum: np.ndarray, steps, ends) -> np.ndarray:
    """Every arc out of every key, in the keys' order, as a candidate key:
    c, deg and cum are the keys' cover vertices, their degrees and the
    running total of those, and steps and ends come from `_cover_arcs`."""
    arc = (ends[c] - cum).repeat(deg)
    arc += np.arange(arc.size)
    cand = keys.repeat(deg)
    cand += steps[arc]
    return cand


def _all_sources(graphs: Sequence[SignedGraph]) -> list[_Table]:
    """The `_Table` of each graph, by one BFS from all the sources of all
    the graphs at once.

    Pairs in different components keep dist -1 and mask 0.  The frontier stays
    sorted by source (a key (s * B + i) * 2N + c expands only into keys
    of its own source, and every filter keeps order), so a level is
    expanded in runs of whole sources, each filtered, written and
    de-duplicated before the next: two runs never share a vertex pair.
    A run expands at most _RUN_BUDGET candidates, unless its one source
    alone has more (up to 4E on a dense graph); a level within the
    budget runs whole, and one past `_wide` candidates runs `_dense`.
    """
    b = len(graphs)
    sizes = [g.vertex_count for g in graphs]
    n = max(sizes)
    m = 2 * n * b  # keys of one source row; key % m is a cover vertex of the batch
    # the table first, so a graph too large for memory fails before the cover is built
    flat = np.empty(n * b * n, dtype=np.int16 if n < 1 << 15 else np.int32)  # dist, (s, i, v)
    flat.fill(-1)
    # (s, i, c) -> key s * m + 2N * i + c, so a key's vertex pair is key >> 1
    # and its other sign is key ^ 1.  stamp[key] >= 0 once the key has been reached.
    stamp = np.empty(n * m, dtype=np.int32)
    stamp.fill(-1)
    # (s, i, (s, +)) for every source s of every graph i, padding too (it has no arcs)
    frontier = np.add.outer(np.arange(0, n * (m + 2), m + 2), np.arange(0, m, 2 * n)).ravel()
    flat[frontier >> 1] = 0
    stamp[frontier] = 0
    steps, ends, degrees = _cover_arcs(graphs, n)
    # level 1 follows the arcs out of each source's (s, +): one key per edge
    # end (2E in all), each a new pair reached with one sign, so nothing is filtered
    c = frontier % m
    deg = degrees[c]
    frontier = _expand(frontier, c, deg, deg.cumsum(), steps, ends)
    flat[frontier >> 1] = 1
    stamp[frontier] = 0
    remaining = sum(v * v - v for v in sizes) - frontier.size
    d0 = np.zeros(b, dtype=np.intp)  # 0 until a level reaches a pair with both signs
    pending = b  # graphs whose d0 is still 0
    wide = _wide(n, steps.size)
    level = 1
    while remaining and frontier.size:
        level += 1
        c = frontier % m
        deg = degrees[c]
        cum = deg.cumsum()
        if cum[-1] > wide:
            del c, deg, cum
            frontier, level, remaining = _dense(frontier, flat, stamp, n, level, remaining, d0, steps, degrees)
            pending = b - np.count_nonzero(d0)
            continue
        fits = cum[-1] <= _RUN_BUDGET
        runs = ((frontier, c, deg, cum),) if fits else _runs(frontier, cum, degrees, m, 2 * n)
        parts = []
        for keys, c, deg, cum in runs:
            cand = _expand(keys, c, deg, cum, steps, ends)
            # keep the keys whose vertex pair is first reached at this level
            cand = cand[flat[cand >> 1] < 0]
            flat[cand >> 1] = level
            # drop repeated keys: exactly one copy reads back its own index
            index = np.arange(cand.size, dtype=np.int32)
            stamp[cand] = index
            cand = cand[stamp[cand] == index]
            # pairs reached with both signs appear twice (both in this run)
            both = stamp[cand ^ 1] >= 0
            twice = np.count_nonzero(both)
            remaining -= cand.size - twice // 2
            if twice and pending:
                hit = cand[both] % m // (2 * n)  # the keys' graphs
                d0[hit[d0[hit] == 0]] = level
                pending = b - np.count_nonzero(d0)
            parts.append(cand)
        frontier = cand if fits else np.concatenate(parts)
        del parts, keys  # pieces of the new frontier and a view of the old one
    dist = flat.reshape(n, b, n)
    # a pair's two keys are adjacent, positive first: its mask is reached(+) | 2 * reached(-)
    reached = (stamp >= 0).view(np.uint8)
    reached[1::2] <<= 1
    mask = (reached[0::2] | reached[1::2]).reshape(n, b, n)
    dist.setflags(write=False)
    mask.setflags(write=False)
    connected = [-1 not in dist[0, i, :v].tolist() for i, v in enumerate(sizes)]  # 0 reached all
    facts = zip(sizes, dist.max(axis=(0, 2)).tolist(), d0.tolist(), connected)
    # graph i's table is a view of the batch's, contiguous when the batch is i alone
    return [
        _Table(dist[:v, i, :v], mask[:v, i, :v], diam, d or None, c)
        for i, (v, diam, d, c) in enumerate(facts)
    ]


def _batches(graphs: Iterable[SignedGraph]) -> Iterator[list[SignedGraph]]:
    """Cut a stream of graphs, in order, into batches of B graphs of at most
    N vertices with B * N^2 <= _RUN_BUDGET padded pairs, or of one graph."""
    batch: list[SignedGraph] = []
    n = 0
    for g in graphs:
        if batch and (len(batch) + 1) * max(n, g.vertex_count) ** 2 > _RUN_BUDGET:
            yield batch
            batch, n = [], 0
        batch.append(g)
        n = max(n, g.vertex_count)
    if batch:
        yield batch


def build_tables(graphs: Iterable[SignedGraph]) -> None:
    """Build and cache the sign table of each graph that has none, one BFS per
    batch of `_batches`: the one table writer (`_reach_table` sends a batch of one)."""
    for batch in _batches(g for g in graphs if "reach_table" not in g._cache):
        for g, table in zip(batch, _all_sources(batch)):
            g._cache["reach_table"] = table


def _reach_table(g: SignedGraph, source: int = 0) -> _Table:
    """The graph's `_Table`, built on first call by `build_tables` and cached
    on the (immutable) graph, since every later query reads it again.

    On a disconnected graph this raises DisconnectedError naming the
    first vertex unreachable from `source` (every source misses one);
    the table is cached all the same, so the next call raises at once.
    """
    if "reach_table" not in g._cache:
        build_tables((g,))
    table = g._cache["reach_table"]
    if not table.connected:
        missing = np.flatnonzero(table.dist[source] < 0)
        raise DisconnectedError(f"vertex {missing[0]} unreachable from {source}")
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
    table = _reach_table(g, source)
    return [Reach(d, _SIGNS[m]) for d, m in zip(table.dist[source].tolist(), table.mask[source].tolist())]


def distance_matrices(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(D_max, D_min) of a connected graph: int64 V x V arrays whose entry
    (u, v) is sigma_max(u, v) * d(u, v), resp. sigma_min(u, v) * d(u, v)."""
    table = _reach_table(g)
    d = table.dist.astype(np.int64)
    dmax = np.where(table.mask & _POS, d, -d)
    dmin = np.where(table.mask & _NEG, -d, d)
    return dmax, dmin


def is_compatible_pair(g: SignedGraph, u: int, v: int) -> bool:
    """True when all shortest u-v paths share one sign (true when u == v)."""
    g._check_vertex(u)
    g._check_vertex(v)
    return int(_reach_table(g).mask[u, v]) != _BOTH


def is_compatible(g: SignedGraph) -> bool:
    """True iff no pair is incompatible (so every power is unique): the build's d0 is None."""
    return _reach_table(g).d0 is None


def _row_blocks(v: int) -> Iterator[slice]:
    """Slices of at most _RUN_BUDGET cells of a V x V table's rows, one row at least."""
    rows = max(1, _RUN_BUDGET // v)
    return map(slice, range(0, v, rows), range(rows, v + rows, rows))


def _first_both(table: _Table, n: int | None = None) -> tuple[int, int] | None:
    """Row-major first pair with both signs (and distance <= n), read a block of rows at a time."""
    v = len(table.mask)
    for rows in _row_blocks(v):
        signs = table.mask[rows] if n is None else table.mask[rows] * (table.dist[rows] <= n)
        if (at := signs.tobytes().find(_BOTH)) >= 0:
            return divmod(rows.start * v + at, v)
    return None


def first_incompatible_pair(g: SignedGraph) -> tuple[int, int] | None:
    """Lexicographically first pair u < v with shortest paths of both signs."""
    if is_compatible(g):
        return None
    return _first_both(_reach_table(g))  # u < v, as the mask is symmetric


def diameter(g: SignedGraph) -> int:
    """Largest hop distance: the last level of the table's build."""
    return _reach_table(g).diameter


def shortest_path_with_sign(g: SignedGraph, u: int, v: int, sign: int) -> tuple[int, ...] | None:
    """Lexicographically least shortest u-v path of the requested sign.

    None when no shortest u-v path has that sign.  Greedy walk over the
    shortest-path DAG: each step takes the least next vertex from which
    the sign still needed is reachable, read in place off row v of the
    table, so a call costs O(path length * degree) once the table exists.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    g._check_vertex(u)
    g._check_vertex(v)
    table = _reach_table(g)
    if u == v:
        return (u,) if sign == 1 else None
    to_v = memoryview(table.dist[v])
    signs_v = memoryview(table.mask[v])
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
        else:  # only a table that disagrees with g gets here
            raise MissingWitnessError(f"no shortest {u}-{v} path of sign {sign:+d} past vertex {x}")
    return tuple(path)
