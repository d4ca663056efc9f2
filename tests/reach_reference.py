"""Per-source BFS and sign DP: the exact reference for `sgpower.distance`.

For one source this runs a BFS and then a dynamic program in level
order over the shortest-path DAG: the achievable sign set of a vertex
is the union, over DAG predecessors p, of the sign set of p multiplied
by the sign of the connecting edge.  Each source costs O(V + E), but
the loop is pure Python and keeps one object per vertex pair, so it is
kept for the tests only, where it cross-checks the all-sources kernel
behind `sgpower.distance._reach_table` pair by pair.
"""

from __future__ import annotations

from collections import deque

from sgpower import DisconnectedError, PathSigns, Reach, SignedGraph


def sign_reachability(g: SignedGraph, source: int) -> list[Reach]:
    """Distance and shortest-path sign set from `source` to every vertex.

    Raises DisconnectedError when some vertex is unreachable.  The
    source itself is at distance 0 with sign set {+1} (the empty path).
    """
    g._check_vertex(source)
    n = g.vertex_count
    dist = [-1] * n
    dist[source] = 0
    order = [source]
    queue = deque((source,))
    while queue:
        x = queue.popleft()
        for y, _ in g.neighbors(x):
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                order.append(y)
                queue.append(y)
    if len(order) < n:
        missing = next(v for v in range(n) if dist[v] < 0)
        raise DisconnectedError(f"vertex {missing} unreachable from {source}")
    pos = [False] * n
    neg = [False] * n
    pos[source] = True
    # BFS order lists each vertex after all vertices of smaller level,
    # so every DAG predecessor is finished before its successors.
    for v in order[1:]:
        dv = dist[v]
        p = ng = False
        for w, s in g.neighbors(v):
            if dist[w] == dv - 1:
                if s > 0:
                    p |= pos[w]
                    ng |= neg[w]
                else:
                    p |= neg[w]
                    ng |= pos[w]
        pos[v] = p
        neg[v] = ng
    return [Reach(dist[v], PathSigns(pos[v], neg[v])) for v in range(n)]


def reach_table(g: SignedGraph) -> tuple[list[Reach], ...]:
    """All-pairs table, one source at a time, in source order."""
    return tuple(sign_reachability(g, s) for s in range(g.vertex_count))
