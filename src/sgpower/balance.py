"""Balance, switching certificates, and path transfer between a graph
and its powers.

A connected signed graph is balanced iff its vertices can be labeled
+1/-1 so that every edge sign is the product of its endpoint labels
(equivalently: no negative cycle).  `is_balanced` produces one of the
two certificates: the labeling when balanced, a negative cycle when
not.  The labeling comes from a BFS spanning tree (label = sign of the
tree path from the root); any non-tree edge violating the labels closes
a negative cycle with the tree.

`lift_path` moves a path of the base graph into a unique n-th power by
cutting it into blocks of n edges; `project_path` moves a path of the
power back down by concatenating the recorded witness paths of its
edges, which in general yields a walk.  For shortest paths these two
constructions preserve signs and have tightly bounded lengths; the
randomized harness exercises exactly those statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DisconnectedError,
    MissingWitnessError,
    NonUniquePowerError,
    NotAPathError,
    SignedGraph,
    _exponent,
    bfs,
    path_sign,
)
from .power import Witnesses, is_power_unique


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    witness: tuple[int, ...] | None = None  # closed negative cycle, first == last
    switching_labels: tuple[int, ...] | None = None


def is_balanced(g: SignedGraph) -> BalanceReport:
    """Balance test with certificate (connected input).

    Balanced: returns the switching labels, with label(0) = +1.
    Unbalanced: returns a negative cycle as a closed vertex sequence.
    The report is cached on the (immutable) graph: a power or completion
    that is g itself (n = 1, or g complete) asks again.
    """
    report = g._cache.get("balance")
    if report is None:
        report = g._cache["balance"] = _balance_report(g)
    return report


def _balance_report(g: SignedGraph) -> BalanceReport:
    order, depth, parent = bfs(g)
    if len(order) < g.vertex_count:
        raise DisconnectedError(f"vertex {depth.index(-1)} unreachable from 0")
    label = [1] * g.vertex_count
    for y in order[1:]:  # the root, 0, keeps label +1; a parent comes before its children
        label[y] = label[parent[y]] * g.sign(parent[y], y)
    for u, v, s in g.edges:
        if label[u] * label[v] != s:
            return BalanceReport(balanced=False, witness=_tree_cycle(parent, depth, u, v))
    return BalanceReport(balanced=True, switching_labels=tuple(label))


def _tree_cycle(parent: list[int], depth: list[int], u: int, v: int) -> tuple[int, ...]:
    """Closed cycle made of the tree path u..v plus the edge vu."""
    up_u, up_v = [u], [v]  # the deeper end climbs until the two meet
    while up_u[-1] != up_v[-1]:
        if depth[up_u[-1]] >= depth[up_v[-1]]:
            up_u.append(parent[up_u[-1]])
        else:
            up_v.append(parent[up_v[-1]])
    return tuple(up_u + up_v[-2::-1] + [u])


def lift_path(g: SignedGraph, p: Sequence[int], n: int) -> tuple[int, ...]:
    """Path of the unique n-th power covering p by blocks of n edges.

    The result has length ceil(k/n) where k = len(p) - 1.  When p is a
    shortest path its blocks are shortest too, so the lifted path keeps
    the sign of p.
    """
    n = _exponent(n)
    path_sign(g, p)  # validates p
    if not is_power_unique(g, n):
        raise NonUniquePowerError(f"the {n}-th power of the graph is not unique")
    lifted = list(p[::n])
    if (len(p) - 1) % n != 0:
        lifted.append(p[-1])
    return tuple(lifted)


def project_path(witnesses: Witnesses, p: Sequence[int]) -> tuple[int, ...]:
    """Walk of the base graph obtained by splicing the witness of each
    edge of p (a path of the power graph).

    Witness keys are canonical (u, v) with u < v; each witness runs from
    u to v and is reversed as needed.  The result can repeat vertices.
    A one-vertex p is checked against the map's `vertex_count`, if it has one.
    """
    if len(p) == 0:
        raise NotAPathError("empty vertex sequence")
    count = getattr(witnesses, "vertex_count", None)
    if len(p) == 1 and count is not None and not 0 <= p[0] < count:
        raise NotAPathError(f"vertex {p[0]} outside [0, {count})")
    if len(set(p)) != len(p):
        raise NotAPathError("repeated vertex; not a path")
    walk: list[int] = [p[0]]
    for a, b in zip(p, p[1:]):
        key = (a, b) if a < b else (b, a)
        w = witnesses.get(key)
        if w is None:
            raise MissingWitnessError(f"no witness recorded for power edge {key}")
        seg = w if w[0] == a else w[::-1]
        walk.extend(seg[1:])
    return tuple(walk)
