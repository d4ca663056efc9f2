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
same construction, which `check_diameter_power_theorem` verifies.

Every power edge records a witness: the lexicographically least
shortest path between its ends that realizes the edge's sign.  The
witnesses drive path projection from a power back into its base graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    BadExponentError,
    NotCompatibleError,
    PreconditionViolatedError,
    SignedGraph,
)
from .distance import (
    _reach_table,
    diameter,
    first_incompatible_pair,
    shortest_path_with_sign,
)

Witnesses = dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class PowerResult:
    n: int
    power_max: SignedGraph
    power_min: SignedGraph
    unique: bool
    witnesses_max: Witnesses = field(repr=False)
    witnesses_min: Witnesses = field(repr=False)


def power(g: SignedGraph, n: int) -> PowerResult:
    """Both n-th powers of a connected signed graph, with witnesses."""
    if n < 1:
        raise BadExponentError(f"power exponent must be >= 1, got {n}")
    table = _reach_table(g)
    edges_max = []
    edges_min = []
    wit_max: Witnesses = {}
    wit_min: Witnesses = {}
    unique = True
    for u in range(g.vertex_count):
        row = table[u]
        for v in range(u + 1, g.vertex_count):
            d, signs = row[v]
            if d > n:
                continue
            smax = signs.sigma_max
            smin = signs.sigma_min
            if smax != smin:
                unique = False
            edges_max.append((u, v, smax))
            edges_min.append((u, v, smin))
            wit_max[(u, v)] = shortest_path_with_sign(g, u, v, smax)
            wit_min[(u, v)] = shortest_path_with_sign(g, u, v, smin)
    return PowerResult(
        n=n,
        power_max=SignedGraph(g.vertex_count, edges_max),
        power_min=SignedGraph(g.vertex_count, edges_min),
        unique=unique,
        witnesses_max=wit_max,
        witnesses_min=wit_min,
    )


def is_power_unique(g: SignedGraph, n: int) -> bool:
    """True iff every pair at distance in (0, n] is compatible."""
    if n < 1:
        raise BadExponentError(f"power exponent must be >= 1, got {n}")
    table = _reach_table(g)
    for u in range(g.vertex_count):
        row = table[u]
        for v in range(u + 1, g.vertex_count):
            d, signs = row[v]
            if 0 < d <= n and not signs.is_single:
                return False
    return True


def associated_complete(g: SignedGraph, mode: str) -> SignedGraph:
    """Complete graph on V(g) with distance-derived signs on non-edges."""
    if mode not in ("max", "min", "pm"):
        raise ValueError(f"mode must be 'max', 'min' or 'pm', got {mode!r}")
    table = _reach_table(g)
    if mode == "pm":
        bad = first_incompatible_pair(g)
        if bad is not None:
            raise NotCompatibleError(
                f"pair {bad} has shortest paths of both signs; "
                "the common-sign completion is undefined"
            )
    edges = []
    for u in range(g.vertex_count):
        row = table[u]
        for v in range(u + 1, g.vertex_count):
            if g.has_edge(u, v):
                edges.append((u, v, g.sign(u, v)))
            elif mode == "min":
                edges.append((u, v, row[v].signs.sigma_min))
            else:  # "max", or "pm" where the two coincide
                edges.append((u, v, row[v].signs.sigma_max))
    return SignedGraph(g.vertex_count, edges)


def check_diameter_power_theorem(g: SignedGraph, n: int) -> bool:
    """With diameter(g) <= n, the n-th powers equal the completions."""
    if n < 1:
        raise BadExponentError(f"power exponent must be >= 1, got {n}")
    diam = diameter(g)
    if diam > n:
        raise PreconditionViolatedError(f"diameter {diam} exceeds n = {n}")
    pr = power(g, n)
    return pr.power_max == associated_complete(g, "max") and pr.power_min == associated_complete(
        g, "min"
    )
