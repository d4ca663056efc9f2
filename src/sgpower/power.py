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

Every power edge has a witness: the lexicographically least shortest
path between its ends that realizes the edge's sign.  The witnesses
drive path projection from a power back into its base graph.  They are
built on first access, one edge at a time, and then kept: `power()`
itself reconstructs no path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .core import (
    BadExponentError,
    NotCompatibleError,
    PreconditionViolatedError,
    SignedGraph,
)
from .distance import (
    _BOTH,
    _SIGMA_MAX,
    _SIGMA_MIN,
    _reach_table,
    diameter,
    first_incompatible_pair,
    is_compatible,
    shortest_path_with_sign,
)

Witnesses = Mapping[tuple[int, int], tuple[int, ...]]


class _LazyWitnesses(Mapping):
    """Read-only witness map over the edges of one power.

    `signs` maps each edge (u, v), u < v, to its sign; the witness of an
    edge is computed by `shortest_path_with_sign` on first access and
    cached.
    """

    def __init__(self, g: SignedGraph, signs: Mapping[tuple[int, int], int]):
        self._g = g
        self._signs = signs
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def __getitem__(self, key: tuple[int, int]) -> tuple[int, ...]:
        path = self._paths.get(key)
        if path is None:
            sign = self._signs[key]
            path = self._paths[key] = shortest_path_with_sign(self._g, key[0], key[1], sign)
        return path

    def __contains__(self, key: object) -> bool:
        return key in self._signs  # without building the witness

    def __iter__(self):
        return iter(self._signs)

    def __len__(self) -> int:
        return len(self._signs)


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
    dist, mask = _reach_table(g)
    edges_max = []
    edges_min = []
    unique = True
    for u, (drow, mrow) in enumerate(zip(dist.tolist(), mask.tolist())):
        for v in range(u + 1, g.vertex_count):
            if drow[v] > n:
                continue
            m = mrow[v]
            if m == _BOTH:
                unique = False
            edges_max.append((u, v, _SIGMA_MAX[m]))
            edges_min.append((u, v, _SIGMA_MIN[m]))
    power_max = SignedGraph(g.vertex_count, edges_max)
    power_min = SignedGraph(g.vertex_count, edges_min)
    return PowerResult(
        n=n,
        power_max=power_max,
        power_min=power_min,
        unique=unique,
        # the powers' edge-sign maps are exactly the witness keys and signs
        witnesses_max=_LazyWitnesses(g, power_max._sign_by_pair),
        witnesses_min=_LazyWitnesses(g, power_min._sign_by_pair),
    )


def is_power_unique(g: SignedGraph, n: int) -> bool:
    """True iff every pair at distance in (0, n] is compatible."""
    if n < 1:
        raise BadExponentError(f"power exponent must be >= 1, got {n}")
    dist, mask = _reach_table(g)
    return not ((mask == _BOTH) & (dist <= n)).any()


def associated_complete(g: SignedGraph, mode: str) -> SignedGraph:
    """Complete graph on V(g) with distance-derived signs on non-edges."""
    if mode not in ("max", "min", "pm"):
        raise ValueError(f"mode must be 'max', 'min' or 'pm', got {mode!r}")
    mask = _reach_table(g)[1]
    if mode == "pm":
        bad = first_incompatible_pair(g)
        if bad is not None:
            raise NotCompatibleError(
                f"pair {bad} has shortest paths of both signs; "
                "the common-sign completion is undefined"
            )
    sigma = _SIGMA_MIN if mode == "min" else _SIGMA_MAX  # "pm": the two coincide
    signs = g._sign_by_pair  # an existing edge keeps its sign (+1 or -1, never falsy)
    edges = []
    for u, row in enumerate(mask.tolist()):
        for v in range(u + 1, g.vertex_count):
            edges.append((u, v, signs.get((u, v)) or sigma[row[v]]))
    return SignedGraph(g.vertex_count, edges)


def check_diameter_power_theorem(g: SignedGraph, n: int) -> bool:
    """With diameter(g) <= n, the n-th powers equal the completions, and
    for a compatible graph the (unique) power is the common completion."""
    if n < 1:
        raise BadExponentError(f"power exponent must be >= 1, got {n}")
    diam = diameter(g)
    if diam > n:
        raise PreconditionViolatedError(f"diameter {diam} exceeds n = {n}")
    pr = power(g, n)
    return (
        pr.power_max == associated_complete(g, "max")
        and pr.power_min == associated_complete(g, "min")
        and (not is_compatible(g) or pr.power_max == associated_complete(g, "pm"))
    )
