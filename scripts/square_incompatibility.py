"""Squares of all-negative odd cycles can lose compatibility.

The all-negative cycle C_k (k odd, k >= 5) is compatible and its square
is unique.  For k = 3 (mod 4), k >= 7, the square is incompatible; for
k = 1 (mod 4) it stays compatible.  This script reproduces the k = 7
case pair by pair, then sweeps odd k and reports where the first
incompatible pair of the square shows up and how the completion of the
base graph differs from the completion of its square.

Run:  python scripts/square_incompatibility.py [--max-k 15]
"""

from __future__ import annotations

import argparse

from sgpower import (
    SignedGraph,
    associated_complete,
    distance_matrices,
    first_incompatible_pair,
    is_compatible,
    power,
    shortest_path_with_sign,
)


def all_negative_cycle(k: int) -> SignedGraph:
    edges = [(i, (i + 1) % k, -1) for i in range(k)]
    return SignedGraph(k, edges)


def show_c7() -> None:
    g = all_negative_cycle(7)
    print("== all-negative 7-cycle ==")
    print(f"compatible: {is_compatible(g)}")
    pr = power(g, 2)
    print(f"square unique: {pr.unique}")
    sq = pr.power_max
    print(f"square compatible: {is_compatible(sq)}")
    pair = first_incompatible_pair(sq)
    assert pair is not None
    u, v = pair
    pos = shortest_path_with_sign(sq, u, v, +1)
    neg = shortest_path_with_sign(sq, u, v, -1)
    print(f"first incompatible pair of the square: {u} {v}")
    print(f"  a positive shortest path: {pos}")
    print(f"  a negative shortest path: {neg}")
    print()


def completion_gap(g: SignedGraph, n: int) -> int:
    """Number of pairs where K^max of g and K^max of its n-th power disagree."""
    comp_base = associated_complete(g, "max")
    comp_power = associated_complete(power(g, n).power_max, "max")
    return sum(
        1
        for u in range(g.vertex_count)
        for v in range(u + 1, g.vertex_count)
        if comp_base.sign(u, v) != comp_power.sign(u, v)
    )


def sweep(max_k: int) -> None:
    print("== odd all-negative cycles, n = 2 ==")
    print(f"{'k':>3} {'unique':>6} {'sq.compat':>9} {'first pair':>10} {'gap(max)':>8}")
    for k in range(5, max_k + 1, 2):
        g = all_negative_cycle(k)
        pr = power(g, 2)
        sq = pr.power_max
        pair = first_incompatible_pair(sq) if pr.unique else None
        compat = is_compatible(sq)
        gap = completion_gap(g, 2)
        pair_txt = f"{pair[0]},{pair[1]}" if pair else "-"
        print(f"{k:>3} {str(pr.unique):>6} {str(compat):>9} {pair_txt:>10} {gap:>8}")
    print()
    print("gap(max) counts pairs where the max-completion of the cycle and of")
    print("its square disagree; any nonzero entry is a counterexample to the")
    print("identity K^max(g) = K^max(g^2).")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=int, default=15, help="largest cycle length")
    args = ap.parse_args()
    show_c7()
    sweep(args.max_k)

    # sanity: the distance matrices of the 7-cycle itself are equal
    g = all_negative_cycle(7)
    dmax, dmin = distance_matrices(g)
    assert (dmax == dmin).all(), "the base cycle must be compatible"


if __name__ == "__main__":
    main()
