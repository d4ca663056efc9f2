"""Named faults that `verify` must catch.

Each row breaks one part of the library with a monkeypatch and names the
`verify` keys whose pass count must drop below the trial count on the
reference run (`--trials 200 --seed 42`).  `l3` fails on that run without
any fault, so no row names it.  A key that passes every trial under a
fault does not check what that fault breaks.

Each row also pins what its keys report under the fault: a sha256 over
each named key's pass count, sorted notes and (trial, failure line)
pairs, so a reworded failure line shows here as well as a changed count.

`t27` has content in only about 4 of the 200 trials (a base that is
incompatible with a unique power of exponent 2 or more below its
diameter), so few faults can reach it.  `unique_at_d0` does, and drops
it to 196/200; no other row moves it.

A witness of either sign (`power.shortest_path_with_sign` returning the
least shortest path of any sign) is a fault no key sees: on the
reference run every key keeps its unfaulted count and notes.  `le`
projects only unique powers, and every pair of a unique power has one
sign, so its witnesses come out the same; `l1` lifts without witnesses,
and no other key reads one.  `test_power.py`'s
`test_a_sign_blind_witness_fails_the_witness_check` catches it with the
witness check of `test_witnesses_realize_their_edges`.
"""

import hashlib
import importlib

import numpy as np
import pytest

from sgpower import PathSigns, Reach, SignedGraph, distance, harness, oracle, spectra
from sgpower.core import bfs
from sgpower.distance import _SIGMA_MIN, _reach_table
from sgpower.harness import run_theorem

power_module = importlib.import_module("sgpower.power")
balance_module = importlib.import_module("sgpower.balance")

_TRIALS, _SEED = 200, 42


def _flipped_completion(monkeypatch):
    """`_table_graph`'s all-pairs branch (n >= diameter) flips every pair it adds to g."""
    build = power_module._table_graph

    def flipped(g, n, sigma):
        out = build(g, n, sigma)
        if n == 1 or n < _reach_table(g).diameter:
            return out
        return SignedGraph(g.vertex_count, [
            (u, v, s if g.has_edge(u, v) else -s) for u, v, s in out.edges
        ])

    monkeypatch.setattr(power_module, "_table_graph", flipped)


def _unique_at_d0(monkeypatch):
    """Uniqueness read as n <= d0: the first exponent with an incompatible pair counts as unique."""

    def unique(g, n):
        d0 = _reach_table(g).d0
        return d0 is None or n <= d0

    for module in (power_module, harness, balance_module):
        monkeypatch.setattr(module, "is_power_unique", unique)


def _every_square_non_unique(monkeypatch):
    """`is_power_unique` reads every square as non-unique."""
    unique = power_module.is_power_unique
    monkeypatch.setattr(power_module, "is_power_unique", lambda g, n: n != 2 and unique(g, n))


def _max_power_by_sigma_min(monkeypatch):
    """The max power, its witnesses and the max completion signed by sigma_min."""
    monkeypatch.setattr(power_module, "_SIGMA_MAX", _SIGMA_MIN)


def _diameter_one_too_low(monkeypatch):
    """Every sign table records its diameter one too low; reading a witness then raises."""
    kernel = distance._all_sources
    monkeypatch.setattr(
        distance, "_all_sources", lambda gs: [t._replace(diameter=t.diameter - 1) for t in kernel(gs)]
    )


def _single_signed_oracle(monkeypatch):
    """`oracle_reachability` drops the negative sign of every pair that has both."""
    reach = oracle.oracle_reachability

    def single(g, source, *args):
        return [
            Reach(r.distance, PathSigns(True, False)) if r.signs == PathSigns(True, True) else r
            for r in reach(g, source, *args)
        ]

    for module in (oracle, harness):
        monkeypatch.setattr(module, "oracle_reachability", single)


def _corpus_ignores_compatible(monkeypatch):
    """The corpus generator's `_meets` ignores "compatible"."""
    meets = oracle._meets
    monkeypatch.setattr(oracle, "_meets", lambda g, require: meets(g, require - {"compatible"}))


def _positive_cover(monkeypatch):
    """`_cover_arcs` reads every edge as positive; `le`'s witness search then gets stuck."""
    arcs = distance._cover_arcs
    monkeypatch.setattr(distance, "_cover_arcs", lambda gs, n: arcs(
        [SignedGraph(g.vertex_count, [(u, v, 1) for u, v, _ in g.edges]) for g in gs], n
    ))


def _every_graph_balanced(monkeypatch):
    """`_balance_report` calls an unbalanced graph balanced, labelled by its BFS tree."""
    report = balance_module._balance_report

    def balanced(g):
        found = report(g)
        if found.balanced:
            return found
        order, _, parent = bfs(g)
        label = [1] * g.vertex_count
        for y in order[1:]:
            label[y] = label[parent[y]] * g.sign(parent[y], y)
        return balance_module.BalanceReport(balanced=True, switching_labels=tuple(label))

    monkeypatch.setattr(balance_module, "_balance_report", balanced)


def _spectral_test_ignores_signs(monkeypatch):
    """`_is_sign_outer_product` compares |B| with |B[0] B[0]^T|, so every compatible graph reads balanced."""
    monkeypatch.setattr(
        spectra, "_is_sign_outer_product", lambda b: np.array_equal(np.abs(b), np.abs(np.outer(b[0], b[0])))
    )


FAULTS = {
    "flipped_completion": (_flipped_completion, ("diam", "l1", "le", "cbp", "sgs", "nbc")),
    "unique_at_d0": (_unique_at_d0, ("t1", "l1", "t27")),
    "every_square_non_unique": (_every_square_non_unique, ("t1", "blcm", "cbp")),
    "max_power_by_sigma_min": (_max_power_by_sigma_min, ("t1", "diam")),
    "diameter_one_too_low": (_diameter_one_too_low, ("diam", "le", "sgs")),
    "single_signed_oracle": (_single_signed_oracle, ("t1",)),
    "corpus_ignores_compatible": (_corpus_ignores_compatible, ("sgs",)),
    "positive_cover": (_positive_cover, ("t1", "diam", "l1", "le", "cbp", "sgs", "nbc")),
    "every_graph_balanced": (_every_graph_balanced, ("cbp", "sgs", "nbc")),
    "spectral_test_ignores_signs": (_spectral_test_ignores_signs, ("sgs",)),
}


# fault -> sha256 of its keys' reports, in the row's key order
DIGESTS = {
    "corpus_ignores_compatible": "82363f51b5ccc8ceebe884a20bf22e24c7a9424ea90f7797109475a5613f726b",
    "diameter_one_too_low": "80b3b0dee4f44ffe46d86eba9834d4fd218442ed039fb92a67b65b4100d20999",
    "every_graph_balanced": "a8b210a7a6de6123e66473268a0e099e32efcc3ef5f8380fe298ddd09054f39a",
    "every_square_non_unique": "8196eef206edbbc9fcf7bb9eace89815fdafadd0c03eb828d5edb5404594f37d",
    "flipped_completion": "3ab0557eb5ff1b019efeef834112e96f90ecdab7ecdbbc01c6ec4acd98abe91e",
    "max_power_by_sigma_min": "282af695bad16398e8c697d3b81040b537b890c5cf733adf409a245043c63229",
    "positive_cover": "71c69122e50ebbafd1fcbfb627ff958babb165a82c83af5a4a3dcf906e110ad4",
    "single_signed_oracle": "7fab1542283bf8a487e7f853f697605ccf064a2ecf86104ccf8c61103c0e9abf",
    "spectral_test_ignores_signs": "09f10393c1938ec06325db63dc214faf6def46faf8296dd4452893e009c6282b",
    "unique_at_d0": "e68ea7e73783207c09f32aa42c0005d4eb4641e63bb0a3de6d65d0600eb04709",
}


def _digest(reports):
    rows = [
        (r.name, r.passed, sorted(r.notes.items()), [(c.trial, c.description) for c in r.failures])
        for r in reports
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verify_catches_the_fault(monkeypatch, fault):
    inject, keys = FAULTS[fault]
    inject(monkeypatch)
    reports = [run_theorem(key, _TRIALS, _SEED) for key in keys]
    for key, report in zip(keys, reports):
        assert report.passed < _TRIALS, key
    assert _digest(reports) == DIGESTS[fault]
