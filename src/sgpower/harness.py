"""Randomized checking of the structural claims on seeded corpora.

`_KEYS` maps each theorem key, in report order, to its check and the
corpora its trials draw from.  `check(key, g, seed, notes)` runs a key's
check on one graph over every applicable power exponent, and gives None
or the failure as one line (a raised `SignedGraphError`'s own line).
`run_theorem` runs `check` over the key's corpus, seeded from the base
seed and the key's position.  All randomness flows through the corpus
generator and, in `l1` and `le` alone, a path-sampling generator seeded
with the trial's seed, so a (theorem, seed, trials, max_vertices)
quadruple always gives the identical report.  Trial graphs come in batches
of at most `distance._RUN_BUDGET` padded vertex pairs, so memory stays
bounded.  One search (`distance.build_tables`) tables a batch before its
graphs are checked, and in `blcm` and `l3` the powers a trial's loop reads.

Keys:

    t1    power uniqueness: sign comparison == pair criterion == oracle
          (the oracle lists every shortest path out of each source)
    diam  diameter <= n: powers == completions == signed-distance signs
    l1    lifting a shortest path multiplies length by 1/n, keeps sign
    le    projecting a shortest power path, length in ((k-1)n, kn]
    t27   compatible unique power (diameter > n) forces compatible base
    blcm  balanced 2-connected graphs have compatible powers
    l3    distance completion commutes with taking powers (fails in
          general; counterexamples are reported, not suppressed)
    cbp   2-connected: base balanced iff power balanced
    sgs   spectral balance test agrees with the direct one
    nbc   four-way balance equivalence of the completions
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .balance import is_balanced, lift_path, project_path
from .core import (
    SignedGraph, SignedGraphError, error_line, is_two_connected, path_sign, walk_sign,
)
from .distance import (
    _batches, build_tables, diameter, distance_matrices, first_incompatible_pair, is_compatible,
)
from .oracle import CorpusSpec, enumerate_shortest_paths, generate, oracle_reachability
from .power import associated_complete, is_power_unique, power
from .spectra import balanced_spectrum_test

_PAIRS_PER_TRIAL = 3  # sampled start/end pairs for the path lemmas
MAX_VERTICES = 1 << 10  # a trial of V vertices holds about p * V^2 / 2 edges, p = 0.25-0.5


@dataclass
class FailureCase:
    trial: int
    description: str
    graphs: dict[str, SignedGraph]


@dataclass
class TheoremReport:
    name: str
    trials: int
    passed: int
    notes: dict[str, int] = field(default_factory=dict)
    failures: list[FailureCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.trials


def _exponents(g: SignedGraph) -> range:
    return range(1, diameter(g) + 2)


def _note(notes: dict[str, int], key: str) -> None:
    notes[key] = notes.get(key, 0) + 1


# -- per-trial checks -------------------------------------------------------


def _check_t1(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    rows = (oracle_reachability(g, u) for u in range(g.vertex_count))  # apart from the sign table
    d0 = min((r.distance for row in rows for r in row if not r.signs.is_single), default=None)
    dmax, dmin = distance_matrices(g)
    reach, differ = np.abs(dmax), dmax != dmin
    for n in _exponents(g):
        by_pairs = not differ[reach <= n].any()  # no pair within n whose signed distances differ
        pr = power(g, n)
        by_signs = pr.power_max == pr.power_min
        by_oracle = d0 is None or n < d0
        if not (by_pairs == by_signs == pr.unique == by_oracle):
            return (
                f"n={n}: uniqueness routes disagree "
                f"(pairs={by_pairs} signs={by_signs} flag={pr.unique} oracle={by_oracle})"
            )
    return None


def _check_diam(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    # K^max and K^min by their definition, not through the power builder: an edge
    # of g keeps its sign, and every other pair takes the sign of its signed distance
    own, k = {(u, v): s for u, v, s in g.edges}, g.vertex_count
    k_max, k_min = (
        SignedGraph(k, [(u, v, own.get((u, v), 1 if row[v] > 0 else -1))
                        for u, row in enumerate(m.tolist()) for v in range(u + 1, k)])
        for m in distance_matrices(g)
    )
    if k_max != associated_complete(g, "max") or k_min != associated_complete(g, "min"):
        return "a completion differs from the signed distances"
    if is_compatible(g) and k_max != associated_complete(g, "pm"):
        return "the common completion differs from the signed distances"
    d = diameter(g)
    for n in (d, d + 1):
        pr = power(g, n)
        if pr.power_max != k_max or pr.power_min != k_min:
            return f"n={n}: power differs from the distance completion"
    return None


def _sampled_paths(g: SignedGraph, seed: int, notes: dict[str, int], in_power: bool):
    """(n, PowerResult, p) for each unique n-th power of g and each shortest path
    p of length >= 1 sampled by `Random(seed)`: of g, or with `in_power` of the max power."""
    rng, k = random.Random(seed), g.vertex_count
    for n in _exponents(g):
        pr = power(g, n)
        if not pr.unique:
            _note(notes, "skipped_non_unique")
            continue
        pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
        rng.shuffle(pairs)
        for u, v in pairs[:_PAIRS_PER_TRIAL]:
            p = rng.choice(enumerate_shortest_paths(pr.power_max if in_power else g, u, v))
            if len(p) > 1:
                yield n, pr, p


def _check_l1(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    for n, pr, p in _sampled_paths(g, seed, notes, in_power=False):
        lifted = lift_path(g, p, n)
        if len(lifted) - 1 != math.ceil((len(p) - 1) / n):
            return f"n={n}: lift of {p} has length {len(lifted) - 1}"
        if walk_sign(pr.power_max, lifted) != path_sign(g, p):
            return f"n={n}: lift of {p} changed sign"
    return None


def _check_le(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    for n, pr, p in _sampled_paths(g, seed, notes, in_power=True):
        k = len(p) - 1
        w = project_path(pr.witnesses_max, p)
        length = len(w) - 1
        if not ((k - 1) * n + 1 <= length <= k * n):
            return f"n={n}: projection of {p} has length {length}"
        if walk_sign(g, w) != walk_sign(pr.power_max, p):
            return f"n={n}: projection of {p} changed sign"
    return None


def _check_t27(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    # t27's corpus draws connected graphs; the loop takes only n < diameter with a unique power
    applicable = False
    for n in range(1, diameter(g)):
        if not is_power_unique(g, n):
            continue
        applicable = True
        if not is_compatible(g) and is_compatible(power(g, n).power_max):
            return f"n={n}: compatible power but incompatible base"
    if not applicable:
        _note(notes, "vacuous")
    return None


def _check_blcm(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    # blcm's corpus draws balanced 2-connected graphs only
    powers = [power(g, n) for n in range(1, diameter(g) + 1)]
    with contextlib.suppress(SignedGraphError):  # an error making a power is the loop's to raise
        build_tables(pr.power_max for pr in powers[1:] if pr.unique)  # the first power is g
    for n, pr in enumerate(powers, 1):
        if not pr.unique:
            return f"n={n}: { {'n': n, 'reason': 'power of a balanced graph not unique'} }"
        bad = first_incompatible_pair(pr.power_max)
        if bad is not None:
            return f"n={n}: { {'n': n, 'pair': bad} }"
    return None


def _check_l3(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    k_max = associated_complete(g, "max")
    k_min = associated_complete(g, "min")
    # a balanced graph is compatible, so its common completion exists
    k_pm = associated_complete(g, "pm") if is_balanced(g).balanced else None
    powers = [power(g, n) for n in _exponents(g)[1:]]  # the first power is g itself
    with contextlib.suppress(SignedGraphError):  # an error making a power is the loop's to raise
        # a power below the diameter is incomplete, so its completions read its table
        build_tables(h for pr in powers if pr.n < diameter(g) for h in (pr.power_max, pr.power_min))
    for n, pr in enumerate(powers, 2):
        if k_max != associated_complete(pr.power_max, "max"):
            return f"n={n}: max completions differ"
        if k_min != associated_complete(pr.power_min, "min"):
            return f"n={n}: min completions differ"
        if k_pm is not None and k_pm != associated_complete(pr.power_max, "pm"):
            return f"n={n}: common completions differ"
    return None


def _check_cbp(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    # cbp's corpora draw 2-connected graphs only
    base = is_balanced(g).balanced
    for n in range(1, diameter(g) + 1):
        pr = power(g, n)
        # balance forces a unique power, so a non-unique one needs an unbalanced
        # base, and then both sign choices must be unbalanced too
        powers = (pr.power_max,) if pr.unique else (pr.power_max, pr.power_min)
        if not pr.unique:
            _note(notes, "non_unique")
        if not ((pr.unique or not base) and all(is_balanced(h).balanced == base for h in powers)):
            detail = ({} if pr.unique else {"non_unique": True}) | {"n": n, "balanced": base}
            return f"n={n}: balance equivalence failed ({detail})"
    return None


def _check_sgs(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    # the spectral test raises for an incompatible g, so every power of g is unique
    spectral = balanced_spectrum_test(g)
    if spectral != is_balanced(g).balanced:
        return "spectral test disagrees with the direct balance test"
    n = min(2, diameter(g))
    if is_two_connected(g) and is_balanced(power(g, n).power_max).balanced != spectral:
        return f"n={n}: power balance disagrees with the spectral test"
    return None


def _check_nbc(g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    # nbc's corpus draws connected graphs, whose max and min completions exist.
    # Statement 4 reads "the matrices agree" as compatibility: D_max and D_min share one
    # distance table, so they differ exactly at the pairs with shortest paths of both signs
    statements = (
        is_balanced(g).balanced,
        is_balanced(associated_complete(g, "max")).balanced,
        is_balanced(associated_complete(g, "min")).balanced,
        is_compatible(g) and is_balanced(associated_complete(g, "pm")).balanced,
    )
    if len(set(statements)) > 1:
        return f"statement values {statements}"
    return None


# theorem key, in report order -> its check and the corpora its trials draw from
# in turn: (least vertex count, edge probability, requirements) each
_CONNECTED = ((3, 0.35, ("connected",)),)  # most keys' corpus
_KEYS = {
    "t1": (_check_t1, _CONNECTED),
    "diam": (_check_diam, _CONNECTED),
    "l1": (_check_l1, _CONNECTED),
    "le": (_check_le, _CONNECTED),
    "t27": (_check_t27, ((4, 0.3, ("connected",)),)),
    "blcm": (_check_blcm, ((3, 0.5, ("two_connected", "balanced")),)),
    "l3": (_check_l3, _CONNECTED),
    # balanced and unrestricted trials alternate, so both directions of the equivalence get exercised
    "cbp": (_check_cbp, ((3, 0.5, ("two_connected", "balanced")), (3, 0.5, ("two_connected",)))),
    "sgs": (_check_sgs, ((2, 0.25, ("compatible",)),)),
    "nbc": (_check_nbc, _CONNECTED),
}
THEOREM_ORDER = tuple(_KEYS)


def check(key: str, g: SignedGraph, seed: int, notes: dict[str, int]) -> str | None:
    """None when g passes `key`'s check for trial seed `seed`, else the failure as one
    line; a raised `SignedGraphError` is a failure, described by the error's one line."""
    try:
        return _KEYS[key][0](g, seed, notes)
    except SignedGraphError as exc:
        return error_line(exc)


def _corpus_graphs(theorem: str, trials: int, seed: int, max_vertices: int):
    """Deterministic trial graph stream for one theorem key, read in batches
    whose sign tables are each built by one search."""
    base = seed * 1000 + THEOREM_ORDER.index(theorem)
    # each corpus declares all `trials` trials, though it yields only those taken
    # from it: `generate` seeds trial i from the spec's seed and i alone, and draws
    # ahead only for a corpus that requires compatibility (sgs has one corpus)
    streams = []
    for k, (least, p, require) in enumerate(_KEYS[theorem][1]):
        lo = min(least, max(3, max_vertices))  # t27's least of 4 gives way to max_vertices 3
        spec = CorpusSpec(base + 500 * k, (lo, max_vertices), p, frozenset(require), trials)
        streams.append(generate(spec))
    for batch in _batches(next(streams[i % len(streams)]) for i in range(trials)):
        build_tables(batch)
        yield from batch


def run_theorem(theorem: str, trials: int, seed: int, max_vertices: int = 8) -> TheoremReport:
    if theorem not in _KEYS:
        raise ValueError(f"unknown theorem key {theorem!r}")
    if max_vertices > MAX_VERTICES:
        raise ValueError(f"max_vertices must be at most {MAX_VERTICES}, got {max_vertices}")
    report = TheoremReport(theorem, trials, 0)
    for trial, g in enumerate(_corpus_graphs(theorem, trials, seed, max_vertices)):
        problem = check(theorem, g, seed * 2**32 + trial * 977 + THEOREM_ORDER.index(theorem), report.notes)
        if problem is None:
            report.passed += 1
        else:
            report.failures.append(FailureCase(trial, problem, {"graph": g}))
    return report
