"""Acceptance gate: one test per stated criterion, run at the stated
tolerance and runtime budget.  `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line per criterion.

Criterion 7 (the completion/power commutation identity) is known to be
false in general: the all-negative 7-cycle is the smallest documented
counterexample (see test_power.py).  Its test checks the claim honestly
over the prescribed corpus and is therefore expected to fail.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from sgpower import (
    CorpusSpec,
    adjacency_matrix,
    associated_complete,
    balanced_spectrum_test,
    diameter,
    eigenvalues,
    generate,
    is_balanced,
    is_compatible,
    is_power_unique,
    lift_path,
    oracle_signs,
    path_sign,
    power,
    project_path,
    serialize_graph,
    shortest_path_with_sign,
    sign_reachability,
    walk_sign,
)
from sgpower import harness
from sgpower.cli import main as cli_main
from sgpower.oracle import enumerate_shortest_paths

from conftest import all_negative_cycle, all_signings, child_env


# -- shared corpora (seeds fixed once, never touched again) ---------------------


@pytest.fixture(scope="module")
def corpus_connected_9():
    spec = CorpusSpec(seed=901, vertex_range=(2, 9), edge_probability=0.35, trials=500)
    return list(generate(spec))


@pytest.fixture(scope="module")
def corpus_connected_10():
    spec = CorpusSpec(seed=902, vertex_range=(2, 10), edge_probability=0.35, trials=500)
    return list(generate(spec))


@pytest.fixture(scope="module")
def corpus_two_connected_300():
    balanced = CorpusSpec(
        seed=903,
        vertex_range=(3, 10),
        edge_probability=0.5,
        require=frozenset({"two_connected", "balanced"}),
        trials=150,
    )
    plain = CorpusSpec(
        seed=904,
        vertex_range=(3, 10),
        edge_probability=0.5,
        require=frozenset({"two_connected"}),
        trials=150,
    )
    return list(generate(balanced)) + list(generate(plain))


@pytest.fixture(scope="module")
def corpus_compatible_200():
    spec = CorpusSpec(
        seed=905,
        vertex_range=(2, 10),
        edge_probability=0.25,
        require=frozenset({"compatible"}),
        trials=200,
    )
    return list(generate(spec))


# -- criteria -------------------------------------------------------------------


def test_criterion_01_negative_seven_cycle_reproduction(tmp_path, capsys):
    """The all-negative 7-cycle: compatible, unique square, square has
    incompatible pair (0, 3) witnessed by opposite-sign shortest paths."""
    t0 = time.perf_counter()
    c7 = tmp_path / "c7.sg"
    c7.write_text(serialize_graph(all_negative_cycle(7)))

    assert cli_main(["compatible", str(c7)]) == 0
    assert capsys.readouterr().out == "compatible\n"

    assert cli_main(["power", "-n", "2", "--mode", "unique", str(c7)]) == 0
    square_text = capsys.readouterr().out
    sq = tmp_path / "c7sq.sg"
    sq.write_text(square_text)

    assert cli_main(["compatible", str(sq)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "incompatible 0 3"
    pos = tuple(int(x) for x in lines[1].split()[1:])
    neg = tuple(int(x) for x in lines[2].split()[1:])
    from sgpower import parse_graph

    square = parse_graph(square_text)
    for p in (pos, neg):
        assert p[0] == 0 and p[-1] == 3 and len(p) - 1 == 2  # shortest in the square
    assert path_sign(square, pos) == 1 and path_sign(square, neg) == -1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_reachability_oracle_equivalence(corpus_connected_9):
    """sign_reachability == exhaustive enumeration on all signings of
    C_3..C_8 and K_4 plus 500 random connected graphs (exact, < 30 s)."""
    t0 = time.perf_counter()

    def check(g):
        for u in range(g.vertex_count):
            reach = sign_reachability(g, u)
            for v in range(g.vertex_count):
                if u != v:
                    assert reach[v].signs == oracle_signs(g, u, v)

    for k in range(3, 9):
        ring = [(i, (i + 1) % k) for i in range(k)]
        for g in all_signings(k, ring):
            check(g)
    k4_pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for g in all_signings(4, k4_pairs):
        check(g)
    for g in corpus_connected_9:
        check(g)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_power_uniqueness_three_way(corpus_connected_10):
    """is_power_unique == (power_max equals power_min) == absence of an
    incompatible pair at distance <= n, for n up to diameter + 1 (exact)."""
    for g in corpus_connected_10:
        pair_table = {
            (u, v): (sign_reachability(g, u)[v].distance, oracle_signs(g, u, v).is_single)
            for u in range(g.vertex_count)
            for v in range(u + 1, g.vertex_count)
        }
        for n in range(1, diameter(g) + 2):
            pr = power(g, n)
            by_equal = pr.power_max == pr.power_min
            by_pairs = all(single for d, single in pair_table.values() if d <= n)
            assert is_power_unique(g, n) == by_equal == by_pairs == pr.unique


def test_criterion_04_diameter_collapses_power_to_completion(corpus_connected_10):
    """diameter <= n forces power_max/min == completion max/min, and the
    unique power of a compatible graph equals the common completion (exact)."""
    for g in corpus_connected_10:
        d = diameter(g)
        for n in (max(d, 1), d + 1):
            pr = power(g, n)
            assert pr.power_max == associated_complete(g, "max")
            assert pr.power_min == associated_complete(g, "min")
            if is_compatible(g):
                assert pr.unique
                assert pr.power_max == associated_complete(g, "pm")


def test_criterion_05_lift_and_project_bounds(corpus_connected_10):
    """1000 seeded random shortest paths: lifts have length ceil(k/n) and
    equal sign; projections of shortest power paths have length in
    [(k-1)n + 1, kn] and equal sign (exact)."""
    rng = random.Random(20250815)
    samples = 0
    graphs = [g for g in corpus_connected_10 if g.vertex_count >= 2]
    i = 0
    while samples < 1000:
        g = graphs[i % len(graphs)]
        i += 1
        n = rng.randint(1, max(diameter(g), 1))
        if not is_power_unique(g, n):
            continue
        pr = power(g, n)
        u = rng.randrange(g.vertex_count)
        v = rng.randrange(g.vertex_count)
        if u == v:
            continue
        # lift a random shortest path of the base graph
        p = rng.choice(enumerate_shortest_paths(g, u, v))
        k = len(p) - 1
        lifted = lift_path(g, p, n)
        assert len(lifted) - 1 == math.ceil(k / n)
        assert walk_sign(pr.power_max, lifted) == path_sign(g, p)
        # project a random shortest path of the power
        q = rng.choice(enumerate_shortest_paths(pr.power_max, u, v))
        k = len(q) - 1
        w = project_path(pr.witnesses_max, q)
        assert (k - 1) * n + 1 <= len(w) - 1 <= k * n
        assert walk_sign(g, w) == walk_sign(pr.power_max, q)
        samples += 1


def test_criterion_06_two_connected_balance_checks(corpus_two_connected_300):
    """On 300 2-connected graphs: balanced bases give compatible powers,
    and base balance is equivalent to power balance, for every
    n in [1, diameter] (exact)."""
    for g in corpus_two_connected_300:
        out = harness._check_cbp(g, 0, {})  # every n in [1, diameter]
        assert out is None, out
        if is_balanced(g).balanced:
            out = harness._check_blcm(g, 0, {})
            assert out is None, out


def test_criterion_07_completion_commutes_with_powers(corpus_two_connected_300):
    """Claimed identity: completing the distance matrix commutes with
    taking powers (max/min always, pm when balanced).  This is FALSE in
    general -- see test_completion_does_not_commute_with_squaring -- and
    the honest check over the corpus is expected to fail."""
    violations = []
    for idx, g in enumerate(corpus_two_connected_300):
        balanced = is_balanced(g).balanced
        for n in range(1, diameter(g) + 1):
            pr = power(g, n)
            if associated_complete(g, "max") != associated_complete(pr.power_max, "max"):
                violations.append((idx, n, "max"))
            if associated_complete(g, "min") != associated_complete(pr.power_min, "min"):
                violations.append((idx, n, "min"))
            if balanced and associated_complete(g, "pm") != associated_complete(
                pr.power_max, "pm"
            ):
                violations.append((idx, n, "pm"))
    assert not violations, (
        f"{len(violations)} corpus violations of the commutation identity, "
        f"first at graph {violations[0][0]}, n = {violations[0][1]}, "
        f"mode {violations[0][2]!r}; the identity only holds for balanced "
        f"graphs or n >= diameter"
    )


def test_criterion_08_spectral_balance_agreement(corpus_compatible_200):
    """Spectral balance test agrees with the switching test on 200
    compatible graphs; balanced completions have spectrum
    {m-1 once, -1 x (m-1)} within 1e-8, up to order 50 (< 60 s)."""
    t0 = time.perf_counter()

    def spectrum_hits_targets(g):
        m = g.vertex_count
        spec = eigenvalues(adjacency_matrix(associated_complete(g, "pm")))
        targets = [float(m - 1)] + [-1.0] * (m - 1)
        assert all(abs(x - t) <= 1e-8 for x, t in zip(spec.eigenvalues, targets))

    for g in corpus_compatible_200:
        direct = is_balanced(g).balanced
        assert balanced_spectrum_test(g) == direct
        if direct:
            spectrum_hits_targets(g)

    for m in (20, 35, 50):  # larger balanced graphs stress accuracy
        spec = CorpusSpec(
            seed=906 + m,
            vertex_range=(m, m),
            edge_probability=0.4,
            require=frozenset({"balanced"}),
            trials=2,
        )
        for g in generate(spec):
            assert balanced_spectrum_test(g)
            spectrum_hits_targets(g)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_four_way_balance_equivalence(
    corpus_connected_10, corpus_two_connected_300, corpus_compatible_200
):
    """g balanced <=> max completion balanced <=> min completion balanced
    <=> matrices agree and common completion balanced, on every corpus
    graph (exact)."""
    for g in corpus_connected_10 + corpus_two_connected_300 + corpus_compatible_200:
        out = harness._check_nbc(g, 0, {})
        assert out is None, out


def test_criterion_10_verify_output_is_deterministic(tmp_path):
    """`verify --theorem all --trials 200 --seed 42` is byte-identical
    across two consecutive runs, including the counterexample bundle."""
    outputs = []
    bundles = []
    for run in ("a", "b"):
        cwd = tmp_path / run
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "sgpower", "verify", "--theorem", "all",
             "--trials", "200", "--seed", "42", "--bundle", "cx"],
            cwd=cwd,
            env=child_env(),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode in (0, 1)
        assert proc.stdout.startswith(b"t1 ")
        outputs.append(proc.stdout)
        bundle = cwd / "cx"
        if bundle.is_dir():
            bundles.append(
                {f.name: f.read_bytes() for f in sorted(bundle.iterdir())}
            )
    assert outputs[0] == outputs[1]
    assert len(bundles) in (0, 2)
    if bundles:
        assert bundles[0] == bundles[1]
