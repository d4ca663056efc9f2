"""The randomized theorem-checking harness: determinism and honesty.

One of the checked identities ("l3": completions commute with powers)
is genuinely false, so its report is allowed to contain failures; the
test re-validates that every reported counterexample is real.
"""

import importlib
import random
from types import SimpleNamespace

import pytest

from sgpower import (
    GenerationExhaustedError,
    MissingWitnessError,
    SignedGraph,
    associated_complete,
    balanced_spectrum_test,
    distance,
    harness,
    is_balanced,
    is_two_connected,
    lift_path,
    oracle,
    power,
    spectra,
)
from sgpower.cli import main
from sgpower.harness import THEOREM_ORDER, run_theorem

from conftest import all_negative_cycle, c4_one_negative, complete_graph, cycle_graph, path_graph

power_module = importlib.import_module("sgpower.power")


def _snapshot(report):
    return (
        report.name,
        report.trials,
        report.passed,
        dict(report.notes),
        [(c.trial, c.description) for c in report.failures],
    )


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        run_theorem("t99", 5, 0)


def test_max_vertices_above_the_cap_rejected():
    # raised before any graph is drawn: a corpus of 2^27 vertices would not fit in memory
    for too_many in (harness.MAX_VERTICES + 1, 2**27):
        with pytest.raises(ValueError, match=rf"^max_vertices must be at most 1024, got {too_many}$"):
            run_theorem("t1", 1, 0, too_many)


def test_max_vertices_at_the_cap_accepted():
    # the cap itself is allowed; `diam` on one trial of up to 1024 vertices is quick
    report = run_theorem("diam", 1, 0, harness.MAX_VERTICES)
    assert (report.name, report.trials) == ("diam", 1)


@pytest.mark.parametrize("name", THEOREM_ORDER)
def test_reports_are_deterministic(name):
    a = run_theorem(name, 12, seed=7, max_vertices=7)
    b = run_theorem(name, 12, seed=7, max_vertices=7)
    assert _snapshot(a) == _snapshot(b)


@pytest.mark.parametrize("name", [t for t in THEOREM_ORDER if t != "l3"])
def test_true_statements_pass_their_trials(name):
    report = run_theorem(name, 25, seed=3, max_vertices=8)
    assert report.ok, report.failures[:1]
    assert report.passed == report.trials == 25


def test_false_identity_failures_are_real():
    report = run_theorem("l3", 60, seed=3, max_vertices=8)
    assert report.failures, "expected counterexamples to the completion identity"
    for case in report.failures:
        g = case.graphs["graph"]
        broken = False
        for n in range(1, 8):
            pr = power(g, n)
            if associated_complete(g, "max") != associated_complete(pr.power_max, "max"):
                broken = True
            if associated_complete(g, "min") != associated_complete(pr.power_min, "min"):
                broken = True
        assert broken, f"reported counterexample does not violate the identity: {g!r}"


def test_t27_on_a_complete_graph_is_vacuous():
    # K4 has diameter 1, so no exponent lies below the diameter
    notes = {}
    assert harness._check_t27(complete_graph(4), 0, notes) is None
    assert notes == {"vacuous": 1}


def test_the_corpora_carry_the_hypotheses_of_blcm_and_cbp():
    # the checks take these from their corpora and test neither
    for seed in range(10):
        for g in harness._corpus_graphs("blcm", 25, seed, 8):
            assert is_two_connected(g) and is_balanced(g).balanced
        for g in harness._corpus_graphs("cbp", 25, seed, 8):
            assert is_two_connected(g)


def test_blcm_reports_a_balanced_graph_whose_square_is_not_unique(monkeypatch):
    # a fault in the library, not in the check: every square reads non-unique
    unique = power_module.is_power_unique
    monkeypatch.setattr(power_module, "is_power_unique", lambda g, n: n != 2 and unique(g, n))
    report = run_theorem("blcm", 20, 5)
    assert report.passed == 4  # the complete graphs, whose diameter is 1
    assert [c.trial for c in report.failures] == [0, 1, 2, 5, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19]
    for case in report.failures:
        assert case.description == "n=2: {'n': 2, 'reason': 'power of a balanced graph not unique'}"


def test_blcm_reports_the_first_incompatible_pair_of_a_power(monkeypatch):
    # a fault in the library, not in the check: a power flips every pair it adds,
    # and so can have shortest paths of both signs between one pair
    build = power_module._table_graph

    def flipped(g, n, sigma):
        out = build(g, n, sigma)
        return SignedGraph(g.vertex_count, [(u, v, s if g.has_edge(u, v) else -s) for u, v, s in out.edges])

    monkeypatch.setattr(power_module, "_table_graph", flipped)
    report = run_theorem("blcm", 20, 5)
    assert [(c.trial, c.description) for c in report.failures] == [(16, "n=2: {'n': 2, 'pair': (3, 5)}")]


def test_notes_count_skipped_trials():
    report = run_theorem("l1", 20, seed=0, max_vertices=8)
    assert report.ok
    # non-unique powers are skipped but recorded
    assert set(report.notes) <= {"skipped_non_unique"}


@pytest.mark.parametrize(
    "g",
    [
        path_graph([1]),
        path_graph([1, -1, 1, 1, -1, 1]),
        cycle_graph([1, -1, -1, 1, 1, 1]),
        c4_one_negative(),
        all_negative_cycle(5),
        cycle_graph([1] * 8 + [-1]),
    ],
)
def test_l3_completes_the_base_graph_once_per_mode(monkeypatch, g):
    base_calls = []

    def counted(h, mode):
        if h is g:
            base_calls.append(mode)
        return associated_complete(h, mode)

    monkeypatch.setattr(harness, "associated_complete", counted)
    harness._check_l3(g, 0, {})
    want = ["max", "min", "pm"] if is_balanced(g).balanced else ["max", "min"]
    assert base_calls == want  # whatever the number of exponents


@pytest.mark.parametrize("name", [t for t in THEOREM_ORDER if t != "sgs"])
def test_the_base_graphs_tables_are_built_in_one_call(monkeypatch, name):
    # sgs draws compatible graphs, so its generator tables the candidates
    calls = []
    kernel = distance._all_sources
    monkeypatch.setattr(distance, "_all_sources", lambda gs: calls.append(list(gs)) or kernel(gs))
    run_theorem(name, 10, seed=4)
    assert len(calls[0]) == 10
    if name == "diam":  # reads nothing but the base graphs' tables
        assert len(calls) == 1


def test_sgs_tables_its_candidates_in_rounds(monkeypatch):
    lone = []
    kernel = distance._all_sources
    monkeypatch.setattr(
        distance, "_all_sources", lambda gs: (len(gs) == 1 and lone.append(gs)) or kernel(gs)
    )
    for seed in range(30):
        run_theorem("sgs", 10, seed)
    assert len(lone) <= 60  # one candidate at a time, these runs build 475 tables


@pytest.mark.parametrize("name", THEOREM_ORDER)
def test_the_corpora_draw_only_the_trials_they_yield(monkeypatch, name):
    # cbp alternates two corpora that each declare every trial; neither may draw ahead
    seeded = []

    class Counted(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=Counted))
    run_theorem(name, 9, seed=2)
    assert len(seeded) == 9


def test_only_the_path_lemmas_seed_a_generator(monkeypatch):
    seeded = []

    class Counted(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    # the corpus generator keeps its own `random`
    monkeypatch.setattr(harness, "random", SimpleNamespace(Random=Counted))
    for name in THEOREM_ORDER:
        seeded.clear()
        run_theorem(name, 10, seed=2)
        assert len(seeded) == (10 if name in ("l1", "le") else 0), name


def test_trial_batches_stay_within_the_pair_budget(monkeypatch):
    expected = _snapshot(run_theorem("diam", 40, seed=2, max_vertices=14))
    sizes = []
    kernel = distance._all_sources
    monkeypatch.setattr(distance, "_RUN_BUDGET", 200)
    monkeypatch.setattr(
        distance, "_all_sources", lambda gs: sizes.append([g.vertex_count for g in gs]) or kernel(gs)
    )
    assert _snapshot(run_theorem("diam", 40, seed=2, max_vertices=14)) == expected
    assert sum(map(len, sizes)) == 40 and max(map(len, sizes)) > 1
    assert all(len(c) == 1 or len(c) * max(c) ** 2 <= 200 for c in sizes)


def test_t1_reads_power_uniqueness_by_pairs_apart_from_the_flag(monkeypatch):
    # a wrong uniqueness flag must disagree with the pair route, not repeat it
    monkeypatch.setattr(importlib.import_module("sgpower.power"), "is_power_unique", lambda g, n: True)
    monkeypatch.setattr(harness, "is_power_unique", lambda g, n: True)
    problem = harness._check_t1(c4_one_negative(), 0, {})
    assert problem.startswith("n=2: uniqueness routes disagree (pairs=False signs=False flag=True")


def _raising_check(g, seed, notes):
    raise MissingWitnessError("no witness recorded for power edge (2, 3)")


def _patch_nbc(monkeypatch, check):
    monkeypatch.setitem(harness._KEYS, "nbc", (check, harness._KEYS["nbc"][1]))


def test_a_raising_check_fails_its_trial_and_the_run_goes_on(monkeypatch):
    _patch_nbc(monkeypatch, _raising_check)
    report = run_theorem("nbc", 6, seed=1)
    assert report.passed == 0
    assert [c.trial for c in report.failures] == list(range(6))
    assert {c.description for c in report.failures} == {
        "MissingWitness: no witness recorded for power edge (2, 3)"
    }
    assert all(c.graphs["graph"].vertex_count >= 3 for c in report.failures)


def test_verify_reports_a_raising_check_and_writes_its_bundle(monkeypatch, capsys, tmp_path):
    _patch_nbc(monkeypatch, _raising_check)
    argv = ["verify", "--theorem", "nbc", "--trials", "4", "--seed", "1", "--bundle", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == ["nbc 0/4", "result FAIL nbc"]
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 4
    assert manifest[0] == (
        "theorem=nbc trial=0 note=MissingWitness: no witness recorded for power edge (2, 3) "
        "graph=case_nbc_0_graph.sg"
    )
    assert (tmp_path / "case_nbc_0_graph.sg").is_file()


def test_check_turns_only_a_library_error_into_its_line(monkeypatch):
    g = c4_one_negative()
    _patch_nbc(monkeypatch, _raising_check)
    assert harness.check("nbc", g, 0, {}) == "MissingWitness: no witness recorded for power edge (2, 3)"

    def broken(g, seed, notes):
        raise ZeroDivisionError("a fault in the check itself")

    _patch_nbc(monkeypatch, broken)
    with pytest.raises(ZeroDivisionError):
        harness.check("nbc", g, 0, {})


# -- each key's failure lines, from a fault in one library function --------------


def test_diam_reports_a_common_completion_that_differs(monkeypatch):
    g = path_graph([1, -1])  # compatible, so its common completion exists
    monkeypatch.setattr(
        harness, "associated_complete", lambda h, mode: h if mode == "pm" else associated_complete(h, mode)
    )
    assert harness.check("diam", g, 0, {}) == "the common completion differs from the signed distances"


def test_l1_reports_a_lift_of_the_wrong_length(monkeypatch):
    g = path_graph([1])  # one edge, so the sampled path is (0, 1) or (1, 0)
    monkeypatch.setattr(harness, "lift_path", lambda h, p, n: (*lift_path(h, p, n), p[-1]))
    assert harness.check("l1", g, 0, {}) == "n=1: lift of (0, 1) has length 2"


def test_le_reports_a_projection_of_the_wrong_length(monkeypatch):
    g = path_graph([1])
    monkeypatch.setattr(harness, "project_path", lambda witnesses, p: p[:1])
    assert harness.check("le", g, 0, {}) == "n=1: projection of (0, 1) has length 0"


def test_l3_reports_common_completions_that_differ(monkeypatch):
    g = path_graph([1, -1])  # balanced, so l3 compares the common completions

    def faulty(h, mode):  # the common completion of every power but g itself has no edges
        if mode == "pm" and h is not g:
            return SignedGraph(h.vertex_count, [])
        return associated_complete(h, mode)

    monkeypatch.setattr(harness, "associated_complete", faulty)
    assert harness.check("l3", g, 0, {}) == "n=2: common completions differ"


def test_sgs_reports_a_power_whose_balance_disagrees(monkeypatch):
    g = cycle_graph([1, 1, 1, 1])  # balanced, 2-connected, diameter 2
    monkeypatch.setattr(
        harness, "is_balanced",
        lambda h: is_balanced(h) if h is g else SimpleNamespace(balanced=not is_balanced(h).balanced),
    )
    assert harness.check("sgs", g, 0, {}) == "n=2: power balance disagrees with the spectral test"


@pytest.mark.parametrize("name", THEOREM_ORDER)
def test_check_gives_what_run_theorem_records(name):
    trials, failed = 40, 0
    for seed in (0, 3, 42):
        report = run_theorem(name, trials, seed)
        notes = {}
        # each trial's seed as `run_theorem` derives it from the base seed, trial and key
        lines = [
            harness.check(name, g, seed * 2**32 + trial * 977 + THEOREM_ORDER.index(name), notes)
            for trial, g in enumerate(harness._corpus_graphs(name, trials, seed, 8))
        ]
        recorded = {c.trial: c.description for c in report.failures}
        assert lines == [recorded.get(trial) for trial in range(trials)]
        assert notes == report.notes
        failed += len(recorded)
    assert (failed > 0) == (name == "l3")


def test_a_corpus_error_still_ends_the_run(monkeypatch):
    def exhausted(spec):
        raise GenerationExhaustedError("no graph meets the spec")
        yield

    monkeypatch.setattr(harness, "generate", exhausted)
    with pytest.raises(GenerationExhaustedError):
        run_theorem("nbc", 3, seed=0)


def test_sgs_runs_the_spectral_test_once_per_trial(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return balanced_spectrum_test(g)

    monkeypatch.setattr(harness, "balanced_spectrum_test", counted)
    monkeypatch.setattr(spectra, "balanced_spectrum_test", counted)
    assert run_theorem("sgs", 200, 42).ok
    assert len(calls) == 200
