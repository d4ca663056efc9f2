"""End-to-end command line behavior: output formats and exit codes.

Exit code contract: 0 success, 1 domain error (error name on stderr),
2 usage error (argparse).
"""

import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgpower import (
    CorpusSpec,
    SignedGraph,
    SignedGraphError,
    associated_complete,
    diameter,
    distance_matrices,
    generate,
    lift_path,
    parse_graph,
    power,
    serialize_graph,
    walk_sign,
)
from sgpower import cli, distance
from sgpower.cli import main
from sgpower.harness import THEOREM_ORDER

from conftest import (
    ROOT,
    all_negative_cycle,
    c4_one_negative,
    child_env,
    complete_graph,
    connected_signed_graphs,
    cycle_graph,
    path_graph,
    random_graph,
)


@pytest.fixture
def c7_file(tmp_path):
    f = tmp_path / "c7.sg"
    f.write_text(serialize_graph(all_negative_cycle(7)))
    return str(f)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.sg"
    f.write_text(serialize_graph(c4_one_negative()))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """(exit code, stdout, stderr) of one `main` call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- info / distance ---------------------------------------------------------------


def test_info(capsys, c7_file):
    code, out, _ = run(capsys, "info", c7_file)
    assert code == 0
    assert "vertices 7" in out
    assert "edges 7" in out
    assert "two-connected yes" in out
    assert "balanced no" in out
    assert "compatible yes" in out
    assert "diameter 3" in out


def test_info_disconnected_stops_early(capsys, tmp_path):
    f = tmp_path / "g.sg"
    f.write_text("sg 1\nn 3\n0 1 +\n")
    code, out, _ = run(capsys, "info", str(f))
    assert code == 0
    assert "connected no" in out
    assert "diameter" not in out


def test_distance_modes(capsys, c4_file):
    code, out, _ = run(capsys, "distance", "--mode", "max", c4_file)
    assert code == 0
    assert out.splitlines()[0] == "0\t1\t2\t-1"
    code, out, _ = run(capsys, "distance", c4_file)
    lines = out.splitlines()
    assert lines[0] == "# max" and "# min" in lines
    assert "-2" in lines[lines.index("# min") + 1]


# -- distance against the library ----------------------------------------------------


def _matrix_text(g, mode):
    """The text `distance --mode mode` owes for g, written cell by cell from `distance_matrices`."""
    out = []
    for name, m in zip(("max", "min"), distance_matrices(g)):
        if mode == "both":
            out.append(f"# {name}\n")
        elif mode != name:
            continue
        out += ["\t".join(map(str, row)) + "\n" for row in m.tolist()]
    return "".join(out)


def assert_distance_matches_library(g):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.sg"
        f.write_text(serialize_graph(g))
        for mode in ("max", "min", "both"):
            want = _library_run(lambda: _matrix_text(g, mode))
            assert run_captured(["distance", "--mode", mode, str(f)]) == want, mode


_DISTANCE_GRAPHS = {
    **{f.name: parse_graph(f.read_text()) for f in sorted((ROOT / "data").glob("*.sg"))},
    "one vertex": SignedGraph(1, []),  # diameter 0: the one label "0\n"
    "signed path": path_graph([(-1) ** (i // 3) for i in range(39)]),  # labels -39..39
    "three-digit ids": next(generate(CorpusSpec(11, (120, 120), 0.03))),
    "disconnected": SignedGraph(4, [(0, 1, 1), (2, 3, -1)]),
    "isolated vertex": SignedGraph(3, [(0, 1, -1)]),
}


@pytest.mark.parametrize("name", list(_DISTANCE_GRAPHS))
def test_distance_prints_the_library_matrices(name):
    assert_distance_matches_library(_DISTANCE_GRAPHS[name])


class _CountingWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("budget, blocks", [(7, 40), (130, 14)])
def test_distance_writes_blocks_of_rows(monkeypatch, budget, blocks):
    """At most `budget` cells a block, one row at least: 40 rows of 40 go as 40 blocks
    of one row, or 13 blocks of three rows and a last one of one row."""
    g = path_graph([1, -1, -1] * 13)
    monkeypatch.setattr(distance, "_RUN_BUDGET", budget)
    assert_distance_matches_library(g)
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.sg"
        f.write_text(serialize_graph(g))
        out = _CountingWrites()
        with contextlib.redirect_stdout(out):
            assert main(["distance", "--mode", "max", str(f)]) == 0
    assert out.writes == blocks


# -- power / complete ---------------------------------------------------------------


def test_power_unique_success(capsys, c7_file):
    code, out, _ = run(capsys, "power", "-n", "2", c7_file)
    assert code == 0
    g = parse_graph(out)
    assert g.edge_count == 14
    assert g.sign(0, 1) == -1 and g.sign(0, 2) == 1


def test_power_unique_failure_names_the_pair(capsys, c4_file):
    code, out, err = run(capsys, "power", "-n", "2", c4_file)
    assert code == 1
    assert out == ""
    assert err.startswith("NonUniquePower:")
    assert "incompatible pair 0 2 at distance <= 2" in err


@given(connected_signed_graphs(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_power_unique_failure_names_the_first_edge_where_the_powers_differ(g, n):
    pr = power(g, n)
    pair = next(
        ((u, v) for (u, v, a), (_, _, b) in zip(pr.power_max.edges, pr.power_min.edges) if a != b),
        None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.sg"
        f.write_text(serialize_graph(g))
        code, out, err = run_captured(["power", "-n", str(n), str(f)])
    if pair is None:
        assert code == 0 and parse_graph(out) == pr.power_max and err == ""
    else:
        assert code == 1 and out == ""
        assert err == f"NonUniquePower: incompatible pair {pair[0]} {pair[1]} at distance <= {n}\n"


def test_power_max_mode_allows_ambiguity(capsys, c4_file):
    code, out, _ = run(capsys, "power", "-n", "2", "--mode", "max", c4_file)
    assert code == 0
    assert parse_graph(out).sign(0, 2) == 1
    code, out, _ = run(capsys, "power", "-n", "2", "--mode", "min", c4_file)
    assert parse_graph(out).sign(0, 2) == -1


def test_complete_modes(capsys, c4_file, c7_file):
    code, out, _ = run(capsys, "complete", "--mode", "max", c4_file)
    assert code == 0
    assert parse_graph(out).edge_count == 6
    code, _, err = run(capsys, "complete", c4_file)  # pm needs compatibility
    assert code == 1
    assert err.startswith("NotCompatible:")
    code, out, _ = run(capsys, "complete", c7_file)
    assert code == 0
    assert parse_graph(out).edge_count == 21


# -- power and complete against the library -------------------------------------------


def _library_run(text):
    """(exit code, stdout, stderr) that the CLI owes when it prints `text()`."""
    try:
        return 0, text(), ""
    except SignedGraphError as exc:
        return 1, "", f"{type(exc).__name__.removesuffix('Error')}: {exc}\n"


def assert_cli_matches_library(g, exponents):
    """`power -n N --mode M` and `complete --mode M` print what the library builds."""
    cases = [
        (["power", "-n", str(n), "--mode", m], lambda n=n, m=m: getattr(power(g, n), f"power_{m}"))
        for n in exponents
        for m in ("max", "min")
    ]
    cases += [
        (["complete", "--mode", mode], lambda mode=mode: associated_complete(g, mode))
        for mode in ("max", "min", "pm")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.sg"
        f.write_text(serialize_graph(g))
        for argv, build in cases:
            assert run_captured([*argv, str(f)]) == _library_run(lambda: serialize_graph(build())), argv


def _exponents(g):
    d = diameter(g)
    return (0, 1, 2, d, d + 1, 10**20)


@st.composite
def complete_signed_graphs(draw):
    k = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(k), 2))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs), max_size=len(pairs)))
    return SignedGraph(k, [(u, v, s) for (u, v), s in zip(pairs, signs)])


@given(st.one_of(connected_signed_graphs(), complete_signed_graphs()))
@settings(max_examples=60, deadline=None)
def test_power_and_complete_print_what_the_library_builds(g):
    assert_cli_matches_library(g, _exponents(g))


def test_power_and_complete_print_what_the_library_builds_on_three_digit_ids():
    g = next(generate(CorpusSpec(11, (120, 120), 0.03)))
    assert_cli_matches_library(g, _exponents(g))


@pytest.mark.parametrize(
    "g",
    [c4_one_negative(), SignedGraph(4, [(0, 1, 1), (2, 3, -1)]), SignedGraph(3, [(0, 1, -1)])],
    ids=["incompatible", "disconnected", "isolated vertex"],
)
def test_power_and_complete_fail_like_the_library(g):
    assert_cli_matches_library(g, (0, 1, 2))


_BLOCK_GRAPHS = {
    "40-vertex path": path_graph([1, -1, -1] * 13),
    "200-vertex negative cycle": cycle_graph([1, -1] * 99 + [-1, -1]),  # both signs at distance 100
}


@pytest.mark.parametrize(
    "name, budget, blocks",
    [
        ("40-vertex path", 7, 40),
        ("40-vertex path", 130, 14),
        ("200-vertex negative cycle", distance._RUN_BUDGET, 2),
    ],
)
def test_power_and_complete_write_blocks_of_rows(monkeypatch, name, budget, blocks):
    """One write for the header, then one per block of rows, cut as `distance` cuts
    them: 40 rows as 40 blocks of one row or 14 of three rows at most, and 200 rows
    at the default budget as a block of 163 rows and one of 37."""
    g = _BLOCK_GRAPHS[name]
    monkeypatch.setattr(distance, "_RUN_BUDGET", budget)
    assert_cli_matches_library(g, (2, diameter(g)))
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.sg"
        f.write_text(serialize_graph(g))
        for argv in (["power", "-n", "2"], ["complete", "--mode", "max"], ["complete", "--mode", "min"]):
            out = _CountingWrites()
            with contextlib.redirect_stdout(out):
                assert main([*argv, str(f)]) == 0
            assert out.writes == 1 + blocks, argv


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_complete_peaks_near_the_sign_table_build(tmp_path):
    """`complete` writes a block of rows at a time, so on a random 800-vertex graph
    its peak stays near the table's build; writing the whole table at once took it
    to about 2.6 times the build."""
    g = random_graph(800, 6, seed=1)
    f = tmp_path / "g.sg"
    f.write_text(serialize_graph(g))

    def peak(run):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    table = peak(lambda: distance._reach_table(SignedGraph(800, g.edges)))  # a fresh graph's build
    complete = peak(lambda: main(["complete", "--mode", "max", str(f)]))
    assert complete <= 1.25 * table, (table, complete)


# -- balance / compatible -------------------------------------------------------------


def test_balance_output_balanced(capsys, tmp_path):
    f = tmp_path / "g.sg"
    f.write_text(serialize_graph(cycle_graph([1, -1, -1, 1])))
    code, out, _ = run(capsys, "balance", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "balanced"
    assert lines[1].startswith("labels ")
    assert set(lines[1].split()[1:]) <= {"+", "-"}


def test_balance_output_unbalanced(capsys, c7_file):
    code, out, _ = run(capsys, "balance", c7_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "unbalanced"
    cyc = [int(x) for x in lines[1].split()[1:]]
    assert cyc[0] == cyc[-1] and len(cyc) == 8


def test_compatible_reports_witness_paths(capsys, c4_file, c7_file):
    code, out, _ = run(capsys, "compatible", c7_file)
    assert code == 0 and out == "compatible\n"
    code, out, _ = run(capsys, "compatible", c4_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "incompatible 0 2"
    assert lines[1] == "positive_path 0 1 2"
    assert lines[2] == "negative_path 0 3 2"


# -- spectrum ----------------------------------------------------------------------


def test_spectrum_of_complete_pm(capsys, tmp_path):
    f = tmp_path / "k4.sg"
    f.write_text(serialize_graph(complete_graph(4)))
    code, out, _ = run(capsys, "spectrum", str(f))
    assert code == 0
    assert out.splitlines() == ["3\t1", "-1\t3"]


def test_spectrum_complete_pm_flag(capsys, c7_file):
    code, out, _ = run(capsys, "spectrum", "--complete-pm", c7_file)
    assert code == 0
    groups = [line.split("\t") for line in out.splitlines()]
    assert sum(int(m) for _, m in groups) == 7


# -- lift / project -----------------------------------------------------------------


def test_lift_and_project(capsys, tmp_path):
    f = tmp_path / "p.sg"
    f.write_text("sg 1\nn 5\n0 1 +\n1 2 -\n2 3 +\n3 4 +\n")
    code, out, _ = run(capsys, "lift", "-n", "2", "--path", "0,1,2,3,4", str(f))
    assert code == 0
    assert out.splitlines() == ["path 0 2 4", "sign -"]
    code, out, _ = run(capsys, "project", "-n", "2", "--path", "0,2,4", str(f))
    assert code == 0
    assert out.splitlines() == ["walk 0 1 2 3 4", "sign -"]


def test_project_checks_the_walk_before_printing(capsys, tmp_path):
    f = tmp_path / "p.sg"
    f.write_text("sg 1\nn 3\n0 1 +\n1 2 -\n")
    code, out, err = run(capsys, "project", "-n", "2", "--path", "7", str(f))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["NotAPath: vertex 7 outside [0, 3)"]


def test_project_refuses_a_non_unique_power():
    argv = ["project", "-n", "2", "--path", "0,2", str(ROOT / "data" / "c4_one_negative.sg")]
    code, out, err = run_captured(argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["NonUniquePower: the 2-th power of the graph is not unique"]


@given(connected_signed_graphs(max_vertices=7), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_lift_sign_is_the_walk_sign_in_the_max_power(g, n, data):
    assume(power(g, n).unique)
    path = [data.draw(st.integers(0, g.vertex_count - 1))]  # a random simple path
    for _ in range(data.draw(st.integers(0, g.vertex_count - 1))):
        steps = [y for y, _ in g.neighbors(path[-1]) if y not in path]
        if not steps:
            break
        path.append(data.draw(st.sampled_from(steps)))
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.sg"
        f.write_text(serialize_graph(g))
        argv = ["lift", "-n", str(n), "--path", ",".join(map(str, path)), str(f)]
        code, out, err = run_captured(argv)
    lifted = lift_path(g, path, n)
    sign = "+" if walk_sign(power(g, n).power_max, lifted) > 0 else "-"
    assert (code, err) == (0, "")
    assert out.splitlines() == ["path " + " ".join(map(str, lifted)), "sign " + sign]


def test_lift_error_paths(capsys, c4_file):
    code, _, err = run(capsys, "lift", "-n", "2", "--path", "0,1,2", c4_file)
    assert code == 1
    assert err.startswith("NonUniquePower:")
    with pytest.raises(SystemExit):
        main(["lift", "-n", "2", "--path", "0,x", c4_file])


# -- verify / generate ---------------------------------------------------------------


def test_verify_single_theorem_passes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "t1", "--trials", "10", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("t1 10/10")
    assert lines[-1] == "result PASS"


def test_verify_failing_theorem_writes_bundle(capsys, tmp_path):
    bundle = tmp_path / "cx"
    code, out, err = run(
        capsys,
        "verify", "--theorem", "l3", "--trials", "40", "--seed", "42",
        "--bundle", str(bundle),
    )
    assert code == 1
    assert out.splitlines()[-1] == "result FAIL l3"
    assert "counterexamples written" in err
    manifest = (bundle / "manifest.txt").read_text().splitlines()
    assert manifest and all(line.startswith("theorem=l3") for line in manifest)
    case_files = sorted(bundle.glob("case_l3_*_graph.sg"))
    assert len(case_files) == len(manifest)
    parse_graph(case_files[0].read_text())  # bundle files are loadable


def test_generate_streams_graphs(capsys, tmp_path):
    spec = tmp_path / "corpus.spec"
    spec.write_text(
        "seed = 4\nmin_vertices = 3\nmax_vertices = 5\nedge_probability = 0.5\ntrials = 3\n"
    )
    code, out, _ = run(capsys, "generate", str(spec))
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    for i, block in enumerate(blocks):
        assert f"# trial {i}" in block
        parse_graph(block)


# -- byte-identity gates ------------------------------------------------------------

# `verify --theorem all --trials 200 --seed 42`: stdout, and a digest of the
# bundle (each file's name and bytes, in name order)
REFERENCE_VERIFY_STDOUT = """\
t1 200/200
diam 200/200
l1 200/200 (skipped_non_unique=213)
le 200/200 (skipped_non_unique=305)
t27 200/200
blcm 200/200
l3 178/200
cbp 200/200 (non_unique=83)
sgs 200/200
nbc 200/200
result FAIL l3
"""
REFERENCE_BUNDLE_SHA256 = "a834fdbe4cfef8b5b24ddea3a2a6467fc68568e95f5b7c4e34f031a11a2a3eff"

# stdout of `sgpower <command> data/<file>`, keyed "<command> <file>"
GOLDEN_CLI = json.loads((ROOT / "tests" / "golden_cli.json").read_text())


def test_reference_verify_run_is_pinned(tmp_path):
    argv = ["verify", "--theorem", "all", "--trials", "200", "--seed", "42"]
    code, out, _ = run_captured([*argv, "--bundle", str(tmp_path)])
    assert (code, out) == (1, REFERENCE_VERIFY_STDOUT)
    digest = hashlib.sha256()
    for f in sorted(tmp_path.iterdir()):
        digest.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    assert digest.hexdigest() == REFERENCE_BUNDLE_SHA256


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI))
def test_cli_output_on_the_data_files_is_pinned(command):
    *argv, name = command.split()
    assert run_captured([*argv, str(ROOT / "data" / name)]) == (0, GOLDEN_CLI[command], "")


# one digest over (argv, code, stdout, stderr) of _SWEEP on each graph of _SWEEP_SPEC
_SWEEP_SPEC = CorpusSpec(77, (2, 30), 0.2, frozenset(), 40)
_SWEEP = (
    [["info"], ["balance"], ["compatible"], ["distance"]]
    + [["complete", "--mode", mode] for mode in ("max", "min", "pm")]
    + [["power", "-n", n, "--mode", mode] for n in "1235" for mode in ("max", "min", "unique")]
)
SWEEP_SHA256 = "79d8bda06bc99f1bfd146bd86fd393a02ccb6dad7221fb2039e43fb81fff7a2f"


def test_cli_output_on_seeded_random_graphs_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for i, g in enumerate(generate(_SWEEP_SPEC)):
        f = tmp_path / f"g{i}.sg"
        f.write_text(serialize_graph(g))
        for argv in _SWEEP:
            code, out, err = run_captured([*argv, str(f)])
            digest.update(repr(([*argv, f.name], code, out, err)).encode())
    assert digest.hexdigest() == SWEEP_SHA256


# -- error handling -----------------------------------------------------------------


def test_missing_file_is_a_domain_error(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/file.sg")
    assert code == 1
    assert err.startswith("FileNotFound:")


def test_unreadable_path_is_a_domain_error(capsys, tmp_path):
    code, out, err = run(capsys, "info", str(tmp_path))  # a directory
    assert code == 1 and out == ""
    assert err.startswith("IsADirectory:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, data, line",
    [
        ("info", b"sg 1\nn 2\n0 1 \xff\n", "byte 0xff in position 13: invalid start byte"),
        ("generate", b"seed = 3\n# caf\xe9\n", "byte 0xe9 in position 14: invalid continuation byte"),
    ],
    ids=["graph", "spec"],
)
def test_a_file_that_is_not_utf8_is_a_one_line_domain_error(capsys, tmp_path, command, data, line):
    f = tmp_path / "input"
    f.write_bytes(data)
    code, out, err = run(capsys, command, str(f))
    assert (code, out) == (1, "")
    assert err == f"UnicodeDecode: 'utf-8' codec can't decode {line}\n"


def test_parse_error_reports_line(capsys, tmp_path):
    f = tmp_path / "bad.sg"
    f.write_text("sg 1\nn 3\n0 0 +\n")
    code, _, err = run(capsys, "info", str(f))
    assert code == 1
    assert err.startswith("LoopEdge: line 3:")


@pytest.mark.parametrize("count", [10**20, 2**30])
def test_vertex_counts_past_the_limit_are_rejected_at_their_line(capsys, tmp_path, count):
    f = tmp_path / "huge.sg"
    f.write_text(f"sg 1\n# too many\nn {count}\n")
    for argv in (
        ["info"], ["distance"], ["power", "-n", "2"], ["complete"], ["balance"], ["compatible"],
        ["spectrum"], ["lift", "-n", "1", "--path", "0"], ["project", "-n", "1", "--path", "0"],
    ):
        code, out, err = run(capsys, *argv, str(f))
        assert (code, out) == (1, ""), argv
        assert err == f"GraphSyntax: line 3: vertex count must be below 2^30, got {count}\n", argv


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "Memory: out of memory"),
        (MemoryError("Unable to allocate 8.00 EiB"), "Memory: Unable to allocate 8.00 EiB"),
    ],
)
def test_a_table_too_large_for_memory_is_a_one_line_error(capsys, monkeypatch, c4_file, exc, line):
    def out_of_memory(graphs):
        raise exc

    monkeypatch.setattr(distance, "_all_sources", out_of_memory)
    assert run(capsys, "distance", c4_file) == (1, "", line + "\n")


def test_info_prints_nothing_before_an_error(capsys, monkeypatch, c4_file):
    def out_of_memory(graphs):
        raise MemoryError()

    monkeypatch.setattr(distance, "_all_sources", out_of_memory)
    assert run(capsys, "info", c4_file) == (1, "", "Memory: out of memory\n")


def test_info_on_a_huge_sparse_graph_needs_no_search(capsys, tmp_path):
    f = tmp_path / "sparse.sg"
    f.write_text(f"sg 1\nn {2**29}\n0 1 +\n")
    assert run(capsys, "info", str(f)) == (0, f"vertices {2**29}\nedges 1\nconnected no\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
        (
            ["verify", "--theorem", "t27", "--max-vertices", "2"],
            "argument --max-vertices: must be at least 3, got 2",
        ),
        (["spectrum", "--tol", "0"], "argument --tol: must be positive and finite, got 0"),
        (["lift", "-n", "2", "--path", "0,x"], "argument --path: expected comma-separated"),
        (["project", "-n", "2", "--path", "0,x"], "argument --path: expected comma-separated"),
        (["spectrum", "--tol", "inf"], "argument --tol: must be positive and finite, got inf"),
        (["spectrum", "--tol", "nan"], "argument --tol: must be positive and finite, got nan"),
        (
            ["verify", "--theorem", "t1", "--max-vertices", "1025"],
            "argument --max-vertices: must be at most 1024, got 1025",
        ),
    ],
)
def test_bad_argument_values_are_one_line_usage_errors(capsys, c4_file, argv, message):
    if argv[0] != "verify":
        argv = argv + [c4_file]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"sgpower {argv[0]}: error: {message}" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["power", "--mode", "sideways", "x.sg"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "command, required",
    [
        ("info", "file"),
        ("distance", "file"),
        ("power", "-n, file"),
        ("complete", "file"),
        ("balance", "file"),
        ("compatible", "file"),
        ("spectrum", "file"),
        ("lift", "-n, --path, file"),
        ("project", "-n, --path, file"),
    ],
)
def test_graph_commands_take_the_file_last(command, required):
    code, out, err = run_captured([command])
    assert (code, out) == (2, "")
    assert err == f"sgpower {command}: error: the following arguments are required: {required}\n"
    code, out, err = run_captured([command, "--help"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith(" file")


# -- one parser per process ---------------------------------------------------------


@pytest.mark.parametrize(
    "first, second",
    [
        (["spectrum", "--complete-pm", "--tol", "1e-3", "C7"], ["spectrum", "C7"]),
        (["power", "-n", "2", "--mode", "max", "C4"], ["power", "-n", "2", "C4"]),  # default unique
        (["distance", "--mode", "max", "C4"], ["distance", "C4"]),
        (["verify", "--theorem", "t1", "--trials", "2"], ["verify", "--trials", "1"]),
    ],
)
def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(
    monkeypatch, tmp_path, c4_file, c7_file, first, second
):
    monkeypatch.chdir(tmp_path)  # where a failing `verify` writes its default bundle
    files = {"C4": c4_file, "C7": c7_file}
    first, second = ([files.get(a, a) for a in argv] for argv in (first, second))
    backward = [run_captured(second), run_captured(first)]  # second before first has given any option
    forward = [run_captured(first), run_captured(second)]
    assert forward == backward[::-1]
    assert forward[0] != forward[1]  # the options left out of the second call matter
    assert cli._build_parser() is cli._build_parser()


def test_a_usage_error_or_help_leaves_the_next_call_as_it_was():
    info = ["info", str(ROOT / "data" / "c7neg.sg")]
    golden = (0, GOLDEN_CLI["info c7neg.sg"], "")
    bad = ["power", "--mode", "x", str(ROOT / "data" / "c7neg.sg")]
    assert run_captured(info) == golden
    code, out, err = usage = run_captured(bad)
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert run_captured(info) == golden
    for help_argv in (["--help"], ["power", "--help"]):
        code, out, err = run_captured(help_argv)
        assert (code, err) == (0, "") and out.startswith("usage: sgpower")
        assert run_captured(info) == golden
    assert run_captured(bad) == usage


def test_the_module_entry_point_runs_in_a_fresh_process():
    def sgpower(*argv):
        return subprocess.run(
            [sys.executable, "-m", "sgpower", *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )

    proc = sgpower("info", "data/c7neg.sg")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, GOLDEN_CLI["info c7neg.sg"], "")
    proc = sgpower("--help")
    assert proc.returncode == 0
    commands = ("info", "distance", "power", "complete", "balance", "compatible", "spectrum")
    for name in (*commands, "lift", "project", "verify", "generate"):
        assert name in proc.stdout, name
    proc = sgpower("power", "--mode", "x", "data/c7neg.sg")
    assert (proc.returncode, proc.stdout) == (2, "") and len(proc.stderr.splitlines()) == 1


# -- the exit-code contract under fuzzing ------------------------------------------------

_INDEX = st.sampled_from(["0", "1", "2", "3", "5", "-1", "9", "x"])
_EDGE_LINE = st.builds(
    lambda u, v, sign: f"{u} {v} {sign}",
    _INDEX,
    _INDEX,
    st.sampled_from(["+", "-", "1", "-1", "0", "x"]),
)
_GRAPH_TEXT = st.one_of(
    st.builds(serialize_graph, connected_signed_graphs(max_vertices=6)),
    st.builds(
        lambda header, count, lines: "\n".join([header, count, *lines]) + "\n",
        st.sampled_from(["sg 1", "sg 1", "sg 2", ""]),
        st.sampled_from(
            ["n 1", "n 3", "n 5", "n 6", "n 0", "n -2", "n x", "0 1 +",
             "n 100000000000000000000", "n 1073741824"]
        ),
        st.lists(st.one_of(_EDGE_LINE, st.sampled_from(["# note", "# 0 1", "0 1", "0 1 + +"])), max_size=10),
    ),
)
_SPEC_TEXT = st.builds(
    lambda lines: "\n".join(lines) + "\n",
    st.one_of(
        st.tuples(
            st.sampled_from(["seed = 3", "seed = 8"]),
            st.sampled_from(["min_vertices = 2", "min_vertices = 4"]),
            st.sampled_from(["max_vertices = 4", "max_vertices = 6"]),
            st.sampled_from(["edge_probability = 0", "edge_probability = 0.5"]),
            st.sampled_from(["trials = 1", "trials = 3"]),
            st.sampled_from(["", "require = two_connected, balanced", "require = compatible"]),
        ),
        st.lists(
            st.sampled_from(
                ["seed = 3", "seed = x", "min_vertices = 2", "min_vertices = 1",
                 "max_vertices = 5", "max_vertices = 1", "edge_probability = 0.5",
                 "edge_probability = 2", "trials = 2", "trials = 0", "require = balanced",
                 "require = compatible, two_connected", "require = bogus", "nonsense"]
            ),
            max_size=7,
        ),
    ),
)
_EXPONENT = st.sampled_from(["1", "2", "2", "3", "99", "0", "-1", "x"])
_PATH = st.sampled_from(["0,1,2", "0,2", "2,0", "0", "", "0,0", "0,9", "-1,0", "0,x", "1,2,3,4"])
_REQUIRED = ("-n", "--path")
_OPTIONS = {
    "info": {},
    "distance": {"--mode": st.sampled_from(["max", "min", "both", "x"])},
    "power": {"-n": _EXPONENT, "--mode": st.sampled_from(["max", "min", "unique", "x"])},
    "complete": {"--mode": st.sampled_from(["max", "min", "pm", "x"])},
    "balance": {},
    "compatible": {},
    "spectrum": {"--complete-pm": st.none(), "--tol": st.sampled_from(["1e-9", "0", "inf", "nan", "x"])},
    "lift": {"-n": _EXPONENT, "--path": _PATH},
    "project": {"-n": _EXPONENT, "--path": _PATH},
    "verify": {
        "--theorem": st.sampled_from([*THEOREM_ORDER, "all", "t99"]),
        "--seed": st.sampled_from(["0", "7", "x"]),
        "--max-vertices": st.sampled_from(["2", "3", "5"]),
    },
    "generate": {},
}


@st.composite
def _invocations(draw):
    """(argv, file bytes): a subcommand, a subset of its options, and a file operand."""
    command = draw(st.sampled_from([*_OPTIONS, "bogus"]))
    argv = [command]
    if command == "verify":  # always bounded: the default 100 trials take seconds
        argv += ["--trials", draw(st.sampled_from(["1", "2", "0", "x"]))]
    for flag, values in _OPTIONS.get(command, {}).items():
        if draw(st.booleans()) or (flag in _REQUIRED and draw(st.integers(0, 9)) > 0):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    text = draw(_SPEC_TEXT if command == "generate" else _GRAPH_TEXT)
    data = text.replace("\n", draw(st.sampled_from(["\n", "\r\n"]))).encode()
    if draw(st.integers(0, 4)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    operand = draw(st.sampled_from(["FILE"] * 6 + ["MISSING", "DIR", None, "--bogus"]))
    if command != "verify" and operand is not None:
        argv.append(operand)
    return argv, data


@given(_invocations())
@settings(max_examples=250, deadline=None)
def test_every_invocation_exits_0_1_or_2_with_at_most_one_stderr_line(invocation):
    argv, data = invocation
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "input").write_bytes(data)
        files = {"FILE": "input", "MISSING": "absent.sg", "DIR": "."}
        argv = [str(Path(tmp) / files[a]) if a in files else a for a in argv]
        if argv[0] == "verify":
            argv += ["--bundle", str(Path(tmp) / "bundle")]
        code, _, err = run_captured(argv)
    assert code in (0, 1, 2), (argv, data, code, err)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, data, err)
