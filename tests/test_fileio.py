"""Graph file and corpus spec parsing, with 1-based line numbers on errors."""

import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpower import (
    BadSignError,
    CorpusSpec,
    DuplicateEdgeError,
    GraphSyntaxError,
    LoopEdgeError,
    SignedGraph,
    SignedGraphError,
    VertexOutOfRangeError,
    parse_corpus_spec,
    parse_graph,
    serialize_graph,
)
from sgpower import fileio
from sgpower.core import error_line
from sgpower.fileio import serialize_edges

from conftest import connected_signed_graphs


GOOD = """\
sg 1
# a comment
n 4

0 1 +
1 2 -
2 3 1
0 3 -1
"""


def test_parse_basic_file():
    g = parse_graph(GOOD)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1, 1), (0, 3, -1), (1, 2, -1), (2, 3, 1))


def test_comments_and_blanks_anywhere():
    text = "# leading\n\nsg 1\nn 2\n# between\n0 1 -\n\n# trailing\n"
    g = parse_graph(text)
    assert g.edges == ((0, 1, -1),)




def test_serialize_format_and_comments():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    text = serialize_graph(g, comments=("hello", "world"))
    assert text == "sg 1\n# hello\n# world\nn 3\n0 1 +\n1 2 -\n"


def reference_text(g, comments=()):
    """The writer's output as one f-string per edge line."""
    out = ["sg 1", *(f"# {c}" for c in comments), f"n {g.vertex_count}"]
    out.extend(f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in g.edges)
    return "\n".join(out) + "\n"


def _random_graph(n, edges, seed):
    rng = random.Random(seed)
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], edges)
    return SignedGraph(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])


@pytest.mark.parametrize(
    "g",
    [SignedGraph(1), SignedGraph(5), _random_graph(15, 40, 1), _random_graph(130, 900, 2)],
    ids=["n1 no edges", "n5 no edges", "ids past 10", "ids past 100"],
)
@pytest.mark.parametrize("comments", [(), ("one",), ("trial 3", "  spaced  ")])
def test_writer_matches_the_per_edge_format(g, comments):
    text = serialize_graph(g, comments)
    assert text == reference_text(g, comments)
    us, vs, signs = map(list, zip(*g.edges)) if g.edges else ([], [], [])  # plain lists
    assert "".join(serialize_edges(g.vertex_count, [(us, vs, signs)], comments)) == text
    for size in (1, 3):  # a line needs no row boundary: blocks of one edge, and of three
        cut = [slice(lo, lo + size) for lo in range(0, len(us), size)]
        blocks = [(us[b], vs[b], signs[b]) for b in cut]
        assert "".join(serialize_edges(g.vertex_count, blocks, comments)) == text
    assert parse_graph(text) == g


@given(connected_signed_graphs())
@settings(max_examples=100)
def test_round_trip(g):
    text = serialize_graph(g)
    assert text == reference_text(g)
    assert parse_graph(text) == g


def test_isolated_vertices_survive_round_trip():
    g = SignedGraph(5, [(0, 1, 1)])
    assert parse_graph(serialize_graph(g)).vertex_count == 5


# -- parse errors with line numbers ------------------------------------------------


def test_missing_header():
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("")
    assert e.value.line == 1
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("n 3\n0 1 +\n")
    assert e.value.line == 1 and "sg 1" in str(e.value)


def test_wrong_header_version():
    with pytest.raises(GraphSyntaxError):
        parse_graph("sg 2\nn 3\n")


def test_missing_or_bad_count_line():
    with pytest.raises(GraphSyntaxError):
        parse_graph("sg 1\n")
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("sg 1\nm 3\n")
    assert e.value.line == 2
    with pytest.raises(GraphSyntaxError):
        parse_graph("sg 1\nn x\n")
    with pytest.raises(GraphSyntaxError):
        parse_graph("sg 1\nn 0\n")
    for count in (2**30, 10**20):  # the sign table's key stamps would take 8 V^2 >= 2^63 bytes
        with pytest.raises(GraphSyntaxError, match=rf"^line 3: .* below 2\^30, got {count}$"):
            parse_graph(f"sg 1\n# big\nn {count}\n")
    assert parse_graph(f"sg 1\nn {2**30 - 1}\n").vertex_count == 2**30 - 1


def test_bad_edge_lines_carry_line_numbers():
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("sg 1\nn 3\n0 1\n")
    assert e.value.line == 3
    with pytest.raises(GraphSyntaxError):
        parse_graph("sg 1\nn 3\nzero 1 +\n")
    with pytest.raises(BadSignError) as e:
        parse_graph("sg 1\nn 3\n0 1 ?\n")
    assert "line 3" in str(e.value)
    with pytest.raises(VertexOutOfRangeError) as e:
        parse_graph("sg 1\nn 3\n# pad\n0 5 +\n")
    assert str(e.value) == "line 4: edge (0, 5) has an endpoint outside [0, 3)"
    with pytest.raises(LoopEdgeError) as e:
        parse_graph("sg 1\nn 3\n1 1 +\n")
    assert "line 3" in str(e.value)
    with pytest.raises(DuplicateEdgeError) as e:
        parse_graph("sg 1\nn 3\n0 1 +\n1 0 -\n")
    assert "line 4" in str(e.value)
    # the first bad line wins, whichever check it fails
    with pytest.raises(DuplicateEdgeError) as e:
        parse_graph("sg 1\nn 3\n0 1 +\n1 0 -\n0 2\n")
    assert str(e.value) == "line 4: edge (0, 1) appears more than once"
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("sg 1\nn 3\n0 1 +\n0 2\n1 0 -\n")
    assert e.value.line == 4
    with pytest.raises(BadSignError) as e:
        parse_graph("sg 1\nn 3\n0 1 ?\n0 9 +\n")
    assert "line 3" in str(e.value)


def test_sign_tokens():
    for token, sign in (("+", 1), ("1", 1), ("-", -1), ("-1", -1)):
        g = parse_graph(f"sg 1\nn 2\n0 1 {token}\n")
        assert g.sign(0, 1) == sign


# -- the bulk read against the line reader ------------------------------------------


def _outcome(parse, text):
    """The edges `parse` reads from text, or its error as one line with its line number."""
    try:
        g = parse(text)
    except SignedGraphError as exc:
        return error_line(exc), getattr(exc, "line", None)
    return g.vertex_count, g.edges


@pytest.mark.parametrize(
    "text, outcome",
    [
        # a 2-field and a 4-field line whose tokens re-align into two valid triples
        ("sg 1\nn 4\n0 1\n-1 2 3 +\n", "GraphSyntax: line 3: expected '<u> <v> <sign>', got '0 1'"),
        ("sg 1\nn 3\n0 1\u2028+\n", "GraphSyntax: line 3: expected '<u> <v> <sign>', got '0 1'"),
        ("sg 1\nn 3\n0 1 +\x851 2 -\n", ((0, 1, 1), (1, 2, -1))),
        ("sg 1\nn 3\n0 1\x1c+\n", "GraphSyntax: line 3: expected '<u> <v> <sign>', got '0 1'"),
        ("sg 1\rn 3\r0 1 +\r1 2 -\r", ((0, 1, 1), (1, 2, -1))),
        ("sg 1\r\nn 3\r\n0 1 +\r\n", ((0, 1, 1),)),
        ("sg 1\nn 3\n0\xa01 +\n", ((0, 1, 1),)),
        ("sg 1\nn 3\n0 1\x0b+\n", "GraphSyntax: line 3: expected '<u> <v> <sign>', got '0 1'"),
        ("sg 1\nn 1_1\n1_0 ٣ -\n", ((3, 10, -1),)),
        ("sg 1\nn 3\n\n0 1 +\n# 1 2\n\n1 2 -\n", ((0, 1, 1), (1, 2, -1))),
        ("sg 1\nn 3\n0 1 +\n#1 2 +\n", ((0, 1, 1),)),
        ("sg 1\nn 3\n0 1 +\n2 2 -\n", "LoopEdge: line 4: loop edge at vertex 2"),
        ("sg 1\nn 3\n0 1 +\n1 0 -\n", "DuplicateEdge: line 4: edge (0, 1) appears more than once"),
        ("sg 1\nn 3\n0 1 +\n0 3 +\n", "VertexOutOfRange: line 4: edge (0, 3) has an endpoint outside [0, 3)"),
        ("sg 1\nn 3\n0 1 +\n1 2 -", ((0, 1, 1), (1, 2, -1))),
    ],
    ids=["realigned fields", "u2028 break", "x85 break", "x1c break", "cr breaks", "crlf",
         "xa0 gap", "x0b break", "1_0 and arabic 3", "blank and # lines", "# line of 3 fields",
         "loop", "duplicate", "out of range", "no final newline"],
)
def test_the_bulk_read_gives_the_line_readers_graph_or_error(text, outcome):
    got = _outcome(fileio.parse_graph, text)
    assert got == _outcome(fileio._parse_lines, text)
    assert got[0 if isinstance(outcome, str) else 1] == outcome  # the error line, or the edges


_FIELD = st.sampled_from(["0", "1", "2", "3", "-1", "+", "-", "1_0", "٣", "#", "x"])
_GAP = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\x0b", "\x1c"])
_BREAK = st.sampled_from(["\n", "\n", "\n", "\n", "\r\n", "\r", "\x85", "\u2028", "\x1c"])
_TRIPLE = st.builds(" ".join, st.lists(_FIELD, min_size=3, max_size=3))
_LINE = st.one_of(
    st.builds(str.join, _GAP, st.lists(_FIELD, max_size=4)),
    st.builds(str.__add__, _GAP, _TRIPLE),
    st.sampled_from(["", "  ", "# note", "# 0 1"]),
)


@st.composite
def _graph_texts(draw):
    """Texts near the graph format: fuzzed fields, gaps, line breaks and line counts, half
    of them in the bulk layout but for their tokens (every break a "\n", and single spaces),
    some of those with their edge tokens regrouped into lines of 1 to 4 fields."""
    fuzzed = draw(st.booleans())
    body_line = _LINE if fuzzed else st.sampled_from(["", "0 1 +", "0 2 -", "1 2 1", "3 2 -1"]) | _TRIPLE
    body = draw(st.lists(body_line, max_size=8))
    if not fuzzed and draw(st.booleans()):
        tokens = " ".join(body).split()
        sizes = draw(st.lists(st.integers(1, 4), min_size=len(tokens), max_size=len(tokens)))
        cuts = itertools.pairwise(itertools.accumulate([0, *sizes]))
        body = [" ".join(tokens[a:b]) for a, b in cuts if a < len(tokens)]
    lines = [
        *draw(st.lists(st.sampled_from(["", "# c", " "] if fuzzed else ["", "# c"]), max_size=2)),
        draw(st.sampled_from(["sg 1", "sg  1", "sg 2"] if fuzzed else ["sg 1"])),
        draw(st.sampled_from(["n 3", "n 4", "n 4", "n 1_0", "n ٣", "n 0", "n x", "n  4"])),
        *body,
    ]
    text = "".join(line + (draw(_BREAK) if fuzzed else "\n") for line in lines)
    return text.removesuffix("\n") if draw(st.booleans()) else text


@given(_graph_texts())
@settings(max_examples=500)
def test_parse_graph_matches_the_line_reader_on_fuzzed_texts(text):
    assert _outcome(fileio.parse_graph, text) == _outcome(fileio._parse_lines, text)


def test_the_writers_layout_takes_the_bulk_read(monkeypatch):
    def line_reader(text):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(fileio, "_parse_lines", line_reader)
    assert parse_graph(GOOD).edge_count == 4  # a comment before the count, a blank line after
    g = _random_graph(130, 900, 2)
    for text in (serialize_graph(g), serialize_graph(g, ("trial 3",)), serialize_graph(g)[:-1]):
        assert parse_graph(text) == g


# -- corpus spec files --------------------------------------------------------------


SPEC = """\
# corpus for nightly runs
seed = 42
min_vertices = 3
max_vertices = 9
edge_probability = 0.35
trials = 200
require = balanced, two_connected
"""


def test_parse_corpus_spec():
    spec = parse_corpus_spec(SPEC)
    assert spec == CorpusSpec(
        seed=42,
        vertex_range=(3, 9),
        edge_probability=0.35,
        require=frozenset({"balanced", "two_connected"}),
        trials=200,
    )


def test_parse_corpus_spec_require_optional():
    text = "seed=1\nmin_vertices=2\nmax_vertices=4\nedge_probability=0.5\ntrials=3\n"
    assert parse_corpus_spec(text).require == frozenset()


def test_corpus_spec_errors():
    with pytest.raises(GraphSyntaxError) as e:
        parse_corpus_spec("seed 1\n")
    assert e.value.line == 1
    with pytest.raises(GraphSyntaxError):
        parse_corpus_spec("colour = red\n")
    with pytest.raises(GraphSyntaxError):
        parse_corpus_spec("seed = 1\nseed = 2\n")
    with pytest.raises(GraphSyntaxError) as e:
        parse_corpus_spec("seed = 1\n")  # missing the other keys
    assert "missing keys" in str(e.value)
    with pytest.raises(GraphSyntaxError):
        parse_corpus_spec(SPEC.replace("0.35", "1.35"))  # invalid probability


@pytest.mark.parametrize(
    "text, line",
    [
        ("seed = 1\nmin_vertices = x\n", 2),  # a value error: its key's line
        ("seed = 1\n# note\n\nedge_probability = half\n", 4),
        (SPEC.replace("trials = 200", "trials = 2.5"), 6),
        (SPEC.replace("min_vertices = 3", "min_vertices = 12"), 4),  # min > max: the later key
        ("max_vertices = 3\nseed = 1\ntrials = 2\nedge_probability = 0.5\nmin_vertices = 5\n", 5),
        (SPEC.replace("0.35", "1.35"), 5),
        (SPEC.replace("trials = 200", "trials = 0"), 6),
        (SPEC.replace("two_connected", "two_connectd"), 7),
    ],
    ids=["int", "float", "trials", "min>max", "min>max later", "probability", "trials<1", "require"],
)
def test_corpus_spec_value_errors_name_the_line_of_their_key(text, line):
    with pytest.raises(GraphSyntaxError) as e:
        parse_corpus_spec(text)
    assert e.value.line == line and str(e.value).startswith(f"line {line}: ")


def test_the_readme_format_examples_parse():
    # the README's graph-file and corpus-spec examples are read as a user would copy them
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, re.S | re.M)
    (graph,) = [b for b in blocks if "sg 1" in b.splitlines()]
    (spec,) = [b for b in blocks if "seed = 42" in b.splitlines()]
    g = parse_graph(graph)
    assert (g.vertex_count, g.edges) == (4, ((0, 1, -1), (0, 3, -1), (1, 2, 1), (2, 3, 1)))
    assert parse_corpus_spec(spec) == CorpusSpec(42, (3, 9), 0.35, frozenset({"balanced", "two_connected"}), 200)
