"""Graph file and corpus spec parsing, with 1-based line numbers on errors."""

import pytest
from hypothesis import given, settings

from sgpower import (
    BadSignError,
    CorpusSpec,
    DuplicateEdgeError,
    GraphSyntaxError,
    LoopEdgeError,
    SignedGraph,
    VertexOutOfRangeError,
    parse_corpus_spec,
    parse_graph,
    serialize_graph,
)

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


@given(connected_signed_graphs())
@settings(max_examples=100)
def test_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_format_and_comments():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    text = serialize_graph(g, comments=("hello", "world"))
    assert text == "sg 1\n# hello\n# world\nn 3\n0 1 +\n1 2 -\n"


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
