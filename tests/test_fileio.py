"""Graph file and corpus spec parsing, with 1-based line numbers on errors."""

import random

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
