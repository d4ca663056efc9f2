"""Plain-text formats: signed graph files and corpus spec files.

Graph file format, one item per line:

    sg 1            header (format name and version)
    # ...           comment lines, ignored anywhere
    n <count>       number of vertices (0-based indices), below 2^30
    <u> <v> <s>     one edge per line; s is one of +  -  1  -1

Unknown tokens are errors.  Parse errors carry the 1-based line number.
`parse_graph` takes a text in the writer's layout (only "#" and blank lines
before "n", then single-spaced edge lines and blank lines, all ended by
"\n") in one bulk pass: one regex match, one split, and the tokens straight
into the `SignedGraph` constructor.  Any other text, or a bad token or edge,
goes to the line reader `_parse_lines`, which streams the edges into the
constructor one line at a time and re-raises its edge errors (loops,
duplicates, out-of-range ends) with the line number in front, so the
first bad line is the one reported.

The writer `serialize_edges` yields the text a block of row-major edge arrays
at a time; `power` and `complete` feed it the sign table's rows, building no graph.

Corpus spec files are `key = value` lines (# comments allowed) with
keys: seed, min_vertices, max_vertices, edge_probability, trials and
optionally require (comma-separated requirement names).  A bad value
is reported at its key's line; a bad combination (min_vertices above
max_vertices, say) at the later line of the keys involved.
"""

from __future__ import annotations

import contextlib
import re
from typing import Iterator

import numpy as np

from .core import (
    BadSignError,
    DuplicateEdgeError,
    LoopEdgeError,
    SignedGraph,
    SignedGraphError,
    VertexOutOfRangeError,
)
from .oracle import CorpusSpec

SIGN_TOKENS = {"+": 1, "1": 1, "-": -1, "-1": -1}


class GraphSyntaxError(SignedGraphError):
    """Malformed graph or spec file; `line` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# the bulk layout; \S is all but str.split's whitespace, which holds every str.splitlines break
_SKIP = r"(?:(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?\n)*"
_BULK = re.compile(rf"{_SKIP}sg 1\n{_SKIP}n ([1-9][0-9]{{0,8}})\n((?:\S+ \S+ \S+\n|\n)*(?:\S+ \S+ \S+)?)")


def parse_graph(text: str) -> SignedGraph:
    if match := _BULK.fullmatch(text):  # a "#" line among the edges puts "#..." where int() fails
        t, signs = match[2].split(), SIGN_TOKENS.__getitem__
        with contextlib.suppress(ValueError, KeyError, SignedGraphError):  # the line reader names the line
            return SignedGraph(int(match[1]), zip(map(int, t[0::3]), map(int, t[1::3]), map(signs, t[2::3])))
    return _parse_lines(text)


def _parse_lines(text: str) -> SignedGraph:
    lines = text.splitlines()
    significant = [
        (i, line) for i, line in enumerate(map(str.strip, lines), 1) if line and not line.startswith("#")
    ]
    if not significant:
        raise GraphSyntaxError(len(lines) + 1, "missing 'sg 1' header")
    ln, header = significant[0]
    if header.split() != ["sg", "1"]:
        raise GraphSyntaxError(ln, f"expected header 'sg 1', got {header!r}")
    if len(significant) < 2:
        raise GraphSyntaxError(ln + 1, "missing vertex count line 'n <count>'")
    ln, count_line = significant[1]
    fields = count_line.split()
    if len(fields) != 2 or fields[0] != "n":
        raise GraphSyntaxError(ln, f"expected 'n <count>', got {count_line!r}")
    try:
        vertex_count = int(fields[1])
    except ValueError:
        raise GraphSyntaxError(ln, f"vertex count {fields[1]!r} is not an integer") from None
    if vertex_count < 1:
        raise GraphSyntaxError(ln, "vertex count must be positive")
    if vertex_count >= 1 << 30:  # the sign table's key stamps take 8 V^2 bytes: 2^63 here
        raise GraphSyntaxError(ln, f"vertex count must be below 2^30, got {vertex_count}")

    def edges():  # syntax and sign tokens only; the constructor checks the rest
        nonlocal ln
        for ln, line in significant[2:]:
            fields = line.split()
            if len(fields) != 3:
                raise GraphSyntaxError(ln, f"expected '<u> <v> <sign>', got {line!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphSyntaxError(ln, f"bad vertex index in {line!r}") from None
            sign = SIGN_TOKENS.get(fields[2])
            if sign is None:
                raise BadSignError(f"line {ln}: sign token {fields[2]!r}; use +, -, 1 or -1")
            yield u, v, sign

    try:
        return SignedGraph(vertex_count, edges())
    except (VertexOutOfRangeError, LoopEdgeError, DuplicateEdgeError) as exc:
        # the constructor consumes one line at a time, so `ln` is the bad edge's line
        raise type(exc)(f"line {ln}: {exc}") from None


def serialize_edges(n: int, blocks, comments: tuple[str, ...] = ()) -> Iterator[str]:
    """Text of the graph on n vertices whose edges come as `blocks` of arrays (us, vs,
    signs), all row-major with u < v: the header, then one string per block, each
    one gather from a table of labels, heads "u " and tails "v +" / "v -" and a newline."""
    yield "".join(f"{line}\n" for line in ("sg 1", *(f"# {c}" for c in comments), f"n {n}"))
    heads, tails = [f"{u} " for u in range(n)], [f"{v} {c}\n" for v in range(n) for c in "+-"]
    labels = np.array(heads + tails, dtype=object)  # head u at u, tail (v, s) at n + 2v + (s < 0)
    for us, vs, signs in blocks:
        ends = n + 2 * np.asarray(vs, dtype=np.intp) + (np.asarray(signs) < 0)
        at = np.stack((np.asarray(us, dtype=np.intp), ends), axis=1)  # head, tail, head, tail, ...
        yield "".join(labels[at.ravel()].tolist())


def serialize_graph(g: SignedGraph, comments: tuple[str, ...] = ()) -> str:
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 3)  # one block of (us, vs, signs)
    return "".join(serialize_edges(g.vertex_count, (edges.T,), comments))


def _requirements(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(",") if part.strip())


# each key's value type; "require" is optional
_SPEC_KEYS = {"seed": int, "min_vertices": int, "max_vertices": int, "edge_probability": float,
              "trials": int, "require": _requirements}
# the keys behind each CorpusSpec check, by the first word of its message
_CHECKED_KEYS = {"vertex_range": ("min_vertices", "max_vertices"), "unknown": ("require",),
                 "edge_probability": ("edge_probability",), "trials": ("trials",)}


def parse_corpus_spec(text: str) -> CorpusSpec:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GraphSyntaxError(i, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise GraphSyntaxError(i, f"unknown key {key!r}")
        if key in values:
            raise GraphSyntaxError(i, f"key {key!r} given twice")
        try:
            values[key] = _SPEC_KEYS[key](value.strip())
        except ValueError as exc:
            raise GraphSyntaxError(i, str(exc)) from None
        lines[key] = i
    missing = [k for k in _SPEC_KEYS if k != "require" and k not in values]
    if missing:
        raise GraphSyntaxError(len(text.splitlines()) + 1, f"missing keys: {', '.join(missing)}")
    try:
        return CorpusSpec(
            seed=values["seed"],
            vertex_range=(values["min_vertices"], values["max_vertices"]),
            edge_probability=values["edge_probability"],
            require=values.get("require", frozenset()),
            trials=values["trials"],
        )
    except ValueError as exc:  # named at the later line of the keys it checks
        keys = _CHECKED_KEYS.get(str(exc).split()[0], lines)
        raise GraphSyntaxError(max(lines[k] for k in keys), str(exc)) from None
