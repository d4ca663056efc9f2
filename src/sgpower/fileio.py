"""Plain-text formats: signed graph files and corpus spec files.

Graph file format, one item per line:

    sg 1            header (format name and version)
    # ...           comment lines, ignored anywhere
    n <count>       number of vertices (0-based indices)
    <u> <v> <s>     one edge per line; s is one of +  -  1  -1

Unknown tokens are errors.  Parse errors carry the 1-based line number.
The parser checks only the syntax and the sign tokens and streams the
edges into the `SignedGraph` constructor, one line at a time; the
constructor's edge errors (loops, duplicates, out-of-range ends) are
re-raised as the same error types with the line number in front, so the
first bad line is the one reported.

Corpus spec files are `key = value` lines (# comments allowed) with
keys: seed, min_vertices, max_vertices, edge_probability, trials and
optionally require (comma-separated requirement names).
"""

from __future__ import annotations

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
_SIGN_CHARS = {1: "+", -1: "-"}


class GraphSyntaxError(SignedGraphError):
    """Malformed graph or spec file; `line` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def parse_graph(text: str) -> SignedGraph:
    lines = text.splitlines()
    significant = [
        (i + 1, line.strip())
        for i, line in enumerate(lines)
        if line.strip() and not line.strip().startswith("#")
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


def serialize_graph(g: SignedGraph, comments: tuple[str, ...] = ()) -> str:
    out = ["sg 1"]
    out.extend(f"# {c}" for c in comments)
    out.append(f"n {g.vertex_count}")
    out.extend(f"{u} {v} {_SIGN_CHARS[s]}" for u, v, s in g.edges)
    return "\n".join(out) + "\n"


_SPEC_KEYS = ("seed", "min_vertices", "max_vertices", "edge_probability", "trials", "require")


def parse_corpus_spec(text: str) -> CorpusSpec:
    values: dict[str, str] = {}
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
        values[key] = value.strip()
    missing = [k for k in _SPEC_KEYS if k != "require" and k not in values]
    if missing:
        raise GraphSyntaxError(len(text.splitlines()) + 1, f"missing keys: {', '.join(missing)}")
    require = frozenset(
        part.strip() for part in values.get("require", "").split(",") if part.strip()
    )
    try:
        return CorpusSpec(
            seed=int(values["seed"]),
            vertex_range=(int(values["min_vertices"]), int(values["max_vertices"])),
            edge_probability=float(values["edge_probability"]),
            require=require,
            trials=int(values["trials"]),
        )
    except ValueError as exc:
        raise GraphSyntaxError(0, str(exc)) from None
