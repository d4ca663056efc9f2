"""Command line front end.

Subcommands: info, distance, power, complete, balance, compatible,
spectrum, lift, project, verify, generate.  Graphs travel as the plain
text format of `fileio`; every command but `verify` and `generate` takes
a graph file last, which `main` reads.  `distance`, `power` and
`complete` write straight from the sign table: one gather from a table of
labels and one write per block of rows (`distance._row_blocks`), the pairs
of `power` and `complete` through `fileio.serialize_edges`.  Domain errors
and unreadable files exit with status 1 and the error name on standard
error; usage errors exit with status 2.  One parser, built once per
process (about 4 ms), serves every `main` call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import harness
from .balance import is_balanced, lift_path, project_path
from .core import (
    NonUniquePowerError,
    SignedGraph,
    SignedGraphError,
    error_line,
    is_connected,
    is_two_connected,
    walk_sign,
)
from .distance import (
    _SIGMA,
    _SIGMA_MAX,
    _SIGMA_MIN,
    _reach_table,
    _row_blocks,
    diameter,
    first_incompatible_pair,
    is_compatible,
    shortest_path_with_sign,
)
from .fileio import parse_corpus_spec, parse_graph, serialize_edges, serialize_graph
from .oracle import generate
from .power import (
    _close_pairs,
    _completion_sigma,
    associated_complete,
    first_incompatible_pair_within,
    power,
)
from .spectra import DEFAULT_TOL, adjacency_matrix, eigenvalues
from .harness import THEOREM_ORDER


# -- argument types: a bad value is a usage error, never a traceback --------


def _checked(convert, ok, requirement: str):
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _vertex_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        msg = f"expected comma-separated vertices, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exits with status 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _sign_char(s: int) -> str:
    return "+" if s > 0 else "-"


# -- subcommand handlers ----------------------------------------------------


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_info(g: SignedGraph, args) -> int:
    # every answer first, so a failing one leaves stdout empty
    lines = [f"vertices {g.vertex_count}", f"edges {g.edge_count}"]
    connected = is_connected(g)
    lines.append(f"connected {_yes(connected)}")
    if connected:
        lines += [
            f"two-connected {_yes(is_two_connected(g))}",
            f"balanced {_yes(is_balanced(g).balanced)}",
            f"compatible {_yes(is_compatible(g))}",
            f"diameter {diameter(g)}",
        ]
    print("\n".join(lines))
    return 0


def _cmd_distance(g: SignedGraph, args) -> int:
    table = _reach_table(g)
    d = table.diameter  # entry d + k of `cells` is "k\t", of `ends` "k\n"
    cells, ends = (np.array([f"{k}{c}" for k in range(-d, d + 1)], dtype=object) for c in "\t\n")
    for mode, sigma in zip(("max", "min"), _SIGMA):  # D_max = sigma_max * dist, D_min = sigma_min * dist
        if args.mode == "both":
            sys.stdout.write(f"# {mode}\n")
        elif args.mode != mode:
            continue
        for rows in _row_blocks(g.vertex_count):
            index = d + sigma[table.mask[rows]] * table.dist[rows]  # int64, as d + dist may pass int16
            text = cells[index]
            text[:, -1] = ends[index[:, -1]]
            sys.stdout.write("".join(text.ravel().tolist()))
    return 0


def _cmd_power(g: SignedGraph, args) -> int:
    power(g, args.n)  # checks the exponent and connectivity
    pair = first_incompatible_pair_within(g, args.n) if args.mode == "unique" else None
    if pair is not None:
        raise NonUniquePowerError(f"incompatible pair {pair[0]} {pair[1]} at distance <= {args.n}")
    sigma = _SIGMA_MIN if args.mode == "min" else _SIGMA_MAX
    sys.stdout.writelines(serialize_edges(g.vertex_count, _close_pairs(g, args.n, sigma)))
    return 0


def _cmd_complete(g: SignedGraph, args) -> int:
    sigma = _completion_sigma(g, args.mode) or _SIGMA_MAX  # None: a complete g, its own completion
    sys.stdout.writelines(serialize_edges(g.vertex_count, _close_pairs(g, diameter(g), sigma)))
    return 0


def _cmd_balance(g: SignedGraph, args) -> int:
    report = is_balanced(g)
    if report.balanced:
        print("balanced")
        print("labels " + " ".join(_sign_char(s) for s in report.switching_labels))
    else:
        print("unbalanced")
        print("negative_cycle " + " ".join(str(v) for v in report.witness))
    return 0


def _cmd_compatible(g: SignedGraph, args) -> int:
    pair = first_incompatible_pair(g)
    if pair is None:
        print("compatible")
        return 0
    u, v = pair
    print(f"incompatible {u} {v}")
    pos = shortest_path_with_sign(g, u, v, 1)
    neg = shortest_path_with_sign(g, u, v, -1)
    print("positive_path " + " ".join(str(x) for x in pos))
    print("negative_path " + " ".join(str(x) for x in neg))
    return 0


def _cmd_spectrum(g: SignedGraph, args) -> int:
    target = associated_complete(g, "pm") if args.complete_pm else g
    spec = eigenvalues(adjacency_matrix(target), args.tol)
    for value, mult in spec.groups:
        print(f"{value:.12g}\t{mult}")
    return 0


def _cmd_lift(g: SignedGraph, args) -> int:
    lifted = lift_path(g, args.path, args.n)
    sign = _SIGMA[0, _reach_table(g).mask[lifted[:-1], lifted[1:]]].prod()  # each step signed sigma_max
    print("path " + " ".join(str(v) for v in lifted))
    print("sign " + _sign_char(sign))
    return 0


def _cmd_project(g: SignedGraph, args) -> int:
    pr = power(g, args.n)
    if not pr.unique:
        raise NonUniquePowerError(f"the {args.n}-th power of the graph is not unique")
    w = project_path(pr.witnesses_max, args.path)
    sign = walk_sign(g, w)  # validates w before the first line is printed
    print("walk " + " ".join(str(v) for v in w))
    print("sign " + _sign_char(sign))
    return 0


def _cmd_verify(args) -> int:
    names = list(THEOREM_ORDER) if args.theorem == "all" else [args.theorem]
    reports = [harness.run_theorem(t, args.trials, args.seed, args.max_vertices) for t in names]
    failed = []
    for rep in reports:
        notes = ""
        if rep.notes:
            notes = " (" + ", ".join(f"{k}={v}" for k, v in sorted(rep.notes.items())) + ")"
        print(f"{rep.name} {rep.passed}/{rep.trials}{notes}")
        if not rep.ok:
            failed.append(rep)
    if not failed:
        print("result PASS")
        return 0
    print("result FAIL " + " ".join(rep.name for rep in failed))
    _write_bundle(Path(args.bundle), failed)
    print(f"counterexamples written to {args.bundle}", file=sys.stderr)
    return 1


def _write_bundle(root: Path, failed: list[harness.TheoremReport]) -> None:
    root.mkdir(parents=True, exist_ok=True)
    manifest = []
    for rep in failed:
        for case in rep.failures:
            entry = [f"theorem={rep.name}", f"trial={case.trial}", f"note={case.description}"]
            for label, graph in case.graphs.items():
                name = f"case_{rep.name}_{case.trial}_{label}.sg"
                (root / name).write_text(
                    serialize_graph(graph, comments=(f"{rep.name} trial {case.trial} {label}",))
                )
                entry.append(f"{label}={name}")
            manifest.append(" ".join(entry))
    (root / "manifest.txt").write_text("\n".join(manifest) + "\n")


def _cmd_generate(args) -> int:
    spec = parse_corpus_spec(Path(args.spec).read_text(encoding="utf-8"))
    for i, g in enumerate(generate(spec)):
        sys.stdout.write(serialize_graph(g, comments=(f"trial {i}",)))
        print()
    return 0


# -- argument parsing -------------------------------------------------------


@functools.cache  # holds only argument specs and handlers; each parse makes a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgpower",
        description="signed graph distances, powers, balance and spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    add("info", _cmd_info, help="summary of a graph file")

    p = add("distance", _cmd_distance, help="signed distance matrices")
    p.add_argument("--mode", choices=("max", "min", "both"), default="both")

    p = add("power", _cmd_power, help="n-th power of a signed graph")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mode", choices=("max", "min", "unique"), default="unique")

    p = add("complete", _cmd_complete, help="associated signed complete graph")
    p.add_argument("--mode", choices=("max", "min", "pm"), default="pm")

    add("balance", _cmd_balance, help="balance test with certificate")
    add("compatible", _cmd_compatible, help="shortest-path sign compatibility")

    p = add("spectrum", _cmd_spectrum, help="adjacency spectrum")
    p.add_argument("--complete-pm", action="store_true", help="spectrum of the common-sign completion")
    tol = _checked(float, lambda x: 0 < x < np.inf, "positive and finite")  # nan compares false
    p.add_argument("--tol", type=tol, default=DEFAULT_TOL)

    p = add("lift", _cmd_lift, help="lift a path into the n-th power")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--path", type=_vertex_list, required=True, help="comma-separated vertices")

    p = add("project", _cmd_project, help="project a power path down via witnesses")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--path", type=_vertex_list, required=True, help="comma-separated vertices")

    p = add("verify", _cmd_verify, help="randomized theorem checks")
    p.add_argument("--theorem", choices=THEOREM_ORDER + ("all",), default="all")
    p.add_argument("--trials", type=_checked(int, lambda k: k >= 1, "at least 1"), default=100)
    p.add_argument("--seed", type=int, default=0)
    # every theorem key but sgs draws graphs of at least 3 vertices
    cap = harness.MAX_VERTICES
    vertices = _checked(_checked(int, lambda k: k >= 3, "at least 3"), lambda k: k <= cap, f"at most {cap}")
    p.add_argument("--max-vertices", type=vertices, default=8)
    p.add_argument("--bundle", default="counterexamples", help="directory for failure bundles")

    p = add("generate", _cmd_generate, help="emit graphs from a corpus spec file")
    p.add_argument("spec")

    for name, p in sub.choices.items():  # the graph file comes last, after a command's options
        if name not in ("verify", "generate"):
            p.add_argument("file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "file" in args:
            with open(args.file, encoding="utf-8") as f:  # plain open(): faster than Path.read_text
                g = parse_graph(f.read())
            return args.func(g, args)
        return args.func(args)
    except (SignedGraphError, OSError, UnicodeDecodeError) as exc:
        print(error_line(exc), file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"Memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
