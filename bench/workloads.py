"""The four workloads: seeded inputs, program set-up, ops and output checks.

Each workload is built from the benchmark seed alone.  `setup()` makes the
program calls that come before the first timed op and returns the state
the ops read; `run(op)` is one timed op; `check(op, result)` verifies its
output against references that do not use the code under test (the
benchmark's own BFS and sign DP in `graphs`, numpy's eigensolver, and the
repo's brute-force oracle); `corrupt(op, result)` returns a wrong result
that `check` must reject, for the self-test.

Program functions are always looked up on their module at call time, so
the traced run sees the wrapped entry points.

Sizes are fixed schedules; the seed only draws structure and signs, so
runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import math
import random
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from graphs import NEG, POS, Graph, odd_cycle_with_trees, parse_text, random_edges, to_text

from sgpower import balance, cli, core, distance, harness, oracle, spectra

power = importlib.import_module("sgpower.power")  # the package's `power` is the function

VERIFY_SEEDS = 30  # ops = seeds x ten theorem keys
VERIFY_TRIALS = 10
VERIFY_MAX_VERTICES = 8

CLI_SIZES = tuple(range(40, 136, 8))  # one graph each; odd positions balanced
CLI_DEGREE = 6
CLI_ORACLE_PAIRS = 2  # oracle-checked pairs per distance/power/complete output
CLI_N = 2  # power exponent of the lift and project commands

WARM_V = 400
WARM_DEGREE = 6
WARM_N = 2  # power exponent built at set-up
WARM_MIX = {"sp": 20, "cp": 15, "project": 10}  # per graph
WARM_LIFTS = 16  # balanced graph only: its powers are unique
WARM_SCANS = 2  # first_incompatible_pair and diameter, per graph
WARM_ENUM_EVERY = 4  # every 4th path is also compared with the oracle's enumeration
WARM_DISTANCES = (2, 3, 4, 5)  # query pairs cycle through these distances

EIG_ORDERS = tuple(20 + 2 * (i % 10) for i in range(50))
EIG_DEGREE = 3
BST_ORDERS = tuple(24 + 3 * (i % 11) for i in range(50))  # even i balanced, odd i not
BST_DEGREE = 3
EIG_ATOL = 1e-8


class Op(NamedTuple):
    kind: str
    data: tuple


def _sigma_max(mask: int) -> int:
    return 1 if mask & POS else -1


def _sigma_min(mask: int) -> int:
    return -1 if mask & NEG else 1


def _lift(p, n: int) -> tuple:
    lifted = list(p[::n])
    if (len(p) - 1) % n:
        lifted.append(p[-1])
    return tuple(lifted)


def _power_sign(ref: Graph, q) -> int:
    """Sign of a path of the max power of `ref`, from the reference sign sets."""
    sign = 1
    for a, b in zip(q, q[1:]):
        sign *= _sigma_max(ref.signs(a, b))
    return sign


def _oracle_agrees(sg, pairs, expected) -> bool:
    """`expected(u, v, PathSigns)` holds for the oracle's sign set of each pair."""
    return all(expected(u, v, oracle.oracle_signs(sg, u, v)) for u, v in pairs)


class Workload:
    collect_between_ops = False

    def setup(self):
        return None

    def corrupt(self, op: Op, result):
        return None


# -- verify ---------------------------------------------------------------------


class Verify(Workload):
    """`harness.run_theorem` over all ten keys and seeds drawn from the bench seed."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        seeds = [rng.randrange(10**6) for _ in range(VERIFY_SEEDS)]
        self.ops = [Op(key, (s,)) for s in seeds for key in harness.THEOREM_ORDER]
        self.self_test_op = next(op for op in self.ops if op.kind == "l3")

    def run(self, op: Op):
        return harness.run_theorem(op.kind, VERIFY_TRIALS, op.data[0], VERIFY_MAX_VERTICES)

    def check(self, op: Op, rep) -> bool:
        if rep.name != op.kind or rep.trials != VERIFY_TRIALS:
            return False
        if op.kind != "l3":
            return rep.passed == VERIFY_TRIALS and not rep.failures
        # l3 is false in general: each failure must be a real counterexample
        return rep.passed + len(rep.failures) == VERIFY_TRIALS and all(
            self._l3_confirmed(case) for case in rep.failures
        )

    @staticmethod
    def _l3_confirmed(case) -> bool:
        """Recompute both completions from the oracle and confirm they differ."""
        m = re.match(r"n=(\d+): (max|min|common) completions differ", case.description)
        if m is None:
            return False
        n, mode = int(m[1]), m[2]
        g = case.graphs["graph"]
        pick = (lambda ps: ps.sigma_min) if mode == "min" else (lambda ps: ps.sigma_max)
        ref = Graph(g.vertex_count, list(g.edges))
        pairs = [(u, v) for u in range(ref.n) for v in range(u + 1, ref.n)]
        powered = core.SignedGraph(
            ref.n,
            [(u, v, pick(oracle.oracle_signs(g, u, v))) for u, v in pairs if ref.dist(u, v) <= n],
        )

        def completion(h):
            return [pick(oracle.oracle_signs(h, u, v)) for u, v in pairs]

        return completion(g) != completion(powered)

    def corrupt(self, op: Op, rep):
        if rep.failures:  # flip every edge to +: the completions then commute
            case = rep.failures[0]
            g = case.graphs["graph"]
            flipped = core.SignedGraph(g.vertex_count, [(u, v, 1) for u, v, _ in g.edges])
            bad = dataclasses.replace(case, graphs={"graph": flipped})
            return dataclasses.replace(rep, failures=[bad, *rep.failures[1:]])
        return dataclasses.replace(rep, passed=rep.passed - 1)


# -- cli_cold -------------------------------------------------------------------


class CliCold(Workload):
    """`cli.main(argv)` in-process on graph files written at set-up."""

    collect_between_ops = True

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.seed = seed
        self.refs: list[Graph] = []
        self.oracle_graphs = []
        self.ops: list[Op] = []
        workdir.mkdir(parents=True, exist_ok=True)
        for i, n in enumerate(CLI_SIZES):
            balanced = i % 2 == 1
            edges = random_edges(rng, n, CLI_DEGREE, balanced)
            ref = Graph(n, edges)
            path = workdir / f"g{i:02d}.sg"
            path.write_text(to_text(n, edges))
            f = str(path)
            self.refs.append(ref)
            self.oracle_graphs.append(core.SignedGraph(n, edges))
            diam = ref.diameter()
            cmds = [
                ("info", ["info", f]),
                ("distance", ["distance", f]),
                ("power", ["power", "-n", "2", "--mode", "max", f], 2),
                ("power", ["power", "-n", str(diam), "--mode", "max", f], diam),
                ("complete", ["complete", "--mode", "max", f], "max"),
                ("complete", ["complete", "--mode", "min", f], "min"),
                ("compatible", ["compatible", f]),
                ("balance", ["balance", f]),
            ]
            if balanced:
                u, v = self._far_pair(rng, ref, diam)
                p = ref.random_shortest_path(rng, u, v)
                u, v = self._far_pair(rng, ref, diam)
                q = _lift(ref.random_shortest_path(rng, u, v), CLI_N)
                cmds += [
                    ("complete", ["complete", "--mode", "pm", f], "pm"),
                    ("lift", ["lift", "-n", str(CLI_N), "--path", ",".join(map(str, p)), f], p),
                    ("project", ["project", "-n", str(CLI_N), "--path", ",".join(map(str, q)), f], q),
                ]
            self.ops += [Op(kind, (i, argv, *extra)) for kind, argv, *extra in cmds]
        rng.shuffle(self.ops)
        self.self_test_op = next(op for op in self.ops if op.kind == "complete")

    @staticmethod
    def _far_pair(rng, ref: Graph, diameter: int) -> tuple[int, int]:
        """A random pair at distance at least 3 (or the diameter), so lift and
        project do real work."""
        while True:
            u, v = rng.randrange(ref.n), rng.randrange(ref.n)
            if ref.dist(u, v) >= min(3, diameter):
                return u, v

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.data[1])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, op: Op, result) -> bool:
        code, text = result
        if code != 0:
            return False
        gi = op.data[0]
        ref = self.refs[gi]
        lines = text.splitlines()
        return getattr(self, f"_check_{op.kind}")(ref, self.oracle_graphs[gi], op, lines, text)

    def _sample(self, op: Op, pairs: list) -> list:
        rng = random.Random(f"{self.seed} {op.data[0]} {' '.join(op.data[1][:-1])}")  # not the path
        return rng.sample(pairs, min(CLI_ORACLE_PAIRS, len(pairs)))

    def _check_info(self, ref, sg, op, lines, text) -> bool:
        got = dict(line.split(" ", 1) for line in lines)
        yes = {True: "yes", False: "no"}
        want = {
            "vertices": str(ref.n),
            "edges": str(len(ref.edges)),
            "connected": "yes",
            "two-connected": yes[ref.two_connected()],
            "balanced": yes[ref.labels() is not None],
            "compatible": yes[ref.first_incompatible_pair() is None],
            "diameter": str(ref.diameter()),
        }
        return got == want

    def _check_distance(self, ref, sg, op, lines, text) -> bool:
        n = ref.n
        if len(lines) != 2 * n + 2 or lines[0] != "# max" or lines[n + 1] != "# min":
            return False
        dmax = [list(map(int, row.split("\t"))) for row in lines[1 : n + 1]]
        dmin = [list(map(int, row.split("\t"))) for row in lines[n + 2 :]]
        for u in range(n):
            dist, mask = ref.row(u)
            want_max = [_sigma_max(mask[v]) * dist[v] for v in range(n)]
            want_min = [_sigma_min(mask[v]) * dist[v] for v in range(n)]
            if dmax[u] != want_max or dmin[u] != want_min:
                return False
        pairs = self._sample(op, [(u, v) for u in range(n) for v in range(n) if u != v])
        return _oracle_agrees(
            sg,
            pairs,
            lambda u, v, ps: dmax[u][v] == ps.sigma_max * ref.dist(u, v)
            and dmin[u][v] == ps.sigma_min * ref.dist(u, v),
        )

    def _check_signed_graph(self, ref, sg, op, text, want: dict, mode: str) -> bool:
        n, got = parse_text(text)
        if n != ref.n or got != want:
            return False
        non_edges = [pair for pair in got if pair not in ref.sign]
        pick = (lambda ps: ps.sigma_min) if mode == "min" else (lambda ps: ps.sigma_max)
        pairs = self._sample(op, sorted(non_edges))
        return _oracle_agrees(sg, pairs, lambda u, v, ps: got[u, v] == pick(ps))

    def _check_power(self, ref, sg, op, lines, text) -> bool:
        k = op.data[2]
        want = {}
        for u in range(ref.n):
            dist, mask = ref.row(u)
            for v in range(u + 1, ref.n):
                if dist[v] <= k:
                    want[u, v] = _sigma_max(mask[v])
        return self._check_signed_graph(ref, sg, op, text, want, "max")

    def _check_complete(self, ref, sg, op, lines, text) -> bool:
        mode = op.data[2]
        sigma = _sigma_min if mode == "min" else _sigma_max
        want = {}
        for u in range(ref.n):
            mask = ref.row(u)[1]
            for v in range(u + 1, ref.n):
                s = ref.sign.get((u, v))
                want[u, v] = sigma(mask[v]) if s is None else s
        return self._check_signed_graph(ref, sg, op, text, want, mode)

    def _check_compatible(self, ref, sg, op, lines, text) -> bool:
        pair = ref.first_incompatible_pair()
        if pair is None:
            return lines == ["compatible"]
        u, v = pair
        if len(lines) != 3 or lines[0] != f"incompatible {u} {v}":
            return False
        for line, head, sign in ((lines[1], "positive_path", 1), (lines[2], "negative_path", -1)):
            name, *rest = line.split()
            path = tuple(map(int, rest))
            if name != head or not ref.is_shortest_path(path, u, v) or ref.walk_sign(path) != sign:
                return False
        return True

    def _check_balance(self, ref, sg, op, lines, text) -> bool:
        if len(lines) != 2:
            return False
        if lines[0] == "balanced":
            tokens = lines[1].split()
            labels = [1 if t == "+" else -1 for t in tokens[1:]]
            return (
                ref.labels() is not None
                and tokens[0] == "labels"
                and len(labels) == ref.n
                and all(labels[u] * labels[v] == s for u, v, s in ref.edges)
            )
        name, *rest = lines[1].split()
        cycle = tuple(map(int, rest))
        return (
            lines[0] == "unbalanced"
            and ref.labels() is None
            and name == "negative_cycle"
            and len(cycle) >= 4
            and cycle[0] == cycle[-1]
            and len(set(cycle[:-1])) == len(cycle) - 1
            and ref.walk_sign(cycle) == -1
        )

    def _check_lift(self, ref, sg, op, lines, text) -> bool:
        p = op.data[2]
        if len(lines) != 2:
            return False
        name, *rest = lines[0].split()
        lifted = tuple(map(int, rest))
        sign = ref.walk_sign(p)
        return (
            name == "path"
            and lifted[0] == p[0]
            and lifted[-1] == p[-1]
            and len(set(lifted)) == len(lifted)
            and len(lifted) - 1 == math.ceil((len(p) - 1) / CLI_N)
            and all(1 <= ref.dist(a, b) <= CLI_N for a, b in zip(lifted, lifted[1:]))
            and _power_sign(ref, lifted) == sign
            and lines[1] == f"sign {'+' if sign > 0 else '-'}"
        )

    def _check_project(self, ref, sg, op, lines, text) -> bool:
        q = op.data[2]
        if len(lines) != 2:
            return False
        name, *rest = lines[0].split()
        walk = tuple(map(int, rest))
        k = len(q) - 1
        sign = _power_sign(ref, q)
        return (
            name == "walk"
            and walk[0] == q[0]
            and walk[-1] == q[-1]
            and (k - 1) * CLI_N + 1 <= len(walk) - 1 <= k * CLI_N
            and ref.walk_sign(walk) == sign
            and lines[1] == f"sign {'+' if sign > 0 else '-'}"
        )

    def corrupt(self, op: Op, result):
        code, text = result
        if op.kind != "complete":
            return None
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.endswith((" +", " -")))
        lines[i] = lines[i][:-1] + ("-" if lines[i].endswith("+") else "+")
        return code, "\n".join(lines) + "\n"


# -- warm_queries ---------------------------------------------------------------


class WarmQueries(Workload):
    """Reads against reach tables and square powers built at set-up."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.edges = [random_edges(rng, WARM_V, WARM_DEGREE, balanced) for balanced in (True, False)]
        self.refs = [Graph(WARM_V, e) for e in self.edges]
        self.oracle_graphs = [core.SignedGraph(WARM_V, e) for e in self.edges]
        self.diameters = [ref.diameter() for ref in self.refs]
        if self.refs[0].labels() is None:
            raise ValueError("the balanced input is not balanced")
        # a balanced graph is compatible: every u-v path has sign label(u) * label(v)
        self.first_bad = [None, self.refs[1].first_incompatible_pair()]
        ops = []
        for gi, ref in enumerate(self.refs):
            for i in range(WARM_MIX["sp"]):
                u, v = self._pair(rng, gi, i)
                mask = ref.signs(u, v)
                sign = rng.choice([s for s, bit in ((1, POS), (-1, NEG)) if mask & bit])
                ops.append(Op("sp", (gi, u, v, sign, i % WARM_ENUM_EVERY == 0)))
            for i in range(WARM_MIX["cp"]):
                ops.append(Op("cp", (gi, *self._pair(rng, gi, i))))
            for i in range(WARM_MIX["project"]):
                u, v = self._pair(rng, gi, i + 1)
                ops.append(Op("project", (gi, _lift(ref.random_shortest_path(rng, u, v), WARM_N))))
            ops += [Op("fip", (gi,)), Op("diameter", (gi,))] * WARM_SCANS
        for i in range(WARM_LIFTS):
            u, v = self._pair(rng, 0, i + 1)
            ops.append(Op("lift", (0, self.refs[0].random_shortest_path(rng, u, v))))
        rng.shuffle(ops)
        self.ops = ops
        self.self_test_op = next(op for op in ops if op.kind == "sp")

    def _pair(self, rng, gi: int, i: int) -> tuple[int, int]:
        """A random pair at the i-th distance of WARM_DISTANCES (capped by the
        diameter), so every seed gets the same mix of path lengths."""
        ref = self.refs[gi]
        d = min(WARM_DISTANCES[i % len(WARM_DISTANCES)], self.diameters[gi])
        while True:
            u = rng.randrange(WARM_V)
            at_d = [v for v, dv in enumerate(ref.row(u)[0]) if dv == d]
            if at_d:
                return u, rng.choice(at_d)

    def setup(self):
        graphs = [core.SignedGraph(WARM_V, e) for e in self.edges]
        for g in graphs:
            distance.diameter(g)
        return graphs, [power.power(g, WARM_N) for g in graphs]

    def run(self, op: Op):
        graphs, powers = self.state
        kind, data = op
        g = graphs[data[0]]
        if kind == "sp":
            return distance.shortest_path_with_sign(g, data[1], data[2], data[3])
        if kind == "cp":
            return distance.is_compatible_pair(g, data[1], data[2])
        if kind == "project":
            return balance.project_path(powers[data[0]].witnesses_max, data[1])
        if kind == "lift":
            return balance.lift_path(g, data[1], WARM_N)
        if kind == "fip":
            return distance.first_incompatible_pair(g)
        return distance.diameter(g)

    def check(self, op: Op, result) -> bool:
        kind, data = op
        gi = data[0]
        ref = self.refs[gi]
        if kind == "sp":
            _, u, v, sign, enumerate_too = data
            if result is None or not ref.is_shortest_path(result, u, v) or ref.walk_sign(result) != sign:
                return False
            if enumerate_too:
                paths = oracle.enumerate_shortest_paths(self.oracle_graphs[gi], u, v)
                return result == next(p for p in paths if ref.walk_sign(p) == sign)
            return True
        if kind == "cp":
            return result == (ref.signs(data[1], data[2]) in (POS, NEG))
        if kind == "project":
            q = data[1]
            k = len(q) - 1
            return (
                result[0] == q[0]
                and result[-1] == q[-1]
                and (k - 1) * WARM_N + 1 <= len(result) - 1 <= k * WARM_N
                and ref.walk_sign(result) == _power_sign(ref, q)
            )
        if kind == "lift":
            p = data[1]
            return (
                result[0] == p[0]
                and result[-1] == p[-1]
                and len(set(result)) == len(result)
                and len(result) - 1 == math.ceil((len(p) - 1) / WARM_N)
                and all(1 <= ref.dist(a, b) <= WARM_N for a, b in zip(result, result[1:]))
                and _power_sign(ref, result) == ref.walk_sign(p)
            )
        if kind == "fip":
            return result == self.first_bad[gi]
        return result == self.diameters[gi]

    def corrupt(self, op: Op, result):
        return result[:-1] if op.kind == "sp" else None


# -- spectra --------------------------------------------------------------------


class Spectra(Workload):
    """Jacobi eigenvalues of sparse adjacency matrices and the spectral balance test.

    The graphs are built at set-up and reused by every pass, so from the
    second pass on their reach tables are cached and the eigensolver is
    nearly all that is left to measure.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.eig_edges = [(n, random_edges(rng, n, EIG_DEGREE, False)) for n in EIG_ORDERS]
        self.bst_edges = []
        for i, n in enumerate(BST_ORDERS):
            if i % 2 == 0:
                self.bst_edges.append((n, random_edges(rng, n, BST_DEGREE, True)))
            else:
                self.bst_edges.append((n, odd_cycle_with_trees(rng, n, rng.choice((5, 7, 9, 11)))))
        self.want_eig = [np.linalg.eigvalsh(self._matrix(n, e))[::-1] for n, e in self.eig_edges]
        self.want_bst = [Graph(n, e).labels() is not None for n, e in self.bst_edges]
        ops = [Op("eig", (i,)) for i in range(len(EIG_ORDERS))]
        ops += [Op("bst", (i,)) for i in range(len(BST_ORDERS))]
        rng.shuffle(ops)
        self.ops = ops
        self.self_test_op = next(op for op in ops if op.kind == "eig")

    @staticmethod
    def _matrix(n: int, edges: list) -> np.ndarray:
        a = np.zeros((n, n))
        for u, v, s in edges:
            a[u, v] = a[v, u] = s
        return a

    def setup(self):
        mats = [spectra.adjacency_matrix(core.SignedGraph(n, e)) for n, e in self.eig_edges]
        return mats, [core.SignedGraph(n, e) for n, e in self.bst_edges]

    def run(self, op: Op):
        mats, graphs = self.state
        if op.kind == "eig":
            return spectra.eigenvalues(mats[op.data[0]])
        return spectra.balanced_spectrum_test(graphs[op.data[0]])

    def check(self, op: Op, result) -> bool:
        i = op.data[0]
        if op.kind == "bst":
            return result == self.want_bst[i]
        got = np.asarray(result.eigenvalues, dtype=float)
        want = self.want_eig[i]
        return got.shape == want.shape and bool(np.max(np.abs(got - want)) <= EIG_ATOL)

    def corrupt(self, op: Op, result):
        if op.kind != "eig":
            return None
        values = list(result.eigenvalues)
        values[0] += 1e-6
        return dataclasses.replace(result, eigenvalues=tuple(values))


WORKLOADS = {"verify": Verify, "cli_cold": CliCold, "warm_queries": WarmQueries, "spectra": Spectra}
