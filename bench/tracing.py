"""Span tracing of sgpower's entry points, installed from outside the program.

`Tracer.install` wraps every public function of the nine sgpower modules,
plus `distance._reach_table` (the all-pairs table) and
`oracle._random_graph` (one rejection-sampling attempt), and rebinds each
wrapped name in every sgpower module that imported it.
`SignedGraph.__init__` is patched on the class.  No file of the program
changes.  Each call records one span: entry point, start, end, parent
span, op index and an optional note (bytes parsed, witnesses built, ...).
Spans stay in memory until `dump` writes them out.

Generator functions (`oracle.generate`) get one span per resumption, so
the time spent producing each graph is attributed to the generator and
not to its consumer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("core", "distance", "power", "balance", "spectra", "oracle", "fileio", "harness", "cli")
PRIVATE_ENTRY_POINTS = {"distance": ("_reach_table",), "oracle": ("_random_graph",)}
INIT = "core.SignedGraph.__init__"
CLI_COMMANDS = ("info", "distance", "power", "complete", "compatible", "balance", "lift", "project")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cache_size(g) -> int:
    return len(getattr(g, "_cache", ()))


# Notes taken per call; `before` runs ahead of the call, `after` gets the result.
_BEFORE = {"distance._reach_table": lambda a, k: _cache_size(_arg(a, k, 0, "g"))}
_AFTER = {
    # the table is built when the call adds to the graph's cache
    "distance._reach_table": lambda a, k, r, pre: int(_cache_size(_arg(a, k, 0, "g")) > pre),
    INIT: lambda a, k, r, pre: a[0].edge_count,
    "power.power": lambda a, k, r, pre: len(r.witnesses_max) + len(r.witnesses_min),
    "balance.project_path": lambda a, k, r, pre: len(_arg(a, k, 1, "p")) - 1,
    "oracle.enumerate_shortest_paths": lambda a, k, r, pre: len(r),
    "fileio.parse_graph": lambda a, k, r, pre: len(_arg(a, k, 0, "text").encode()),
    "fileio.serialize_graph": lambda a, k, r, pre: len(r.encode()),
    "cli.main": lambda a, k, r, pre: _arg(a, k, 0, "argv")[0],
    "harness.run_theorem": lambda a, k, r, pre: _arg(a, k, 0, "theorem"),
}


def modules() -> dict:
    return {layer: importlib.import_module(f"sgpower.{layer}") for layer in LAYERS}


def entry_points() -> dict:
    """{"layer.name": function} for every traced entry point."""
    out = {}
    for layer, mod in modules().items():
        for name, obj in vars(mod).items():
            public = not name.startswith("_") or name in PRIVATE_ENTRY_POINTS.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = obj
    out[INIT] = modules()["core"].SignedGraph.__init__
    return out


def assert_untraced() -> None:
    """Raise unless every sgpower name still refers to the program's own code."""
    files = {mod.__file__ for mod in modules().values()}
    refs = [(f"{layer}.{name}", obj) for layer, mod in modules().items() for name, obj in vars(mod).items()]
    refs.append((INIT, modules()["core"].SignedGraph.__init__))
    for where, obj in refs:
        if inspect.isfunction(obj) and (obj.__module__ or "").startswith("sgpower"):
            if obj.__code__.co_filename not in files:
                raise AssertionError(f"{where} is a wrapper from {obj.__code__.co_filename}")


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, note]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.enabled = False

    def _open(self, name: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qual: str, fn):
        name = len(self.names)
        self.names.append(qual)
        before = _BEFORE.get(qual)
        after = _AFTER.get(qual)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from it
                        return
                    idx = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.spans[idx][5] = 0
                        return
                    finally:
                        tracer._close(idx)
                    tracer.spans[idx][5] = 1  # one item produced
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                tracer.spans[idx][5] = after(args, kwargs, result, pre)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point and rebind it wherever sgpower imported it."""
        eps = entry_points()
        init = eps.pop(INIT)
        wrapped = {id(fn): (fn, self._wrap(qual, fn)) for qual, fn in eps.items()}
        package = importlib.import_module("sgpower")
        for mod in [package, *modules().values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        modules()["core"].SignedGraph.__init__ = self._wrap(INIT, init)

    def dump(self, path) -> None:
        fields = ["name", "start", "end", "parent", "op", "note"]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "fields": fields, "spans": self.spans}, fh)

    def summary(self, op_seconds: float) -> tuple[dict, dict]:
        """(per-layer metrics, share of summed op time by layer self time)."""
        names = self.names
        dur = [end - start for _, start, end, _, _, _ in self.spans]
        self_time = list(dur)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                self_time[span[3]] -= dur[i]
        calls = Counter()
        total = defaultdict(float)
        notes = defaultdict(list)
        layer_calls = Counter()
        layer_self = defaultdict(float)
        for i, (name, _, _, _, _, note) in enumerate(self.spans):
            qual = names[name]
            calls[qual] += 1
            total[qual] += dur[i]
            if note is not None:
                notes[qual].append((note, dur[i]))
            layer = qual.split(".", 1)[0]
            layer_calls[layer] += 1
            layer_self[layer] += self_time[i]

        def note_sum(qual):
            return sum(n for n, _ in notes[qual])

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (layer_calls[layer], "count")
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        lookups = calls["distance._reach_table"]
        builds = note_sum("distance._reach_table")
        m["distance.bfs_runs"] = (calls["distance.sign_reachability"], "count")
        m["distance.table_builds"] = (builds, "count")
        m["distance.table_lookups"] = (lookups, "count")
        m["distance.table_hit_ratio"] = (ratio(lookups - builds, lookups), "ratio")
        m["distance.table_build_s"] = (sum(d for n, d in notes["distance._reach_table"] if n), "s")
        m["distance.witness_paths"] = (calls["distance.shortest_path_with_sign"], "count")
        m["distance.witness_s"] = (total["distance.shortest_path_with_sign"], "s")
        built = note_sum("power.power")
        read = note_sum("balance.project_path")
        m["power.power_calls"] = (calls["power.power"], "count")
        m["power.power_s"] = (total["power.power"], "s")
        m["power.witnesses_built"] = (built, "count")
        m["power.witnesses_read"] = (read, "count")
        m["power.witness_use_ratio"] = (ratio(read, built), "ratio")
        m["power.complete_s"] = (total["power.associated_complete"], "s")
        m["power.unique_scan_s"] = (total["power.is_power_unique"], "s")
        m["core.graphs_built"] = (calls[INIT], "count")
        m["core.edges_built"] = (note_sum(INIT), "count")
        m["balance.is_balanced_s"] = (total["balance.is_balanced"], "s")
        m["balance.path_transfer_s"] = (total["balance.lift_path"] + total["balance.project_path"], "s")
        m["spectra.eig_calls"] = (calls["spectra.eigenvalues"], "count")
        m["spectra.eig_s"] = (total["spectra.eigenvalues"], "s")
        m["spectra.balanced_test_s"] = (total["spectra.balanced_spectrum_test"], "s")
        m["oracle.generate_s"] = (total["oracle.generate"], "s")
        graphs = note_sum("oracle.generate")
        m["oracle.attempts_per_graph"] = (ratio(calls["oracle._random_graph"], graphs), "ratio")
        m["oracle.enumerate_s"] = (total["oracle.enumerate_shortest_paths"], "s")
        m["oracle.paths_enumerated"] = (note_sum("oracle.enumerate_shortest_paths"), "count")
        m["fileio.parse_s"] = (total["fileio.parse_graph"], "s")
        m["fileio.serialize_s"] = (total["fileio.serialize_graph"], "s")
        m["fileio.bytes_in"] = (note_sum("fileio.parse_graph"), "bytes")
        m["fileio.bytes_out"] = (note_sum("fileio.serialize_graph"), "bytes")
        by_key = defaultdict(float)
        for key, d in notes["harness.run_theorem"]:
            by_key[key] += d
        for key in modules()["harness"].THEOREM_ORDER:
            m[f"harness.{key}_s"] = (by_key[key], "s")
        by_cmd = defaultdict(list)
        for cmd, d in notes["cli.main"]:
            by_cmd[cmd].append(d)
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_p50_ms"] = (statistics.median(by_cmd[cmd]) * 1e3 if by_cmd[cmd] else 0.0, "ms")
        shares = {layer: ratio(layer_self[layer], op_seconds) for layer in LAYERS}
        return m, shares
