"""sgpower benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): verify, cli_cold,
warm_queries, spectra.  Each runs in its own freshly started Python
process (`subprocess`, not `multiprocessing`, whose helper process would
outlive the run) with BLAS threads pinned to 1, as one closed-loop client, against `src/sgpower` of
the checkout.  The op list of a workload is fixed by the seed; a run
repeats whole passes over it while the next pass still fits in `--seconds`
(at least one pass), and every op's output is checked outside the timed
region.  Times are scaled to a reference machine speed by `speed.SpeedProbe`
(the shared machines this runs on change speed by 1.5x for seconds to
minutes at a time).  An op's latency is the median of its scaled times over
the passes of the run; each pass's raw summed op time is kept in the
result file.

`--trace 0` reports the end-to-end metrics:
    setup_s      median `import sgpower` time over fresh processes, plus the
                 median time of the workload's program set-up calls
    ops_per_s    ops per pass / summed op latency
    op_p50_ms    median op latency
    op_p90_ms    p90 op latency (>= 100 ops per pass, so >= 10 beyond it)
    peak_rss_mb  peak resident memory of the workload process
    ok_ops_ratio ops whose output passed its check / ops attempted
`--trace 1` runs untraced passes for half of `--seconds`, then one pass with
the tracer installed, and reports the per-layer metrics of
`tracing.Tracer.summary` plus `trace.overhead_ratio` (traced op time over
the median untraced pass).  The span dump goes to bench/results/.

The last line of standard output is the JSON result.  Without `src/sgpower`
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import itertools
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("verify", "cli_cold", "warm_queries", "spectra")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 5
SETUP_REPS = 3
CHILD_TIMEOUT_S = 140
IMPORT_TIMEOUT_S = 5
MAX_FAILURE_NOTES = 5
_CHILDREN = itertools.count()


# -- child processes -----------------------------------------------------------


def _child(target: str, out: str, spec: str) -> None:
    """Entry of every child process: run `target`, pickle its result to `out`."""
    sys.path.insert(0, str(SRC))
    result = globals()[target](**json.loads(spec))
    with open(out, "wb") as fh:
        pickle.dump(result, fh)


def _spawn(target: str, timeout: float, workdir: Path, /, **spec):
    """Run `target` in a fresh Python process and wait for it to end.

    The child's environment pins BLAS threads to 1; its standard output
    goes to our standard error, so the result line stays the last line.
    The child is killed and waited for on every path out of here.
    """
    out = workdir / f"{target}-{next(_CHILDREN)}.pkl"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", target, str(out), json.dumps(spec)]
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{target} did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{target} failed with exit status {code}")
    with open(out, "rb") as fh:
        return pickle.load(fh)


def time_import() -> tuple[float, float]:
    """(raw, speed-scaled) time of `import sgpower` in a fresh process."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.sample()
    t = time.perf_counter()
    import sgpower  # noqa: F401

    dt = time.perf_counter() - t
    probe.sample()
    return dt, dt * probe.scale(t + dt / 2)


def _quantile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _one_pass(wl, probe, tracer=None) -> dict:
    lat = []
    moments = []
    failures = []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        probe.maybe_sample()
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        t = time.perf_counter()
        try:
            result = wl.run(op)
            error = None
        except Exception as exc:
            result, error = None, exc
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
        lat.append(dt)
        moments.append(t + dt / 2)
        if error is None:
            try:
                ok = wl.check(op, result)
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            failures.append(f"op {i} {op.kind}: {error!r}" if error else f"op {i} {op.kind}: wrong output")
        del result
        if wl.collect_between_ops:
            gc.collect()
    probe.sample()
    scaled = [dt * probe.scale(m) for dt, m in zip(lat, moments)]
    return {
        "ops": len(lat),
        "op_s": sum(lat),
        "scaled_op_s": sum(scaled),
        "scaled": scaled,
        "failures": failures,
        "wall_s": time.perf_counter() - start,
    }


def _self_test(wl) -> bool:
    """The check accepts the real output of one op and rejects a corrupted one."""
    op = wl.self_test_op
    result = wl.run(op)
    bad = wl.corrupt(op, result)
    return wl.check(op, result) and bad is not None and not wl.check(op, bad)


def measure(workload: str, seed: int, seconds: float, mode: str, workdir: str) -> dict:
    """Set up, self-test and run passes of one workload.

    mode "measure": time SETUP_REPS set-ups, then run passes while the next
    one fits in `seconds`.  mode "traced": one set-up, untraced passes while
    the next one fits in half of `seconds`, then one pass with the tracer
    installed, whose spans give the per-layer metrics.
    """
    import numpy

    import tracing
    import workloads
    from speed import SpeedProbe

    wl = workloads.WORKLOADS[workload](seed, Path(workdir))
    probe = SpeedProbe()
    setup_s = []
    for _ in range(SETUP_REPS if mode == "measure" else 1):
        wl.state = None
        probe.sample()
        t = time.perf_counter()
        wl.state = wl.setup()
        dt = time.perf_counter() - t
        probe.sample()
        setup_s.append((dt, dt * probe.scale(t + dt / 2)))
    self_test = _self_test(wl)
    budget = seconds if mode == "measure" else seconds / 2
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_one_pass(wl, probe))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] > budget:
            break
    tracing.assert_untraced()
    out = {
        "setup_s": setup_s,
        "self_test": self_test,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        traced = _one_pass(wl, probe, tracer)
        metrics, shares = tracer.summary(traced["op_s"])
        untraced = statistics.median(p["scaled_op_s"] for p in passes)
        metrics["trace.overhead_ratio"] = (traced["scaled_op_s"] / untraced, "ratio")
        dump = RESULTS / f"{workload}-seed{seed}-spans.json.gz"
        tracer.dump(dump)
        out.update(
            passes=[*passes, traced],
            per_layer=metrics,
            self_share=shares,
            spans=len(tracer.spans),
            span_dump=str(dump.relative_to(ROOT)),
        )
    return out


# -- parent ----------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _end_to_end(res: dict, imports: list) -> dict:
    passes = res["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    lat = [statistics.median(times) for times in zip(*(p["scaled"] for p in passes))]
    import_s = statistics.median(scaled for _, scaled in imports)
    program_s = statistics.median(scaled for _, scaled in res["setup_s"])
    return {
        "setup_s": (import_s + program_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (_quantile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "ok_ops_ratio": (1 - failed / attempted, "ratio"),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(*argv[1:])
        return 0
    # A SIGTERM unwinds like an exception, so running children are killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sgpower" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'sgpower'} is missing", file=sys.stderr)
        return 2

    workdir = RESULTS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = dict(workload=args.workload, seed=args.seed, seconds=args.seconds, workdir=str(workdir))
    try:
        if args.trace == 0:
            imports = [_spawn("time_import", IMPORT_TIMEOUT_S, workdir) for _ in range(IMPORT_SAMPLES)]
            res = _spawn("measure", CHILD_TIMEOUT_S, workdir, mode="measure", **spec)
            metrics = _end_to_end(res, imports)
            extra = {"import_s": imports, "setup_program_s": res["setup_s"]}
        else:
            res = _spawn("measure", CHILD_TIMEOUT_S, workdir, mode="traced", **spec)
            metrics = res["per_layer"]
            extra = {k: res[k] for k in ("self_share", "spans", "span_dump")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = res["passes"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        **meta,
        "self_test": res["self_test"],
        "passes": [{k: v for k, v in p.items() if k != "failures"} for p in passes],
        "failures": failures[:MAX_FAILURE_NOTES],
        **extra,
        "metrics": metrics,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    print(
        f"ops per pass {passes[0]['ops']}, passes {len(passes)}, attempted {attempted}, "
        f"failed {len(failures)}, self-test {'ok' if res['self_test'] else 'FAILED'}"
    )
    for note in failures[:MAX_FAILURE_NOTES]:
        print(f"  failure: {note}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in res["self_share"].items() if v)
        print(f"self-time share of op time: {shares}")
    result = {
        "correct": not failures and res["self_test"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
