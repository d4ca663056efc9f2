"""Sweep the spectral balance test over a seeded random corpus.

For each sampled compatible graph the spectral balance verdict (does
the completion K^{D+-} have eigenvalues {m-1, -1 x (m-1)}, decided
exactly by `balanced_spectrum_test`) is compared against the
switching-based one.  Larger balanced graphs probe the accuracy of
`eigenvalues` (LAPACK through numpy): the worst deviation of any
eigenvalue from its integer target is reported per order.

Run:  python scripts/balance_spectrum_sweep.py [--seed 7] [--trials 60]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

from sgpower import (
    CorpusSpec,
    adjacency_matrix,
    associated_complete,
    balanced_spectrum_test,
    eigenvalues,
    generate,
    is_balanced,
)


@dataclass
class SweepConfig:
    seed: int = 7
    trials: int = 60
    max_vertices: int = 10
    big_orders: tuple[int, ...] = (20, 35, 50)


def agreement_sweep(cfg: SweepConfig) -> None:
    spec = CorpusSpec(
        seed=cfg.seed,
        vertex_range=(2, cfg.max_vertices),
        edge_probability=0.3,
        require=frozenset({"compatible"}),
        trials=cfg.trials,
    )
    t0 = time.perf_counter()
    agree = 0
    balanced_count = 0
    for g in generate(spec):
        direct = is_balanced(g).balanced
        spectral = balanced_spectrum_test(g)
        if direct == spectral:
            agree += 1
        if direct:
            balanced_count += 1
    dt = time.perf_counter() - t0
    print(f"agreement: {agree}/{cfg.trials} (balanced: {balanced_count})  [{dt:.2f}s]")
    if agree != cfg.trials:
        raise SystemExit("spectral and switching balance tests disagree")


def accuracy_sweep(cfg: SweepConfig) -> None:
    print(f"{'order':>5} {'max |eig - target|':>18} {'seconds':>8}")
    for m in cfg.big_orders:
        spec = CorpusSpec(
            seed=cfg.seed * 100 + m,
            vertex_range=(m, m),
            edge_probability=0.4,
            require=frozenset({"balanced"}),
            trials=1,
        )
        (g,) = generate(spec)
        complete = associated_complete(g, "pm")
        t0 = time.perf_counter()
        spec = eigenvalues(adjacency_matrix(complete))
        dt = time.perf_counter() - t0
        targets = [float(m - 1)] + [-1.0] * (m - 1)
        worst = max(abs(x - t) for x, t in zip(spec.eigenvalues, targets))
        print(f"{m:>5} {worst:>18.3e} {dt:>8.2f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=60)
    args = ap.parse_args()
    cfg = SweepConfig(seed=args.seed, trials=args.trials)
    agreement_sweep(cfg)
    accuracy_sweep(cfg)


if __name__ == "__main__":
    main()
