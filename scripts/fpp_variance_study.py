#!/usr/bin/env python3
"""Variance scaling study for point-to-point first passage in d = 2.

Runs a sweep over doubling sizes, prints the sublinearity table
(Var, Var/n, Var log n / n), the fitted fluctuation exponent, and a
spot-check of the empirical Efron-Stein bound against the variance.
"""

import argparse
import sys

import numpy as np

from fpplab.cli import ResultStore, build_summary
from fpplab.estimators import (
    SweepConfig,
    by_n,
    efron_stein_bound,
    fit_chi,
    run_sweep,
    sublinearity_profile,
    summarize,
)
from fpplab.fpp import passage_time
from fpplab.lattice import point_window, window_halfwidth
from fpplab.weights import mix64, parse_spec, sample_field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dist", default="uniform:0,1")
    ap.add_argument("--n", default="16,32,64,128")
    ap.add_argument("--replicas", type=int, default=500)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--quick", action="store_true", help="small sizes, few replicas")
    ap.add_argument("--out", help="persist records/summary to this directory")
    args = ap.parse_args()

    n_list = (8, 16, 32) if args.quick else tuple(int(t) for t in args.n.split(","))
    replicas = 100 if args.quick else args.replicas
    cfg = SweepConfig(
        model="fpp-point", d=2, n_list=n_list, spec=parse_spec(args.dist),
        replicas=replicas, seed=args.seed,
    )
    records = run_sweep(cfg)
    grouped = by_n(records)
    summaries = {n: summarize([r.T for r in recs], cfg.bootstrap) for n, recs in grouped.items()}

    print(f"{'n':>6} {'mean T':>10} {'Var':>10} {'Var/n':>10} {'Var*ln(n)/n':>12} {'#G/n':>8}")
    for n in sorted(summaries):
        s = summaries[n]
        g = np.mean([r.g_int_size for r in grouped[n]])
        print(
            f"{n:>6} {s.mean:>10.3f} {s.variance:>10.4f} {s.variance / n:>10.5f}"
            f" {s.variance * np.log(n) / n:>12.5f} {g / n:>8.3f}"
        )
    prof = sublinearity_profile(summaries)
    print(f"Var/n nonincreasing (within CI): {prof.var_over_n_nonincreasing}")
    fit = fit_chi([(n, summaries[n].variance) for n in sorted(summaries)])
    print(f"chi_hat = {fit.chi_hat:.4f} +- {fit.chi_stderr:.4f}   (Kesten bound: 1/2)")

    n_top = max(n_list)
    ests = []
    for r in range(min(50, replicas)):
        window = point_window(n_top, 2, window_halfwidth(n_top, 0, cfg.kappa))
        field = sample_field(cfg.spec, window, mix64(cfg.seed, r))
        res = passage_time(field, (0, 0), (n_top, 0))
        est, _ = efron_stein_bound(res, resample_count=1, seed=r)
        ests.append(est)
    print(
        f"Efron-Stein spot check at n={n_top}: bound ~ {np.mean(ests):.3f}"
        f" vs Var(T) = {summaries[n_top].variance:.3f}"
    )

    if args.out:
        store = ResultStore(args.out)
        store.write_records(cfg.model, records)
        store.write_summary(build_summary(cfg, records))
        print(f"records written to {store.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
