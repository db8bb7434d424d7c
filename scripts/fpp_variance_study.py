#!/usr/bin/env python3
"""Variance scaling study for point-to-point first passage in d = 2.

Runs a sweep over doubling sizes, prints the sublinearity table
(Var, Var/n, Var log n / n), the fitted fluctuation exponent, and per n
the exact Efron-Stein sum sum_e Var_e T, averaged over the first
min(50, replicas) fields of the sweep, against the variance.
"""

import argparse
import sys

import numpy as np

from fpplab.cli import ResultStore, build_summary
from fpplab.estimators import SweepConfig, efron_stein_bound, run_sweep
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
    if len(n_list) < 3:
        ap.error("--n needs at least 3 sizes for the sublinearity table and the chi fit")
    replicas = 100 if args.quick else args.replicas
    cfg = SweepConfig(
        model="fpp-point", d=2, n_list=n_list, spec=parse_spec(args.dist),
        replicas=replicas, seed=args.seed,
    )
    records = run_sweep(cfg)
    summary = build_summary(cfg, records)
    prof, fit = summary["sublinearity"], summary["fits"]["chi"]

    print(f"{'n':>6} {'mean T':>10} {'Var':>10} {'Var/n':>10} {'Var*ln(n)/n':>12} {'#G/n':>8}")
    for row in prof["rows"]:
        n, entry = row["n"], summary["per_n"][str(row["n"])]
        print(
            f"{n:>6} {entry['T']['mean']:>10.3f} {row['var']:>10.4f} {row['var_over_n']:>10.5f}"
            f" {row['var_logn_over_n']:>12.5f} {entry['mean_g_int_over_n']:>8.3f}"
        )
    print(f"Var/n nonincreasing (within CI): {prof['var_over_n_nonincreasing']}")
    print(f"chi_hat = {fit['chi_hat']:.4f} +- {fit['chi_stderr']:.4f}   (Kesten bound: 1/2)")

    # the sweep's own fields and windows: replica r of size n, as run_replica draws it
    fields = min(50, replicas)
    print(f"Efron-Stein sum over the first {fields} fields per n:")
    print(f"{'n':>6} {'Var T':>10} {'ES sum':>10} {'+- se':>8} {'ES/Var':>8}")
    for n in cfg.n_list:
        window = point_window(n, 2, window_halfwidth(n, 0, cfg.kappa))
        sums = [
            efron_stein_bound(
                passage_time(
                    sample_field(cfg.spec, window, mix64(cfg.seed, r)), (0, 0), (n, 0),
                    max_grows=cfg.max_grows,
                )
            )[0]
            for r in range(fields)
        ]
        es, var = np.mean(sums), summary["per_n"][str(n)]["T"]["variance"]
        se = np.std(sums, ddof=1) / np.sqrt(fields)  # a sweep has at least 2 replicas
        print(f"{n:>6} {var:>10.4f} {es:>10.4f} {se:>8.4f} {es / var:>8.3f}")

    if args.out:
        store = ResultStore(args.out)
        store.write_records(cfg.model, records)
        store.write_summary(summary)
        print(f"records written to {store.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
