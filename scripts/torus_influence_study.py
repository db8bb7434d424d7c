#!/usr/bin/env python3
"""Edge influence on the torus: uniformity and decay of P(e in G).

Winding geodesics on (Z/nZ)^2 treat all edges of an axis class alike, so the
per-edge membership frequency should be flat (chi-square test) and its
maximum should fall as the torus grows.
"""

import argparse
import sys

from fpplab.cli import build_summary
from fpplab.estimators import SweepConfig, run_sweep
from fpplab.weights import parse_spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dist", default="bernoulli:1,2,0.5")
    ap.add_argument("--n", default="8,16,32")
    ap.add_argument("--replicas", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=303)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    n_list = (4, 8) if args.quick else tuple(int(t) for t in args.n.split(","))
    replicas = 200 if args.quick else args.replicas
    cfg = SweepConfig(
        model="fpp-torus", d=2, n_list=n_list, spec=parse_spec(args.dist),
        replicas=replicas, seed=args.seed,
    )
    records = run_sweep(cfg)
    maps = build_summary(cfg, records)["influence"]

    print(f"{'n':>6} {'E#G':>8} {'max P(e in G)':>14} {'p (axis 0)':>11} {'p (axis 1)':>11}")
    for n in cfg.n_list:
        im = maps[str(n)]
        print(
            f"{n:>6} {im['mean_g_size']:>8.2f} {im['max_frequency']:>14.5f}"
            f" {im['axis_pvalues']['0']:>11.3f} {im['axis_pvalues']['1']:>11.3f}"
        )
    maxima = [maps[str(n)]["max_frequency"] for n in cfg.n_list]
    print(f"max influence decreasing across n: {all(b < a for a, b in zip(maxima, maxima[1:]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
