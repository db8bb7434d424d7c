"""SHA-256 digests of the four acceptance-sweep outputs (untimed).

    python3 bench/digests.py

Runs the sweep fixtures of ``tests/test_acceptance.py`` (seeds 101, 202, 303
and 404, same configurations, ``threads=0`` as there) and prints the digest
of every CSV that ``ResultStore.write_records`` would write and of each
``summary.json``.  Records do not depend on worker scheduling, so the digests
do not depend on the core count.  A change that claims to preserve output
shows the same digests before and after.  The last line is one JSON object
holding every digest.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def acceptance_configs():
    """The sweep fixtures of tests/test_acceptance.py; keep them in step."""
    from fpplab.estimators import SweepConfig
    from fpplab.lpp import default_spec
    from fpplab.weights import Bernoulli, Uniform

    return {
        "fpp_sweep": SweepConfig(
            model="fpp-point", d=2, n_list=(16, 32, 64, 128), spec=Uniform(0, 1),
            replicas=1000, seed=101,
        ),
        "fn_sweep": SweepConfig(
            model="fpp-point", d=2, n_list=(16, 32, 64), spec=Uniform(0, 1),
            replicas=1000, seed=202, record_fn=True, record_geometry=False,
        ),
        "torus_sweep": SweepConfig(
            model="fpp-torus", d=2, n_list=(8, 16, 32), spec=Bernoulli(1, 2, 0.5),
            replicas=2000, seed=303,
        ),
        "lpp_sweep": SweepConfig(
            model="lpp", d=2, n_list=(64, 128, 256, 512), spec=default_spec(),
            replicas=2000, seed=404,
        ),
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from fpplab.cli import build_summary, records_to_csv
        from fpplab.estimators import by_n, run_sweep
    except ImportError as exc:
        print(f"cannot import fpplab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    digests = {}
    for name, cfg in acceptance_configs().items():
        start = time.perf_counter()
        records = run_sweep(cfg, threads=0)
        files = {
            f"records_{cfg.model}_n{n}.csv": sha(records_to_csv(cfg.model, recs))
            for n, recs in by_n(records).items()
        }
        summary = build_summary(cfg, records)
        files["summary.json"] = sha(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        digests[f"{name}_seed{cfg.seed}"] = files
        for fname, digest in files.items():
            print(f"{name} seed={cfg.seed} {fname} {digest}")
        print(f"{name} took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
