"""fpplab sweep benchmark: one workload per process, serial, one thread.

    python3 bench/run.py --workload point --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``fpplab`` from ``src/`` of
that checkout and nothing else.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs a fixed number of rounds untraced and then traced,
and reports per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
say the same for a reader.  A record of the run, with metadata and output
digests, goes to ``bench/out/``.  See ``bench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "FPPLAB_THREADS",
)
SETUPS = 3  # set-ups per timed run: this process plus SETUPS - 1 fresh ones
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def load_fpplab():
    """Import fpplab from this checkout's ``src/``, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fpplab
    except ImportError as exc:
        raise BenchError(f"cannot import fpplab from {src}: {exc}") from None
    if src.resolve() not in Path(fpplab.__file__).resolve().parents:
        raise BenchError(f"fpplab was imported from {fpplab.__file__}, not {src}")
    return fpplab


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fpplab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args) -> tuple[float, float]:
    """(rescaled, wall) set-up seconds of a fresh process on the same workload and seed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    ref, wall = proc.stdout.split()[-2:]
    return float(ref), float(wall)


def run_rounds(wl, seed, rounds, tally, host, seconds=None, tracer=None):
    """Run ``rounds`` (stopping once ``seconds`` have passed, if given).

    Returns ``{round: (wall_s, factor)}``.  The kernel is timed before the
    first round and after every round, and a round's host-speed factor comes
    from the two timings that bracket it.
    """
    clock = time.perf_counter
    out = {}
    kernel_prev = host.kernel_s()
    start = clock()
    for i in rounds:
        if seconds is not None and out and clock() - start >= seconds:
            break
        t0 = clock()
        wl.run_round(seed, i, tally, tracer)
        wall = clock() - t0
        kernel = host.kernel_s()
        out[i] = (wall, host.factor(kernel_prev, kernel))
        kernel_prev = kernel
    return out


def _time_metrics(tally, rounds, rescale=True) -> dict:
    """items_per_s, item_ms_p50/p90 and result_s, rescaled or in wall time."""
    factor = {i: f if rescale else 1.0 for i, (_, f) in rounds.items()}
    item_s = [s * factor[i] for i, s in tally.item_s] or [math.nan]
    round_s = [s * factor[i] for i, s in tally.round_s] or [math.nan]
    busy = sum(wall * factor[i] for i, (wall, _) in rounds.items())
    p90 = statistics.quantiles(item_s, n=10)[8] if len(item_s) >= 2 else item_s[0]
    return {
        "items_per_s": (tally.completed / busy, "1/s"),
        "item_ms_p50": (statistics.median(item_s) * 1e3, "ms"),
        "item_ms_p90": (p90 * 1e3, "ms"),
        "result_s": (statistics.median(round_s), "s"),
    }


def timed_run(args, wl, host, setup):
    from workloads import Tally

    setups = [setup] + [probe_setup(args) for _ in range(SETUPS - 1)]
    tally = Tally()
    rounds = run_rounds(wl, args.seed, itertools.count(), tally, host, seconds=args.seconds)
    metrics = {"setup_s": (statistics.median(ref for ref, _ in setups), "s")}
    metrics.update(_time_metrics(tally, rounds))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = {"setup_s": (statistics.median(w for _, w in setups), "s")}
    wall.update(_time_metrics(tally, rounds, rescale=False))
    factors = [f for _, f in rounds.values()]
    notes = {
        "rounds": len(rounds),
        "item_ms_samples": len(tally.item_s),
        "item_ms_of": wl.item_ms_of,
        "setup_samples_s": setups,
        "host_factor": {"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
        "wall": {k: v for k, (v, _) in wall.items()},
    }
    return tally, metrics, notes


def traced_run(args, wl, host):
    from tracing import Patcher, Tracer, install, layer_metrics
    from workloads import Tally

    # Rounds 0..k-1 are traced; the untraced comparison takes rounds k..2k-1,
    # because a repeated replica seed would hit fpp's per-seed prime cache.
    k = max(1, round(args.seconds * wl.rounds_per_s / 2))
    untraced = Tally()
    plain = run_rounds(wl, args.seed, range(k, 2 * k), untraced, host)
    tracer = Tracer()
    traced = Tally()
    with Patcher() as patcher:
        install(tracer, patcher)
        spanned = run_rounds(wl, args.seed, range(k), traced, host, tracer=tracer)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    # one factor for the traced pass: its wall-weighted mean
    wall = sum(w for w, _ in spanned.values())
    factor = sum(w * f for w, f in spanned.values()) / wall
    metrics = layer_metrics(tracer, traced.attempted, factor)
    untraced_rate = _time_metrics(untraced, plain)["items_per_s"][0]
    traced_rate = _time_metrics(traced, spanned)["items_per_s"][0]
    metrics["trace.items"] = (float(traced.attempted), "count")
    metrics["trace.slowdown"] = (untraced_rate / traced_rate, "ratio")
    tally = Tally(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        errors=untraced.errors + traced.errors,
        first_round=traced.first_round,
        digests=traced.digests,
    )
    notes = {
        "rounds": k,
        "untraced_items_per_s": untraced_rate,
        "traced_items_per_s": traced_rate,
        "host_factor": factor,
        "spans": len(tracer.spans),
    }
    return tally, metrics, notes


def report(args, meta, tally, problems, metrics, notes) -> dict:
    correct = not problems and tally.failed == 0
    ratio = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'failed_ratio':36s} {ratio:.6g} ({tally.failed} of {tally.attempted} items)")
    print("notes " + json.dumps(notes, sort_keys=True))
    print("digests (round 0) " + json.dumps(tally.digests, sort_keys=True))
    print(f"checks: {'all passed' if not problems else '; '.join(problems)}")
    for err in tally.errors:
        print(f"failed item: {err}", file=sys.stderr)
    if not correct:
        print("CORRECTNESS FAILURE", file=sys.stderr)
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": ratio,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "digests": tally.digests,
        "problems": problems,
        "errors": tally.errors,
    }
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("point", "torus", "lpp", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="timed part of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="set up, print the set-up seconds and exit (used by timed runs)",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_PINS:
        os.environ[var] = "1"
    try:
        load_fpplab()
        from hostspeed import HostSpeed
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        wl.warm_up(args.seed)
        setup_wall = time.perf_counter() - _T0
        # set-up is mostly imports whatever the workload, so one kernel kind serves all
        setup_host = HostSpeed("dijkstra")
        setup_host.kernel_s()  # first call pays scipy's lazy set-up
        setup = (setup_wall * setup_host.factor(setup_host.kernel_s()), setup_wall)
        if args.setup_probe:
            print(*map(repr, setup))
            return 0
        meta = metadata(args)
        host = HostSpeed(wl.kernel)
        if args.trace:
            tally, metrics, notes = traced_run(args, wl, host)
        else:
            tally, metrics, notes = timed_run(args, wl, host, setup)
        problems = wl.check(tally)
        tally.failed += len(problems)  # each problem is one checked item that failed
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record = report(args, meta, tally, problems, metrics, notes)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
