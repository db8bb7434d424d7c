"""The four benchmark workloads, the round each one repeats, and its checks.

A workload repeats *rounds*.  A sweep round is one small sweep: every
replica of every size through ``estimators.run_replica`` (what ``run_sweep``
does with ``threads=1``), then ``build_summary``, ``records_to_csv`` and the
summary JSON bytes.  A verify round is ``fpplab ineq verify --suite all`` with
a small instance count, through ``cli.main``.  Round ``i`` of a run with seed
``s`` uses master seed ``round_seed(s, i)``, so a seed fixes every input.

An item is one replica, or one check instance for ``verify``.  An item that
raises, or whose record fails a check, counts as failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from fpplab import cli, estimators, fpp, lpp
from fpplab.weights import parse_spec

from tracing import INEQ_CHECKS, Patcher

# replicas per size whose outputs are recomputed and checked, in round 0
CHECKED_REPLICAS = 2
REL_TOL = 1e-9


def round_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**63


@dataclass
class Tally:
    """What one pass over rounds produced."""

    attempted: int = 0
    failed: int = 0
    # (round, seconds) pairs, so each time can be rescaled by its round's host speed
    round_s: list = field(default_factory=list)  # successful rounds, items to result bytes
    item_s: list = field(default_factory=list)  # per item at the largest n
    errors: list = field(default_factory=list)
    first_round: object = None  # what the correctness checks look at
    digests: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(what)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Sweep:
    model: str
    dist: str
    n_list: tuple
    replicas: int
    rounds_per_s: float  # rounds per second on a 2-core x86 box, sizes the traced run
    kernel: str  # the host-speed kernel of the same kind of work

    def config(self, seed: int) -> estimators.SweepConfig:
        return estimators.SweepConfig(
            model=self.model, d=2, n_list=self.n_list, spec=parse_spec(self.dist),
            replicas=self.replicas, seed=seed, threads=1,
        )

    @property
    def item_ms_of(self) -> str:
        return f"one replica at n={self.n_list[-1]}"

    def warm_up(self, seed: int) -> None:
        """One replica per size, outside the replicas any round times."""
        cfg = self.config(round_seed(seed, 0))
        for n in self.n_list:
            estimators.run_replica(cfg, n, self.replicas)

    def run_round(self, seed: int, i: int, tally: Tally, tracer=None) -> None:
        cfg = self.config(round_seed(seed, i))
        n_max = self.n_list[-1]
        clock = time.perf_counter
        records = []
        start = clock()
        for n in self.n_list:
            for r in range(self.replicas):
                if tracer is not None:
                    tracer.item = tally.attempted
                tally.attempted += 1
                t0 = clock()
                try:
                    rec = estimators.run_replica(cfg, n, r)
                except Exception as exc:  # one bad item must not end the run
                    tally.fail(f"n={n} replica={r}: {type(exc).__name__}: {exc}")
                    continue
                if n == n_max:
                    tally.item_s.append((i, clock() - t0))
                records.append(rec)
        if tracer is not None:
            tracer.item = -1
        try:
            summary = cli.build_summary(cfg, records)
            csv = cli.records_to_csv(cfg.model, records).encode()
            summary_json = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
        except Exception as exc:  # no result for the whole round
            tally.fail(f"round {i} summary: {type(exc).__name__}: {exc}", len(records))
            return
        tally.round_s.append((i, clock() - start))
        for rec in records:
            problem = _record_problem(cfg.model, rec)
            if problem:
                tally.fail(f"n={rec.n} replica={rec.replica}: {problem}")
        if i == 0:
            tally.first_round = (cfg, records)
            tally.digests = {"csv_sha256": _sha(csv), "summary_sha256": _sha(summary_json)}

    def check(self, tally: Tally) -> list[str]:
        """Recompute the first replicas of round 0 and check their outputs."""
        if tally.first_round is None:
            return ["round 0 produced no records"]
        cfg, records = tally.first_round
        problems = []
        for rec in records:
            if rec.replica >= CHECKED_REPLICAS:
                continue
            try:
                problem = _check_replica(cfg, rec)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                problems.append(f"n={rec.n} replica={rec.replica}: {problem}")
        return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _record_problem(model: str, rec) -> str:
    if not math.isfinite(rec.T) or rec.T < 0:
        return f"T={rec.T}"
    if model != "lpp" and not rec.g_int_size <= rec.g_dag_size:
        return f"g_int_size {rec.g_int_size} > g_dag_size {rec.g_dag_size}"
    return ""


def _capture(module, attr, call):
    """Run ``call()`` and return what it returned plus every ``module.attr`` result."""
    seen = []

    def make(orig):
        def capturing(*args, **kwargs):
            out = orig(*args, **kwargs)
            seen.append(out)
            return out
        return capturing

    with Patcher() as patcher:
        patcher.module_function(module, attr, make)
        got = call()
    return got, seen


def _own_passage_time(res) -> float:
    """T by scipy Dijkstra on a graph built here from the region's edge arrays."""
    region = res.field.region
    tails, heads = region.edge_arrays()
    w = np.asarray(res.field.weights, dtype=np.float64)
    N = region.n_sites()
    graph = sp.csr_matrix((w, (tails, heads)), shape=(N, N))
    dist = dijkstra(graph, directed=False, indices=region.site_index(res.src))
    return float(dist[region.site_index(res.dst)])


def _path_weight(res) -> float:
    w = res.field.weights
    return float(sum(float(w[e]) for e in res.path_edge_indices()))


def _check_replica(cfg, rec) -> str:
    """Outputs of one replica against independent recomputation; '' if all hold."""
    if cfg.model == "lpp":
        again, grids = _capture(lpp, "sample_grid", lambda: estimators.run_replica(cfg, rec.n, rec.replica))
        want = lpp.last_passage(grids[0])[0]
        if not (again.T == rec.T == want):
            return f"last_passage_value {rec.T} != last_passage {want}"
        return ""
    entry = "torus_passage" if cfg.model == "fpp-torus" else "passage_time"
    again, results = _capture(fpp, entry, lambda: estimators.run_replica(cfg, rec.n, rec.replica))
    res = results[0]
    if not (again.T == rec.T == res.T):
        return f"T not reproducible: {rec.T}, {again.T}, {res.T}"
    if not set(res.gint_edge_idx.tolist()) <= set(res.dag_edge_idx.tolist()):
        return "g_int is not a subset of the geodesic DAG"
    if rec.g_int_size != res.gint_edge_idx.size:
        return f"g_int_size {rec.g_int_size} != {res.gint_edge_idx.size}"
    path_w = _path_weight(res)
    if not _close(path_w, res.T):
        return f"sample path weight {path_w} != T {res.T}"
    if cfg.model == "fpp-torus":
        if res.sample_path[0] != res.sample_path[-1]:
            return "sample cycle is not closed"
        return ""
    if res.sample_path[0] != res.src or res.sample_path[-1] != res.dst:
        return "sample path has the wrong end points"
    own = _own_passage_time(res)
    if not _close(own, res.T):
        return f"own Dijkstra {own} != T {res.T}"
    return ""


@dataclass(frozen=True)
class Verify:
    instances: int  # per check and round
    rounds_per_s: float
    kernel: str

    # single instances take microseconds, too short to time one by one
    item_ms_of = "one check instance, averaged over a verify round"

    def _suite(self, seed: int, instances: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([
                "ineq", "verify", "--suite", "all",
                "--seed", str(seed), "--instances", str(instances),
            ])
        return code, out.getvalue()

    def warm_up(self, seed: int) -> None:
        self._suite(round_seed(seed, 0), 1)

    def run_round(self, seed: int, i: int, tally: Tally, tracer=None) -> None:
        items = 6 * self.instances + 2  # six randomized checks, two exhaustive boxes
        tally.attempted += items
        start = time.perf_counter()
        code, text = self._suite(round_seed(seed, i), self.instances)
        elapsed = time.perf_counter() - start
        if code not in (0, 3):  # 3 is a verification failure, which still prints the JSON
            tally.fail(f"round {i}: fpplab ineq verify exited {code}", items)
            return
        tally.round_s.append((i, elapsed))
        tally.item_s.append((i, elapsed / items))
        payload = json.loads(text)
        # randomized checks report a violation count, exhaustive boxes only "holds"
        violations = sum(e["violations"] if "violations" in e else not e["holds"] for e in payload)
        if violations:
            tally.fail(f"round {i}: {violations} violations", violations)
        if i == 0:
            tally.first_round = payload
            tally.digests = {"suite_sha256": _sha(text.encode())}

    def check(self, tally: Tally) -> list[str]:
        if tally.first_round is None:
            return ["round 0 produced no suite JSON"]
        names = {e["check"] for e in tally.first_round}
        missing = sorted(set(INEQ_CHECKS) - names)
        exhaustive = [n for n in names if n.startswith("fpp_exhaustive_")]
        problems = [f"check {m} missing from the suite JSON" for m in missing]
        if len(exhaustive) != 2:
            problems.append(f"expected 2 exhaustive boxes, got {len(exhaustive)}")
        return problems


WORKLOADS = {
    # the acceptance point sweep's setting: geometry on, F_n off
    "point": Sweep("fpp-point", "uniform:0,1", (32, 64, 128), replicas=10, rounds_per_s=2.8, kernel="dijkstra"),
    # integer-scaled ties, multi-source Dijkstra on the cylinder, no Box
    "torus": Sweep("fpp-torus", "bernoulli:1,2,0.5", (8, 16, 32), replicas=20, rounds_per_s=4.0, kernel="dijkstra"),
    # never touches fpp; geometric inverse CDF and the anti-diagonal DP
    "lpp": Sweep("lpp", "geometric:0.5", (128, 256, 512), replicas=10, rounds_per_s=4.0, kernel="numpy"),
    # the only workload that reaches ineqlab
    "verify": Verify(instances=100, rounds_per_s=10.0, kernel="python"),
}
