"""Monte Carlo sweep engine and its statistical building blocks: per-replica
records with geodesic geometry statistics and geodesic weight sums, variance
summaries with bootstrap confidence intervals, fluctuation-exponent fits and
exact per-field Efron-Stein sums.  ``cli.build_summary`` reduces a sweep's
records to its reported statistics with these.

Replica r of a sweep with master seed s draws its field from mix64(s, r), so
record streams are bit-identical for identical configurations regardless of
worker scheduling.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fpp import (
    GROW_LIMIT,
    PassageResult,
    averaged_passage,
    passage_time,
    torus_passage,
)
from .lattice import Torus, point_window, window_halfwidth
from .lpp import last_passage_value, sample_grid
from .weights import (
    DistributionSpec,
    mix64,
    sample_field,
    validate_for_fpp,
)

MODELS = ("fpp-point", "fpp-torus", "lpp")
WINDOW_MS = (2, 4, 8)
_BOOT_SALT = 0xB005_72A9


@dataclass
class SweepConfig:
    model: str
    d: int
    n_list: tuple[int, ...]
    spec: DistributionSpec
    replicas: int
    seed: int
    kappa: float = 1.25  # first window half-width in units of n^(2/3)
    bootstrap: int = 2000
    threads: int = 0  # 0: use machine parallelism
    record_fn: bool = False
    record_geometry: bool = True
    max_grows: int = GROW_LIMIT

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        self.n_list = tuple(int(n) for n in self.n_list)
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])) or not self.n_list:
            raise ValueError("n_list must be strictly increasing and nonempty")
        if self.n_list[0] < 1:
            raise ValueError(f"sizes must be >= 1, got {self.n_list[0]}")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if self.bootstrap < 1:
            raise ValueError(f"bootstrap must be at least 1, got {self.bootstrap}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if self.threads < 0:
            raise ValueError(f"threads must be at least 0, got {self.threads}")
        if self.model.startswith("fpp"):
            validate_for_fpp(self.spec, self.d)


@dataclass
class ReplicaRecord:
    """Per-replica statistics; optional fields stay None when not recorded."""

    n: int
    replica: int
    T: float
    F_n: Optional[float] = None
    g_dag_size: Optional[int] = None
    g_int_size: Optional[int] = None
    geo_len: Optional[int] = None
    geo_diam: Optional[int] = None
    transverse_dev: Optional[int] = None
    Y_n: Optional[float] = None
    win_counts: Optional[dict[int, int]] = None
    window_grows: int = 0
    flagged: bool = False
    g_bitmap: Optional[np.ndarray] = None  # torus: bool per edge index


@dataclass
class EstimatorSummary:
    count: int
    mean: float
    variance: float
    mean_ci: tuple[float, float]
    var_ci: tuple[float, float]

    @property
    def mean_ci_half(self) -> float:
        return 0.5 * (self.mean_ci[1] - self.mean_ci[0])

    @property
    def var_ci_half(self) -> float:
        return 0.5 * (self.var_ci[1] - self.var_ci[0])


@dataclass
class FitResult:
    chi_hat: float
    chi_stderr: float
    nu_hat: Optional[float] = None
    sigma_hat: Optional[float] = None
    residuals: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()


def summarize(values: Sequence[float], bootstrap: int = 2000, seed: Optional[int] = None) -> EstimatorSummary:
    """Mean and unbiased variance with percentile-bootstrap CIs (95%)."""
    x = np.asarray(list(values), dtype=np.float64)
    count = x.size
    if count < 2:
        raise ValueError("need at least 2 values")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    rng = np.random.default_rng(mix64(_BOOT_SALT if seed is None else seed, count))
    boot_means = np.empty(bootstrap)
    boot_vars = np.empty(bootstrap)
    chunk = max(1, min(bootstrap, 4_000_000 // max(count, 1)))
    done = 0
    while done < bootstrap:
        m = min(chunk, bootstrap - done)
        idx = rng.integers(0, count, size=(m, count))
        sample = x[idx]
        boot_means[done : done + m] = sample.mean(axis=1)
        boot_vars[done : done + m] = sample.var(axis=1, ddof=1)
        done += m
    mean_ci = tuple(np.percentile(boot_means, [2.5, 97.5]))
    var_ci = tuple(np.percentile(boot_vars, [2.5, 97.5]))
    return EstimatorSummary(count, mean, var, mean_ci, var_ci)


# ---------------------------------------------------------------------------
# Replica computation
# ---------------------------------------------------------------------------


def _geometry_stats(res: PassageResult, spec: DistributionSpec) -> dict:
    region = res.window
    # (d, L) path coordinates relative to the window's low corner, one
    # contiguous row per axis
    rel = np.array(np.unravel_index(res.path_idx, region.shape))
    d, L = rel.shape
    transverse = int(np.abs(rel[1:] + np.array(region.lo[1:])[:, None]).max()) if d > 1 else 0
    # |a - b|_1 is the largest s·(a - b) over sign vectors s = (1, ±1, ...),
    # so the diameter is the largest max - min of the 2^(d-1) projections
    # x0 ± x1 ± ...: O(L) work, exact in integers, where the pairwise
    # matrix below would give it in O(L^2)
    proj = rel[:1]
    for x in rel[1:]:
        proj = np.concatenate([proj + x, proj - x])
    geo_diam = int((proj.max(axis=1) - proj.min(axis=1)).max())
    # every entry of the L x L distance matrix is at most the window's
    # sum(shape - 1), so it is built in int16 whenever that fits: its
    # temporaries move a quarter of int64's bytes
    span = sum(region.shape) - d
    coords = rel.astype(np.int16 if span <= np.iinfo(np.int16).max else np.int64)
    dmat = sum(np.abs(x[:, None] - x) for x in coords)
    # path edge i lies in the ball around site j iff its farther end does
    far = np.maximum(dmat[:-1], dmat[1:])
    win_counts = {m: int((far <= m).sum(axis=0, dtype=np.int32).max()) for m in WINDOW_MS}
    # in sequence, not sum(), which compensates from Python 3.12 on; one
    # math.log per edge, as an array log could differ in the last bit
    cdf, log = spec.cdf, math.log
    Y = 0.0
    for t in res.field.weights[res.gint_edge_idx].tolist():
        Y += 1.0 - log(cdf(t))
    return {
        "g_dag_size": int(res.dag_edge_idx.size),
        "g_int_size": int(res.gint_edge_idx.size),
        "geo_len": L - 1,
        "geo_diam": geo_diam,
        "transverse_dev": transverse,
        "Y_n": Y,
        "win_counts": win_counts,
    }


def run_replica(config: SweepConfig, n: int, replica: int) -> ReplicaRecord:
    master = mix64(config.seed, replica)
    if config.model == "lpp":
        grid = sample_grid(n, master, config.spec)
        return ReplicaRecord(n, replica, last_passage_value(grid))
    if config.model == "fpp-torus":
        region = Torus(n, config.d)
        fieldv = sample_field(config.spec, region, master)
        res = torus_passage(fieldv)
        bitmap = np.zeros(region.n_edges(), dtype=bool)
        bitmap[res.gint_edge_idx] = True
        return ReplicaRecord(
            n, replica, res.T,
            g_dag_size=int(res.dag_edge_idx.size),
            g_int_size=int(res.gint_edge_idx.size),
            g_bitmap=bitmap,
        )
    # fpp-point
    m_fn = math.ceil(n**0.25) if config.record_fn else 0
    w = window_halfwidth(n, m_fn, config.kappa)
    window = point_window(n, config.d, w)
    fieldv = sample_field(config.spec, window, master)
    origin = (0,) * config.d
    res = passage_time(
        fieldv, origin, (n,) + origin[1:],
        want_geometry=config.record_geometry, max_grows=config.max_grows,
    )
    rec = ReplicaRecord(
        n, replica, res.T, window_grows=res.grows, flagged=res.boundary_flag
    )
    if config.record_geometry:
        for key, val in _geometry_stats(res, config.spec).items():
            setattr(rec, key, val)
    if config.record_fn:
        # F_n starts on T's final window and may grow it further; the
        # record counts the grows of both and flags either flag
        fn = averaged_passage(res.field, n, max_grows=config.max_grows - res.grows)
        rec.F_n = fn.F_n
        rec.window_grows += fn.grows
        rec.flagged |= fn.boundary_flag
    return rec


def _replica_worker(args) -> ReplicaRecord:
    config, n, replica = args
    return run_replica(config, n, replica)


def worker_count(config: SweepConfig, threads: Optional[int] = None) -> int:
    """Worker processes for a sweep of ``config``: ``threads``, else
    ``config.threads``, else the ``FPPLAB_THREADS`` environment variable,
    else the CPU count, where a count of 0 passes on to the next source.  A
    negative or non-integer count raises ValueError."""
    name, count = "threads", config.threads if threads is None else threads
    if count == 0:
        name, count = "FPPLAB_THREADS", os.environ.get("FPPLAB_THREADS", "0")
    try:
        count = int(count) if isinstance(count, str) else operator.index(count)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {count!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be at least 0, got {count}")
    return count or os.cpu_count() or 1


def run_sweep(config: SweepConfig, threads: Optional[int] = None) -> list[ReplicaRecord]:
    """All replicas for all sizes, in deterministic (n, replica) order, on
    :func:`worker_count` processes (in this one when that is 1)."""
    threads = worker_count(config, threads)
    jobs = [(config, n, r) for n in config.n_list for r in range(config.replicas)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, len(jobs) // (8 * threads))
            records = list(pool.map(_replica_worker, jobs, chunksize=chunk))
    else:
        records = [run_replica(config, n, r) for config, n, r in jobs]
    return records


def by_n(records: Sequence[ReplicaRecord]) -> dict[int, list[ReplicaRecord]]:
    out: dict[int, list[ReplicaRecord]] = {}
    for rec in records:
        out.setdefault(rec.n, []).append(rec)
    return {n: sorted(v, key=lambda r: r.replica) for n, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def fit_chi(
    pairs: Sequence[tuple[int, float]], means: Optional[dict[int, float]] = None
) -> FitResult:
    """OLS of log Var against log n; the slope is 2 chi."""
    if len(pairs) < 3:
        raise ValueError("need at least 3 (n, Var) pairs")
    ns = np.array([p[0] for p in pairs], dtype=np.float64)
    vs = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.unique(ns).size < 2:
        raise ValueError("need at least 2 distinct sizes n")
    if np.any(vs <= 0):
        raise ValueError("variance estimates must be positive")
    x = np.log(ns)
    y = np.log(vs)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    dof = max(1, len(pairs) - 2)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    chi = slope / 2.0
    nu = None
    if means:
        mn = np.array(sorted(means))
        mt = np.array([means[int(k)] for k in mn])
        A = np.stack([mn, np.ones_like(mn)], axis=1)
        coef, *_ = np.linalg.lstsq(A, mt, rcond=None)
        nu = float(coef[0])
    n_max = int(ns.max())
    sigma = float(vs[np.argmax(ns)] / n_max ** (2 * chi))
    return FitResult(chi, stderr / 2.0, nu, sigma, tuple(resid), tuple(int(v) for v in ns))


# ---------------------------------------------------------------------------
# Efron-Stein empirical bound
# ---------------------------------------------------------------------------


def efron_stein_bound(result: PassageResult) -> tuple[float, float]:
    """(Exact Efron-Stein sum, analytic relaxation) of one passage.

    The sum is sum_e Var_e T over the edges of ``result.field``, the window
    after any growth, with Var_e the variance over edge e's weight s alone.
    Under ``result.edge_law`` T = a + min(s, x) with x = C - a, so Var_e T
    is Var min(s, x) from the law's clipped moments, and 0 where x <= 0.
    Its mean over fields is the Efron-Stein bound on Var T.  The relaxation
    is E[(t'_e)^2] #G_n.  Needs a Box result with geometry whose field has a
    law.
    """
    spec = result.field.spec
    if spec is None:
        raise ValueError("efron_stein_bound needs a field drawn from a law (spec)")
    C, a = result.edge_law
    x = result._time(C - a)
    m1, m2 = spec.clipped_moments(x[x > 0])
    return float(np.sum(m2 - m1 * m1)), spec.second_moment() * float(result.gint_edge_idx.size)
