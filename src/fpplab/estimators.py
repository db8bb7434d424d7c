"""Monte Carlo sweep engine and statistical reductions: variance summaries
with bootstrap confidence intervals, fluctuation-exponent fits, sublinearity
profiles, empirical Efron-Stein bounds, per-edge influence maps on the torus,
geodesic geometry statistics and geodesic weight sums.

Replica r of a sweep with master seed s draws its field from mix64(s, r), so
record streams are bit-identical for identical configurations regardless of
worker scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .fpp import (
    GROW_LIMIT,
    PassageResult,
    averaged_passage,
    passage_time,
    single_edge_update,
    torus_passage,
)
from .lattice import Torus, point_window, window_halfwidth
from .lpp import last_passage_value, sample_grid
from .weights import (
    DistributionSpec,
    mix64,
    sample_field,
    sample_weights,
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
    path = res.sample_path
    # one flat iterator is several times faster than np.asarray over tuples
    L, d = len(path), len(path[0])
    coords = np.fromiter(chain.from_iterable(path), np.int32, L * d).reshape(L, d)
    # summed per axis: an (L, L, d) temporary reduced over its short last axis
    # costs several times more
    dmat = sum(np.abs(x[:, None] - x[None, :]) for x in coords.T)
    geo_diam = int(dmat.max())
    transverse = int(np.abs(coords[:, 1:]).max()) if d > 1 else 0
    # path edge i lies in the ball around site j iff its farther end does
    far = np.maximum(dmat[:-1], dmat[1:])
    win_counts = {m: int((far <= m).sum(axis=0, dtype=np.int32).max()) for m in WINDOW_MS}
    # in sequence, not sum(), which compensates from Python 3.12 on
    Y = 0.0
    for t in res.field.weights[res.gint_edge_idx].tolist():
        Y += 1.0 - math.log(spec.cdf(t))
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


def run_sweep(config: SweepConfig, threads: Optional[int] = None) -> list[ReplicaRecord]:
    """All replicas for all sizes, in deterministic (n, replica) order."""
    if threads is None:
        threads = config.threads
    if threads == 0:
        threads = int(os.environ.get("FPPLAB_THREADS", "0")) or (os.cpu_count() or 1)
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
# Fits and profiles
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


@dataclass
class SublinearityRow:
    n: int
    var: float
    var_over_n: float
    var_logn_over_n: float


@dataclass
class SublinearityProfile:
    rows: list[SublinearityRow]
    var_over_n_nonincreasing: bool
    log_lower_c: float


def sublinearity_profile(
    summaries: dict[int, EstimatorSummary],
) -> SublinearityProfile:
    """Trend table for Var against n, n/log n, and log n comparators.

    Monotonicity of Var/n is judged within CI overlap; the log lower bound is
    the largest c with Var >= c log n across the grid.  Flags only, never
    assertions: the comparison constants are existential.
    """
    if len(summaries) < 3:
        raise ValueError("need at least 3 sizes")
    rows = []
    noninc = True
    prev = None
    for n in sorted(summaries):
        s = summaries[n]
        rows.append(
            SublinearityRow(n, s.variance, s.variance / n, s.variance * math.log(n) / n)
        )
        cur = (s.var_ci[0] / n, s.var_ci[1] / n, s.variance / n)
        if prev is not None:
            # nonincreasing up to CI overlap
            if cur[2] > prev[2] and cur[0] > prev[1]:
                noninc = False
        prev = cur
    c = min(s.variance / math.log(n) for n, s in summaries.items() if n > 1)
    return SublinearityProfile(rows, noninc, c)


# ---------------------------------------------------------------------------
# Efron-Stein empirical bound
# ---------------------------------------------------------------------------


def efron_stein_bound(
    result: PassageResult, resample_count: int = 1, seed: int = 0
) -> tuple[float, float]:
    """(Monte Carlo estimate of the resampling bound, analytic relaxation).

    The estimate is (1/2) sum_e avg_k (T - T with edge e resampled)^2 over
    the edges of ``result.field``, the window after any growth.  Resample k
    redraws every edge from the field's law with seed mix64(seed, k); one
    vectorized :func:`single_edge_update` answers all its edges, with no
    search.  The relaxation is E[(t'_e)^2] #G_n.  Needs a Box result with
    geometry whose field has a law.
    """
    spec = result.field.spec
    if spec is None:
        raise ValueError("efron_stein_bound needs a field drawn from a law (spec)")
    if resample_count < 1:
        raise ValueError(f"resample_count must be at least 1, got {resample_count}")
    E = result.field.region.n_edges()
    total = 0.0
    for k in range(resample_count):
        T_new = single_edge_update(result, np.arange(E), sample_weights(spec, mix64(seed, k), E))
        total += float(np.sum((result.T - T_new) ** 2))
    return 0.5 * total / resample_count, spec.second_moment() * float(result.gint_edge_idx.size)


# ---------------------------------------------------------------------------
# Torus influence map
# ---------------------------------------------------------------------------


@dataclass
class InfluenceMap:
    n: int
    frequencies: np.ndarray
    axis_pvalues: dict[int, float]
    max_frequency: float
    mean_g_size: float


def influence_map(records: Sequence[ReplicaRecord], d: int) -> dict[int, InfluenceMap]:
    """Per-edge membership frequencies P(e in G) with per-axis uniformity tests."""
    # imported here, not at module level: only torus summaries need it, and
    # it would add to every sweep's start-up
    from scipy.special import chdtrc

    grouped = by_n(records)
    out = {}
    for n, recs in grouped.items():
        bitmaps = [r.g_bitmap for r in recs if r.g_bitmap is not None]
        if not bitmaps:
            raise ValueError(f"no membership bitmaps recorded at n={n}")
        counts = np.sum(bitmaps, axis=0).astype(np.float64)
        reps = len(bitmaps)
        freq = counts / reps
        pvals = {}
        for axis in range(d):
            c = counts[axis::d]
            expected = c.mean()
            if expected == 0:
                pvals[axis] = 1.0
                continue
            stat = float(np.sum((c - expected) ** 2 / expected))
            # the chi-square survival function itself: scipy.stats.chi2.sf
            # calls chdtrc, and importing scipy.stats would double start-up
            pvals[axis] = float(chdtrc(c.size - 1, stat))
        out[n] = InfluenceMap(
            n, freq, pvals, float(freq.max()), float(counts.sum() / reps)
        )
    return out


# ---------------------------------------------------------------------------
# Geodesic geometry statistics
# ---------------------------------------------------------------------------


def geodesic_window_stats(
    records: Sequence[ReplicaRecord],
) -> dict[int, dict[int, float]]:
    """Mean of max_z #(geodesic edges in z + B_m) / diam(B_m), per n and m."""
    out: dict[int, dict[int, float]] = {}
    for n, recs in by_n(records).items():
        counts = {m: [] for m in WINDOW_MS}
        for r in recs:
            if r.win_counts is None:
                continue
            for m in WINDOW_MS:
                counts[m].append(r.win_counts[m] / (2.0 * m))
        if any(counts[m] for m in WINDOW_MS):
            out[n] = {m: float(np.mean(counts[m])) for m in WINDOW_MS if counts[m]}
    if not out:
        raise ValueError("no window counts recorded")
    return out


@dataclass
class FnComparison:
    rows: list[tuple[int, float, float, float, float]]  # n, VarT, VarF, |diff|, diff/n^{3/4}
    growth_trend: bool


def compare_fn_variance(records: Sequence[ReplicaRecord]) -> FnComparison:
    rows = []
    for n, recs in by_n(records).items():
        fs = np.array([r.F_n for r in recs if r.F_n is not None])
        if fs.size == 0:
            continue
        ts = np.array([r.T for r in recs if r.F_n is not None])
        vt = float(ts.var(ddof=1))
        vf = float(fs.var(ddof=1))
        diff = abs(vt - vf)
        rows.append((n, vt, vf, diff, diff / n**0.75))
    if len(rows) < 2:
        raise ValueError("need F_n records at two or more sizes")
    ratios = [r[4] for r in rows]
    growth = all(b > a for a, b in zip(ratios, ratios[1:]))
    return FnComparison(rows, growth)


def geodesic_speed_stats(records: Sequence[ReplicaRecord]) -> dict[int, float]:
    """Empirical lower envelope min over replicas of T / (geodesic edge count)."""
    out = {}
    for n, recs in by_n(records).items():
        ratios = [r.T / r.geo_len for r in recs if r.geo_len]
        if ratios:
            out[n] = float(min(ratios))
    if not out:
        raise ValueError("no geodesic lengths recorded")
    return out
