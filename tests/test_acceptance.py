"""Acceptance gate: every criterion as one test, printing one line each.

The heavy Monte Carlo sweeps are shared across criteria through module-scoped
fixtures; all seeds are fixed so the whole gate is deterministic.  Run with
``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion lines.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from fpplab.cli import ResultStore, build_summary, records_to_csv
from fpplab.estimators import SweepConfig, by_n, run_sweep
from fpplab.fpp import (
    brute_force_passage,
    edge_removal_oracle,
    passage_time,
)
from fpplab.ineqlab import fpp_exhaustive_check, run_randomized_suite
from fpplab.lattice import Box
from fpplab.lpp import default_spec
from fpplab.weights import (
    Bernoulli,
    Exponential,
    Geometric,
    TableCDF,
    Uniform,
    counter_keys,
    sample_field,
    sample_weights,
)

BOX33 = Box((0, 0), (2, 2))


def _check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def fpp_sweep():
    cfg = SweepConfig(
        model="fpp-point", d=2, n_list=(16, 32, 64, 128), spec=Uniform(0, 1),
        replicas=1000, seed=101,
    )
    return cfg, run_sweep(cfg, threads=0)


@pytest.fixture(scope="module")
def fn_sweep():
    cfg = SweepConfig(
        model="fpp-point", d=2, n_list=(16, 32, 64), spec=Uniform(0, 1),
        replicas=1000, seed=202, record_fn=True, record_geometry=False,
    )
    return cfg, run_sweep(cfg, threads=0)


@pytest.fixture(scope="module")
def torus_sweep():
    cfg = SweepConfig(
        model="fpp-torus", d=2, n_list=(8, 16, 32), spec=Bernoulli(1, 2, 0.5),
        replicas=2000, seed=303,
    )
    return cfg, run_sweep(cfg, threads=0)


@pytest.fixture(scope="module")
def lpp_sweep():
    cfg = SweepConfig(
        model="lpp", d=2, n_list=(64, 128, 256, 512), spec=default_spec(),
        replicas=2000, seed=404,
    )
    return cfg, run_sweep(cfg, threads=0)


def test_criterion_01_shortest_path_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for i, spec in enumerate((Uniform(0, 1), Bernoulli(1, 2, 0.5))):
        for seed in range(100):
            field = sample_field(spec, BOX33, 10_000 * i + seed)
            got = passage_time(field, (0, 0), (2, 2), max_grows=0).T
            want = brute_force_passage(field, (0, 0), (2, 2))
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _check(
        1, "passage_time equals exhaustive path minimum on 200 fields",
        worst <= 1e-12 and elapsed < 10.0,
        f"max|err|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_intersection_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    for i, spec in enumerate((Uniform(0, 1), Bernoulli(1, 2, 0.5))):
        for seed in range(100):
            field = sample_field(spec, BOX33, 20_000 * i + seed)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            got = {int(e) for e in res.gint_edge_idx}
            if got != edge_removal_oracle(field, (0, 0), (2, 2)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _check(
        2, "DAG-cut intersection equals edge-removal oracle on 200 instances",
        mismatches == 0 and elapsed < 30.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_03_criticality_law():
    rng = np.random.default_rng(31)
    win = Box((0, 0), (4, 3))
    worst = 0.0
    for trial in range(50):
        field = sample_field(Uniform(0, 1), win, 30_000 + trial)
        e = int(rng.integers(0, win.n_edges()))
        s, t = np.sort(rng.uniform(0.0, 2.0, size=2))
        res = passage_time(field, (0, 0), (4, 3), max_grows=0)
        C, a = res.edge_law
        D = float(res._time(C[e]) - res._time(min(C[e], a[e])))
        Ts = passage_time(
            field.with_weight(e, float(s)), (0, 0), (4, 3),
            max_grows=0, want_geometry=False,
        ).T
        Tt = passage_time(
            field.with_weight(e, float(t)), (0, 0), (4, 3),
            max_grows=0, want_geometry=False,
        ).T
        worst = max(worst, abs((Tt - Ts) - min(t - s, max(D - s, 0.0))))
    _check(
        3, "single-edge update law matches recompute on 50 pairs",
        worst <= 1e-10, f"max|err|={worst:.2e}",
    )


def test_criterion_04_inequality_suite():
    t0 = time.perf_counter()
    reports = run_randomized_suite(seed=7, instances=10_000)
    violations = sum(r.violations for r in reports)
    ex4 = fpp_exhaustive_check(Box((0, 0), (1, 1)), Bernoulli(1, 2, 0.5), (0, 0), (1, 1))
    ex7 = fpp_exhaustive_check(Box((0, 0), (2, 1)), Bernoulli(1, 2, 0.5), (0, 0), (2, 1))
    elapsed = time.perf_counter() - t0
    _check(
        4, "inequality suite: 6 checks x 10^4 instances + exhaustive boxes",
        violations == 0 and ex4.holds and ex7.holds and elapsed < 120.0,
        f"violations={violations}, 4-edge ok={ex4.holds}, 7-edge ok={ex7.holds}, {elapsed:.0f}s",
    )


def test_criterion_05_lpp_exponent(lpp_sweep):
    fit = build_summary(*lpp_sweep)["fits"]["chi"]
    _check(
        5, "LPP fluctuation exponent in [0.23, 0.43]",
        0.23 <= fit["chi_hat"] <= 0.43,
        f"chi_hat={fit['chi_hat']:.4f} +- {fit['chi_stderr']:.4f}",
    )


def test_criterion_06_fpp_variance_trend(fpp_sweep):
    summary = build_summary(*fpp_sweep)
    prof, fit = summary["sublinearity"], summary["fits"]["chi"]
    ok_chi = fit["chi_hat"] <= 0.5 + 2 * fit["chi_stderr"]
    detail = ", ".join(f"{row['n']}:{row['var_over_n']:.4f}" for row in prof["rows"])
    _check(
        6, "Var/n nonincreasing within CI overlap and chi below 1/2",
        prof["var_over_n_nonincreasing"] and ok_chi,
        f"Var/n: {detail}; chi_hat={fit['chi_hat']:.4f}+-{fit['chi_stderr']:.4f}",
    )


def test_criterion_07_geodesic_linearity(fpp_sweep):
    summary = build_summary(*fpp_sweep)
    g_over_n = [entry["mean_g_int_over_n"] for entry in summary["per_n"].values()]
    spread = max(g_over_n) / min(g_over_n)
    worst_m_spread = 0.0
    for row in summary["window_ratios"].values():
        vals = list(row.values())
        worst_m_spread = max(worst_m_spread, max(vals) / min(vals))
    _check(
        7, "mean #G_n/n within factor 3; window ratios within factor 3 across m",
        spread <= 3.0 and worst_m_spread <= 3.0,
        f"#G/n spread={spread:.2f}, window spread={worst_m_spread:.2f}",
    )


def test_criterion_08_torus_symmetry(torus_sweep):
    inf = build_summary(*torus_sweep)["influence"]
    min_p = min(p for row in inf.values() for p in row["axis_pvalues"].values())
    maxima = [inf[n]["max_frequency"] for n in sorted(inf, key=int)]
    decreasing = all(b < a for a, b in zip(maxima, maxima[1:]))
    _check(
        8, "influence uniformity p > 0.01 per axis; max P(e in G) decreasing",
        min_p > 0.01 and decreasing,
        f"min p={min_p:.3f}, max freq={', '.join(f'{m:.4f}' for m in maxima)}",
    )


def test_criterion_09_fn_approximation(fn_sweep):
    cmp_res = build_summary(*fn_sweep)["fn_comparison"]
    ratios = [row["diff_over_n34"] for row in cmp_res["rows"]]
    bounded = (not cmp_res["growth_trend"]) or (max(ratios) <= 3.0 * min(ratios))
    _check(
        9, "|Var T - Var F|/n^(3/4) bounded over n in {16, 32, 64}",
        bounded,
        "ratios: " + ", ".join(f"{r:.4f}" for r in ratios),
    )


def test_criterion_10_weight_tail():
    specs = [
        Bernoulli(1, 2, 0.5),
        Uniform(0, 1),
        Exponential(1.0),
        Geometric(0.5),
        TableCDF(((0.5, 0.25), (1.0, 0.75), (2.5, 1.0))),
    ]
    n = 10**5
    dense_keys = counter_keys(np.arange(n, dtype=np.uint64))
    ok = True
    worst = -math.inf
    for k, spec in enumerate(specs):
        u = np.maximum(sample_weights(Uniform(0, 1), 50_000 + k, dense_keys), 2.0**-53)
        t = np.atleast_1d(spec.inv_cdf_array(u))
        F = np.array([spec.cdf(float(v)) for v in t])
        w = 1.0 - np.log(F)
        for r in range(2, 9):
            bound = math.exp(1 - r)
            sigma = math.sqrt(bound * (1 - bound) / n)
            excess = float(np.mean(w >= r)) - (bound + 4 * sigma)
            worst = max(worst, excess)
            ok &= excess <= 0
    _check(
        10, "P(w >= r) <= e^(1-r) + 4 sigma for r in 2..8 on all built-in specs",
        ok, f"worst excess={worst:.2e}",
    )


def test_criterion_11_determinism(fpp_sweep, tmp_path):
    cfg, records = fpp_sweep
    store_a = ResultStore(tmp_path / "a")
    store_a.write_records(cfg.model, records)
    store_b = ResultStore(tmp_path / "b")
    store_b.write_records(cfg.model, run_sweep(cfg, threads=0))
    same = all(
        store_a.records_path(cfg.model, n).read_bytes()
        == store_b.records_path(cfg.model, n).read_bytes()
        for n in cfg.n_list
    )
    _check(11, "rerunning the acceptance sweep reproduces the CSVs byte for byte", same)


# the records-CSV digests of the four acceptance sweeps, over the bytes that
# bench/digests.py hashes; summary.json is not pinned here.  The fpp (101) and
# fn (202) entries postdate the coordinate-keyed Box fields and the n^(2/3)
# first window, so bench/README.md still lists their older values
RECORDS_SHA256 = {
    101: {
        16: "6ae0958f86bf132d9115a5c45ef4434017424a1390676ae93788178ada79406f",
        32: "ba1c2b6ccb2ca3d9179abb9083d20119fd06b3cb874a50d52f89d6f6a7da30c6",
        64: "1c4b792e7ba0f2c33fee539520c5dcf4636f669da66a98c989a458ecee33ac1b",
        128: "6b95e49a5c866d285015e94869555143bfdb19780095ba402f45d5dfcccca751",
    },
    202: {
        16: "cddb99e02bb39f3dc6d4f2fa554940f29bb4028d7f33dcb60b5d64d2597c4def",
        32: "a2cd5ed1d19c5972c2b84f2dcadd3699723525fefe9f5bb5bcd8b7641c8b8d3d",
        64: "6a8918576fbbabc46036519c79d7757e92a51bb18263a522c442377ddfc35542",
    },
    303: {
        8: "ed97f5dd7451c47926f759d9de66eb8273445dea7b403f02d9b5f32bbde5d7a4",
        16: "f009ccbfd3ee45ad5171577bcaf03e8b0c6fa9b39b67a4d077d05c241795da14",
        32: "4b2733dd49b0c7c63cea0952c3c1e5dc51e66cced7549e6d2690e1cf75178b0c",
    },
    404: {
        64: "df1524bc064406ae5ed7b1e9b3ea5cfe744e3b9198a3fe436b9fa450805e47ea",
        128: "924ecf69712405ddfefeaa84a631cec25810131b84e2420c24c13d883e08137c",
        256: "a5f89ed547a88020b032318c2ea06a088685eb16da4635c7b768b7fdf3527374",
        512: "9fdf91785b391cd18519d14411fa97e9200848d3eb7f1a6b232802772eb25511",
    },
}


def test_records_csv_digests(fpp_sweep, fn_sweep, torus_sweep, lpp_sweep):
    for cfg, records in (fpp_sweep, fn_sweep, torus_sweep, lpp_sweep):
        got = {
            n: hashlib.sha256(records_to_csv(cfg.model, recs).encode()).hexdigest()
            for n, recs in by_n(records).items()
        }
        assert got == RECORDS_SHA256[cfg.seed], cfg.model
