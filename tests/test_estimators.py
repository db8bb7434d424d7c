import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab import cli, fpp
from fpplab.cli import build_summary
from fpplab.estimators import (
    WINDOW_MS,
    EstimatorSummary,
    ReplicaRecord,
    SweepConfig,
    by_n,
    efron_stein_bound,
    fit_chi,
    replica_passage,
    run_replica,
    run_sweep,
    summarize,
    _geometry_stats,
)
from fpplab.fpp import _grow_box, averaged_passage, passage_time, brute_force_passage, torus_passage
from fpplab.lattice import Box, Torus, point_window, window_halfwidth
from fpplab.ineqlab import fpp_exhaustive_check
from fpplab.weights import (
    Bernoulli, Exponential, Geometric, TableCDF, Uniform, WeightField, mix64, parse_spec,
    sample_field,
)

# the bounded laws of the single-edge-law tests, and a geometric law, whose
# atoms have no largest
ES_LAWS = [
    "uniform:0,1", "exponential:1", "bernoulli:1,2,0.5", "bernoulli:0,1,0.3", "bernoulli:0,1,0.7",
    "geometric:0.7",
]


def unit_config(**kw):
    base = dict(
        model="fpp-point",
        d=2,
        n_list=(4, 6),
        spec=TableCDF.point_mass(1.0),
        replicas=3,
        seed=1,
    )
    base.update(kw)
    return SweepConfig(**base)


class TestSweep:
    def test_unit_weights_exact(self):
        records = run_sweep(unit_config(), threads=1)
        for rec in records:
            assert rec.T == rec.n
            assert rec.g_int_size == rec.n
            assert rec.geo_len == rec.n
            assert rec.transverse_dev == 0

    def test_determinism(self):
        a = run_sweep(unit_config(spec=Uniform(0, 1)), threads=1)
        b = run_sweep(unit_config(spec=Uniform(0, 1)), threads=1)
        assert [(r.n, r.replica, r.T) for r in a] == [(r.n, r.replica, r.T) for r in b]

    def test_replicas_differ(self):
        records = run_sweep(unit_config(spec=Uniform(0, 1)), threads=1)
        ts = [r.T for r in records if r.n == 4]
        assert len(set(ts)) > 1

    def test_record_fn(self):
        cfg = unit_config(spec=Uniform(0, 1), n_list=(4,), replicas=2, record_fn=True)
        records = run_sweep(cfg, threads=1)
        for rec in records:
            assert rec.F_n is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            unit_config(n_list=(8, 4))
        with pytest.raises(ValueError):
            unit_config(replicas=1)
        with pytest.raises(ValueError):
            unit_config(model="bogus")

    @pytest.mark.parametrize("model", ["fpp-point", "lpp"])
    @pytest.mark.parametrize("n_list", [(0, 4), (-1, 4), (-2, 4), (-3, -1)])
    def test_rejects_sizes_below_one(self, model, n_list):
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            unit_config(model=model, n_list=n_list)

    @pytest.mark.parametrize("max_grows", [-1, -6])
    def test_rejects_negative_max_grows(self, max_grows):
        with pytest.raises(ValueError, match=f"max_grows must be at least 0, got {max_grows}"):
            unit_config(max_grows=max_grows)

    @pytest.mark.parametrize("d", [1, 3, -4])
    def test_lpp_must_be_planar(self, d):
        from fpplab.lpp import default_spec

        with pytest.raises(ValueError, match=f"lpp model is planar: d must be 2, got {d}"):
            unit_config(model="lpp", spec=default_spec(), d=d)

    def test_negative_or_non_integer_worker_count_raises(self, monkeypatch):
        cfg = unit_config(n_list=(4,), replicas=2)
        for threads in (-1, 1.5):
            with pytest.raises(ValueError, match="threads must be"):
                run_sweep(cfg, threads=threads)
        for env in ("-1", "two"):
            monkeypatch.setenv("FPPLAB_THREADS", env)
            with pytest.raises(ValueError, match="FPPLAB_THREADS must be"):
                run_sweep(cfg, threads=0)
        monkeypatch.setenv("FPPLAB_THREADS", "1")
        assert len(run_sweep(cfg, threads=0)) == 2

    def test_sweep_worker_pool_matches_serial(self):
        cfg = unit_config(spec=Uniform(0, 1), n_list=(4,), replicas=4)
        serial = run_sweep(cfg, threads=1)
        pooled = run_sweep(cfg, threads=2)
        assert [(r.n, r.replica, r.T) for r in serial] == [
            (r.n, r.replica, r.T) for r in pooled
        ]

    def test_lpp_model(self):
        from fpplab.lpp import default_spec

        cfg = unit_config(model="lpp", spec=default_spec(), n_list=(4, 8), replicas=3)
        records = run_sweep(cfg, threads=1)
        assert all(r.T >= 0 for r in records)
        assert len(records) == 6

    def test_subadditive_mean_consistency(self):
        # mean T/n decreases toward the time constant as n doubles
        cfg = unit_config(spec=Uniform(0, 1), n_list=(16, 32), replicas=300)
        records = run_sweep(cfg, threads=1)
        grouped = by_n(records)
        s16 = summarize([r.T for r in grouped[16]], bootstrap=400)
        s32 = summarize([r.T for r in grouped[32]], bootstrap=400)
        assert s32.mean / 32 <= s16.mean / 16 + (s16.mean_ci_half / 16 + s32.mean_ci_half / 32)


class TestSummarize:
    def test_exact_moments(self):
        s = summarize([1.0, 2.0, 3.0, 4.0], bootstrap=200)
        assert s.count == 4
        assert s.mean == 2.5
        assert s.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_ci_contains_truth_usually(self):
        # meta-trial: bootstrap CI for the variance of a known 16-atom law
        box = Box((0, 0), (1, 1))
        Ts = []
        for mask in range(16):
            w = np.array([2.0 if (mask >> e) & 1 else 1.0 for e in range(4)])
            Ts.append(brute_force_passage(WeightField(box, w, 0, None), (0, 0), (1, 1)))
        truth = float(np.var(Ts))  # population variance of the exact law
        rng = np.random.default_rng(0)
        hits = 0
        trials = 100
        for t in range(trials):
            sample = rng.choice(Ts, size=1600, replace=True)
            s = summarize(sample, bootstrap=500, seed=t)
            hits += s.var_ci[0] <= truth <= s.var_ci[1]
        assert hits >= 93

    def test_ci_shrinks(self):
        rng = np.random.default_rng(1)
        small = summarize(rng.normal(0, 1, 100), bootstrap=400)
        large = summarize(rng.normal(0, 1, 4000), bootstrap=400)
        assert large.mean_ci_half < small.mean_ci_half

    def test_deterministic(self):
        x = list(np.random.default_rng(2).normal(0, 1, 50))
        assert summarize(x) == summarize(x)


class TestFitChi:
    def test_linear_variance(self):
        pairs = [(n, float(n)) for n in (8, 16, 32, 64)]
        fit = fit_chi(pairs)
        assert fit.chi_hat == pytest.approx(0.5, abs=1e-12)
        assert fit.chi_stderr == pytest.approx(0.0, abs=1e-12)

    def test_kpz_power(self):
        pairs = [(n, float(n) ** (2.0 / 3.0)) for n in (8, 16, 32, 64)]
        fit = fit_chi(pairs)
        assert fit.chi_hat == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_requires_three(self):
        with pytest.raises(ValueError):
            fit_chi([(8, 1.0), (16, 2.0)])
        with pytest.raises(ValueError):
            fit_chi([(8, 1.0), (16, 0.0), (32, 2.0)])

    def test_nu_from_means(self):
        pairs = [(n, float(n)) for n in (8, 16, 32)]
        fit = fit_chi(pairs, means={8: 16.0, 16: 32.0, 32: 64.0})
        assert fit.nu_hat == pytest.approx(2.0, abs=1e-9)


class TestSublinearity:
    @staticmethod
    def _sublinearity(var_of_n, monkeypatch):
        """The summary's sublinearity table when the T summary of size n has
        variance var_of_n(n) and the variance CI var_of_n(n) * (0.9, 1.1)."""
        synthetic = {
            n: EstimatorSummary(
                count=100, mean=0.0, variance=var_of_n(n),
                mean_ci=(0.0, 0.0),
                var_ci=(0.9 * var_of_n(n), 1.1 * var_of_n(n)),
            )
            for n in (16, 32, 64)
        }
        # every T of size n is n, so the stand-in finds the size's summary
        monkeypatch.setattr(cli, "summarize", lambda values, bootstrap: synthetic[int(values[0])])
        cfg = unit_config(n_list=(16, 32, 64))
        records = [ReplicaRecord(n, r, float(n)) for n in cfg.n_list for r in range(2)]
        return build_summary(cfg, records)["sublinearity"]

    def test_n_over_logn(self, monkeypatch):
        prof = self._sublinearity(lambda n: n / math.log(n), monkeypatch)
        for row in prof["rows"]:
            assert row["var_logn_over_n"] == pytest.approx(1.0, rel=1e-12)
        assert prof["var_over_n_nonincreasing"]

    def test_linear_flat(self, monkeypatch):
        prof = self._sublinearity(lambda n: float(n), monkeypatch)
        for row in prof["rows"]:
            assert row["var_over_n"] == pytest.approx(1.0, rel=1e-12)
        assert prof["var_over_n_nonincreasing"]


class TestWindowRecords:
    @given(
        law=st.sampled_from(["uniform:0,1", "bernoulli:0,1,0.3"]),
        kappa=st.floats(0.05, 1.5),
        n=st.integers(4, 16),
        replica=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_t_only_and_geometry_records_agree(self, law, kappa, n, replica):
        cfg = unit_config(spec=parse_spec(law), n_list=(n,), kappa=kappa)
        geo = run_replica(cfg, n, replica)
        bare = run_replica(dataclasses.replace(cfg, record_geometry=False), n, replica)
        assert bare.geo_len is None
        assert (bare.T, bare.window_grows, bare.flagged) == (geo.T, geo.window_grows, geo.flagged)

    def test_fn_records_count_their_grows(self):
        # F_n's last search ran on the first window grown window_grows times
        cfg = unit_config(
            spec=Uniform(0, 1), n_list=(16,), kappa=0.05, record_fn=True,
            record_geometry=False,
        )
        grew = 0
        for r in range(12):
            rec = run_replica(cfg, 16, r)
            window = point_window(16, 2, window_halfwidth(16, 2, cfg.kappa))
            for _ in range(rec.window_grows):
                window = _grow_box(window)
            field = sample_field(cfg.spec, window, mix64(cfg.seed, r))
            assert rec.F_n == averaged_passage(field, 16, max_grows=0).F_n
            assert not rec.flagged
            grew += rec.window_grows
        assert grew > 0


class TestReplicaPassage:
    # the acceptance sweeps' records are replayed in tests/test_acceptance.py

    def test_fn_replay_starts_on_the_widened_window(self):
        # a first window at kappa = 0.05 is 1 site wide without F_n's ball;
        # the replay must search the widened one, as run_replica does
        cfg = unit_config(
            spec=Uniform(0, 1), n_list=(8, 16), replicas=40, kappa=0.05, record_fn=True,
            record_geometry=False,
        )
        for n in cfg.n_list:
            for r in range(cfg.replicas):
                rec = run_replica(cfg, n, r)
                res, fn = replica_passage(cfg, n, r)
                assert res.T == rec.T, (n, r)
                assert fn.F_n == rec.F_n, (n, r)
                assert res.grows + fn.grows == rec.window_grows, (n, r)
                assert (res.boundary_flag or fn.boundary_flag) == rec.flagged, (n, r)

    def test_three_dimensional_point_replay(self):
        cfg = unit_config(d=3, spec=Uniform(0, 1), n_list=(4, 6), replicas=4)
        for n in cfg.n_list:
            for r in range(cfg.replicas):
                rec = run_replica(cfg, n, r)
                res, fn = replica_passage(cfg, n, r)
                assert fn is None
                assert (res.src, res.dst, res.window.d) == ((0, 0, 0), (n, 0, 0), 3)
                assert (res.T, res.grows, res.boundary_flag) == (
                    rec.T, rec.window_grows, rec.flagged
                )
                stats = _geometry_stats(res, cfg.spec)
                assert stats == {key: getattr(rec, key) for key in stats}


class TestEfronStein:
    def test_point_mass_zero(self):
        win = point_window(4, 2, 2)
        field = sample_field(TableCDF.point_mass(1.0), win, 0)
        res = passage_time(field, (0, 0), (4, 0), max_grows=0)
        est, analytic = efron_stein_bound(res)
        assert est == 0.0
        assert analytic == res.gint_edge_idx.size  # second moment is 1

    def test_needs_box_result_with_geometry(self):
        win = point_window(4, 2, 2)
        field = sample_field(Uniform(0, 1), win, 0)
        bare = passage_time(field, (0, 0), (4, 0), max_grows=0, want_geometry=False)
        tfield = sample_field(Bernoulli(1, 2, 0.5), Torus(4, 2), 0)
        torus = torus_passage(tfield)
        for res in (bare, torus):
            with pytest.raises(ValueError):
                efron_stein_bound(res)

    def test_needs_a_field_with_a_law(self):
        win = point_window(4, 2, 2)
        field = sample_field(Uniform(0, 1), win, 0)
        bare = WeightField(win, field.weights, 0, None)
        res = passage_time(bare, (0, 0), (4, 0), max_grows=0)
        with pytest.raises(ValueError, match="law"):
            efron_stein_bound(res)

    @pytest.mark.parametrize("law", ES_LAWS)
    def test_matches_per_edge_recompute(self, law):
        # each edge's Var_e T, from the law's clipped moments at x = C - a,
        # against one full search per value of the edge's weight: the atoms
        # or the first 120 values of a geometric law (mass 2e-19 left), to
        # 1e-12; for a continuous law the quantiles at the midpoints of 1,000
        # equal-mass cells, a midpoint rule whose error is about 1e-5
        spec = parse_spec(law)
        continuous = isinstance(spec, (Uniform, Exponential))
        box = Box((0, 0), (2, 1)) if continuous else Box((0, 0), (3, 2))
        if continuous:
            values, probs = spec.inv_cdf_array((np.arange(1000) + 0.5) / 1000), np.full(1000, 1e-3)
        elif isinstance(spec, Geometric):
            values = np.arange(120.0)
            probs = (1 - spec.q) * spec.q**values
        else:
            values, probs = map(np.array, zip(*spec.atoms()))
        for seed in range(1 if continuous else 3):
            field = sample_field(spec, box, seed)
            res = passage_time(field, (0, 0), box.hi, max_grows=0)
            C, a = res.edge_law
            x = res._time(C - a)
            total = 0.0
            for e in range(box.n_edges()):
                T = np.array([
                    passage_time(field.with_weight(e, t), (0, 0), box.hi, max_grows=0,
                                 want_geometry=False).T
                    for t in values
                ])
                want = math.fsum(probs * (T - math.fsum(probs * T)) ** 2)
                m1, m2 = spec.clipped_moments(max(x[e], 0.0))
                got = m2 - m1 * m1 if x[e] > 0 else 0.0
                tol = dict(rel=1e-4, abs=1e-6) if continuous else dict(rel=1e-12, abs=1e-12)
                assert got == pytest.approx(want, **tol), (seed, e)
                total += got
            assert efron_stein_bound(res)[0] == pytest.approx(total, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("law, var", [
        ("uniform:0,1", 1 / 12), ("exponential:1", 1.0), ("bernoulli:1,2,0.5", 0.25),
        ("bernoulli:0,1,0.3", 0.21), ("bernoulli:0,1,0.7", 0.21), ("geometric:0.7", 0.7 / 0.09),
    ])
    def test_bridges_carry_the_whole_variance(self, law, var):
        # on a one-site-wide box every edge is a bridge (C = inf), so T is
        # the sum of the weights and Var_e T = Var(s) on every edge
        box = Box((0, 0), (5, 0))
        for seed in range(3):
            field = sample_field(parse_spec(law), box, seed)
            res = passage_time(field, (0, 0), (5, 0), max_grows=0)
            assert np.all(np.isinf(res.edge_law[0]))
            assert efron_stein_bound(res)[0] == pytest.approx(box.n_edges() * var, rel=1e-12)

    @pytest.mark.parametrize("box", [Box((0, 0), (1, 1)), Box((0, 0), (2, 1)), Box((0, 0), (2, 2))],
                             ids=["4_edges", "7_edges", "12_edges"])
    @pytest.mark.parametrize("spec", [Bernoulli(1, 2, 0.5), Bernoulli(0.25, 1.5, 0.5)], ids=repr)
    def test_mean_over_every_configuration_is_the_efron_stein_bound(self, box, spec):
        # for fair bits, the mean of sum_e Var_e T over all 2^E weight
        # configurations is (1/4) sum_e E[(T - T o flip_e)^2], the exact
        # resampling bound that the exhaustive check enumerates
        E = box.n_edges()
        total = 0.0
        for mask in range(2**E):
            bits = (mask >> np.arange(E)) & 1
            field = WeightField(box, np.where(bits, spec.b, spec.a), 0, spec)
            total += efron_stein_bound(passage_time(field, (0, 0), box.hi, max_grows=0))[0]
        rhs = fpp_exhaustive_check(box, spec, (0, 0), box.hi).es_bound
        assert rhs > 0
        assert total / 2**E == pytest.approx(rhs, rel=1e-12)

    def test_bound_exceeds_variance(self):
        win = point_window(8, 2, 4)
        spec = Uniform(0, 1)
        ts, bounds = [], []
        for seed in range(60):
            field = sample_field(spec, win, seed)
            res = passage_time(field, (0, 0), (8, 0), max_grows=0)
            ts.append(res.T)
            est, _ = efron_stein_bound(res)
            bounds.append(est)
        assert np.mean(bounds) >= np.var(ts, ddof=1) * 0.5

    def test_direction_within_ci(self):
        # estimated bound >= empirical variance - 2x combined CI on a sweep
        cfg = unit_config(spec=Uniform(0, 1), n_list=(16,), replicas=200)
        records = run_sweep(cfg, threads=1)
        s = summarize([r.T for r in records], bootstrap=500)
        ests = [efron_stein_bound(replica_passage(cfg, 16, r.replica)[0])[0] for r in records[:100]]
        bound = summarize(ests, bootstrap=500)
        slack = 2 * (s.var_ci_half + bound.mean_ci_half)
        assert bound.mean >= s.variance - slack


class TestInfluence:
    @staticmethod
    def _pvalues(cfg, records):
        """The summary's per-axis p-values, keyed by n and axis as integers."""
        influence = build_summary(cfg, records)["influence"]
        return {
            int(n): {int(a): p for a, p in row["axis_pvalues"].items()}
            for n, row in influence.items()
        }

    def test_unit_weights_zero(self):
        cfg = unit_config(model="fpp-torus", n_list=(4,), replicas=3)
        records = run_sweep(cfg, threads=1)
        inf = build_summary(cfg, records)["influence"]
        assert inf["4"]["max_frequency"] == 0.0
        assert inf["4"]["axis_pvalues"]["0"] == 1.0

    def test_mean_g_size_is_mean_g_int(self):
        cfg = unit_config(
            model="fpp-torus", spec=Bernoulli(1, 2, 0.5), n_list=(4,), replicas=40
        )
        records = run_sweep(cfg, threads=1)
        inf = build_summary(cfg, records)["influence"]
        mean_g = np.mean([r.g_int_size for r in records])
        assert inf["4"]["mean_g_size"] == pytest.approx(mean_g)

    @staticmethod
    def _scipy_stats_pvalues(records, d):
        from scipy import stats  # the tests may load scipy.stats; fpplab may not

        out = {}
        for n, recs in by_n(records).items():
            counts = np.sum([r.g_bitmap for r in recs], axis=0).astype(np.float64)
            out[n] = {}
            for axis in range(d):
                c = counts[axis::d]
                expected = c.mean()
                if expected == 0:
                    out[n][axis] = 1.0
                    continue
                stat = float(np.sum((c - expected) ** 2 / expected))
                out[n][axis] = float(stats.chi2.sf(stat, df=c.size - 1))
        return out

    def test_pvalues_equal_scipy_stats_on_torus_sweeps(self):
        cfg = unit_config(
            model="fpp-torus", spec=Bernoulli(1, 2, 0.5), n_list=(4, 8), replicas=40
        )
        records = run_sweep(cfg, threads=1)
        ref = self._scipy_stats_pvalues(records, 2)
        assert self._pvalues(cfg, records) == ref
        assert all(any(0.0 < p < 1.0 for p in pv.values()) for pv in ref.values())

    def test_pvalues_equal_scipy_stats_on_hand_made_bitmaps(self):
        rng = np.random.default_rng(9)
        records = []
        # group n: edge count, replicas, membership probability
        for n, (edges, reps, prob) in enumerate(
            [(4, 3, 0.5), (6, 10, 0.3), (34, 25, 0.1), (2048, 50, 0.02), (512, 40, 0.9)]
        ):
            for i in range(reps):
                records.append(ReplicaRecord(n, i, 0.0, g_bitmap=rng.random(edges) < prob))
        skewed = np.zeros(64, dtype=bool)
        skewed[:4] = True  # a few edges always in: p far below any float tail
        records += [ReplicaRecord(5, i, 0.0, g_bitmap=skewed) for i in range(30)]
        # axis 0 has equal counts (stat 0); axis 1 is never used (no test, p = 1)
        even = np.array([True, False] * 8)
        records += [ReplicaRecord(6, i, 0.0, g_bitmap=even) for i in range(3)]
        pvalues = self._pvalues(unit_config(model="fpp-torus"), records)
        assert pvalues == self._scipy_stats_pvalues(records, 2)
        assert pvalues[5][0] < 1e-100
        assert pvalues[6] == {0: 1.0, 1: 1.0}


def reference_geometry_stats(res, spec):
    """``_geometry_stats`` by its earlier formulas: absolute int64 coordinates,
    the diameter as the largest entry of the int64 L x L distance matrix."""
    region = res.window
    coords = np.stack(np.unravel_index(res.path_idx, region.shape), axis=1) + region.lo
    L, d = coords.shape
    dmat = sum(np.abs(x[:, None] - x[None, :]) for x in coords.T)
    far = np.maximum(dmat[:-1], dmat[1:])
    Y = 0.0
    for t in res.field.weights[res.gint_edge_idx].tolist():
        Y += 1.0 - math.log(spec.cdf(t))
    return {
        "g_dag_size": int(res.dag_edge_idx.size),
        "g_int_size": int(res.gint_edge_idx.size),
        "geo_len": L - 1,
        "geo_diam": int(dmat.max()),
        "transverse_dev": int(np.abs(coords[:, 1:]).max()) if d > 1 else 0,
        "Y_n": Y,
        "win_counts": {m: int((far <= m).sum(axis=0, dtype=np.int32).max()) for m in WINDOW_MS},
    }


class TestGeometryStats:
    @pytest.mark.parametrize(
        "cfg",
        [
            # uniform weights take the tree-path shortcut, the atom at 0 the walk
            unit_config(spec=Uniform(0, 1), n_list=(8,), record_fn=True),
            unit_config(spec=Bernoulli(0, 1, 0.3), n_list=(8,), record_fn=True),
            unit_config(model="fpp-torus", spec=Bernoulli(0, 1, 0.3), n_list=(8,)),
        ],
        ids=["point", "point0", "torus"],
    )
    def test_replicas_build_no_site_tuples(self, cfg, monkeypatch):
        # records come from the path's indices: with the tuple builder
        # broken, every replica returns the same record
        want = [run_replica(cfg, 8, r) for r in range(6)]

        def no_tuples(*args):
            raise AssertionError("a replica built a tuple path")

        monkeypatch.setattr(fpp, "_sites", no_tuples)
        got = [run_replica(cfg, 8, r) for r in range(6)]
        for a, b in zip(got, want):
            assert dataclasses.replace(a, g_bitmap=None) == dataclasses.replace(b, g_bitmap=None)
            if cfg.model == "fpp-torus":
                assert np.array_equal(a.g_bitmap, b.g_bitmap)

    def test_window_ratio_unit_weights(self):
        cfg = unit_config(n_list=(16,), replicas=2)
        stats = build_summary(cfg, run_sweep(cfg, threads=1))["window_ratios"]
        for m, ratio in stats["16"].items():
            assert ratio == pytest.approx(1.0)

    def test_speed_unit_weights(self):
        cfg = unit_config(n_list=(8, 12), replicas=2)
        speed = build_summary(cfg, run_sweep(cfg, threads=1))["min_speed"]
        assert speed == {"8": 1.0, "12": 1.0}

    def test_bernoulli_speed_at_least_one(self):
        cfg = unit_config(spec=Bernoulli(1, 2, 0.5), n_list=(8,), replicas=5)
        records = run_sweep(cfg, threads=1)
        assert build_summary(cfg, records)["min_speed"]["8"] >= 1.0

    @given(
        d=st.integers(2, 3),
        start=st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
        steps=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1, 1])), max_size=40),
        picks=st.lists(st.integers(0, 49), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_center_definition(self, d, start, steps, picks, seed):
        # a random lattice path, revisits allowed, against the definitions
        # written out per center and per edge
        path = [start[:d]]
        for axis, sign in steps:
            site = list(path[-1])
            site[axis % d] += sign
            path.append(tuple(site))
        weights = np.random.default_rng(seed).uniform(0.01, 1.0, 50)
        # the smallest box around the path, whose lo is the path's per-axis minimum
        box = Box(tuple(map(min, zip(*path))), tuple(map(max, zip(*path))))
        res = SimpleNamespace(
            path_idx=np.array([box.site_index(s) for s in path], dtype=np.int64),
            window=box, field=SimpleNamespace(weights=weights),
            gint_edge_idx=np.array(picks, dtype=np.int64),
            dag_edge_idx=np.arange(len(picks) + 3),
        )
        spec = Uniform(0, 1)
        got = _geometry_stats(res, spec)

        def dist(a, b):
            return sum(abs(x - y) for x, y in zip(a, b))

        Y = 0.0
        for t in weights[picks]:
            Y = Y + (1.0 - math.log(spec.cdf(float(t))))
        assert got == {
            "g_dag_size": len(picks) + 3,
            "g_int_size": len(picks),
            "geo_len": len(steps),
            "geo_diam": max(dist(a, b) for a in path for b in path),
            "transverse_dev": max(abs(x) for site in path for x in site[1:]),
            "Y_n": Y,
            "win_counts": {
                m: max(
                    sum(dist(a, c) <= m and dist(b, c) <= m for a, b in zip(path, path[1:]))
                    for c in path
                )
                for m in WINDOW_MS
            },
        }

    @pytest.mark.parametrize("law", ["uniform:0,1", "bernoulli:0,1,0.3"])
    @pytest.mark.parametrize("d, n", [(2, 24), (3, 10), (4, 6)])
    def test_passages_match_int64_formulas(self, law, d, n):
        # the int16 distance matrix and the projected diameter on real
        # geodesics, against the int64 pairwise matrix; the atom at 0 is
        # supercritical for d >= 3, so the field skips the law check and
        # the window does not grow
        spec = parse_spec(law)
        window = point_window(n, d, window_halfwidth(n, 0, 1.25))
        for seed in range(4):
            field = sample_field(spec, window, mix64(d, seed))
            res = passage_time(field, (0,) * d, (n,) + (0,) * (d - 1), max_grows=0)
            assert _geometry_stats(res, spec) == reference_geometry_stats(res, spec)

    @pytest.mark.parametrize("span", [32767, 32769, 65540])
    def test_wide_window_matches_int64_formulas(self, span):
        # a window whose sum(shape - 1) is at, or past, int16's largest
        # value, and a path whose last edge is span - 1 and span from its
        # first site: in int16 those two distances would wrap to values a
        # ball of radius m holds
        lo = (-5, -1)
        box = Box(lo, (span - 7, 1))
        rel = [(0, 0), (1, 0), (1, 1), (span - 3, 1), (span - 2, 1), (span - 2, 2)]
        path = [(x + lo[0], y + lo[1]) for x, y in rel]
        res = SimpleNamespace(
            path_idx=np.array([box.site_index(s) for s in path], dtype=np.int64),
            window=box, field=SimpleNamespace(weights=np.linspace(0.1, 0.9, 5)),
            gint_edge_idx=np.array([0, 3, 4], dtype=np.int64), dag_edge_idx=np.arange(6),
        )
        spec = Uniform(0, 1)
        got = _geometry_stats(res, spec)
        assert got == reference_geometry_stats(res, spec)
        assert got["geo_diam"] == span
        assert got["win_counts"] == {2: 2, 4: 2, 8: 2}


class TestAnimalWeights:
    def test_point_mass_y_equals_g(self):
        # F(t) = 1 everywhere, so each geodesic edge contributes exactly 1
        records = run_sweep(unit_config(n_list=(6, 8), replicas=3), threads=1)
        for rec in records:
            assert rec.Y_n == rec.g_int_size

    def test_y_dominates_g(self):
        cfg = unit_config(spec=Uniform(0, 1), n_list=(8,), replicas=20)
        records = run_sweep(cfg, threads=1)
        for rec in records:
            assert rec.Y_n >= rec.g_int_size - 1e-9  # each w_e >= 1

    def test_mean_ratio_bounded(self):
        # E[Y_n] / n stays within a bounded factor across n, and the empirical
        # tails P(Y_n >= beta n) fall as beta grows
        cfg = unit_config(spec=Uniform(0, 1), n_list=(8, 16, 32), replicas=60)
        records = run_sweep(cfg, threads=1)
        groups = by_n(records)
        assert set(groups) == {8, 16, 32}
        over = {}
        for n, recs in groups.items():
            ys = np.array([r.Y_n for r in recs])
            over[n] = float(ys.mean()) / n
            tails = [float(np.mean(ys >= beta * n)) for beta in (1.0, 2.0, 4.0, 8.0)]
            assert all(0.0 <= p <= 1.0 for p in tails)
            assert tails == sorted(tails, reverse=True)
        assert min(over.values()) > 0
        assert max(over.values()) / min(over.values()) <= 3.0


class TestFnComparison:
    def test_unit_weights_zero_difference(self):
        cfg = unit_config(n_list=(4, 6), replicas=3, record_fn=True)
        records = run_sweep(cfg, threads=1)
        for row in build_summary(cfg, records)["fn_comparison"]["rows"]:
            assert row["var_T"] == 0.0 and row["var_F"] == 0.0 and row["abs_diff"] == 0.0

    def test_fn_at_one_size_gives_no_comparison(self):
        # F_n at one of two sizes: the size keeps its F_n summary, and there
        # is no comparison across sizes to report
        cfg = unit_config(n_list=(4, 6), record_fn=True)
        records = [ReplicaRecord(4, r, 4.0 + r, F_n=4.5 + r) for r in range(3)]
        records += [ReplicaRecord(6, r, 6.0 + r) for r in range(3)]
        summary = build_summary(cfg, records)
        assert "fn_comparison" not in summary
        assert "F_n" in summary["per_n"]["4"] and "F_n" not in summary["per_n"]["6"]

    def test_m_zero_identity(self):
        # B_0 = {origin}: the averaged time collapses to T itself
        from fpplab.fpp import averaged_passage

        win = point_window(6, 2, 3)
        field = sample_field(Uniform(0, 1), win, 3)
        res = passage_time(field, (0, 0), (6, 0), max_grows=0)
        fn = averaged_passage(field, 6, m=0)
        assert list(fn.terms) == [(0, 0)]
        assert fn.F_n == res.T
