import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.lpp import (
    LppGrid,
    brute_force_last_passage,
    default_spec,
    fit_center,
    last_passage,
    last_passage_value,
    rescaled_statistic,
    sample_grid,
)
from fpplab.weights import (
    Bernoulli,
    Exponential,
    Geometric,
    TableCDF,
    Uniform,
    counter_keys,
    parse_spec,
    sample_weights,
)

LAWS = [
    Bernoulli(1.0, 2.0, 0.5),
    Uniform(0.0, 1.0),
    Exponential(1.0),
    Geometric(0.5),
    TableCDF(((0.5, 0.25), (1.0, 0.75), (2.5, 1.0))),
]

# sha256 of np.array([last_passage_value(sample_grid(n, 7919 + s, law)) for s
# in range(reps)]).tobytes(), recorded from the row-major grid with the strided
# DP; draw-order or summation-order drift moves them
_T_DIGESTS = {
    ("geometric:0.5", 64, 16): "e4a061ce2fdaec8cb8da6d2d968279950d99433745398f00478b461243687685",
    ("geometric:0.5", 512, 4): "f723d03ec9a049ddfd099f59c4122dcb2c7db52c3a9e1aa1ceb0d1b2e9ce5d63",
    ("exponential:1", 64, 16): "351a66c427cdf2df0812f3c9f5f2460b42f8ee67c8d4fc51fd5ac022bcbd9e58",
    ("exponential:1", 512, 4): "9eea83dfea2f91bb258839ec97f0b30ee8850f48caa7e53eea380e0151777c76",
}


class TestLastPassage:
    def test_all_ones(self):
        for n in (1, 3, 7):
            grid = LppGrid(n, np.ones((n + 1, n + 1)))
            T, path = last_passage(grid)
            assert T == 2 * n + 1  # path visits 2n+1 vertices
            assert last_passage_value(grid) == T
            assert len(path) == 2 * n + 1

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_rejects_negative_or_nan(self, bad):
        with pytest.raises(ValueError, match="negative or NaN"):
            LppGrid(1, [[0.0, bad], [0.0, 0.0]])

    def test_n1_hand_example(self):
        # max(1+2+4, 1+3+4) = 8 via (0,0),(1,0),(1,1)
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        grid = LppGrid(1, w)
        T, path = last_passage(grid)
        assert T == 8.0
        assert path == [(0, 0), (1, 0), (1, 1)]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            w = rng.integers(0, 9, size=(5, 5)).astype(float)
            grid = LppGrid(4, w)
            T, path = last_passage(grid)
            assert T == brute_force_last_passage(grid)
            assert last_passage_value(grid) == T
            # path must be monotone and realize T
            total = sum(w[i, j] for i, j in path)
            assert total == T
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1))

    @pytest.mark.parametrize("law", ["geometric", "exponential", "uniform", "ties"])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 64])
    def test_dp_matches_row_scan_exactly(self, n, law):
        # the -inf sentinels of the anti-diagonal buffers must reproduce the
        # row scan bit for bit, non-integer sums included
        rng = np.random.default_rng(1000 * n + len(law))
        shape = (n + 1, n + 1)
        w = {
            "geometric": lambda: rng.geometric(0.5, shape) - 1.0,
            "exponential": lambda: rng.exponential(1.0, shape),
            "uniform": lambda: rng.random(shape),
            "ties": lambda: rng.integers(0, 3, shape).astype(float),
        }[law]()
        grid = LppGrid(n, w)
        assert last_passage_value(grid) == last_passage(grid)[0]

    def test_scratch_rows_reused_across_grids(self):
        # the DP's scratch rows are shared by every grid of one size: run
        # n = 0, 1, 17, 64, a second n = 17 grid, then the first one again;
        # each value must be the row scan's, and stay put
        rng = np.random.default_rng(17)
        grids = [LppGrid(n, rng.exponential(1.0, (n + 1, n + 1))) for n in (0, 1, 17, 64, 17)]
        order = [0, 1, 2, 3, 4, 2]
        values = [last_passage_value(grids[i]) for i in order]
        for i, T in zip(order, values):
            assert T == last_passage(grids[i])[0]
        assert values[5] == values[2] != values[4]

    def test_rejects_negative_size(self):
        # a (0, 0) array has the shape (n+1, n+1) of n = -1
        with pytest.raises(ValueError, match="grid size"):
            LppGrid(-1, np.zeros((0, 0)))
        for n in (-1, -5):
            with pytest.raises(ValueError, match="grid size"):
                sample_grid(n, seed=1)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_dp_upper_bounds_every_path(self, n):
        rng = np.random.default_rng(n)
        grid = LppGrid(n, rng.random((n + 1, n + 1)))
        T = last_passage_value(grid)
        assert T >= brute_force_last_passage(grid) - 1e-12
        assert T == pytest.approx(brute_force_last_passage(grid), abs=1e-12)

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(3)
        w = rng.random((4, 4))
        base = last_passage_value(LppGrid(3, w))
        for i in range(4):
            for j in range(4):
                w2 = w.copy()
                w2[i, j] += 1.0
                assert last_passage_value(LppGrid(3, w2)) >= base

    def test_tie_break_prefers_up(self):
        # symmetric grid: both predecessors tie everywhere; backtracking from
        # (n, n) must always take the (i-1, j) branch
        grid = LppGrid(2, np.ones((3, 3)))
        _, path = last_passage(grid)
        assert path == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]

    def test_superadditivity_split(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(50):
            w = rng.random((9, 9))
            T = last_passage_value(LppGrid(8, w))
            k = 4
            T1 = last_passage_value(LppGrid(k, w[: k + 1, : k + 1]))
            T2 = last_passage_value(LppGrid(4, w[k:, k:]))
            # the two-leg path through (k, k) double counts w[k, k]
            assert T >= T1 + T2 - w[k, k] - 1e-12
            hits += 1
        assert hits == 50

    def test_sampling_deterministic(self):
        g1 = sample_grid(8, seed=5)
        g2 = sample_grid(8, seed=5)
        assert np.array_equal(g1.vertex_weights, g2.vertex_weights)
        assert g1.spec == default_spec()

    @pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 128])
    def test_sampled_grid_is_the_row_major_stream(self, n, spec):
        # cell (i, j) draws counter i*(n+1)+j whatever order the grid is drawn
        # in; n = 128 has 16,641 cells, past one 2^14-draw block
        grid = sample_grid(n, 31 + n, spec)
        counters = np.arange((n + 1) ** 2, dtype=np.uint64)
        want = sample_weights(spec, 31 + n, counter_keys(counters))
        got = grid.vertex_weights
        assert got.shape == (n + 1, n + 1)
        assert got.reshape(-1).tobytes() == want.tobytes()
        assert last_passage_value(grid) == last_passage(grid)[0]

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 64])
    def test_vertex_weights_round_trip(self, n):
        w = np.random.default_rng(n).exponential(1.0, (n + 1, n + 1))
        got = LppGrid(n, w).vertex_weights
        assert got.shape == w.shape and got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("law, n, reps", sorted(_T_DIGESTS))
    def test_golden_passage_values(self, law, n, reps):
        spec = parse_spec(law)
        T = np.array([last_passage_value(sample_grid(n, 7919 + s, spec)) for s in range(reps)])
        assert hashlib.sha256(T.tobytes()).hexdigest() == _T_DIGESTS[law, n, reps]

    def test_geometric_mean_one(self):
        g = sample_grid(200, seed=11)
        assert abs(g.vertex_weights.mean() - 1.0) < 0.02


class TestRescaledStatistic:
    def test_centered_zero(self):
        assert rescaled_statistic(4 * 100.0, 100, center=4.0) == 0.0

    def test_arithmetic_example(self):
        z = rescaled_statistic(4100.0, 1000, center=4.0)
        assert z == pytest.approx(100.0 / (2.0 ** (4.0 / 3.0) * 10.0), rel=1e-12)
        assert z == pytest.approx(3.969, abs=2e-3)

    def test_fit_center_recovers_constant(self):
        means = {n: 4.0 * n + 1.7 * n ** (1.0 / 3.0) for n in (250, 500, 1000, 2000)}
        assert fit_center(means) == pytest.approx(4.0, abs=1e-9)


class TestDistributionalConvergence:
    @staticmethod
    def _t_samples(n, reps, salt):
        return np.array(
            [last_passage_value(sample_grid(n, seed=salt * 10_000 + r)) for r in range(reps)]
        )

    def test_fitted_center_departs_from_four(self):
        # geometric mean-1 passage times do not center at 4n; the fitted
        # constant is what the rescaled statistic should use
        ts = {n: self._t_samples(n, 400, i + 1) for i, n in enumerate((8, 16, 32, 64))}
        center = fit_center({n: float(v.mean()) for n, v in ts.items()})
        assert 4.3 < center < 5.2

    def test_ks_distance_shrinks_with_n(self):
        # self-consistency: Z at n and at 2n get closer in distribution as n
        # grows, once Z uses the fitted center
        from scipy.stats import ks_2samp

        ts = {n: self._t_samples(n, 500, i + 1) for i, n in enumerate((8, 16, 32, 64))}
        center = fit_center({n: float(v.mean()) for n, v in ts.items()})
        zs = {n: rescaled_statistic(ts[n], n, center=center) for n in ts}
        d_small = ks_2samp(zs[8], zs[16]).statistic
        d_large = ks_2samp(zs[32], zs[64]).statistic
        assert d_large < d_small


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_dp_equals_brute_force_property(n, seed):
    rng = np.random.default_rng(seed)
    grid = LppGrid(n, rng.integers(0, 5, size=(n + 1, n + 1)).astype(float))
    assert last_passage_value(grid) == brute_force_last_passage(grid)
