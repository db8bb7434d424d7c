import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.ineqlab import (
    K_MAX,
    efron_stein_check,
    entropy_variational_check,
    exhaustive_passage_times,
    falik_samorodnitsky_check,
    fpp_exhaustive_check,
    log_sobolev_check,
    rossignol_check,
    run_randomized_suite,
    tensorization_check,
)
from fpplab import ineqlab
from fpplab.cli import main as cli_main
from fpplab.lattice import Box
from fpplab.weights import Bernoulli, WeightField
from fpplab.fpp import brute_force_passage, passage_time, simple_path_matrix


def uniform_probs(k):
    return np.full(2**k, 0.5**k)


def one(check, values, trials=None):
    """The verdict of one function table (or log-Sobolev pair), checked as a
    stack of one row; ``trials`` are that row's trial functions."""
    X = np.asarray(values, dtype=np.float64)[None]
    if trials is None:
        return check(X)[0]
    G = np.asarray(trials, dtype=np.float64).reshape(1, len(trials), X.shape[1])
    return check(X, G)[0]


def mean(values):
    """Compensated uniform mean of all the values: one fsum."""
    return ineqlab._row_means(np.ravel(values))[0]


def variance(values):
    return ineqlab._variance_rows(np.asarray(values)[None])[0]


def ent(values, probs):
    """Ent(X) = E[X log(X / EX)] of one nonnegative X under probs."""
    return ineqlab._entropy_rows(np.asarray(values, dtype=np.float64)[None], probs)[0]


def tiled_increments(X):
    """The increments of the rows of X (m, 2^k), each tiled back from its
    distinct values to all 2^k points."""
    increments = ineqlab._increments(X, ineqlab._row_means(X))
    return [np.tile(d, X.shape[1] // d.shape[1]) for d in increments]


# the randomized suite's rows whose check is a public function of function tables
HYPERCUBE_CHECKS = [name for name in ineqlab.CHECK_NAMES if name != "rossignol"]


BOX4 = Box((0, 0), (1, 1))  # 2x2 sites
BOX7 = Box((0, 0), (2, 1))  # 3x2 sites
BOX12 = Box((0, 0), (2, 2))  # 3x3 sites
BOX17 = Box((0, 0), (3, 2))  # 4x3 sites


def configuration(box: Box, spec: Bernoulli, mask: int) -> WeightField:
    """Bit e of mask gives edge e weight spec.b, else spec.a."""
    bits = (mask >> np.arange(box.n_edges())) & 1
    return WeightField(box, np.where(bits, float(spec.b), float(spec.a)), 0, spec)


class TestEntropy:
    def test_constant_is_zero(self):
        assert ent(np.full(8, 3.0), uniform_probs(3)) == 0.0

    def test_two_point_hand_value(self):
        # X = (2, 0) under (1/2, 1/2): EX = 1, Ent = (1/2) * 2 * log 2
        assert ent(np.array([2.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_homogeneity(self):
        x = np.array([1.0, 2.0, 0.0, 5.0])
        p = np.full(4, 0.25)
        for c in (0.5, 2.0, 7.0):
            assert ent(c * x, p) == pytest.approx(c * ent(x, p), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = np.abs(rng.normal(0, 2, size=8))
            assert ent(x, uniform_probs(3)) >= -1e-15

    def test_square_lower_bound(self):
        # Ent(X^2) >= E X^2 log(E X^2 / (E X)^2) on random nonnegative inputs
        rng = np.random.default_rng(4)
        for _ in range(500):
            x = np.abs(rng.normal(0, 2, size=2 ** int(rng.integers(1, 5))))
            m1, m2, ent = ineqlab._abs_moments([x[None]])[0][0]
            assert ineqlab._entropy_lower_bound(m1, m2, ent)[1]


class TestMartingale:
    @pytest.mark.parametrize("seed", range(5))
    def test_telescoping_orthogonality_parseval(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        f = rng.normal(0, 2, size=2**k)
        incs = [d[0] for d in tiled_increments(f[None])]
        assert np.max(np.abs(f - mean(f) - sum(incs))) <= 1e-12
        assert all(abs(mean(a * b)) <= 1e-12 for i, a in enumerate(incs) for b in incs[i + 1 :])
        assert abs(variance(f) - math.fsum(mean(d**2) for d in incs)) <= 1e-12

    def test_unused_coordinate_has_zero_increment(self):
        # f depends only on coordinate 2 of 3
        vals = np.array([float((m >> 1) & 1) for m in range(8)])
        incs = [d[0] for d in tiled_increments(vals[None])]
        assert np.allclose(incs[0], 0.0)
        assert np.allclose(incs[2], 0.0)
        assert not np.allclose(incs[1], 0.0)


class TestEfronStein:
    def test_dictator(self):
        vals = np.array([float(m & 1) for m in range(2)])
        r = one(efron_stein_check, vals)
        assert r.lhs == pytest.approx(0.25, abs=1e-15)  # Var
        assert r.rhs == pytest.approx(0.25, abs=1e-15)  # equality case
        assert r.holds

    def test_parity_two_bits(self):
        vals = np.array([float(bin(m).count("1") % 2) for m in range(4)])
        r = one(efron_stein_check, vals)
        assert r.lhs == pytest.approx(0.25, abs=1e-15)
        assert r.rhs == pytest.approx(0.5, abs=1e-15)
        assert r.holds

    def test_constant(self):
        r = one(efron_stein_check, np.full(8, 2.5))
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds


class TestFalikSamorodnitsky:
    def test_dictator_exact_values(self):
        r = one(falik_samorodnitsky_check, [0.0, 1.0])
        # Delta_1 = f - 1/2 = (+-1/2); Var = 1/4; (E|Delta|)^2 = 1/4
        # LHS = (1/4) log 1 = 0; RHS = Ent(const 1/4) = 0: equality case
        assert r.lhs == pytest.approx(0.0, abs=1e-15)
        assert r.rhs == pytest.approx(0.0, abs=1e-15)
        assert r.holds

    def test_constant_is_vacuous_and_says_so_in_json(self):
        # Var f = 0 leaves nothing to bound: the result is vacuous, and its
        # JSON carries the flag, which a non-vacuous result's JSON omits
        r = one(falik_samorodnitsky_check, np.full(4, 3.0))
        assert r.vacuous and r.holds
        assert r.to_json() == {
            "check": "falik_samorodnitsky", "lhs": 0.0, "rhs": 0.0, "margin": 0.0,
            "holds": True, "vacuous": True,
        }
        dictator = one(falik_samorodnitsky_check, [0.0, 1.0])
        assert not dictator.vacuous and "vacuous" not in dictator.to_json()

    def test_majority_of_three(self):
        vals = np.array([float(bin(m).count("1") >= 2) for m in range(8)])
        r = one(falik_samorodnitsky_check, vals)
        assert r.holds
        # hand computation: Var = 1/4 and E|Delta_i| = 1/4 for each of the
        # three increments, so LHS = (1/4) log((1/4) / (3/16))
        var = 0.25
        s = 3 * (1.0 / 4.0) ** 2
        assert r.lhs == pytest.approx(var * math.log(var / s), rel=1e-12)

    def test_noise_bits_reduce_to_dictator(self):
        k = 10
        vals = np.array([float(m & 1) for m in range(2**k)])
        r = one(falik_samorodnitsky_check, vals)
        r1 = one(falik_samorodnitsky_check, [0.0, 1.0])
        assert r.lhs == pytest.approx(r1.lhs, abs=1e-12)
        assert r.rhs == pytest.approx(r1.rhs, abs=1e-12)

    def test_degenerate_vacuous(self):
        r = one(falik_samorodnitsky_check, np.full(4, 1.0))
        assert r.vacuous and r.holds

    def test_order_invariance_of_validity(self):
        rng = np.random.default_rng(3)
        f = rng.normal(0, 1, size=16)
        for _ in range(10):
            order = list(rng.permutation(np.arange(1, 5)))
            # new coordinate j+1 reads old coordinate order[j]; axis a of the
            # (2,) * k table is coordinate k - a
            table = np.transpose(f.reshape((2,) * 4), [4 - c for c in reversed(order)])
            assert one(falik_samorodnitsky_check, table.ravel()).holds

    @pytest.mark.parametrize("seed", range(20))
    def test_shared_moments_match_public_checks(self, seed):
        # the right side and the increment bounds reuse one set of moments per
        # increment; they must equal the entropy and the entropy lower bound
        # run on each increment alone, bit for bit, vacuous increments included
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        vals = rng.normal(0, 3, size=2**k)
        if seed % 2:
            # integer values that ignore coordinate 1: the means are exact in
            # binary64, so its increment is exactly 0 and its bound vacuous
            vals = np.repeat(rng.integers(-5, 6, size=2 ** (k - 1)), 2).astype(float)
        r = one(falik_samorodnitsky_check, vals)
        incs = [d[0] for d in tiled_increments(vals[None])]
        assert r.rhs == math.fsum(ent(d**2, uniform_probs(k)) for d in incs)
        moments = [ineqlab._abs_moments([d[None]])[0][0] for d in incs]
        bounds = [ineqlab._entropy_lower_bound(*m)[0] for m in moments]
        margins = [0.0 if b is None else ent - b for b, (_, _, ent) in zip(bounds, moments)]
        assert r.details["increment_bound_min_margin"] == min(margins)
        assert (None in bounds) == bool(seed % 2)
        assert r.details["sum_sq_mean_abs"] == math.fsum(mean(np.abs(d)) ** 2 for d in incs)


class TestLogSobolev:
    def test_unit_step(self):
        r = one(log_sobolev_check, [0.0, 1.0])
        assert r.lhs == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert r.rhs == 0.5
        assert r.holds

    def test_constant(self):
        r = one(log_sobolev_check, [2.0, 2.0])
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_randomized(self):
        rng = np.random.default_rng(1)
        # one stack of 10^4 pairs: the same stream as pair by pair
        assert all(r.holds for r in log_sobolev_check(rng.uniform(0, 10, size=(10**4, 2))))


class TestTensorization:
    def test_product_structure(self):
        # f(x) = g1(x1) g2(x2) with g >= 0
        g1 = np.array([1.0, 3.0])
        g2 = np.array([2.0, 0.5])
        vals = np.array([g1[m & 1] * g2[(m >> 1) & 1] for m in range(4)])
        r = one(tensorization_check, vals)
        assert r.holds

    def test_constant(self):
        r = one(tensorization_check, np.full(4, 3.0))
        assert r.lhs == 0.0 and r.rhs == pytest.approx(0.0, abs=1e-15)

    def test_random_nonneg(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vals = np.abs(rng.normal(0, 2, size=16))
            assert one(tensorization_check, vals).holds


class TestEntropyVariational:
    def test_zero_trial_feasible(self):
        f = [1.0, 2.0, 3.0, 4.0]
        r = one(entropy_variational_check, f, [np.zeros(4)])
        assert r.holds
        assert r.details["infeasible_trials"] == 0

    def test_infeasible_trial_is_counted_and_skipped(self):
        # g = 1 everywhere has E e^g = e > 1: it is counted, not compared,
        # even though its E[f g] = E f = 2.5 is far above Ent(f)
        f = [1.0, 2.0, 3.0, 4.0]
        r = one(entropy_variational_check, f, [np.ones(4), np.zeros(4), np.ones(4)])
        assert r.details["infeasible_trials"] == 2
        assert r.lhs == 0.0 and r.holds
        assert r.to_json()["details"]["infeasible_trials"] == 2

    def test_optimizer_attains(self):
        r = one(entropy_variational_check, [2.0, 0.0], [])
        assert r.rhs == pytest.approx(math.log(2.0), abs=1e-12)
        assert r.details["optimizer_value"] == pytest.approx(math.log(2.0), abs=1e-10)
        assert r.holds

    def test_random_feasible_trials(self):
        rng = np.random.default_rng(5)
        f = np.abs(rng.normal(1, 1, size=8)) + 0.1
        trials = []
        for _ in range(1000):
            g = rng.normal(0, 1, size=8)
            g -= math.log(mean(np.exp(g))) + 1e-9
            trials.append(g)
        r = one(entropy_variational_check, f, trials)
        assert r.holds


def check_stack(name, X):
    """Run the public check ``name`` on the stack X; the entropy-variational
    check gets one valid (zero) trial per row."""
    if name != "entropy_variational":
        return getattr(ineqlab, f"{name}_check")(X)
    X = np.asarray(X)
    return entropy_variational_check(X, np.zeros((X.shape[0], 1, X.shape[-1])))


class TestValidation:
    # each public hypercube check validates its whole stack once, at entry;
    # the messages are matched, so each case fails without its own check,
    # also for log-Sobolev, whose pair check rejects any other width later
    @pytest.mark.parametrize("name", HYPERCUBE_CHECKS)
    def test_rejects_a_one_dimensional_input(self, name):
        with pytest.raises(ValueError, match=r"shape \(m, 2\^k\)"):
            check_stack(name, np.ones(2))

    @pytest.mark.parametrize("width", [1, 3, 6])
    @pytest.mark.parametrize("name", HYPERCUBE_CHECKS)
    def test_rejects_a_width_that_is_not_a_power_of_two(self, name, width):
        with pytest.raises(ValueError, match=r"width must be 2\^k"):
            check_stack(name, np.ones((2, width)))

    @pytest.mark.parametrize("name", HYPERCUBE_CHECKS)
    def test_rejects_a_width_above_the_cap(self, name):
        # an empty stack, so nothing of 2^(K_MAX + 1) values is allocated
        with pytest.raises(ValueError, match=r"width must be 2\^k"):
            check_stack(name, np.empty((0, 2 ** (K_MAX + 1))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", HYPERCUBE_CHECKS)
    def test_rejects_values_that_are_not_finite(self, name, bad):
        X = np.ones((3, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            check_stack(name, X)

    @pytest.mark.parametrize("width", [4, 8])
    def test_log_sobolev_rejects_a_width_other_than_two(self, width):
        with pytest.raises(ValueError, match="pairs"):
            log_sobolev_check(np.ones((2, width)))

    @pytest.mark.parametrize(
        "shape", [(2, 4), (2, 1, 2, 4), (1, 1, 4), (3, 1, 4), (2, 1, 2), (2, 1, 8)]
    )
    def test_entropy_variational_rejects_trials_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"trials must have shape"):
            entropy_variational_check(np.ones((2, 4)), np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_entropy_variational_rejects_trials_that_are_not_finite(self, bad):
        G = np.zeros((2, 3, 4))
        G[1, 2, 0] = bad
        with pytest.raises(ValueError, match="trials must be finite"):
            entropy_variational_check(np.ones((2, 4)), G)

    @pytest.mark.parametrize(
        "name, message", [("tensorization", "nonnegative f"), ("entropy_variational", "f >= 0")]
    )
    def test_entropy_checks_reject_negative_values(self, name, message):
        X = np.ones((3, 4))
        X[2, 1] = -0.5
        with pytest.raises(ValueError, match=message):
            check_stack(name, X)

    def test_entropy_variational_rejects_a_row_of_mean_zero(self):
        with pytest.raises(ValueError, match=r"E f > 0"):
            check_stack("entropy_variational", [[1.0, 2.0], [0.0, 0.0]])

    def test_the_width_cap_is_inclusive(self):
        # 2^K_MAX passes the check; an empty stack allocates nothing
        assert efron_stein_check(np.empty((0, 2**K_MAX))) == []

    # log-Sobolev takes pairs only, so it is checked at k = 1; Rossignol's
    # stack is a list of rows, which has no width
    @pytest.mark.parametrize(
        "name, k",
        [(name, k) for name in HYPERCUBE_CHECKS for k in (1, 2, 3) if name != "log_sobolev" or k == 1]
        + [("rossignol", None)],
    )
    def test_an_empty_stack_gives_no_verdicts(self, name, k):
        # entropy-variational gets trials of shape (0, 1, 2^k)
        assert check_stack(name, [] if k is None else np.empty((0, 2**k))) == []

    @pytest.mark.parametrize("name", HYPERCUBE_CHECKS)
    def test_accepts_nested_lists(self, name):
        assert len(check_stack(name, [[1.0, 2.0], [3.0, 3.0]])) == 2


@dataclass
class StepFunction:
    """A step function on [0, 1] in Fractions: levels[0] below the first of
    the breaks, levels[j] on [breaks[j - 1], breaks[j]), one more level than
    breaks."""

    breaks: tuple
    levels: tuple


def common_scale(values):
    """(D, [D v for v in values]) with D the lcm of the rationals' denominators."""
    D = math.lcm(1, *(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def fraction_rossignol(f: StepFunction, a, tau):
    """The Rossignol result of one instance in Fractions: the breaks, a and
    tau scaled to integers over their reduced common denominator D, the
    levels over theirs, L, and checked as one ``rossignol_check`` row."""
    D, (t, a_int, *breaks) = common_scale((Fraction(tau), Fraction(a), *f.breaks))
    L, levels = common_scale(f.levels)
    return rossignol_check([(D, L, breaks, levels, a_int, t)])[0]


class TestRossignol:
    def test_constant_function(self):
        f = StepFunction((), (Fraction(3),))
        r = fraction_rossignol(f, Fraction(0), Fraction(1, 2))
        assert r.lhs == 0
        assert r.holds

    def test_indicator_hand_computation(self):
        # f = 1_{x >= 1/4}, a = 1/4, tau = 1/2 (case a <= tau):
        # LHS = 1/4 and the small-a bound is 2 * (1/4) * (3/4) = 3/8
        f = StepFunction((Fraction(1, 4),), (Fraction(0), Fraction(1)))
        r = fraction_rossignol(f, Fraction(1, 4), Fraction(1, 2))
        assert r.lhs == Fraction(1, 4)
        small_a = exact_rossignol(r)[3]
        assert small_a is not None
        rhs, ok = small_a
        assert rhs == Fraction(3, 8) and ok
        assert r.holds

    def test_randomized_exact(self):
        for instance in reference_steps(ineqlab._rng(123, 6), 2000):
            assert fraction_rossignol(*step_fractions(*instance)).holds

    def test_not_constant_rejected(self):
        f = StepFunction((Fraction(3, 4),), (Fraction(0), Fraction(1)))
        with pytest.raises(ValueError):
            fraction_rossignol(f, Fraction(1, 2), Fraction(1, 2))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_midpoint_reference(self, data):
        # breaks, levels, a and tau each with their own denominators
        f, a, tau = data.draw(step_instances())
        r = fraction_rossignol(f, a, tau)
        want = reference_rossignol(f, a, tau)
        assert exact_rossignol(r) == want[:4]
        # the integer margin is float() of the exact Fraction difference
        rhs = [want[1]] + ([want[3][0]] if want[3] else [])
        assert r.margin == min(float(x - want[0]) for x in rhs)
        # the small-tau case is never tighter than the always case
        assert want[4] is None or want[4][0] >= want[1]
        assert all(type(x) is Fraction for x in exact_rossignol(r)[:2])

    @pytest.mark.parametrize(
        "denom,cuts,levels,a,tau",
        [
            (8, [], [3], 0, 1),  # m = 0, a = 0
            (8, [], [0], 8, 4),  # m = 0, a = denom, tau = denom // 2
            (9, [3], [1, 2], 3, 4),  # one reducible break, tau = denom // 2
            (12, [2, 4, 6], [0, 1, 1, 4], 12, 3),  # reducible cuts, a = denom
            (16, [4, 8, 12], [2, 2, 5, 9], 12, 8),  # a = 3/4 > tau = 1/2
            (10, [5], [1, 3], 5, 5),  # a = tau = 1/2
        ],
    )
    def test_integer_row_matches_public_check(self, denom, cuts, levels, a, tau):
        # the suite's row at scale denom against the same instance at the
        # reduced scale, and against midpoint integration
        f = StepFunction(tuple(Fraction(c, denom) for c in cuts), tuple(map(Fraction, levels)))
        a_q, tau_q = Fraction(a, denom), Fraction(tau, denom)
        (row,) = rossignol_check([(denom, 1, cuts, levels, a, tau)])
        assert_same_rossignol(row, fraction_rossignol(f, a_q, tau_q))
        want = reference_rossignol(f, a_q, tau_q)
        assert exact_rossignol(row) == want[:4]

    def test_fractional_levels_through_public_check(self):
        # levels over L = 6 and breaks, a and tau over different denominators
        f = StepFunction(
            (Fraction(1, 5), Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3), Fraction(7, 6))
        )
        for a, tau in ((Fraction(1, 3), Fraction(3, 7)), (Fraction(5, 6), Fraction(1, 4))):
            r = fraction_rossignol(f, a, tau)
            want = reference_rossignol(f, a, tau)
            assert exact_rossignol(r) == want[:4]
            assert r.unit % 36 == 0  # L^2 divides the unit
            rhs = [want[1]] + ([want[3][0]] if want[3] else [])
            assert r.margin == min(float(x - want[0]) for x in rhs)

    @pytest.mark.parametrize(
        "row,message",
        [
            ((8, 1, [2], [1], 8, 1), "need one more level than breaks"),
            ((8, 1, [0], [0, 1], 8, 1), "breaks must lie in"),
            ((8, 1, [8], [0, 1], 8, 1), "breaks must lie in"),
            ((8, 1, [3, 3], [0, 1, 2], 8, 1), "strictly increasing"),
            ((8, 1, [2], [-1, 1], 8, 1), "nonnegative"),
            ((8, 1, [2], [2, 1], 8, 1), "nondecreasing"),
            ((8, 1, [2], [0, 1], 8, 0), "tau must lie"),
            ((8, 1, [2], [0, 1], 8, 5), "tau must lie"),
            ((8, 1, [6], [0, 1], 4, 1), r"not constant on \[1/2, 1\]"),
            ((2, 1, [], [1], -1, 1), "a must lie in"),  # a = -1/2
            ((8, 1, [2], [0, 1], -4, 4), "a must lie in"),  # a = -1/2, below the break
            ((8, 1, [2], [0, 1], 9, 4), "a must lie in"),  # a = 9/8
            ((0, 1, [], [1], 0, 0), "D and L must be at least 1"),
            ((8, 0, [2], [0, 1], 8, 4), "D and L must be at least 1"),
        ],
    )
    def test_integer_row_validates_like_the_fractions(self, row, message):
        # an invalid instance is rejected where it enters the kernel, in
        # integers, among valid rows, before any verdict
        valid = (8, 1, [2], [0, 1], 8, 4)
        with pytest.raises(ValueError, match=message):
            rossignol_check([valid, row, valid])


def assert_same_rossignol(got, want):
    """Equal as exact Fractions, and margins equal to the last bit."""
    assert exact_rossignol(got) == exact_rossignol(want) and got.holds == want.holds
    assert float.hex(got.margin) == float.hex(want.margin)
    assert got.to_json() == {"lhs": float(want.lhs), "margin": want.margin}


def exact_rossignol(r):
    """(lhs, always_rhs, always_holds, case_small_a) of a RossignolResult in
    Fractions, built from its integers, in the order of reference_rossignol."""
    small_a = r.small_a_int
    if small_a is not None:
        small_a = Fraction(small_a, r.scale * r.unit), r.scale * r.lhs_int <= small_a
    return r.lhs, Fraction(r.tail_int, r.unit), r.always_holds, small_a


def step_value(f: StepFunction, x: Fraction) -> Fraction:
    """f(x): levels[j] for the last break b_j <= x, levels[0] below them all."""
    val = f.levels[0]
    for b, lev in zip(f.breaks, f.levels[1:]):
        if x >= b:
            val = lev
        else:
            break
    return val


def reference_integrate_sq(f: StepFunction, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral of f^2 over [lo, hi], evaluating f at each piece's midpoint."""
    pts = sorted({lo, hi, *[b for b in f.breaks if lo < b < hi]})
    total = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        total += step_value(f, (a + b) / 2) ** 2 * (b - a)
    return total


def reference_integrate_shift_sq(f: StepFunction, tau: Fraction) -> Fraction:
    """Integral of (f(x) - f(x - tau))^2 over [tau, 1], by midpoints."""
    pts = {tau, Fraction(1)}
    for b in f.breaks:
        for p in (b, b + tau):
            if tau < p < 1:
                pts.add(p)
    pts = sorted(pts)
    total = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        total += (step_value(f, mid) - step_value(f, mid - tau)) ** 2 * (b - a)
    return total


def reference_rossignol(f: StepFunction, a: Fraction, tau: Fraction):
    """(lhs, always_rhs, always_holds, case_small_a, case_small_tau) in Fractions."""
    lhs = reference_integrate_shift_sq(f, tau)
    tail = reference_integrate_sq(f, 1 - tau, Fraction(1))
    full_sq = reference_integrate_sq(f, Fraction(0), Fraction(1))
    small_a = (2 * a * full_sq, lhs <= 2 * a * full_sq) if a <= tau else None
    small_tau = (
        (2 * tau * full_sq, lhs <= 2 * tau * full_sq) if tau <= a <= Fraction(1, 2) else None
    )
    return lhs, tail, lhs <= tail, small_a, small_tau


@st.composite
def step_instances(draw):
    denominators = st.integers(min_value=2, max_value=60)
    breaks = set()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        d = draw(denominators)
        breaks.add(Fraction(draw(st.integers(min_value=1, max_value=d - 1)), d))
    breaks = tuple(sorted(breaks))
    steps = st.builds(
        Fraction, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=24)
    )
    levels = [draw(steps)]
    for _ in breaks:
        levels.append(levels[-1] + draw(steps))
    f = StepFunction(breaks, tuple(levels))
    a_min = f.breaks[-1] if f.breaks else Fraction(0)
    d = draw(denominators)
    a = draw(
        st.one_of(
            st.just(a_min),
            st.integers(min_value=math.ceil(a_min * d), max_value=d).map(lambda n: Fraction(n, d)),
        )
    )
    d = draw(denominators)
    tau = Fraction(draw(st.integers(min_value=1, max_value=d // 2)), d)
    return f, a, tau


class TestFppExhaustive:
    def test_2x2_box_four_edges(self):
        box = Box((0, 0), (1, 1))
        res = fpp_exhaustive_check(box, Bernoulli(1, 2, 0.5), (0, 0), (1, 1))
        assert res.n_edges == 4
        assert res.holds
        # independent enumeration of Var(T) over the 16 configurations
        Ts = []
        for mask in range(16):
            w = np.array([2.0 if (mask >> e) & 1 else 1.0 for e in range(4)])
            Ts.append(brute_force_passage(WeightField(box, w, 0, None), (0, 0), (1, 1)))
        Ts = np.array(Ts)
        assert res.var_T == pytest.approx(float(Ts.var()), abs=1e-14)
        assert res.var_T <= res.es_bound

    def test_3x2_box_seven_edges(self):
        box = Box((0, 0), (2, 1))
        res = fpp_exhaustive_check(box, Bernoulli(1, 2, 0.5), (0, 0), (2, 1))
        assert res.n_edges == 7
        assert res.holds
        assert res.fs.margin >= 0

    def test_point_mass_degenerate(self):
        box = Box((0, 0), (1, 1))
        res = fpp_exhaustive_check(box, Bernoulli(1.0, 1.0, 0.5), (0, 0), (1, 1))
        assert res.var_T == 0.0
        assert res.es_bound == 0.0
        assert res.holds

    @pytest.mark.parametrize("box, n_paths", [(BOX4, 2), (BOX7, 4), (BOX12, 12), (BOX17, 38)])
    def test_simple_path_counts(self, box, n_paths):
        P = simple_path_matrix(box, (0, 0), box.hi)
        assert P.shape == (n_paths, box.n_edges())
        assert len({row.tobytes() for row in P}) == n_paths
        # a path's length has the parity of |dst - src|_1 on the square lattice
        assert np.all((P.sum(axis=1) - sum(box.hi)) % 2 == 0)

    @pytest.mark.parametrize("box", [BOX4, BOX7], ids=["4_edges", "7_edges"])
    @pytest.mark.parametrize(
        "spec", [Bernoulli(1, 2, 0.5), Bernoulli(0.25, 1.5, 0.5), Bernoulli(0.1, 0.3, 0.5)]
    )
    def test_small_boxes_match_dijkstra(self, box, spec):
        T = exhaustive_passage_times(box, spec, (0, 0), box.hi)
        for mask in range(2 ** box.n_edges()):
            res = passage_time(configuration(box, spec, mask), (0, 0), box.hi, max_grows=0)
            assert res.T == T[mask]

    @pytest.mark.parametrize("box", [BOX12, BOX17], ids=["12_edges", "17_edges"])
    def test_large_boxes_efron_stein_and_falik_samorodnitsky(self, box):
        res = fpp_exhaustive_check(box, Bernoulli(1, 2, 0.5), (0, 0), box.hi)
        assert res.n_edges == box.n_edges()
        assert res.var_T > 0
        assert res.es_holds and res.var_T <= res.es_bound
        assert not res.fs.vacuous
        assert res.fs.holds and res.fs.margin >= 0
        assert res.fs.details["increment_bound_min_margin"] >= 0

    def test_17_edge_box_spot_checks_against_dijkstra(self):
        spec = Bernoulli(1, 2, 0.5)
        T = exhaustive_passage_times(BOX17, spec, (0, 0), BOX17.hi)
        # masks from every block of the enumeration
        for mask in np.random.default_rng(0).integers(0, 2**17, size=300):
            field = configuration(BOX17, spec, int(mask))
            assert passage_time(field, (0, 0), BOX17.hi, max_grows=0).T == T[mask]

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        spec = Bernoulli(1, 2, 0.5)
        whole = exhaustive_passage_times(BOX12, spec, (0, 0), BOX12.hi)
        monkeypatch.setattr(ineqlab, "_MASK_BLOCK", 100)  # a partial last block
        assert np.array_equal(exhaustive_passage_times(BOX12, spec, (0, 0), BOX12.hi), whole)

    @pytest.mark.parametrize("spec", [Bernoulli(0, 1, 0.5), Bernoulli(1, 2, 0.5)])
    def test_12_edge_box_every_configuration(self, spec):
        # on every configuration: T equals an independent Dijkstra, and the
        # edges on every geodesic are the edges common to all argmin rows of P
        P = simple_path_matrix(BOX12, (0, 0), BOX12.hi)
        T = exhaustive_passage_times(BOX12, spec, (0, 0), BOX12.hi)
        for mask in range(2**12):
            field = configuration(BOX12, spec, mask)
            res = passage_time(field, (0, 0), BOX12.hi, max_grows=0)
            assert res.T == T[mask]
            costs = P @ field.weights
            on_all = np.all(P[costs == costs.min()] > 0, axis=0)
            assert sorted(res.gint_edge_idx.tolist()) == np.flatnonzero(on_all).tolist(), mask


def reference_tables(rng, m, k_max=6, nonneg=False):
    """The suite's batch rule for m function tables, table by table: all m
    values of k, all m kinds, then each kind's values in one call, which that
    kind's tables take in draw order."""
    ks = rng.integers(1, k_max + 1, size=m).tolist()
    kinds = rng.integers(0, 3, size=m).tolist()
    need = [sum(2**k for k, c in zip(ks, kinds) if c == kind) for kind in range(3)]
    uniform = rng.uniform(0.0 if nonneg else -5.0, 10.0, size=need[0])
    normal = rng.normal(0, 3, size=need[1])
    pools = [uniform, np.abs(normal) if nonneg else normal, rng.integers(0, 4, size=need[2]).astype(float)]
    taken = [0, 0, 0]
    tables = []
    for k, c in zip(ks, kinds):
        tables.append(pools[c][taken[c] : taken[c] + 2**k])
        taken[c] += 2**k
    return tables


def batch_hypercube(check, **kw):
    """m suite instances of a hypercube row, each checked alone."""

    def batch(rng, m):
        tables = reference_tables(rng, m, **kw)
        results = [one(check, t) for t in tables]
        return [t.tobytes() for t in tables], results

    return batch


def batch_log_sobolev(rng, m):
    # one pair per call: the suite's single (m, 2) call is the same stream
    pairs = [rng.uniform(0, 10, size=2) for _ in range(m)]
    return [p.tobytes() for p in pairs], [one(log_sobolev_check, p) for p in pairs]


def batch_entropy_variational(rng, m):
    fs = [t + 1.0 if mean(t) == 0.0 else t for t in reference_tables(rng, m, k_max=4, nonneg=True)]
    # one normal call for every trial: four rows of 2^k per f, in draw order
    trials = rng.normal(0, 1, size=4 * sum(f.size for f in fs))
    taken = 0
    results = []
    for f in fs:
        gs = []
        for _ in range(4):
            g = trials[taken : taken + f.size].copy()
            taken += f.size
            g -= math.log(max(mean(np.exp(g)), 1e-300)) + 1e-9
            gs.append(g)
        results.append(one(entropy_variational_check, f, gs))
    return [f.tobytes() for f in fs], results


def reference_steps(rng, m):
    """The suite's batch rule for m step-function instances, instance by
    instance: one call for every candidate count, every denominator D, every
    instance's four candidate cuts and five level steps, every a and every
    tau.  Returns (D, breaks, levels, a, tau) per instance: the breaks are
    the sorted distinct values among the first count cuts, the levels the
    first len(breaks) + 1 cumulative sums of the steps."""
    counts = rng.integers(0, 5, size=m).tolist()
    denoms = rng.integers(8, 64, size=m)
    cuts = rng.integers(1, denoms[:, None], size=(m, 4)).tolist()
    steps = rng.integers(0, 5, size=(m, 5)).tolist()
    breaks = [sorted(set(row[:c])) for row, c in zip(cuts, counts)]
    levels = [list(accumulate(row))[: len(b) + 1] for row, b in zip(steps, breaks)]
    a = rng.integers([b[-1] if b else 0 for b in breaks], denoms + 1).tolist()
    tau = rng.integers(1, denoms // 2 + 1).tolist()
    return list(zip(denoms.tolist(), breaks, levels, a, tau))


def step_bytes(D, breaks, levels, a, tau):
    """An instance's digest chunk: D, a, tau, the break count, the breaks and
    the levels, each list padded with zeros, as 13 little-endian int64."""
    pad = [0] * (4 - len(breaks))
    return np.array([D, a, tau, len(breaks), *breaks, *pad, *levels, *pad], dtype="<i8").tobytes()


def step_fractions(D, breaks, levels, a, tau):
    """An integer instance over D as (StepFunction, a, tau) in Fractions."""
    f = StepFunction(tuple(Fraction(b, D) for b in breaks), tuple(map(Fraction, levels)))
    return f, Fraction(a, D), Fraction(tau, D)


def batch_rossignol(rng, m):
    instances = reference_steps(rng, m)
    results = [fraction_rossignol(*step_fractions(*i)) for i in instances]
    return [step_bytes(*i) for i in instances], results


# name: (rng salt, m instances drawn by the reference rule and checked one by one)
REFERENCE_DRAWS = {
    "efron_stein": (1, batch_hypercube(efron_stein_check)),
    "falik_samorodnitsky": (2, batch_hypercube(falik_samorodnitsky_check)),
    "log_sobolev": (3, batch_log_sobolev),
    "tensorization": (4, batch_hypercube(tensorization_check, k_max=4, nonneg=True)),
    "entropy_variational": (5, batch_entropy_variational),
    "rossignol": (6, batch_rossignol),
}


def suite_row(name):
    """(salt, draw, check) of a row of the randomized suite."""
    salt, draw = next(row[1:] for row in ineqlab._RANDOMIZED_CHECKS if row[0] == name)
    return salt, draw, getattr(ineqlab, f"{name}_check")


def in_draw_order(groups, m):
    """The per-instance rows of each group's first check argument, by position;
    asserts that the groups' positions partition range(m)."""
    rows = [None] * m
    for positions, args in groups:
        assert len(positions) == len(args[0])
        for j, row in zip(positions.tolist(), args[0]):
            assert rows[j] is None, j
            rows[j] = row
    assert all(row is not None for row in rows)
    return rows


# Generator calls per draw at any instance count: a hypercube draw makes five
# (the k, the kinds, then uniform, normal and integer values) and one more for
# trials; log-Sobolev one; Rossignol one per integer array
GENERATOR_CALLS = {
    "efron_stein": 5,
    "falik_samorodnitsky": 5,
    "log_sobolev": 1,
    "tensorization": 5,
    "entropy_variational": 6,
    "rossignol": 6,
}


def assert_valid_step_row(row):
    """A drawn row (D, 1, breaks, levels, a, tau) is a valid Rossignol
    instance over D, of Python ints, and the kernel accepts it."""
    D, L, breaks, levels, a, tau = row
    assert L == 1 and 8 <= D <= 63
    assert all(0 < b < D for b in breaks) and all(x < y for x, y in zip(breaks, breaks[1:]))
    assert len(levels) == len(breaks) + 1 and levels[0] >= 0
    assert all(x <= y for x, y in zip(levels, levels[1:]))
    assert (breaks[-1] if breaks else 0) <= a <= D
    assert 1 <= tau and 2 * tau <= D
    assert all(type(x) is int for x in (D, a, tau, *breaks, *levels))
    rossignol_check([row])


class CountingRng:
    """A Generator that records every call made on it, with its result."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, out))
            return out

        return call


# The full suite JSON's digest is deliberately not pinned here: the last bits
# of np.log depend on which SIMD loops numpy selects for the CPU (AVX-512 or
# not), so a pinned value could fail on another machine.  The suite is
# compared with its own per-instance loops instead.  Only the two rows that
# call no np.log are pinned, so their bytes are the same on every machine.
# Rossignol's instances are integers, hashed as little-endian int64, and its
# verdicts integer arithmetic and correctly rounded int / int division.
# Efron-Stein's verdicts are per-row fsum means of elementwise IEEE
# arithmetic (subtract, square, multiply) on the Generator's draws.
ROSSIGNOL_SHA256 = {
    7: "703ae3d1e500123aab15aa65398c77cee16b00c5f6117d8634e7d63073fe2f9e",
    11: "b7a9a17076fccf003a5cfba971102f8b555281492102391045f1c6ce66d23589",
    271828: "913034aa8af1e74b853c6751f76498280d8ee6b7d74e73c85ea81460385b6e9b",
}
EFRON_STEIN_SHA256 = {
    7: "12d65e4afae8870d6c0f5bcb1669171999034e7a65b2acdc7871e0829677af47",
    11: "7bd0d6ce7a107d18a8a331a017de2d5405673c1a72468d9aaf0a5e0fe48f8917",
    271828: "1d7189e76993fe759c8306339d7b50ac7bc7ceaacde172757f98cd7354065e47",
}


def suite_json_sha256(check, seed, capsys):
    """sha256 of the stdout of ``ineq verify`` on one check, 2,000 instances."""
    args = ["ineq", "verify", "--suite", check, "--seed", str(seed), "--instances", "2000"]
    assert cli_main(args) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestSuite:
    @pytest.mark.parametrize("seed", list(ROSSIGNOL_SHA256))
    def test_rossignol_json_pinned(self, seed, capsys):
        assert suite_json_sha256("rossignol", seed, capsys) == ROSSIGNOL_SHA256[seed]

    @pytest.mark.parametrize("seed", list(EFRON_STEIN_SHA256))
    def test_efron_stein_json_pinned(self, seed, capsys):
        assert suite_json_sha256("efron_stein", seed, capsys) == EFRON_STEIN_SHA256[seed]

    @pytest.mark.parametrize("seed", list(ROSSIGNOL_SHA256))
    def test_rossignol_row_matches_public_check(self, seed):
        # each integer row of the pinned batch against its Fraction form
        # reduced to lowest terms, and the Fractions against midpoint
        # integration
        _, [(_, (rows,))] = ineqlab._draw_rossignols(ineqlab._rng(seed, 6), 2000)
        for row, got in zip(rows, rossignol_check(rows), strict=True):
            D, L, breaks, levels, a, tau = row
            assert L == 1
            f, a_q, tau_q = step_fractions(D, breaks, levels, a, tau)
            want = fraction_rossignol(f, a_q, tau_q)
            assert_same_rossignol(got, want)
            ref = reference_rossignol(f, a_q, tau_q)
            assert exact_rossignol(want) == ref[:4]

    @pytest.mark.parametrize("m", [1, 7, 300])
    @pytest.mark.parametrize("seed", [1, 7, 38, 271828])
    def test_rossignol_draw_is_valid_by_construction(self, seed, m):
        _, [(positions, (rows,))] = ineqlab._draw_rossignols(ineqlab._rng(seed, 6), m)
        assert positions.tolist() == list(range(m)) and len(rows) == m
        for row in rows:
            assert_valid_step_row(row)

    def test_rossignol_draw_reaches_the_ends_of_its_ranges(self):
        _, [(_, (rows,))] = ineqlab._draw_rossignols(ineqlab._rng(7, 6), 10_000)
        for row in rows:
            assert_valid_step_row(row)
        assert {len(breaks) for _, _, breaks, _, _, _ in rows} == {0, 1, 2, 3, 4}
        assert {D for D, *_ in rows} == set(range(8, 64))
        assert any(tau == D // 2 for D, *_, tau in rows)
        assert any(a == D for D, _, _, _, a, _ in rows)
        assert any(breaks and a == breaks[-1] for _, _, breaks, _, a, _ in rows)
        assert any(not breaks and a == 0 for _, _, breaks, _, a, _ in rows)
        assert any(tau == 1 for *_, tau in rows)

    def test_small_run_all_hold(self):
        reports = run_randomized_suite(seed=7, instances=200)
        assert len(reports) == 6
        for rep in reports:
            assert rep.violations == 0, rep.name
            assert rep.instances == 200

    @pytest.mark.parametrize("seed", [7, 271828])
    def test_rossignol_row_matches_its_own_loop(self, seed):
        # a standalone Rossignol loop, field by field against the table-driven suite
        ok, min_margin, worst, chunks = 0, math.inf, None, []
        for instance in reference_steps(ineqlab._rng(seed, 6), 300):
            f, a, tau = step_fractions(*instance)
            chunks.append(step_bytes(*instance))
            r = fraction_rossignol(f, a, tau)
            lhs, always_rhs, holds, small_a = exact_rossignol(r)
            margins = [float(always_rhs - lhs)]
            if small_a:
                margins.append(float(small_a[0] - lhs))
                holds &= small_a[1]
            small_tau = reference_rossignol(f, a, tau)[4]
            if small_tau:
                assert small_tau[0] >= always_rhs
                margins.append(float(small_tau[0] - lhs))
                holds &= small_tau[1]
            m = min(margins)
            if m < min_margin:
                min_margin, worst = m, {"lhs": float(lhs), "margin": m}
            ok += holds
        (report,) = run_randomized_suite(seed, 300, checks=("rossignol",))
        got = report.to_json()
        assert got["violations"] == 300 - ok
        assert got["min_margin"] == min_margin
        assert got["inputs_digest"] == ineqlab._digest(b"".join(chunks))
        assert got["worst"] == worst

    @pytest.mark.parametrize("seed", [7, 271828])
    @pytest.mark.parametrize("name", list(REFERENCE_DRAWS))
    def test_row_matches_a_per_instance_loop(self, name, seed):
        # the batched row against one public check call per instance, the
        # instances drawn by the test's own statement of the draw rule
        salt, batch = REFERENCE_DRAWS[name]
        chunks, results = batch(ineqlab._rng(seed, salt), 300)
        worst = None
        for r in results:
            if not r.vacuous and (worst is None or r.margin < worst.margin):
                worst = r
        margins = [r.margin for r in results if not r.vacuous and math.isfinite(r.margin)]
        (report,) = run_randomized_suite(seed, 300, checks=(name,))
        got = report.to_json()
        assert got["violations"] == sum(not r.holds for r in results)
        assert got["min_margin"] == min(margins)
        assert got["inputs_digest"] == ineqlab._digest(b"".join(chunks))
        assert got["worst"] == worst.to_json()

    @pytest.mark.parametrize("name", ineqlab.CHECK_NAMES)
    def test_suite_draw_stacked_equals_rows_alone(self, name):
        # a real hypercube draw mixes several k; each group's stacked verdicts
        # equal each of its instances checked on its own, bit for bit (repr
        # round-trips floats)
        salt, draw, check = suite_row(name)
        _, groups = draw(ineqlab._rng(11, salt), 120)
        in_draw_order(groups, 120)
        if name not in ("log_sobolev", "rossignol"):
            assert len(groups) > 1
        for positions, args in groups:
            alone = [repr(check(*(a[j : j + 1] for a in args))[0]) for j in range(len(positions))]
            assert [repr(r) for r in check(*args)] == alone

    def test_suite_calls_the_kernel_it_names_once_per_size(self, monkeypatch):
        # the suite finds its check by module name at call time: a wrapper
        # put there sees one stack per distinct k, 300 rows in all
        want = run_randomized_suite(7, 300, checks=("efron_stein",))[0].to_json()
        check = ineqlab.efron_stein_check
        shapes = []

        def counting(X):
            shapes.append(X.shape)
            return check(X)

        monkeypatch.setattr(ineqlab, "efron_stein_check", counting)
        (report,) = run_randomized_suite(7, 300, checks=("efron_stein",))
        ks = set(ineqlab._rng(7, 1).integers(1, 7, size=300).tolist())
        assert sorted(n for _, n in shapes) == sorted(2**k for k in ks)
        assert sum(count for count, _ in shapes) == 300
        assert report.to_json() == want

    @pytest.mark.parametrize("name", ineqlab.CHECK_NAMES)
    def test_suite_calls_each_public_check_once_per_size(self, name, monkeypatch):
        # bench/tracing.py spans ineqlab.<check>_check by name, so the suite
        # must reach each check through the module: a counting wrapper put
        # there is called once per drawn k (Rossignol once), on every row
        want = run_randomized_suite(7, 300, checks=(name,))[0].to_json()
        check = getattr(ineqlab, f"{name}_check")
        calls = []

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(ineqlab, f"{name}_check", counting)
        (report,) = run_randomized_suite(7, 300, checks=(name,))
        assert report.to_json() == want
        assert sum(len(args[0]) for args in calls) == 300
        if name == "rossignol":
            assert len(calls) == 1
            return
        if name == "log_sobolev":
            drawn = {1}
        else:
            k_max = 6 if name in ("efron_stein", "falik_samorodnitsky") else 4
            salt = suite_row(name)[0]
            drawn = set(ineqlab._rng(7, salt).integers(1, k_max + 1, size=300).tolist())
        assert sorted(args[0].shape[1] for args in calls) == sorted(2**k for k in drawn)
        if name == "entropy_variational":
            # the draw has already shifted every trial to E e^g just below 1
            for _, G in calls:
                assert all(1.0 - 1e-8 < e < 1.0 for e in ineqlab._row_means(np.exp(G)))

    def test_suite_puts_the_verdicts_back_in_draw_order(self, monkeypatch):
        # the suite's j-th verdict is instance j checked alone
        salt, draw, check = suite_row("falik_samorodnitsky")
        _, groups = draw(ineqlab._rng(11, salt), 120)
        alone = [None] * 120
        for positions, args in groups:
            for i, j in enumerate(positions.tolist()):
                alone[j] = repr(check(*(a[i : i + 1] for a in args))[0])
        seen = []
        summarize = ineqlab._summarize

        def capturing(name, results, data):
            seen.append(results)
            return summarize(name, results, data)

        monkeypatch.setattr(ineqlab, "_summarize", capturing)
        run_randomized_suite(11, 120, checks=("falik_samorodnitsky",))
        assert [repr(r) for r in seen[0]] == alone

    @pytest.mark.parametrize("name", ineqlab.CHECK_NAMES)
    def test_generator_calls_do_not_grow_with_instances(self, name, monkeypatch):
        rngs = []
        make = ineqlab._rng

        def counting(seed, salt):
            rngs.append(CountingRng(make(seed, salt)))
            return rngs[-1]

        monkeypatch.setattr(ineqlab, "_rng", counting)
        for m in (1, 7, 300):
            run_randomized_suite(7, m, checks=(name,))
        assert [len(rng.calls) for rng in rngs] == [GENERATOR_CALLS[name]] * 3

    @pytest.mark.parametrize(
        "name, k_max, nonneg",
        [
            ("efron_stein", 6, False),
            ("falik_samorodnitsky", 6, False),
            ("tensorization", 4, True),
            ("entropy_variational", 4, True),
        ],
    )
    def test_batch_draw_of_tables(self, name, k_max, nonneg):
        salt, draw, _ = suite_row(name)
        rng = CountingRng(ineqlab._rng(7, salt))
        data, groups = draw(rng, 300)
        fs = in_draw_order(groups, 300)
        # one (count, 2^k) stack per k, every k in 1..k_max
        sizes = [args[0].shape[1] for _, args in groups]
        assert sorted(sizes) == [2**k for k in range(1, k_max + 1)]
        for positions, args in groups:
            n = args[0].shape[1]
            assert args[0].shape == (len(positions), n)
            if name == "entropy_variational":
                assert len(args) == 2 and args[1].shape == (len(positions), 4, n)
            else:
                assert len(args) == 1
        # calls: the k, the kinds, then uniform, normal and integer values
        assert set(rng.calls[1][1].tolist()) == {0, 1, 2}
        assert [method for method, _ in rng.calls[2:5]] == ["uniform", "normal", "integers"]
        assert all(out.size > 0 for _, out in rng.calls[2:5])
        assert data == b"".join(f.tobytes() for f in fs)
        if nonneg:
            assert all(np.all(f >= 0) for f in fs)
        if name == "entropy_variational":
            assert all(mean(f) > 0 for f in fs)
            # instance j's trials: the next 4 * 2^k values of the one trial
            # call, each trial g less log E e^g + 1e-9
            method, trials = rng.calls[5]
            assert method == "normal" and trials.size == 4 * sum(f.size for f in fs)
            gs = in_draw_order([(pos, (args[1],)) for pos, args in groups], 300)
            raw = np.split(trials, np.cumsum([f.size for f in fs for _ in range(4)])[:-1])
            shifted = [g - (math.log(max(mean(np.exp(g)), 1e-300)) + 1e-9) for g in raw]
            assert np.array_equal(np.concatenate([g.ravel() for g in gs]), np.concatenate(shifted))

    def test_batch_draw_bytes_of_pairs_and_step_functions(self):
        # one group each, covering every position in draw order
        data, [(positions, (pairs,))] = suite_row("log_sobolev")[1](ineqlab._rng(7, 3), 300)
        assert positions.tolist() == list(range(300))
        assert pairs.shape == (300, 2)
        assert data == b"".join(p.tobytes() for p in pairs)
        rng = CountingRng(ineqlab._rng(7, 6))
        data, [(positions, (rows,))] = suite_row("rossignol")[1](rng, 300)
        assert positions.tolist() == list(range(300))
        want = reference_steps(ineqlab._rng(7, 6), 300)
        assert data == b"".join(step_bytes(*i) for i in want)
        assert rows == [(D, 1, breaks, levels, a, tau) for D, breaks, levels, a, tau in want]
        # calls: counts, denominators, cuts, level steps, a, tau
        shapes = [(300,), (300,), (300, 4), (300, 5), (300,), (300,)]
        assert [out.shape for _, out in rng.calls] == shapes

    def test_unknown_check_raises(self):
        with pytest.raises(ValueError, match="unknown check 'efron_stien'.*efron_stein"):
            run_randomized_suite(7, 5, checks=("efron_stien",))

    @pytest.mark.parametrize("instances", [0, -3])
    def test_needs_an_instance(self, instances):
        with pytest.raises(ValueError, match="instances must be at least 1"):
            run_randomized_suite(7, instances)

    def test_json_shape(self, capsys):
        # the CLI prints the report dicts, sorted, with a trailing newline
        import json

        suite = ",".join(ineqlab.CHECK_NAMES)
        assert cli_main(["ineq", "verify", "--suite", suite, "--seed", "1", "--instances", "20"]) == 0
        data = [r.to_json() for r in run_randomized_suite(seed=1, instances=20)]
        assert capsys.readouterr().out == json.dumps(data, indent=2, sort_keys=True) + "\n"
        for entry in data:
            assert {"check", "instances", "violations", "min_margin", "inputs_digest", "holds"} <= set(entry)


@st.composite
def stacked_tables(draw, nonneg=False):
    """(m, 2^k) tables, each row normal, constant (variance 0) or with exact zeros."""
    k = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["normal", "constant", "zeros"]), min_size=1, max_size=5)):
        if kind == "normal":
            row = rng.normal(0, 3, size=2**k)
        elif kind == "constant":
            row = np.full(2**k, float(rng.integers(-3, 4)))
        else:
            row = rng.integers(0, 3, size=2**k) * rng.uniform(0.5, 2.0)
        rows.append(np.abs(row) if nonneg else row)
    return np.array(rows)


def assert_rows_alone(stacked, alone):
    assert [repr(r) for r in stacked] == [repr(r) for r in alone]


@given(stacked_tables())
@settings(max_examples=80, deadline=None)
def test_signed_kernels_stacked_equal_rows_alone(X):
    for check in (efron_stein_check, falik_samorodnitsky_check):
        assert_rows_alone(check(X), [check(X[j : j + 1])[0] for j in range(len(X))])


@given(stacked_tables(nonneg=True), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_nonnegative_kernels_stacked_equal_rows_alone(X, seed):
    check = tensorization_check
    assert_rows_alone(check(X), [check(X[j : j + 1])[0] for j in range(len(X))])
    # entropy_variational: f with E f > 0, and four trials per f shifted to
    # E e^g just below 1, as the suite draws them
    X = np.where(X.sum(axis=1, keepdims=True) > 0, X, X + 1.0)
    G = np.random.default_rng(seed).normal(0, 1, size=(len(X), 4, X.shape[1]))
    G -= np.log(np.exp(G).mean(axis=2, keepdims=True)) + 1e-9
    check = entropy_variational_check
    assert_rows_alone(check(X, G), [check(X[j : j + 1], G[j : j + 1])[0] for j in range(len(X))])


@given(st.lists(st.tuples(*[st.one_of(st.just(0.0), st.floats(0, 10))] * 2), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_log_sobolev_stacked_equals_rows_alone(pairs):
    X = np.array(pairs, dtype=np.float64)
    check = log_sobolev_check
    assert_rows_alone(check(X), [check(X[j : j + 1])[0] for j in range(len(X))])


@st.composite
def kernel_tables(draw):
    """(m, 2^k) tables at k = 1..8 of the suite's three kinds (uniform, normal,
    small integers) at one scale, each row full, constant, or ignoring a
    coordinate (whose increment is vacuous when the values are integers)."""
    k = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1e-30, 1e-6, 1.0, 1e6, 1e30]))
    n = 2**k
    kinds = st.sampled_from(["uniform", "normal", "integers"])
    shapes = st.sampled_from(["full", "constant", "ignores"])
    rows = []
    for kind, shape in draw(st.lists(st.tuples(kinds, shapes), min_size=1, max_size=4)):
        if kind == "uniform":
            row = rng.uniform(-5.0, 10.0, size=n)
        elif kind == "normal":
            row = rng.normal(0, 3, size=n)
        else:
            row = rng.integers(0, 4, size=n).astype(float)
        if shape == "constant":
            row = np.full(n, row[0])
        elif shape == "ignores":
            bit = 1 << draw(st.integers(min_value=0, max_value=k - 1))
            row = row[np.arange(n) & ~bit]
        rows.append(scale * row)
    return np.array(rows)


@given(kernel_tables())
@settings(max_examples=150, deadline=None)
def test_distinct_value_kernels_equal_their_expanded_forms(X):
    # the kernels tabulate each increment and each flip difference on its
    # distinct values; written out over all 2^k points, every moment, bound
    # and verdict is the same, bit for bit
    m, n = X.shape
    k = n.bit_length() - 1
    # E[f | coordinates 1..i] at all 2^k points; E f is an fsum
    conditional = [np.tile([[mean(row)] for row in X], n)]
    for i in range(1, k + 1):
        conditional.append(np.tile(X.reshape(m, n >> i, 1 << i).mean(axis=1), n >> i))
    expanded = [conditional[i] - conditional[i - 1] for i in range(1, k + 1)]
    assert all(np.array_equal(t, e) for t, e in zip(tiled_increments(X), expanded, strict=True))
    increments = ineqlab._increments(X, ineqlab._row_means(X))
    assert [d.shape for d in increments] == [(m, 2**i) for i in range(1, k + 1)]
    moments = ineqlab._abs_moments(increments)
    fs = falik_samorodnitsky_check(X)
    es = efron_stein_check(X)
    for r, row in enumerate(X):
        want = [
            (mean(np.abs(d[r])), mean(d[r] ** 2), ent(d[r] ** 2, uniform_probs(k)))
            for d in expanded
        ]
        assert repr(moments[r]) == repr(want)
        var = variance(row)
        assert repr(fs[r]) == repr(ineqlab._falik_samorodnitsky(var, want))
        flips = [mean((row - row[np.arange(n) ^ (1 << i)]) ** 2) for i in range(k)]
        bound = 0.25 * math.fsum(flips)
        assert repr(es[r]) == repr(
            ineqlab.CheckResult("efron_stein", var, bound, var <= bound + ineqlab._tol(var, bound))
        )


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_efron_stein_property(k, seed):
    rng = np.random.default_rng(seed)
    assert one(efron_stein_check, rng.normal(0, 1, size=2**k)).holds


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_tensorization_property(k, seed):
    rng = np.random.default_rng(seed)
    assert one(tensorization_check, np.abs(rng.normal(0, 1, size=2**k))).holds
