"""Exact, enumeration-based verification of concentration inequalities on
small instances: Efron-Stein, Falik-Samorodnitsky, the two-point log-Sobolev
inequality, entropy tensorization, the variational characterization of
entropy, the shifted-square integral bounds for monotone step functions, and
an exhaustive check of the whole pipeline on tiny weight configurations.

Functions on k fair bits are enumerated in full (k <= 20); expectations use
compensated summation and inequality verdicts allow a 1e-12 relative slack to
absorb binary64 rounding at equality cases.  The convention 0*log(0) = 0 is
used throughout.

The exhaustive pipeline enumerates the simple source-destination paths of the
box once, as a 0/1 path-by-edge matrix P; T of a block of configurations is
then the column minimum of P @ W, in the scaled integers passage_time uses.
The step-function integrals scale x by the common denominator D of the breaks
and tau, and f by the common denominator L of the levels, so each integral is
an integer sum divided by D L^2: the same exact Fraction as rational
integration, without Fraction arithmetic per piece.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .fpp import scaled_weights, simple_path_matrix
from .lattice import Box, Site
from .weights import Bernoulli, mix64

K_MAX = 20
_SLACK = 1e-12
# configurations per P @ W product in exhaustive_passage_times
_MASK_BLOCK = 1 << 14


def _tol(*vals: float) -> float:
    return _SLACK * max(1.0, *(abs(v) for v in vals))


def fexp(values: np.ndarray, probs: Optional[np.ndarray] = None) -> float:
    """Compensated expectation; uniform measure when probs is None."""
    if probs is None:
        return math.fsum(values.tolist()) / values.size
    return math.fsum((values * probs).tolist())


def entropy(values: np.ndarray, probs: np.ndarray) -> float:
    """Ent(X) = E[X log(X / EX)] for X >= 0, with 0 log 0 = 0."""
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("entropy requires nonnegative values")
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0):
        raise ValueError("probs must form a distribution")
    return _entropy(values, probs)


def _entropy(values: np.ndarray, probs) -> float:
    """``entropy`` without input checks; probs may be one scalar weight."""
    mean = fexp(values, probs)
    if mean == 0.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(values > 0, values * np.log(values / mean), 0.0)
    return math.fsum((terms * probs).tolist())


@dataclass
class HypercubeFunction:
    """A function of k independent fair bits, tabulated over all 2^k points.

    Index convention: bit j (0-based, least significant) of the table index
    is the value of coordinate j+1, so the filtration order coincides with
    bit order.
    """

    k: int
    values: np.ndarray

    def __post_init__(self):
        if not (1 <= self.k <= K_MAX):
            raise ValueError(f"k must lie in [1, {K_MAX}]")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (2**self.k,):
            raise ValueError("values must have length 2^k")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def mean(self) -> float:
        return fexp(self.values)

    def variance(self) -> float:
        mu = self.mean()
        return fexp((self.values - mu) ** 2)

    def tensor(self) -> np.ndarray:
        # axis t corresponds to coordinate k - t
        return self.values.reshape([2] * self.k)

    def conditional(self, i: int) -> np.ndarray:
        """E[f | coordinates 1..i], broadcast back over all 2^k points."""
        if i == self.k:
            return self.values.copy()
        t = self.tensor().mean(axis=tuple(range(self.k - i)))
        return np.broadcast_to(t, [2] * self.k).reshape(-1).copy()

    def flip(self, i: int) -> np.ndarray:
        """f evaluated with coordinate i (1-based) flipped."""
        axis = self.k - i
        return np.flip(self.tensor(), axis=axis).reshape(-1)

    def permuted(self, order: Sequence[int]) -> "HypercubeFunction":
        """Relabel coordinates: new coordinate j+1 reads old coordinate order[j]."""
        if sorted(order) != list(range(1, self.k + 1)):
            raise ValueError("order must be a permutation of 1..k")
        idx = np.arange(2**self.k)
        new_idx = np.zeros_like(idx)
        for new_pos, old_coord in enumerate(order):
            bit = (idx >> (old_coord - 1)) & 1
            new_idx |= bit << new_pos
        out = np.empty_like(self.values)
        out[new_idx] = self.values[idx]
        return HypercubeFunction(self.k, out)


@dataclass
class MartingaleDecomposition:
    """Doob increments Delta_i f under the filtration by bit order."""

    func: HypercubeFunction
    increments: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.increments:
            prev = np.full(2**self.func.k, self.func.mean())
            for i in range(1, self.func.k + 1):
                cur = self.func.conditional(i)
                self.increments.append(cur - prev)
                prev = cur

    def telescope_error(self) -> float:
        total = sum(self.increments)
        resid = self.func.values - self.func.mean() - total
        return float(np.max(np.abs(resid)))

    def max_cross_correlation(self) -> float:
        worst = 0.0
        for i in range(len(self.increments)):
            for j in range(i + 1, len(self.increments)):
                worst = max(worst, abs(fexp(self.increments[i] * self.increments[j])))
        return worst

    def parseval_error(self) -> float:
        var = self.func.variance()
        total = math.fsum(fexp(d**2) for d in self.increments)
        return abs(var - total)


@dataclass
class CheckResult:
    name: str
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool = False
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        out = {
            "check": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "holds": self.holds,
        }
        if self.vacuous:
            out["vacuous"] = True
        if self.details:
            out["details"] = {
                k: v for k, v in self.details.items() if isinstance(v, (int, float, str, bool))
            }
        return out


def efron_stein_check(f: HypercubeFunction) -> CheckResult:
    """Var(f) <= (1/2) sum_i E[(f(X) - f(X with bit i resampled))^2].

    Resampling a fair bit flips it with probability 1/2, so the bound equals
    (1/4) sum_i E[(f - f o flip_i)^2]; both sides are enumerated exactly.
    """
    var = f.variance()
    bound = 0.25 * math.fsum(fexp((f.values - f.flip(i)) ** 2) for i in range(1, f.k + 1))
    return CheckResult("efron_stein", var, bound, var <= bound + _tol(var, bound))


def _abs_moments(d: np.ndarray) -> tuple[float, float, float]:
    """(E X, E X^2, Ent(X^2)) for X = |d| under the uniform measure."""
    x = np.abs(d)
    sq = x**2
    return fexp(x), fexp(sq), _entropy(sq, 1.0 / x.size)


def _entropy_lower_bound(m1: float, m2: float, ent: float) -> CheckResult:
    """Ent(X^2) >= E[X^2] log(E[X^2] / (E X)^2) from the three moments."""
    if m2 == 0.0:
        return CheckResult("entropy_lower_bound", 0.0, 0.0, True, vacuous=True)
    rhs = m2 * math.log(m2 / m1**2) if m1 > 0 else math.inf
    # orientation: ent >= rhs
    return CheckResult("entropy_lower_bound", rhs, ent, rhs <= ent + _tol(rhs, ent))


def entropy_lower_bound_check(x: np.ndarray) -> CheckResult:
    """Ent(X^2) >= E[X^2] log(E[X^2] / (E X)^2) for X >= 0 (uniform measure)."""
    return _entropy_lower_bound(*_abs_moments(np.asarray(x, dtype=np.float64)))


def falik_samorodnitsky_check(f: HypercubeFunction) -> CheckResult:
    """Var(f) log(Var(f) / sum_i (E|Delta_i f|)^2) <= sum_i Ent((Delta_i f)^2).

    Also verifies the entropy lower bound for each increment.  Each
    increment's E|d|, E d^2 and Ent(d^2) are computed once and serve both.
    """
    var = f.variance()
    if var == 0.0:
        return CheckResult("falik_samorodnitsky", 0.0, 0.0, True, vacuous=True)
    dec = MartingaleDecomposition(f)
    moments = [_abs_moments(d) for d in dec.increments]
    s = math.fsum(m1**2 for m1, _, _ in moments)
    lhs = var * math.log(var / s) if s > 0 else math.inf
    rhs = math.fsum(ent for _, _, ent in moments)
    holds = lhs <= rhs + _tol(lhs if math.isfinite(lhs) else 0.0, rhs)
    inc_ok = True
    worst_inc = math.inf
    for m in moments:
        r = _entropy_lower_bound(*m)
        inc_ok &= r.holds
        worst_inc = min(worst_inc, r.margin)
    return CheckResult(
        "falik_samorodnitsky",
        lhs,
        rhs,
        holds and inc_ok,
        details={"increment_bound_min_margin": worst_inc, "sum_sq_mean_abs": s},
    )


def log_sobolev_check(f0: float, f1: float) -> CheckResult:
    """Two-point Bonami-Gross inequality: Ent(f^2) <= (1/2) (f(0) - f(1))^2."""
    vals = np.array([f0, f1], dtype=np.float64)
    lhs = entropy(vals**2, np.array([0.5, 0.5]))
    rhs = 0.5 * (f0 - f1) ** 2
    holds = lhs <= rhs + _tol(lhs, rhs)
    return CheckResult(
        "log_sobolev", lhs, rhs, holds,
        details={"equality": abs(lhs - rhs) <= _tol(lhs, rhs)},
    )


def tensorization_check(f: HypercubeFunction) -> CheckResult:
    """Ent(f) <= sum_i E[Ent_i(f)] for nonnegative f on the hypercube."""
    if np.any(f.values < 0):
        raise ValueError("tensorization requires nonnegative f")
    probs = np.full(2**f.k, 0.5**f.k)
    lhs = entropy(f.values, probs)
    total = 0.0
    for i in range(1, f.k + 1):
        axis = f.k - i
        t = f.tensor()
        x0 = np.take(t, 0, axis=axis).reshape(-1)
        x1 = np.take(t, 1, axis=axis).reshape(-1)
        m = 0.5 * (x0 + x1)
        with np.errstate(divide="ignore", invalid="ignore"):
            e0 = np.where(x0 > 0, x0 * np.log(x0 / m), 0.0)
            e1 = np.where(x1 > 0, x1 * np.log(x1 / m), 0.0)
        ent_i = 0.5 * (e0 + e1)
        ent_i = np.where(m > 0, ent_i, 0.0)
        total += math.fsum(ent_i.tolist()) / ent_i.size
    holds = lhs <= total + _tol(lhs, total)
    return CheckResult("tensorization", lhs, total, holds)


def entropy_variational_check(
    f: HypercubeFunction, trials: Sequence[np.ndarray]
) -> CheckResult:
    """sup{E[f g] : E[e^g] <= 1} = Ent(f): every feasible trial g stays below,
    and the optimizer g* = log(f / Ef) attains the supremum."""
    if np.any(f.values < 0):
        raise ValueError("needs f >= 0")
    probs = np.full(2**f.k, 0.5**f.k)
    ent = entropy(f.values, probs)
    mean = fexp(f.values)
    if mean == 0.0:
        raise ValueError("needs E f > 0")
    worst = -math.inf
    infeasible = 0
    for g in trials:
        g = np.asarray(g, dtype=np.float64)
        if fexp(np.exp(g)) > 1.0 + 1e-12:
            infeasible += 1
            continue
        worst = max(worst, fexp(f.values * g))
    holds = worst <= ent + _tol(worst if math.isfinite(worst) else 0.0, ent)
    # plug in the optimizer; -745 stands in for log 0 and exp(-745) == 0.0
    gstar = np.where(f.values > 0, np.log(np.maximum(f.values, 1e-300) / mean), -745.0)
    feas = fexp(np.exp(gstar)) <= 1.0 + 1e-12
    attained = fexp(f.values * gstar)
    opt_ok = feas and abs(attained - ent) <= 1e-10 * max(1.0, abs(ent))
    return CheckResult(
        "entropy_variational", worst if math.isfinite(worst) else ent, ent,
        holds and opt_ok,
        details={"optimizer_value": attained, "infeasible_trials": infeasible},
    )


# ---------------------------------------------------------------------------
# Monotone step functions on [0, 1]: exact rational integration
# ---------------------------------------------------------------------------


@dataclass
class StepFunction:
    """Nondecreasing, nonnegative step function on [0, 1] with rational data.

    ``breaks`` are the jump locations 0 < b_1 < ... < b_m < 1 and ``levels``
    the m+1 values, so f = levels[j] on [b_j, b_{j+1}).
    """

    breaks: tuple[Fraction, ...]
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.breaks) + 1:
            raise ValueError("need one more level than breaks")
        if any(not (0 < b < 1) for b in self.breaks):
            raise ValueError("breaks must lie in (0, 1)")
        if list(self.breaks) != sorted(set(self.breaks)):
            raise ValueError("breaks must be strictly increasing")
        if any(v < 0 for v in self.levels):
            raise ValueError("f must be nonnegative")
        if any(b > a for a, b in zip(self.levels[1:], self.levels[:-1])):
            raise ValueError("f must be nondecreasing")

    def __call__(self, x: Fraction) -> Fraction:
        val = self.levels[0]
        for b, lev in zip(self.breaks, self.levels[1:]):
            if x >= b:
                val = lev
            else:
                break
        return val

    def constant_from(self) -> Fraction:
        """Smallest a with f constant on [a, 1] (the last jump location)."""
        return self.breaks[-1] if self.breaks else Fraction(0)


def _common_scale(values) -> tuple[int, list[int]]:
    """(D, [D v for v in values]) with D the lcm of the rationals' denominators."""
    D = math.lcm(1, *(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _sq_integral(breaks: list[int], levels: list[int], lo: int, hi: int) -> int:
    """Integral of f^2 over [lo, hi] for integer breaks and levels."""
    pts = [lo, *(b for b in breaks if lo < b < hi), hi]
    return sum(
        levels[bisect_right(breaks, p)] ** 2 * (q - p) for p, q in zip(pts, pts[1:])
    )


def _shift_sq_integral(breaks: list[int], levels: list[int], tau: int, one: int) -> int:
    """Integral of (f(x) - f(x - tau))^2 over [tau, one] for integer data.

    Every piece [p, q) meets no break of f or of f(. - tau) in its interior,
    so the level at p stands for the piece."""
    pts = sorted({tau, one, *(p for b in breaks for p in (b, b + tau) if tau < p < one)})
    return sum(
        (levels[bisect_right(breaks, p)] - levels[bisect_right(breaks, p - tau)]) ** 2
        * (q - p)
        for p, q in zip(pts, pts[1:])
    )


@dataclass
class RossignolResult:
    lhs: Fraction
    always_rhs: Fraction
    always_holds: bool
    case_small_a: Optional[tuple[Fraction, bool]]

    vacuous = False

    @property
    def holds(self) -> bool:
        ok = self.always_holds
        if self.case_small_a is not None:
            ok &= self.case_small_a[1]
        return ok

    @cached_property
    def margin(self) -> float:
        """The least right side minus lhs over the cases that apply."""
        rhs = [self.always_rhs]
        if self.case_small_a is not None:
            rhs.append(self.case_small_a[0])
        return min(float(r - self.lhs) for r in rhs)

    def to_json(self) -> dict:
        return {"lhs": float(self.lhs), "margin": self.margin}


def rossignol_check(f: StepFunction, a: Fraction, tau: Fraction) -> RossignolResult:
    """All applicable cases of the shifted-square integral bound, exactly.

    Requires tau in (0, 1/2] and f constant on [a, 1]; integration is exact
    (integer sums over a common denominator) so the verdicts carry no
    tolerance at all.  The small-tau case (tau <= a <= 1/2, bound
    2·tau·int f^2) is not computed, because it never decides: there f is
    the constant c on [1 - tau, 1], so 2·tau·int f^2 >= 2·tau·(1 - a)·c^2 >=
    tau·c^2, the always-case bound.
    """
    a = Fraction(a)
    tau = Fraction(tau)
    if not (0 < tau <= Fraction(1, 2)):
        raise ValueError("tau must lie in (0, 1/2]")
    if f.constant_from() > a:
        raise ValueError(f"f is not constant on [{a}, 1]")
    # x -> D x makes every integration point an integer, f -> L f every
    # level, so each integral is an integer over D L^2
    D, (t, *breaks) = _common_scale((tau, *f.breaks))
    L, levels = _common_scale(f.levels)
    unit = D * L * L
    lhs = Fraction(_shift_sq_integral(breaks, levels, t, D), unit)
    tail = Fraction(_sq_integral(breaks, levels, D - t, D), unit)
    case_small_a = None
    if a <= tau:
        rhs = 2 * a * Fraction(_sq_integral(breaks, levels, 0, D), unit)
        case_small_a = (rhs, lhs <= rhs)
    return RossignolResult(lhs, tail, lhs <= tail, case_small_a)


# ---------------------------------------------------------------------------
# Exhaustive FPP check on tiny boxes
# ---------------------------------------------------------------------------


@dataclass
class FppExhaustiveResult:
    n_edges: int
    var_T: float
    es_bound: float
    es_holds: bool
    fs: CheckResult

    @property
    def holds(self) -> bool:
        return self.es_holds and self.fs.holds


def exhaustive_passage_times(box: Box, spec: Bernoulli, src: Site, dst: Site) -> np.ndarray:
    """T for each of the 2^E configurations of a two-point law on a tiny box.

    Bit e of the configuration index picks weight ``spec.b`` (set) or
    ``spec.a`` for edge index e.  T is the minimum over the rows of ``P @ W``,
    with P the simple-path matrix and W the weights of a block of
    configurations, in the arithmetic ``passage_time`` uses for the law:
    integers scaled by its ``int_scale`` when it has one, so every T is exact.
    """
    E = box.n_edges()
    if E > K_MAX:
        raise ValueError(f"edge count {E} exceeds the enumeration cap {K_MAX}")
    P = simple_path_matrix(box, src, dst)
    (lo, hi), scale = scaled_weights(np.array([spec.a, spec.b]), spec, box.n_sites())
    bits = np.arange(E)[:, None]
    values = np.empty(2**E)
    for start in range(0, 2**E, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, 2**E))
        W = np.where((masks >> bits) & 1, hi, lo)
        values[start : start + masks.size] = (P @ W).min(axis=0, initial=math.inf)
    if scale is not None:
        values /= scale
    return values


def fpp_exhaustive_check(
    box: Box, spec: Bernoulli, src: Site, dst: Site
) -> FppExhaustiveResult:
    """Enumerate all 2^E weight configurations of a tiny box and verify the
    variance pipeline exactly: Var(T) against the Efron-Stein bound and both
    sides of the entropy inequality, with the martingale decomposition taken
    in edge order."""
    if spec.p != 0.5:
        raise ValueError("exhaustive check assumes fair two-point weights")
    values = exhaustive_passage_times(box, spec, src, dst)
    f = HypercubeFunction(box.n_edges(), values)
    var = f.variance()
    # exact resampling bound: (1/4) sum_e E[(f - f o flip_e)^2]
    es = efron_stein_check(f)
    fs = falik_samorodnitsky_check(f)
    return FppExhaustiveResult(f.k, var, es.rhs, es.holds, fs)


# ---------------------------------------------------------------------------
# Randomized verification suite
# ---------------------------------------------------------------------------


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(mix64(seed, salt))


def _random_function(rng, k_max=6, nonneg=False) -> HypercubeFunction:
    k = int(rng.integers(1, k_max + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        vals = rng.uniform(0.0 if nonneg else -5.0, 10.0, size=2**k)
    elif kind == 1:
        vals = rng.normal(0, 3, size=2**k)
        if nonneg:
            vals = np.abs(vals)
    else:
        vals = rng.integers(0, 4, size=2**k).astype(float)
    return HypercubeFunction(k, vals)


def _random_step_function(rng) -> tuple[StepFunction, Fraction, Fraction]:
    m = int(rng.integers(0, 5))
    denom = int(rng.integers(8, 64))
    cuts = sorted(set(int(c) for c in rng.integers(1, denom, size=m)))
    breaks = tuple(Fraction(c, denom) for c in cuts)
    levels = np.cumsum(rng.integers(0, 5, size=len(breaks) + 1))
    f = StepFunction(breaks, tuple(Fraction(int(v)) for v in levels))
    a_min = f.constant_from()
    # admissible a in [a_min, 1]; tau in (0, 1/2]
    a_num = int(rng.integers(a_min.numerator * denom // a_min.denominator, denom + 1)) if a_min < 1 else denom
    a = max(Fraction(a_num, denom), a_min)
    tau = Fraction(int(rng.integers(1, denom // 2 + 1)), denom)
    return f, a, tau


@dataclass
class SuiteReport:
    name: str
    instances: int
    violations: int
    min_margin: float
    digest: str
    worst: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "check": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "min_margin": self.min_margin,
            "inputs_digest": self.digest,
            "holds": self.violations == 0,
        }
        if self.worst:
            out["worst"] = self.worst
        return out


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _draw_function_check(rng, check, **kw) -> tuple[bytes, CheckResult]:
    f = _random_function(rng, **kw)
    return f.values.tobytes(), check(f)


def _draw_log_sobolev(rng) -> tuple[bytes, CheckResult]:
    f0, f1 = rng.uniform(0, 10, size=2)
    return np.array([f0, f1]).tobytes(), log_sobolev_check(float(f0), float(f1))


def _draw_entropy_variational(rng) -> tuple[bytes, CheckResult]:
    f = _random_function(rng, k_max=4, nonneg=True)
    if fexp(f.values) == 0.0:
        f = HypercubeFunction(f.k, f.values + 1.0)
    trials = []
    for _ in range(4):
        g = rng.normal(0, 1, size=f.values.size)
        # normalize to E e^g slightly below 1 so feasibility is robust
        g -= math.log(max(fexp(np.exp(g)), 1e-300)) + 1e-9
        trials.append(g)
    return f.values.tobytes(), entropy_variational_check(f, trials)


def _draw_rossignol(rng) -> tuple[bytes, RossignolResult]:
    f, a, tau = _random_step_function(rng)
    return str((f.breaks, f.levels, a, tau)).encode(), rossignol_check(f, a, tau)


# (name, rng salt, draw): draw(rng) makes one random instance and returns its
# input bytes for the digest and the check's verdict.  The draws look the
# checks up by module name at call time, so wrapping a check takes effect.
_RANDOMIZED_CHECKS = (
    ("efron_stein", 1, lambda rng: _draw_function_check(rng, efron_stein_check)),
    ("falik_samorodnitsky", 2, lambda rng: _draw_function_check(rng, falik_samorodnitsky_check)),
    ("log_sobolev", 3, _draw_log_sobolev),
    (
        "tensorization", 4,
        lambda rng: _draw_function_check(rng, tensorization_check, k_max=4, nonneg=True),
    ),
    ("entropy_variational", 5, _draw_entropy_variational),
    ("rossignol", 6, _draw_rossignol),
)


def run_randomized_suite(
    seed: int, instances: int = 10_000, checks: Optional[Sequence[str]] = None
) -> list[SuiteReport]:
    """Run every inequality check on ``instances`` random instances each.

    Any violation is a genuine failure: the inequalities are theorems for the
    generated inputs.
    """
    chosen = set(checks) if checks else None
    reports = []
    for name, salt, draw in _RANDOMIZED_CHECKS:
        if chosen is None or name in chosen:
            rng = _rng(seed, salt)
            drawn = [draw(rng) for _ in range(instances)]
            reports.append(_summarize(name, [r for _, r in drawn], [c for c, _ in drawn]))
    return reports


def _summarize(name: str, results: list[CheckResult], chunks) -> SuiteReport:
    violations = sum(not r.holds for r in results)
    margins = [r.margin for r in results if not r.vacuous and math.isfinite(r.margin)]
    worst_r = min(
        (r for r in results if not r.vacuous), key=lambda r: r.margin, default=None
    )
    return SuiteReport(
        name,
        len(results),
        violations,
        min(margins) if margins else math.inf,
        _digest(chunks),
        worst_r.to_json() if worst_r else None,
    )


def suite_to_json(reports: list[SuiteReport]) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2)
