"""Exact, enumeration-based verification of concentration inequalities on
small instances: Efron-Stein, Falik-Samorodnitsky, the two-point log-Sobolev
inequality, entropy tensorization, the variational characterization of
entropy, the shifted-square integral bounds for monotone step functions, the
moment-generating-function concentration chain, and an exhaustive check of
the whole pipeline on tiny weight configurations.

Functions on k fair bits are enumerated in full (k <= 20); expectations use
compensated summation and inequality verdicts allow a 1e-12 relative slack to
absorb binary64 rounding at equality cases.  The convention 0*log(0) = 0 is
used throughout.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import Box, Site
from .weights import Bernoulli, WeightField, mix64
from .fpp import brute_force_passage

K_MAX = 20
_SLACK = 1e-12


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


def entropy_lower_bound_check(x: np.ndarray) -> CheckResult:
    """Ent(X^2) >= E[X^2] log(E[X^2] / (E X)^2) for X >= 0 (uniform measure)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    probs = np.full(x.size, 1.0 / x.size)
    lhs = fexp(x**2)
    m1 = fexp(x)
    ent = entropy(x**2, probs)
    if lhs == 0.0:
        return CheckResult("entropy_lower_bound", 0.0, 0.0, True, vacuous=True)
    rhs = lhs * math.log(lhs / m1**2) if m1 > 0 else math.inf
    # orientation: ent >= rhs
    return CheckResult("entropy_lower_bound", rhs, ent, rhs <= ent + _tol(rhs, ent))


def falik_samorodnitsky_check(f: HypercubeFunction) -> CheckResult:
    """Var(f) log(Var(f) / sum_i (E|Delta_i f|)^2) <= sum_i Ent((Delta_i f)^2).

    Also verifies the entropy lower bound for each increment.
    """
    var = f.variance()
    if var == 0.0:
        return CheckResult("falik_samorodnitsky", 0.0, 0.0, True, vacuous=True)
    dec = MartingaleDecomposition(f)
    probs = np.full(2**f.k, 0.5**f.k)
    s = math.fsum(fexp(np.abs(d)) ** 2 for d in dec.increments)
    lhs = var * math.log(var / s) if s > 0 else math.inf
    rhs = math.fsum(entropy(d**2, probs) for d in dec.increments)
    holds = lhs <= rhs + _tol(lhs if math.isfinite(lhs) else 0.0, rhs)
    inc_ok = True
    worst_inc = math.inf
    for d in dec.increments:
        r = entropy_lower_bound_check(np.abs(d))
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


def _integrate_sq(f: StepFunction, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of f^2 over [lo, hi]."""
    pts = sorted({lo, hi, *[b for b in f.breaks if lo < b < hi]})
    total = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        total += f(mid) ** 2 * (b - a)
    return total


def _integrate_shift_sq(f: StepFunction, tau: Fraction) -> Fraction:
    """Exact integral of (f(x) - f(x - tau))^2 over [tau, 1]."""
    pts = {Fraction(0) + tau, Fraction(1)}
    for b in f.breaks:
        for p in (b, b + tau):
            if tau < p < 1:
                pts.add(p)
    pts = sorted(pts)
    total = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        diff = f(mid) - f(mid - tau)
        total += diff**2 * (b - a)
    return total


@dataclass
class RossignolResult:
    lhs: Fraction
    always_rhs: Fraction
    always_holds: bool
    case_small_a: Optional[tuple[Fraction, bool]]
    case_small_tau: Optional[tuple[Fraction, bool]]

    @property
    def holds(self) -> bool:
        ok = self.always_holds
        if self.case_small_a is not None:
            ok &= self.case_small_a[1]
        if self.case_small_tau is not None:
            ok &= self.case_small_tau[1]
        return ok


def rossignol_check(f: StepFunction, a: Fraction, tau: Fraction) -> RossignolResult:
    """All applicable cases of the shifted-square integral bound, exactly.

    Requires tau in (0, 1/2] and f constant on [a, 1]; integration is exact
    over rationals so the verdicts carry no tolerance at all.
    """
    a = Fraction(a)
    tau = Fraction(tau)
    if not (0 < tau <= Fraction(1, 2)):
        raise ValueError("tau must lie in (0, 1/2]")
    if f.constant_from() > a:
        raise ValueError(f"f is not constant on [{a}, 1]")
    lhs = _integrate_shift_sq(f, tau)
    tail = _integrate_sq(f, 1 - tau, Fraction(1))
    always = (lhs <= tail, tail)
    full_sq = _integrate_sq(f, Fraction(0), Fraction(1))
    case_small_a = None
    case_small_tau = None
    if a <= tau:
        rhs = 2 * a * full_sq
        case_small_a = (rhs, lhs <= rhs)
    if tau <= a <= Fraction(1, 2):
        rhs = 2 * tau * full_sq
        case_small_tau = (rhs, lhs <= rhs)
    return RossignolResult(lhs, always[1], always[0], case_small_a, case_small_tau)


# ---------------------------------------------------------------------------
# MGF concentration chain
# ---------------------------------------------------------------------------


@dataclass
class MgfChainResult:
    t_grid: np.ndarray
    premise_ok: np.ndarray
    conclusion_ok: np.ndarray
    tail_ok: bool
    details: dict

    @property
    def premise_holds(self) -> bool:
        return bool(np.all(self.premise_ok))

    @property
    def holds(self) -> bool:
        return self.premise_holds and bool(np.all(self.conclusion_ok)) and self.tail_ok


def mgf_concentration_check(
    z: Optional[np.ndarray],
    C: float,
    B: float,
    *,
    mgf: Optional[Callable[[float], float]] = None,
    tail: Optional[Callable[[float], float]] = None,
    lambdas: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    grid_points: int = 63,
) -> MgfChainResult:
    """Verify the exponential-concentration chain on a t grid in (0, B^{-1/2}).

    Premise: Var(e^{tZ/2}) <= C t^2 E[e^{tZ}].  Conclusion: the log-MGF obeys
    psi(t) <= -2 log(1 - C t^2), whence P(Z >= lam) <= e^{-t lam}/(1 - C t^2)^2.
    Works from samples or from exact callables (mgf, tail).  A failing premise
    is reported, not raised; the conclusion is only asserted where the premise
    holds.
    """
    if not (0 < C <= B):
        raise ValueError("need 0 < C <= B")
    tmax = B**-0.5
    t_grid = np.array([tmax * j / (grid_points + 1) for j in range(1, grid_points + 1)])

    if mgf is None:
        if z is None:
            raise ValueError("need samples or an mgf callable")
        z = np.asarray(z, dtype=np.float64)
        mgf = lambda t: float(np.mean(np.exp(t * z)))  # noqa: E731
    if tail is None and z is not None:
        tail = lambda lam: float(np.mean(z >= lam))  # noqa: E731

    premise = np.zeros(t_grid.size, dtype=bool)
    conclusion = np.zeros(t_grid.size, dtype=bool)
    with np.errstate(over="ignore"):
        for i, t in enumerate(t_grid):
            m_full = mgf(float(t))
            m_half = mgf(float(t / 2))
            if not (math.isfinite(m_full) and math.isfinite(m_half)):
                premise[i] = False  # MGF blows up inside the grid
                conclusion[i] = True
                continue
            var_half = m_full - m_half * m_half
            premise[i] = var_half <= C * t * t * m_full + _tol(var_half)
            psi = math.log(m_full)
            bound = -2.0 * math.log(1.0 - C * t * t)
            conclusion[i] = (not premise[i]) or psi <= bound + _tol(psi, bound)
    tail_ok = True
    tail_rows = []
    if tail is not None and np.all(premise):
        for lam in lambdas:
            best = min(
                float(np.exp(-t * lam) / (1.0 - C * t * t) ** 2) for t in t_grid
            )
            p = tail(float(lam))
            tail_rows.append((float(lam), p, best))
            tail_ok &= p <= best + _tol(p, best)
    return MgfChainResult(
        t_grid, premise, conclusion, tail_ok,
        details={"tail_rows": tail_rows},
    )


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


def fpp_exhaustive_check(
    box: Box, spec: Bernoulli, src: Site, dst: Site
) -> FppExhaustiveResult:
    """Enumerate all 2^E weight configurations of a tiny box and verify the
    variance pipeline exactly: Var(T) against the Efron-Stein bound and both
    sides of the entropy inequality, with the martingale decomposition taken
    in edge order."""
    if spec.p != 0.5:
        raise ValueError("exhaustive check assumes fair two-point weights")
    E = box.n_edges()
    if E > K_MAX:
        raise ValueError(f"edge count {E} exceeds the enumeration cap {K_MAX}")
    values = np.empty(2**E)
    lo, hi = spec.a, spec.b
    for mask in range(2**E):
        w = np.where(
            (mask >> np.arange(E)) & 1, hi, lo
        ).astype(np.float64)
        field = WeightField(box, w, 0, None)
        values[mask] = brute_force_passage(field, src, dst)
    f = HypercubeFunction(E, values)
    var = f.variance()
    # exact resampling bound: (1/4) sum_e E[(f - f o flip_e)^2]
    es = efron_stein_check(f)
    fs = falik_samorodnitsky_check(f)
    return FppExhaustiveResult(E, var, es.rhs, es.holds, fs)


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

    def want(name):
        return chosen is None or name in chosen

    for name, salt, draw in _RANDOMIZED_CHECKS:
        if want(name):
            rng = _rng(seed, salt)
            drawn = [draw(rng) for _ in range(instances)]
            reports.append(_summarize(name, [r for _, r in drawn], [c for c, _ in drawn]))

    if want("rossignol"):
        rng = _rng(seed, 6)
        ok = 0
        min_margin = math.inf
        worst = None
        chunks = []
        for _ in range(instances):
            f, a, tau = _random_step_function(rng)
            chunks.append(str((f.breaks, f.levels, a, tau)).encode())
            r = rossignol_check(f, a, tau)
            margins = [float(r.always_rhs - r.lhs)]
            if r.case_small_a:
                margins.append(float(r.case_small_a[0] - r.lhs))
            if r.case_small_tau:
                margins.append(float(r.case_small_tau[0] - r.lhs))
            m = min(margins)
            if m < min_margin:
                min_margin = m
                worst = {"lhs": float(r.lhs), "margin": m}
            ok += r.holds
        reports.append(
            SuiteReport(
                "rossignol", instances, instances - ok, min_margin,
                _digest(chunks), worst,
            )
        )
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
