"""Exact, enumeration-based verification of concentration inequalities on
small instances: Efron-Stein, Falik-Samorodnitsky, the two-point log-Sobolev
inequality, entropy tensorization, the variational characterization of
entropy, the shifted-square integral bounds for monotone step functions, and
an exhaustive check of the whole pipeline on tiny weight configurations.

Functions on k fair bits are enumerated in full (k <= 20); expectations use
compensated summation and inequality verdicts allow a 1e-12 relative slack to
absorb binary64 rounding at equality cases.  The convention 0*log(0) = 0 is
used throughout.

Each hypercube check is one row kernel over a stack X of shape (m, 2^k),
one function table per row; the public ``<check>_check`` calls it with
m = 1.  The randomized suite calls its kernels directly.  Of the six public
``<check>_check`` wrappers, one per suite row, ``efron_stein_check`` and
``falik_samorodnitsky_check`` also serve ``fpp_exhaustive_check``; all six
stay because the tests check each kernel against its wrapper one instance
at a time, and ``bench/tracing.py`` spans each by name.

The randomized suite draws each check's instances in one batch from one
generator per check, in a fixed number of Generator calls whatever the
instance count.  A hypercube batch draws all the k, all the kinds, then each
kind's values in one call into one buffer in draw order, so instance j
depends on the instance count as well as the seed, and gathers the tables of
each k from it as one stack.  Log-Sobolev draws its pairs in one uniform
call, the same stream as pair by pair.  Rossignol draws each of its six
integer arrays (counts, denominators, cuts, level steps, a, tau) in one call
for the whole batch.  The suite runs the kernel once per k on the instances
of that k stacked in draw order and puts the verdicts back in draw order.  A
row's verdict does not depend on the rows stacked with it, bit for bit, by
three rules:

- every sum is a per-row ``math.fsum``, which is correctly rounded, so it
  cannot depend on how rows are grouped;
- every numpy operation is elementwise or a reduction within a row
  (the conditional expectation E[f | coordinates 1..i] is a reshape to
  (m, 2^(k-i), 2^i) and a mean over axis 1, the same sequential sum of
  2^(k-i) terms at any m), and gives the same bits per element at any batch
  size; ``np.log`` and ``np.exp`` always see a freshly computed contiguous
  array, as they did per instance;
- scalar steps stay Python scalars: ``math.log`` and ``np.log`` differ in
  the last bit on some inputs, so the Falik-Samorodnitsky left side keeps
  ``math.log``, and the log-Sobolev right side keeps Python ``**``.

The exhaustive pipeline enumerates the simple source-destination paths of the
box once, as a 0/1 path-by-edge matrix P; T of a block of configurations is
then the column minimum of P @ W, in the scaled integers passage_time uses.
The step-function integrals scale x by a common denominator D of the breaks,
a and tau, and f by the common denominator L of the levels, so each integral
is an integer sum divided by D L^2: the same exact Fraction as rational
integration, without Fraction arithmetic per piece.  One integer kernel,
``_rossignol_rows``, gives every Rossignol verdict and margin; the suite
draws its instances as integers over the draw's denominator and feeds them
to it directly, and ``rossignol_check`` calls it on one row after reducing
its Fractions to integers.  No Fraction is built unless a result's exact
value is read.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .fpp import scaled_weights, simple_path_matrix
from .lattice import Box, Site
from .weights import Bernoulli, mix64

K_MAX = 20
_SLACK = 1e-12
# configurations per P @ W product in exhaustive_passage_times
_MASK_BLOCK = 1 << 14


def _tol(a: float, b: float) -> float:
    return _SLACK * max(1.0, abs(a), abs(b))


def _row_means(X: np.ndarray) -> list[float]:
    """Uniform mean of every row (last axis) of X, in C order: one fsum per row."""
    n = X.shape[-1]
    return [math.fsum(row) / n for row in X.reshape(-1, n).tolist()]


def _per_row(vals: Sequence[float], X: np.ndarray) -> np.ndarray:
    """One value per row of X, shaped to broadcast along its last axis."""
    return np.reshape(vals, X.shape[:-1] + (1,))


def fexp(values: np.ndarray) -> float:
    """Compensated expectation under the uniform measure."""
    return _row_means(np.ravel(values))[0]


def entropy(values: np.ndarray, probs: np.ndarray) -> float:
    """Ent(X) = E[X log(X / EX)] for X >= 0, with 0 log 0 = 0."""
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("entropy requires nonnegative values")
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0):
        raise ValueError("probs must form a distribution")
    return _entropy_rows(values, probs)[0]


def _entropy_rows(X: np.ndarray, probs) -> list[float]:
    """``entropy`` of every row of X without input checks; probs broadcasts
    against X and may be one scalar weight.  A row of mean 0 has entropy 0."""
    n = X.shape[-1]
    means = [math.fsum(row) for row in (X * probs).reshape(-1, n).tolist()]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(X > 0, X * np.log(X / _per_row(means, X)), 0.0)
        rows = (terms * probs).reshape(-1, n).tolist()
    return [math.fsum(row) if mean != 0.0 else 0.0 for mean, row in zip(means, rows)]


def _variance_rows(X: np.ndarray) -> list[float]:
    return _row_means((X - _per_row(_row_means(X), X)) ** 2)


def _flip(X: np.ndarray, i: int) -> np.ndarray:
    """Rows of X (m, 2^k) with coordinate i (1-based) flipped: bit i-1 of the index."""
    m, n = X.shape
    low = 1 << (i - 1)
    return X.reshape(m, n // (2 * low), 2, low)[:, :, ::-1].reshape(m, n)


def _increments(X: np.ndarray) -> list[np.ndarray]:
    """Doob increments Delta_1 .. Delta_k of every row of X (m, 2^k), one (m, 2^k)
    array per coordinate.  E[f | coordinates 1..i] averages the high k - i bits:
    a reshape to (m, 2^(k-i), 2^i) and a mean over axis 1, broadcast back."""
    m, n = X.shape
    prev = _per_row(_row_means(X), X)
    out = []
    for i in range(1, n.bit_length()):
        shape = (m, n >> i, 1 << i)
        cur = np.broadcast_to(X.reshape(shape).mean(axis=1, keepdims=True), shape).reshape(m, n)
        out.append(cur - prev)
        prev = cur
    return out


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
        return _variance_rows(self.values)[0]


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


# Each hypercube check below is a row kernel ``_<check>_rows`` over a stack X,
# one instance per row (a table of 2^k values; for log-Sobolev the pair
# (f(0), f(1))), returning the m verdicts in row order; the public
# ``<check>_check`` runs it on a stack of one.


def efron_stein_check(f: HypercubeFunction) -> CheckResult:
    """Var(f) <= (1/2) sum_i E[(f(X) - f(X with bit i resampled))^2].

    Resampling a fair bit flips it with probability 1/2, so the bound equals
    (1/4) sum_i E[(f - f o flip_i)^2]; both sides are enumerated exactly.
    """
    return _efron_stein_rows(f.values[None])[0]


def _efron_stein_rows(X: np.ndarray) -> list[CheckResult]:
    k = X.shape[1].bit_length() - 1
    flips = [_row_means((X - _flip(X, i)) ** 2) for i in range(1, k + 1)]
    out = []
    for var, terms in zip(_variance_rows(X), zip(*flips)):
        bound = 0.25 * math.fsum(terms)
        out.append(CheckResult("efron_stein", var, bound, var <= bound + _tol(var, bound)))
    return out


def _abs_moments(D: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """(E X, E X^2, Ent(X^2)) for X = |d|, d each row of D, under the uniform measure."""
    x = np.abs(D)
    sq = x**2
    return _row_means(x), _row_means(sq), _entropy_rows(sq, 1.0 / D.shape[-1])


def _entropy_lower_bound(m1: float, m2: float, ent: float) -> tuple[Optional[float], bool]:
    """(bound, holds) for Ent(X^2) >= bound = E[X^2] log(E[X^2] / (E X)^2),
    from the three moments; bound None when E[X^2] = 0 (vacuous, holds)."""
    if m2 == 0.0:
        return None, True
    bound = m2 * math.log(m2 / m1**2) if m1 > 0 else math.inf
    return bound, bound <= ent + _tol(bound, ent)


def falik_samorodnitsky_check(f: HypercubeFunction) -> CheckResult:
    """Var(f) log(Var(f) / sum_i (E|Delta_i f|)^2) <= sum_i Ent((Delta_i f)^2).

    Also verifies the entropy lower bound for each increment.  Each
    increment's E|d|, E d^2 and Ent(d^2) are computed once and serve both.
    """
    return _falik_samorodnitsky_rows(f.values[None])[0]


def _falik_samorodnitsky_rows(X: np.ndarray) -> list[CheckResult]:
    # moments[r] holds (E|d|, E d^2, Ent(d^2)) of each increment d of row r
    moments = zip(*(zip(*_abs_moments(d)) for d in _increments(X)))
    return [_falik_samorodnitsky(var, m) for var, m in zip(_variance_rows(X), moments)]


def _falik_samorodnitsky(var: float, moments) -> CheckResult:
    """The verdict of one function from Var(f) and each increment's moments."""
    if var == 0.0:
        return CheckResult("falik_samorodnitsky", 0.0, 0.0, True, vacuous=True)
    s = math.fsum(m1**2 for m1, _, _ in moments)
    lhs = var * math.log(var / s) if s > 0 else math.inf
    rhs = math.fsum(ent for _, _, ent in moments)
    holds = lhs <= rhs + _tol(lhs if math.isfinite(lhs) else 0.0, rhs)
    inc_ok = True
    worst_inc = math.inf
    for m1, m2, ent in moments:
        bound, ok = _entropy_lower_bound(m1, m2, ent)
        inc_ok &= ok
        # a vacuous increment's margin is 0.0 - 0.0
        worst_inc = min(worst_inc, 0.0 if bound is None else ent - bound)
    return CheckResult(
        "falik_samorodnitsky",
        lhs,
        rhs,
        holds and inc_ok,
        details={"increment_bound_min_margin": worst_inc, "sum_sq_mean_abs": s},
    )


def log_sobolev_check(f0: float, f1: float) -> CheckResult:
    """Two-point Bonami-Gross inequality: Ent(f^2) <= (1/2) (f(0) - f(1))^2."""
    return _log_sobolev_rows(np.array([[f0, f1]], dtype=np.float64))[0]


def _log_sobolev_rows(X: np.ndarray) -> list[CheckResult]:
    """Rows (f(0), f(1)); the right side stays Python float arithmetic."""
    out = []
    for (f0, f1), lhs in zip(X.tolist(), _entropy_rows(X**2, 0.5)):
        rhs = 0.5 * (f0 - f1) ** 2
        out.append(CheckResult(
            "log_sobolev", lhs, rhs, lhs <= rhs + _tol(lhs, rhs),
            details={"equality": abs(lhs - rhs) <= _tol(lhs, rhs)},
        ))
    return out


def tensorization_check(f: HypercubeFunction) -> CheckResult:
    """Ent(f) <= sum_i E[Ent_i(f)] for nonnegative f on the hypercube."""
    return _tensorization_rows(f.values[None])[0]


def _tensorization_rows(X: np.ndarray) -> list[CheckResult]:
    if np.any(X < 0):
        raise ValueError("tensorization requires nonnegative f")
    m, n = X.shape
    per_coordinate = []
    for i in range(1, n.bit_length()):
        # x0, x1: the rows with coordinate i set to 0 and to 1
        halves = X.reshape(m, n >> i, 2, 1 << (i - 1))
        x0 = halves[:, :, 0].reshape(m, -1)
        x1 = halves[:, :, 1].reshape(m, -1)
        mid = 0.5 * (x0 + x1)
        with np.errstate(divide="ignore", invalid="ignore"):
            e0 = np.where(x0 > 0, x0 * np.log(x0 / mid), 0.0)
            e1 = np.where(x1 > 0, x1 * np.log(x1 / mid), 0.0)
        per_coordinate.append(_row_means(np.where(mid > 0, 0.5 * (e0 + e1), 0.0)))
    out = []
    for lhs, ents in zip(_entropy_rows(X, 1.0 / n), zip(*per_coordinate)):
        total = 0.0
        for ent_i in ents:
            total += ent_i
        out.append(CheckResult("tensorization", lhs, total, lhs <= total + _tol(lhs, total)))
    return out


def entropy_variational_check(
    f: HypercubeFunction, trials: Sequence[np.ndarray]
) -> CheckResult:
    """sup{E[f g] : E[e^g] <= 1} = Ent(f): every feasible trial g stays below,
    and the optimizer g* = log(f / Ef) attains the supremum."""
    G = np.asarray(trials, dtype=np.float64).reshape(1, len(trials), f.values.size)
    return _entropy_variational_rows(f.values[None], G)[0]


def _entropy_variational_rows(X: np.ndarray, G: np.ndarray) -> list[CheckResult]:
    """Rows f of X (m, n) against the trials G (m, t, n) of the same row."""
    if np.any(X < 0):
        raise ValueError("needs f >= 0")
    n = X.shape[1]
    ents = _entropy_rows(X, 1.0 / n)
    means = _row_means(X)
    if 0.0 in means:
        raise ValueError("needs E f > 0")
    t = G.shape[1]
    exp_means = _row_means(np.exp(G))
    fg_means = _row_means(X[:, None, :] * G)
    # plug in the optimizer; -745 stands in for log 0 and exp(-745) == 0.0
    gstar = np.where(X > 0, np.log(np.maximum(X, 1e-300) / _per_row(means, X)), -745.0)
    out = []
    for r, (ent, feas, attained) in enumerate(
        zip(ents, _row_means(np.exp(gstar)), _row_means(X * gstar))
    ):
        worst = -math.inf
        infeasible = 0
        for j in range(r * t, (r + 1) * t):
            if exp_means[j] > 1.0 + 1e-12:
                infeasible += 1
                continue
            worst = max(worst, fg_means[j])
        holds = worst <= ent + _tol(worst if math.isfinite(worst) else 0.0, ent)
        opt_ok = feas <= 1.0 + 1e-12 and abs(attained - ent) <= 1e-10 * max(1.0, abs(ent))
        out.append(CheckResult(
            "entropy_variational", worst if math.isfinite(worst) else ent, ent,
            holds and opt_ok,
            details={"optimizer_value": attained, "infeasible_trials": infeasible},
        ))
    return out


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
    """The integrals of one Rossignol instance as integer numerators: ``lhs``
    and the always-case bound over ``unit`` = D L^2, the small-a bound 2 a
    int f^2 (None unless a <= tau) over ``scale`` · unit, with D = ``scale``.
    Only ``lhs`` is built as an exact Fraction, on read; the bounds stay
    integers, which the verdicts compare."""

    unit: int
    scale: int
    lhs_int: int
    tail_int: int
    small_a_int: Optional[int]
    margin: float  # the least right side minus lhs over the cases that apply

    vacuous = False

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_int, self.unit)

    @property
    def always_holds(self) -> bool:
        return self.lhs_int <= self.tail_int

    @property
    def holds(self) -> bool:
        small = self.small_a_int
        return self.always_holds and (small is None or self.scale * self.lhs_int <= small)

    def to_json(self) -> dict:
        # int / int is correctly rounded, as float() of the reduced Fraction is
        return {"lhs": self.lhs_int / self.unit, "margin": self.margin}


def rossignol_check(f: StepFunction, a: Fraction, tau: Fraction) -> RossignolResult:
    """All applicable cases of the shifted-square integral bound, exactly.

    Requires tau in (0, 1/2] and f constant on [a, 1].  The breaks, a and
    tau are scaled to integers over their common denominator D and the
    levels over theirs, L (``_common_scale``); the result is the integer
    kernel ``_rossignol_rows`` on that one row, so the verdicts carry no
    tolerance at all.  The small-tau case (tau <= a <= 1/2, bound
    2·tau·int f^2) is not computed, because it never decides: there f is
    the constant c on [1 - tau, 1], so 2·tau·int f^2 >= 2·tau·(1 - a)·c^2 >=
    tau·c^2, the always-case bound.
    """
    D, (t, a_int, *breaks) = _common_scale((Fraction(tau), Fraction(a), *f.breaks))
    L, levels = _common_scale(f.levels)
    return _rossignol_rows([(D, L, breaks, levels, a_int, t)])[0]


def _rossignol_rows(rows) -> list[RossignolResult]:
    """The Rossignol verdicts of rows (D, L, breaks, levels, a, tau): breaks,
    a and tau integers over D, levels integers over L.

    Each row is validated in integers as ``StepFunction`` and
    ``rossignol_check`` validate their rationals.  x -> D x makes every
    integration point an integer, f -> L f every level, so each integral is
    an integer over D L^2 (the small-a bound 2 a int f^2 over D · D L^2).
    Verdicts compare the integers.  Each margin is an int / int quotient,
    correctly rounded, so it is the float of the exact rational difference.
    Neither depends on which common denominator D is used: a multiple s D
    multiplies every integer of a comparison or a quotient by the same s,
    which changes no comparison and no rational.  So the suite can use its
    draw's denominator, and ``rossignol_check`` the reduced one.
    """
    out = []
    for D, L, breaks, levels, a, tau in rows:
        if len(levels) != len(breaks) + 1:
            raise ValueError("need one more level than breaks")
        if any(not (0 < b < D) for b in breaks):
            raise ValueError("breaks must lie in (0, 1)")
        if any(lo >= hi for lo, hi in zip(breaks, breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if any(v < 0 for v in levels):
            raise ValueError("f must be nonnegative")
        if any(lo > hi for lo, hi in zip(levels, levels[1:])):
            raise ValueError("f must be nondecreasing")
        if not (0 < tau and 2 * tau <= D):
            raise ValueError("tau must lie in (0, 1/2]")
        if breaks and breaks[-1] > a:
            raise ValueError(f"f is not constant on [{Fraction(a, D)}, 1]")
        unit = D * L * L
        lhs = _shift_sq_integral(breaks, levels, tau, D)
        tail = _sq_integral(breaks, levels, D - tau, D)
        margin = (tail - lhs) / unit
        small_a = None
        if a <= tau:
            small_a = 2 * a * _sq_integral(breaks, levels, 0, D)
            margin = min(margin, (small_a - D * lhs) / (D * unit))
        out.append(RossignolResult(unit, D, lhs, tail, small_a, margin))
    return out


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


def _random_tables(rng, m: int, k_max=6, nonneg=False, trials=0) -> tuple[bytes, list]:
    """m random function tables of k <= k_max fair bits (finite by construction)
    in one buffer in draw order, handed out as one (count, 2^k) stack per k.

    Five Generator calls at any m: the m values of k, the m kinds, then the
    values of every table of each kind (uniform, normal, small integers) in
    one call, handed out to that kind's tables in draw order.  With
    ``trials`` (nonnegative tables only), a table of zeros, the only one
    with E f = 0, becomes a table of ones, and one more normal call draws
    every trial: table j's are the trials·2^k values from trials·start_j on,
    one row of 2^k per trial.  Returns the tables' bytes in draw order and
    per k (positions, (stack,)), with the (count, trials, 2^k) trial stack
    after the tables when there are trials."""
    ks = rng.integers(1, k_max + 1, size=m)
    sizes = 1 << ks
    kinds = np.repeat(rng.integers(0, 3, size=m), sizes)
    starts = np.cumsum(sizes) - sizes
    buf = np.empty(kinds.size)
    at = [kinds == kind for kind in range(3)]
    buf[at[0]] = rng.uniform(0.0 if nonneg else -5.0, 10.0, size=np.count_nonzero(at[0]))
    normal = rng.normal(0, 3, size=np.count_nonzero(at[1]))
    buf[at[1]] = np.abs(normal) if nonneg else normal
    buf[at[2]] = rng.integers(0, 4, size=np.count_nonzero(at[2]))
    if trials:
        buf[np.repeat(np.maximum.reduceat(buf, starts) == 0.0, sizes)] += 1.0
        draws = rng.normal(0, 1, size=trials * buf.size)
    groups = []
    for k in np.unique(ks).tolist():
        positions = np.flatnonzero(ks == k)
        first = starts[positions, None]
        args = (buf[first + np.arange(1 << k)],)
        if trials:
            G = draws[trials * first + np.arange(trials << k)]
            args += (G.reshape(positions.size, trials, 1 << k),)
        groups.append((positions, args))
    return buf.tobytes(), groups


@dataclass
class SuiteReport:
    name: str
    instances: int
    violations: int
    min_margin: Optional[float]  # None when no instance has a finite margin
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _draw_log_sobolev(rng, m: int) -> tuple[bytes, list]:
    """m pairs (f(0), f(1)), one row each, in one group."""
    pairs = rng.uniform(0, 10, size=(m, 2))
    return pairs.tobytes(), [(np.arange(m), (pairs,))]


def _entropy_variational_draws(X: np.ndarray, G: np.ndarray) -> list[CheckResult]:
    """Stacked draws: each raw trial of G (m, t, n) is shifted to E e^g
    slightly below 1, so feasibility is robust, then checked against the f
    of its row of X (m, n)."""
    shifts = [math.log(max(mean, 1e-300)) + 1e-9 for mean in _row_means(np.exp(G))]
    return _entropy_variational_rows(X, G - _per_row(shifts, G))


def _draw_rossignols(rng, m: int) -> tuple[bytes, list]:
    """m step-function instances as ``_rossignol_rows`` rows (D, 1, breaks,
    levels, a, tau), in one group, in six Generator calls at any m.

    One call per array: the candidate counts c ~ U{0..4}, the denominators
    D ~ U{8..63}, four candidate cuts per instance ~ U{1..D-1} (the breaks
    are the sorted distinct values among the first c), five level steps per
    instance ~ U{0..4} (the levels are the first len(breaks) + 1 cumulative
    sums), a ~ U{last break, or 0 if none, .. D} and tau ~ U{1..D // 2}.
    The digest bytes are one little-endian int64 row per instance: D, a,
    tau, the break count, then the breaks and the levels, each padded with
    zeros."""
    counts = rng.integers(0, 5, size=m)
    denoms = rng.integers(8, 64, size=m)
    cuts = rng.integers(1, denoms[:, None], size=(m, 4))
    steps = rng.integers(0, 5, size=(m, 5))
    # unused and repeated cuts become 64, past every D, and sort last
    cuts = np.sort(np.where(np.arange(4) < counts[:, None], cuts, 64), axis=1)
    cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = 64
    cuts = np.sort(cuts, axis=1)
    n_breaks = np.count_nonzero(cuts < 64, axis=1)
    table = np.zeros((m, 13), dtype="<i8")
    table[:, 0] = denoms
    table[:, 3] = n_breaks
    table[:, 4:8] = np.where(cuts < 64, cuts, 0)
    table[:, 8:] = np.where(np.arange(5) <= n_breaks[:, None], np.cumsum(steps, axis=1), 0)
    table[:, 1] = rng.integers(table[:, 4:8].max(axis=1), denoms + 1)
    table[:, 2] = rng.integers(1, denoms // 2 + 1)
    rows = [
        (D, 1, rest[:nb], rest[4 : 5 + nb], a, tau) for D, a, tau, nb, *rest in table.tolist()
    ]
    return table.tobytes(), [(np.arange(m), (rows,))]


# (name, rng salt, draw, kernel name): draw(rng, m) makes m random instances
# in a fixed number of Generator calls and returns their input bytes for the
# digest (the instances' chunks, in draw order) and their groups (draw
# positions, kernel args); the kernel gives one verdict per position, in
# order.  A hypercube draw has a group per k, the others one group.  The
# suite looks each kernel up by module name at call time, so wrapping a
# kernel takes effect.
_RANDOMIZED_CHECKS = (
    ("efron_stein", 1, _random_tables, "_efron_stein_rows"),
    ("falik_samorodnitsky", 2, _random_tables, "_falik_samorodnitsky_rows"),
    ("log_sobolev", 3, _draw_log_sobolev, "_log_sobolev_rows"),
    ("tensorization", 4, partial(_random_tables, k_max=4, nonneg=True), "_tensorization_rows"),
    (
        "entropy_variational", 5, partial(_random_tables, k_max=4, nonneg=True, trials=4),
        "_entropy_variational_draws",
    ),
    ("rossignol", 6, _draw_rossignols, "_rossignol_rows"),
)
CHECK_NAMES = tuple(name for name, *_ in _RANDOMIZED_CHECKS)


def run_randomized_suite(
    seed: int, instances: int = 10_000, checks: Optional[Sequence[str]] = None
) -> list[SuiteReport]:
    """Run every inequality check (or those named in ``checks``) on
    ``instances`` random instances each.

    Each check draws all its instances in one ``draw(rng, instances)`` from
    its own generator, hashes their bytes once and calls its kernel once per
    group the draw returns (one per k for a hypercube check).  Every draw
    makes a fixed number of Generator calls, so instance j may depend on
    ``instances`` as well as on ``seed``.

    Any violation is a genuine failure: the inequalities are theorems for the
    generated inputs.  An unknown check name or ``instances < 1`` raises
    ValueError, so a run can never pass by checking nothing.
    """
    unknown = sorted(set(checks or ()) - set(CHECK_NAMES))
    if unknown:
        raise ValueError(
            f"unknown check {', '.join(map(repr, unknown))}; valid: {', '.join(CHECK_NAMES)}"
        )
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    reports = []
    for name, salt, draw, kernel in _RANDOMIZED_CHECKS:
        if not checks or name in checks:
            data, groups = draw(_rng(seed, salt), instances)
            results = [None] * instances
            for positions, args in groups:
                for j, result in zip(positions.tolist(), globals()[kernel](*args)):
                    results[j] = result
            reports.append(_summarize(name, results, data))
    return reports


def _summarize(name: str, results: list[CheckResult], data: bytes) -> SuiteReport:
    violations = sum(not r.holds for r in results)
    margins = [r.margin for r in results if not r.vacuous and math.isfinite(r.margin)]
    worst_r = min(
        (r for r in results if not r.vacuous), key=lambda r: r.margin, default=None
    )
    return SuiteReport(
        name,
        len(results),
        violations,
        min(margins) if margins else None,
        _digest(data),
        worst_r.to_json() if worst_r else None,
    )
