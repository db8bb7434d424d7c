"""Edge-weight distributions and reproducible sampling.

Sampling is counter-based: the weight of edge ``i`` under master seed ``s`` is
``F_inv(uniform53(mix64(s, i)))``, so fields are pure functions of
(seed, spec, region) and disjoint replicas can be drawn concurrently.

``mix64`` is stated bit-exactly so independent implementations agree:

    z = (a * 0xBF58476D1CE4E5B9 + b * 0x94D049BB133111EB
         + 0x9E3779B97F4A7C15)  mod 2^64
    z ^= z >> 30;  z = z * 0xBF58476D1CE4E5B9    mod 2^64
    z ^= z >> 27;  z = z * 0x94D049BB133111EB    mod 2^64
    z ^= z >> 31

(the finalizer is SplitMix64's.)  ``uniform53(z) = (z >> 11) * 2^-53``.

The counter ``i`` of an edge depends on the region, by one rule
(:func:`_edge_keys`).  A region with a wrapping axis (a Torus) uses the dense
edge index, itself a function of the torus coordinates.  An open region (a
Box) uses the edge's lattice coordinates, so every box that holds an edge
gives it the same weight, and a grown window is the old one plus new edges.
The edge from ``base`` up ``axis`` in Z^d has

    key(base, axis) = ((x_0 + h) * 2^(b(d-1)) + ... + (x_(d-1) + h)) * 2^a + axis

with ``a`` the bit length of d - 1, ``b = (64 - a) // d`` and ``h = 2^(b-1)``:
each shifted coordinate fills its own b-bit field, and the axis the low a
bits, so the key is injective on the bases with ``-h <= x_i < h``: h = 2^30
in d = 2, 2^19 in d = 3 and 2^14 in d = 4.  A coordinate outside that range
raises ``ValueError`` (:func:`edge_key`, :func:`sample_field`).

There is one sampling walk (:func:`sample_weights`).  It takes its counters
as premultiplied keys ``c * C2 mod 2^64`` (:func:`counter_keys`) and runs in
blocks of ``_BLOCK`` draws, so the hash scratch and the block's slice of the
output stay in cache.  A block adds the seed term to a slice of the keys, one
add per draw, and runs the finalizer in place.  It writes the uniforms
straight into its slice of the output, converting ``z >> 11`` through an
int64 view (exact below 2^53), and inverts them there.  Only a block that
holds a uniform 0 patches it (see :func:`sample_weights`).  Draw ``j``
depends only on ``(seed, key j)``, so the block size never shows in the
output.  Every caller passes keys: a field its region's keys, and
:mod:`fpplab.lpp` its grid's counters in anti-diagonal order.
Every ``inv_cdf_array`` must return exactly ``inv_cdf`` of each input, bit for
bit; the array form is only a faster way to the same numbers.  Given
``out``, it writes there, and ``out`` may be its input.

The two-point law (:class:`Bernoulli`) and the tabulated one
(:class:`TableCDF`) share one finite-atom implementation: each only states
its table of values and cumulative masses, from which every scalar of the law
(moments, support infimum, atom at zero, integer scale) is derived once.

Every law states its clipped moments (E min(s, x), E min(s, x)^2) at x >= 0,
x = inf included (:meth:`DistributionSpec.clipped_moments`); the second
moment is their value at inf.  A passage time as a function of one edge's
weight s is a + min(s, x), so these give its variance over that weight.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .lattice import Region, _edge_tables

_M64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_C3 = 0x9E3779B97F4A7C15
# the sampling walk's uint64 operands, built once: a Python int or a fresh
# np.uint64 costs up to 1 us of conversion in every ufunc call it is passed to
_U11, _U27, _U30, _U31, _U52 = (np.uint64(k) for k in (11, 27, 30, 31, 52))
_UC1, _UC2 = np.uint64(_C1), np.uint64(_C2)
_BITS_2P52 = np.uint64(0x4330000000000000)  # the bits of the double 2^52

# Bond percolation thresholds.  d=2 is exact; d=3,4 are accepted numerical
# values, so the atom-at-zero check is approximate there.
PC_BOND = {2: 0.5, 3: 0.2488126, 4: 0.1601314}


def mix64(a: int, b: int) -> int:
    z = (a * _C1 + b * _C2 + _C3) & _M64
    z ^= z >> 30
    z = (z * _C1) & _M64
    z ^= z >> 27
    z = (z * _C2) & _M64
    z ^= z >> 31
    return z


def counter_keys(counters: np.ndarray) -> np.ndarray:
    """Keys ``c * C2 mod 2^64`` of counters ``c``, for :func:`sample_weights`."""
    return np.multiply(counters, _UC2, dtype=np.uint64, casting="unsafe")


def _finalize64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The xorshift-multiply rounds of mix64, in place on z; tmp is scratch."""
    np.right_shift(z, _U30, out=tmp)
    z ^= tmp
    z *= _UC1
    np.right_shift(z, _U27, out=tmp)
    z ^= tmp
    z *= _UC2
    np.right_shift(z, _U31, out=tmp)
    z ^= tmp
    return z


def _key_bits(d: int) -> tuple[int, int, int]:
    """(a, b, h) of the edge key in dimension d; see the module docstring."""
    a = (d - 1).bit_length()
    b = (64 - a) // d
    return a, b, 1 << (b - 1)


def edge_key(base: Sequence[int], axis: int) -> int:
    """The counter of the Box edge from ``base`` one step up ``axis``."""
    a, b, h = _key_bits(len(base))
    if not 0 <= axis < len(base):
        raise ValueError(f"axis {axis} outside 0..{len(base) - 1}")
    key = 0
    for x in base:
        if not -h <= x < h:
            raise ValueError(f"coordinate {x} outside the key range [-{h}, {h})")
        key = (key << b) | (x + h)
    return (key << a) | axis


@lru_cache(maxsize=32)
def _edge_keys(region: Region) -> np.ndarray:
    """Premultiplied keys (:func:`counter_keys`) of every edge of a region, in
    edge-index order; built once per region.  The dense index on a region
    with a wrapping axis, :func:`edge_key` on an open one."""
    if any(region.periodic):
        counters = np.arange(region.n_edges(), dtype=np.uint64)
    else:
        a, b, h = _key_bits(region.d)
        top = [l + s - 1 for l, s in zip(region.lo, region.shape)]
        if min(region.lo) < -h or max(top) >= h:
            raise ValueError(f"{region} leaves the key range [-{h}, {h})")
        _, tails, axes, _ = _edge_tables(region)
        counters = axes.astype(np.uint64)
        for i, coord in enumerate(np.unravel_index(tails, region.shape)):
            shift = np.uint64(a + b * (region.d - 1 - i))
            counters |= (coord.astype(np.uint64) + np.uint64(region.lo[i] + h)) << shift
    keys = counter_keys(counters)
    keys.flags.writeable = False
    return keys


def uniform53(z: int) -> float:
    return (z >> 11) * 2.0**-53


class DistributionSpec:
    """An edge-weight law with evaluable CDF F and right-continuous inverse.

    All mass lies on [0, inf).  ``support_inf`` is I = inf{x : F(x) > 0}.
    """

    name: str = "base"

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def inv_cdf(self, y: float) -> float:
        """Right-continuous inverse F^{-1}(y) = inf{x : F(x) >= y}, 0 < y < 1."""
        raise NotImplementedError

    def inv_cdf_array(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """F^{-1} of each y, written into and returned as ``out`` when it is
        given; ``out`` may be y itself."""
        raise NotImplementedError

    def clipped_moments(self, x):
        """(E min(s, x), E min(s, x)^2) for s of this law, elementwise over
        x >= 0, which may be inf (where they are E s and E s^2)."""
        raise NotImplementedError

    def second_moment(self) -> float:
        return float(self.clipped_moments(np.inf)[1])

    def support_inf(self) -> float:
        raise NotImplementedError

    def atom_at_zero(self) -> float:
        return 0.0

    def int_scale(self) -> int | None:
        """Scale S with S*x integral for every atom x, for exact tie detection
        in shortest-path arithmetic; None if the law has no such scale."""
        return None

    def params(self) -> tuple:
        raise NotImplementedError

    def serialize(self) -> str:
        return f"{self.name}:" + ",".join(_fmt_num(p) for p in self.params())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.params() == other.params()

    def __hash__(self) -> int:
        return hash((self.name, self.params()))

    def __repr__(self) -> str:
        return self.serialize()


def _fmt_num(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


class _Atomic(DistributionSpec):
    """A law on finitely many atoms, from sorted values x_i and cumulative
    masses F(x_i), the last 1.  Subclasses call :meth:`_set_table` once."""

    def _set_table(self, xs: Sequence[float], Fs: Sequence[float]) -> None:
        self._xs_list, self._Fs_list = [float(x) for x in xs], [float(F) for F in Fs]
        self._xs = np.array(self._xs_list)
        # F(x_i) < y for the last breakpoint never holds, as y < 1
        self._inner = self._Fs_list[:-1]
        masses = self._masses = np.diff(self._Fs_list, prepend=0.0)
        self._atom_at_zero = float(masses[self._xs == 0.0].sum())
        self._atoms = [(float(x), float(m)) for x, m in zip(self._xs, masses) if m > 0]
        self._support_inf = self._atoms[0][0]
        self._int_scale = _common_denominator([x for x, _ in self._atoms])

    def cdf(self, x):
        i = bisect.bisect_right(self._xs_list, x)
        return self._Fs_list[i - 1] if i else 0.0

    def inv_cdf(self, y):
        _check_y(y)
        return self._xs_list[bisect.bisect_left(self._inner, y)]

    def inv_cdf_array(self, y, out=None):
        # x_i with i the count of inner breakpoints below y, as in inv_cdf;
        # on two atoms one comparison is about 3x faster than searchsorted.
        # i never leaves the table, so mode="clip" changes no index; it only
        # spares take the buffered copy that mode="raise" makes of ``out``
        inner = self._inner
        i = y > inner[0] if len(inner) == 1 else np.searchsorted(inner, y)
        return self._xs.take(i, out=out, mode="clip")

    def clipped_moments(self, x):
        clipped = np.minimum(np.asarray(x, dtype=np.float64)[..., None], self._xs)
        return clipped @ self._masses, (clipped * clipped) @ self._masses

    def support_inf(self):
        return self._support_inf

    def atom_at_zero(self):
        return self._atom_at_zero

    def atoms(self) -> list[tuple[float, float]]:
        """(value, mass) pairs of the atoms of positive mass."""
        return list(self._atoms)

    def int_scale(self):
        return self._int_scale


def _common_denominator(values: list[float]) -> int | None:
    """Least S <= 10^9 with S*x integral (to 1e-9) for every x, each x having
    a denominator of at most 10^6; None if there is none."""
    denom = 1
    for value in values:
        frac = Fraction(value).limit_denominator(10**6)
        if abs(float(frac) - value) > 1e-9 * max(1.0, abs(value)):
            return None
        denom = denom * frac.denominator // math.gcd(denom, frac.denominator)
        if denom > 10**9:
            return None
    return denom


@dataclass(eq=False, repr=False)
class Bernoulli(_Atomic):
    """Two-point law: P(a) = p, P(b) = 1 - p, with 0 <= a <= b."""

    a: float
    b: float
    p: float
    name = "bernoulli"

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if not (0 <= self.a <= self.b < math.inf):
            raise ValueError("need 0 <= a <= b < inf")
        self._set_table((self.a, self.b), (self.p, 1.0))

    def params(self):
        return (self.a, self.b, self.p)


@dataclass(eq=False, repr=False)
class Uniform(DistributionSpec):
    lo: float
    hi: float
    name = "uniform"

    def __post_init__(self):
        if not (0 <= self.lo < self.hi < math.inf):
            raise ValueError("need 0 <= lo < hi < inf")

    def cdf(self, x):
        if x < self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def inv_cdf(self, y):
        _check_y(y)
        return self.lo + y * (self.hi - self.lo)

    def inv_cdf_array(self, y, out=None):
        # lo + y * (hi - lo), as inv_cdf
        out = np.multiply(y, self.hi - self.lo, out=out)
        out += self.lo
        return out

    def clipped_moments(self, x):
        lo, hi = self.lo, self.hi
        # E s minus E(s - y)+ and E s^2 minus E(s^2 - y^2)+ with y = x on
        # the support; below it min(s, x) is x itself
        y = np.clip(x, lo, hi)
        gap = (hi - y) ** 2 / (hi - lo)
        m1 = (lo + hi) / 2 - gap / 2
        m2 = (hi**3 - lo**3) / (3.0 * (hi - lo)) - gap * (hi + 2 * y) / 3
        below, low = np.less(x, lo), np.minimum(x, lo)
        return np.where(below, low, m1), np.where(below, low * low, m2)

    def support_inf(self):
        return self.lo

    def params(self):
        return (self.lo, self.hi)


@dataclass(eq=False, repr=False)
class Exponential(DistributionSpec):
    rate: float
    name = "exponential"

    def __post_init__(self):
        if not (0 < self.rate < math.inf):
            raise ValueError("rate must be positive and finite")

    def cdf(self, x):
        return 0.0 if x < 0 else -math.expm1(-self.rate * x)

    def inv_cdf(self, y):
        _check_y(y)
        # numpy's log1p, not math.log1p: the two differ by an ulp on some
        # inputs, and inv_cdf_array must return these very numbers
        return float(-np.log1p(-y) / self.rate)

    def inv_cdf_array(self, y, out=None):
        # -log1p(-y) / rate, as inv_cdf: a division rounds symmetrically in
        # sign, so dividing by -rate gives the same bits
        out = np.negative(y, out=out)
        np.log1p(out, out=out)
        np.divide(out, -self.rate, out=out)
        return out

    def clipped_moments(self, x):
        # E min(s, x) = (1 - e^-z) / rate and E min(s, x)^2 = 2 (1 - e^-z
        # (1 + z)) / rate^2 with z = rate x; past z = 800, e^-z and z e^-z
        # are 0 in binary64, as at x = inf
        z = np.minimum(np.multiply(self.rate, x), 800.0)
        head = -np.expm1(-z)
        return head / self.rate, 2.0 / self.rate**2 * (head - z * np.exp(-z))

    def support_inf(self):
        return 0.0

    def params(self):
        return (self.rate,)


@dataclass(eq=False, repr=False)
class Geometric(DistributionSpec):
    """P(k) = (1-q) q^k on {0, 1, 2, ...}; mean q/(1-q) (q=1/2 gives mean 1)."""

    q: float
    name = "geometric"

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")

    def cdf(self, x):
        if x < 0:
            return 0.0
        k = math.floor(x)
        return 1.0 - self.q ** (k + 1)

    def inv_cdf(self, y):
        _check_y(y)
        k = max(0, math.ceil(math.log1p(-y) / math.log(self.q)) - 1)
        # float guard: enforce F(k-1) < y <= F(k)
        while k > 0 and 1.0 - self.q**k >= y:
            k -= 1
        while 1.0 - self.q ** (k + 1) < y:
            k += 1
        return float(k)

    def inv_cdf_array(self, y, out=None):
        if self.q == 0.5:
            # k = max(0, -e) with s = 1 - y = m * 2^e, 1/2 <= m < 1.
            # * F^(k) = 1 - 2^-(k+1) is exact in binary64 for k <= 52, and
            #   inv_cdf answers the least k >= 0 with y <= F^(k).
            # * For y >= 1/2, 1 - y is exact (Sterbenz), so y <= F^(k) iff
            #   s >= 2^-(k+1) iff e - 1 >= -(k+1) iff k >= -e; y < 1 gives
            #   s >= 2^-53, so -e <= 52.
            # * For y < 1/2 the answer is 0, and s rounds into [1/2, 1], so
            #   e is 0 or 1.
            # s lies in [2^-53, 1] and is normal, so -e = 1022 - E with E its
            # biased exponent, the bits above the 52-bit mantissa.  E ORed
            # into the bits of 2^52 reads as the double 2^52 + E, and
            # (2^52 + 1022) - (2^52 + E) is exact; at E = 1022 it is +0.0,
            # so no -0.0 reaches the output.  s = 1 (y = 0, or y <= 2^-54,
            # where 1 - y rounds to 1) has E = 1023, and the clamp gives 0.
            s = np.subtract(1.0, y, out=out)
            bits = s.view(np.uint64)
            bits >>= _U52
            bits |= _BITS_2P52
            np.subtract(2.0**52 + 1022, s, out=s)
            np.maximum(s, 0.0, out=s)
            return s
        # In real arithmetic k = ceil(r) - 1 with r = log(1-y)/log(q); inv_cdf
        # instead answers F^(k-1) < y <= F^(k), F^(k) being the float
        # 1 - q**(k+1).  Let s = 1 - y >= 2^-53 and r^ = log1p(-y) / log(q)
        # as computed.
        # * r^: numpy's log1p errs by at most 4 ulps (its SVML AVX-512 loops;
        #   glibc: 1-2); allow 8, i.e. 2^-49 relative.  log(q) adds 2^-52 and
        #   the division 2^-53, so |r^ - r| <= 2^-48 r <= 2^-47 r^.
        # * F^: pow errs by under 1 ulp (2^-52 relative) and 1 - pow rounds by
        #   at most 2^-54, so the test y <= F^(j-1) agrees with s >= q^j, that
        #   is with r <= j, whenever |r - j| > (2^-51 + 2^-53/s) / |log q|.
        # Capping r^ at the integer R = floor(16/|log q|) makes every draw with
        # r^ >= R count as near an integer.  Any other has r^ < 16/|log q|, so
        # s > e^-16.0001 > 2^-24, and the two terms sum to less than
        # (2^-43 + 2^-51 + 2^-29)/|log q| < 2^-28/|log q| = B.  Where r^ lies
        # farther than B from every integer, floor(r^) = ceil(r^) - 1 is thus
        # the scalar answer; the rest, about one draw in 10^7 at q = 1/2, take
        # the scalar walk.  This assumes F^ is nondecreasing in k, which holds
        # while 1 - q is far above 2^-52.  (For q < e^-16, R = 0 and every draw
        # takes the scalar walk.)
        log_q = math.log(self.q)
        r = np.log1p(-y)
        r /= log_q
        np.minimum(r, math.floor(16.0 / -log_q), out=r)
        k = np.floor(r)
        r -= k
        r -= 0.5
        # 1/2 - distance from r^ to the nearest integer; exact for r^ >= 1 and
        # within 2^-54 below, far inside the slack left in B
        np.abs(r, out=r)
        near = np.flatnonzero(r >= 0.5 - 2.0**-28 / -log_q)
        k[near] = [self.inv_cdf(float(v)) for v in y[near]]
        if out is None:
            return k
        out[...] = k
        return out

    def clipped_moments(self, x):
        # E min(s, x)^k = sum_(j < m) P(s > j) ((j+1)^k - j^k) + P(s > m)
        # (x^k - m^k) with m = floor(x) and P(s > j) = q^(j+1); the sums are
        # E s^k less their tails from m on, each a multiple of q^m, which is
        # 0 in binary64 past m = 800 / |log q|, as at x = inf
        q = self.q
        r = q / (1 - q)
        x = np.minimum(x, 1 + 800 / -math.log(q))
        m = np.floor(x)
        qm = q**m
        m1 = r * (1 - qm) + (x - m) * q * qm
        m2 = q * (1 + q) / (1 - q) ** 2 * (1 - qm) - 2 * m * r * qm + (x * x - m * m) * q * qm
        return m1, m2

    def support_inf(self):
        return 0.0

    def atom_at_zero(self):
        return 1.0 - self.q

    def int_scale(self):
        return 1

    def params(self):
        return (self.q,)


@dataclass(eq=False, repr=False)
class TableCDF(_Atomic):
    """Discrete law from sorted (x_i, F(x_i)) breakpoints; F right-continuous."""

    table: tuple[tuple[float, float], ...]
    name = "table"

    def __post_init__(self):
        tab = tuple((float(x), float(F)) for x, F in self.table)
        if not tab:
            raise ValueError("empty table")
        xs = [x for x, _ in tab]
        Fs = [F for _, F in tab]
        if not all(0 <= x < math.inf for x in xs):
            raise ValueError("support must lie in [0, inf)")
        if not all(a < b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not (all(a <= b for a, b in zip(Fs, Fs[1:])) and Fs[-1] == 1.0 and Fs[0] > 0.0):
            raise ValueError("F values must be nondecreasing, end at 1, start > 0")
        self.table = tab
        self._set_table(xs, Fs)

    @classmethod
    def point_mass(cls, value: float) -> "TableCDF":
        return cls(((value, 1.0),))

    def params(self):
        return tuple(v for pair in self.table for v in pair)


def _check_y(y: float) -> None:
    if not (0.0 < y < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {y}")


# name -> (parameter count, constructor)
_SPEC_PARSERS = {
    "bernoulli": (3, Bernoulli),
    "uniform": (2, Uniform),
    "exponential": (1, Exponential),
    "geometric": (1, Geometric),
    "point": (1, TableCDF.point_mass),
}


def parse_spec(text: str) -> DistributionSpec:
    """Parse the ``name:param,param,...`` distribution mini-grammar."""
    name, _, rest = text.strip().partition(":")
    name = name.strip().lower()
    params = [float(tok) for tok in rest.split(",") if tok.strip()] if rest else []
    if name == "table":
        if len(params) % 2 != 0 or not params:
            raise ValueError("table spec needs x,F pairs")
        pairs = tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))
        return TableCDF(pairs)
    if name not in _SPEC_PARSERS:
        raise ValueError(f"unknown distribution {name!r}")
    count, make = _SPEC_PARSERS[name]
    if len(params) != count:
        raise ValueError(
            f"wrong parameter count for {name!r}: expected {count}, got {len(params)}"
        )
    return make(*params)


def validate_for_fpp(spec: DistributionSpec, d: int) -> None:
    """Reject specs whose atom at 0 reaches the percolation threshold p_c(d)."""
    if d not in PC_BOND:
        raise ValueError(f"no percolation threshold tabulated for d={d}")
    mass = spec.atom_at_zero()
    if mass >= PC_BOND[d]:
        raise ValueError(
            f"atom at zero has mass {mass} >= p_c({d}) = {PC_BOND[d]}; "
            "passage times would degenerate"
        )


@dataclass
class WeightField:
    """An i.i.d. edge-weight configuration on a region, with seed provenance.

    ``weights[i]`` is the weight of ``region.edge_from_index(i)``.  Fields
    produced by :func:`sample_field` are bit-exact functions of
    (seed, spec, region); on a Box each weight depends on (seed, spec, edge)
    alone, so the field on a larger box extends this one.  Hand-built fields
    may pass spec None.
    """

    region: Region
    weights: np.ndarray
    seed: int
    spec: "DistributionSpec | None"

    def __post_init__(self):
        if len(self.weights) != self.region.n_edges():
            raise ValueError("weight array length != region edge count")
        if not np.all(self.weights >= 0):
            raise ValueError("negative or NaN edge weight")

    def with_weight(self, edge_idx: int, value: float) -> "WeightField":
        w = self.weights.copy()
        w[edge_idx] = value
        return WeightField(self.region, w, self.seed, self.spec)


def sample_field(spec: DistributionSpec, region: Region, seed: int) -> WeightField:
    """Draw an i.i.d. field; edge e's weight comes from mix64(seed, counter of e).

    On an open region (a Box) the counter is :func:`edge_key` of the edge's
    lattice coordinates, so boxes that share an edge give it the same weight;
    on a region with a wrapping axis (a Torus) it is the dense edge index.
    Any law is drawn; a sweep rejects one that :func:`validate_for_fpp` does
    when its config is built.
    """
    return WeightField(region, sample_weights(spec, seed, _edge_keys(region)), seed, spec)


# Draws per block: 2^15 draws keep the 256 KiB hash and scratch arrays and
# the block's 256 KiB slice of the output in L2 cache, in half the ufunc calls
# of 2^14 (ROADMAP, negative results: sampler block size).
_BLOCK = 1 << 15


def sample_weights(spec: DistributionSpec, seed: int, keys: np.ndarray) -> np.ndarray:
    """One i.i.d. float64 draw from spec per key; draw i inverts the uniform
    from mix64(seed, c), c the counter behind ``keys[i]`` (:func:`counter_keys`).
    """
    out = np.empty(keys.size)
    m = min(keys.size, _BLOCK)
    z, tmp = np.empty(m, np.uint64), np.empty(m, np.uint64)
    seed_term = np.uint64((seed * _C1 + _C3) & _M64)
    for start in range(0, keys.size, _BLOCK):
        size = min(_BLOCK, keys.size - start)
        zb, ub = z[:size], out[start : start + size]
        # a*C1 + c*C2 + C3  mod 2^64
        np.add(keys[start : start + size], seed_term, out=zb)
        _finalize64(zb, tmp[:size])
        zb >>= _U11
        # below 2^53 the int64 view converts exactly, and faster than uint64
        np.multiply(zb.view(np.int64), 2.0**-53, out=ub)
        if ub.min() > 0.0:
            spec.inv_cdf_array(ub, out=ub)
            continue
        # u = 0 has probability 2^-53 per draw; F^{-1}(0) is the support infimum
        zero = np.flatnonzero(ub == 0.0)
        ub[zero] = 2.0**-53
        spec.inv_cdf_array(ub, out=ub)
        ub[zero] = spec.support_inf()
    return out
