import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.lattice import Box, Torus, enumerate_edges, point_window
from fpplab.weights import (
    Bernoulli,
    Exponential,
    Geometric,
    TableCDF,
    Uniform,
    WeightField,
    counter_keys,
    edge_key,
    mix64,
    parse_spec,
    sample_field,
    sample_weights,
    uniform53,
    validate_for_fpp,
)

def dense_keys(count):
    """Keys of the counters 0, 1, ..., count - 1: the draws a field with a
    dense edge index (a Torus) makes."""
    return counter_keys(np.arange(count, dtype=np.uint64))


ALL_SPECS = [
    Bernoulli(1.0, 2.0, 0.5),
    Uniform(0.0, 1.0),
    Exponential(1.0),
    Geometric(0.5),
    TableCDF(((0.5, 0.25), (1.0, 0.75), (2.5, 1.0))),
]


class TestInverseCdf:
    def test_bernoulli_lower_atom(self):
        assert Bernoulli(1, 2, 0.5).inv_cdf(0.3) == 1

    def test_uniform_identity(self):
        assert Uniform(0, 1).inv_cdf(0.7) == pytest.approx(0.7, abs=0)

    def test_exponential_closed_form(self):
        # independent check: numeric root-find of F against the closed form
        spec = Exponential(1.0)
        y = 1 - math.exp(-2.0)
        x = spec.inv_cdf(y)
        assert x == pytest.approx(2.0, abs=1e-12)
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if spec.cdf(mid) >= y:
                hi = mid
            else:
                lo = mid
        assert x == pytest.approx(hi, abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                Uniform(0, 1).inv_cdf(bad)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_right_continuous_inverse(self, spec):
        # F^{-1}(y) = inf{x : F(x) >= y} pointwise on a y grid
        for y in np.linspace(0.01, 0.99, 33):
            x = spec.inv_cdf(float(y))
            assert spec.cdf(x) >= y - 1e-12
            assert spec.cdf(x - 1e-9) < y + 1e-12 or x == spec.support_inf()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_ks_distance(self, spec):
        u = sample_weights(Uniform(0, 1), 99, dense_keys(10**5))
        u = u[u > 0]
        x = np.sort(spec.inv_cdf_array(u))
        n = x.size
        vals = np.unique(x)
        F = np.array([spec.cdf(float(v)) for v in vals])
        F_left = np.array([spec.cdf(float(v) - 1e-9) for v in vals])
        emp = np.searchsorted(x, vals, side="right") / n
        emp_left = np.searchsorted(x, vals, side="left") / n
        ks = max(np.max(np.abs(emp - F)), np.max(np.abs(emp_left - F_left)))
        assert ks < 0.01

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_array_matches_scalar(self, spec):
        # a stream, plus the 2000 smallest and largest uniform53 values
        tail = np.arange(1, 2001) * 2.0**-53
        stream = sample_weights(Uniform(0, 1), 5, dense_keys(4000))
        u = np.concatenate([np.maximum(stream, 2.0**-53), tail, 1.0 - tail])
        vec = spec.inv_cdf_array(u)
        scal = np.array([spec.inv_cdf(float(v)) for v in u])
        assert np.array_equal(vec, scal)

    @pytest.mark.parametrize("spec", [*ALL_SPECS, Geometric(0.3)], ids=repr)
    def test_writes_into_out(self, spec):
        # the sampler inverts each block in place, so out, y itself included,
        # must hold the very bytes of a fresh result
        tail = np.arange(1, 2001) * 2.0**-53
        stream = sample_weights(Uniform(0, 1), 5, dense_keys(4000))
        y = np.concatenate([np.maximum(stream, 2.0**-53), tail, 1.0 - tail])
        want = spec.inv_cdf_array(y).tobytes()
        buf = np.empty_like(y)
        assert spec.inv_cdf_array(y, out=buf) is buf
        assert buf.tobytes() == want
        same = y.copy()
        assert spec.inv_cdf_array(same, out=same) is same
        assert same.tobytes() == want

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    def test_geometric_matches_scalar_at_breakpoints(self, q):
        # every breakpoint F(k) = 1 - q**(k+1) below 1.0, and 4 ulps each
        # side: where the array inverse is most likely to round off by one
        spec = Geometric(q)
        ys = set()
        k = 0
        while (b := 1.0 - q ** (k + 1)) < 1.0:
            lo = hi = b
            ys.add(b)
            for _ in range(4):
                lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
                ys.update((float(lo), float(hi)))
            k += 1
        y = np.array(sorted(v for v in ys if 0.0 < v < 1.0))
        vec = spec.inv_cdf_array(y)
        scal = np.array([spec.inv_cdf(float(v)) for v in y])
        assert np.array_equal(vec, scal), y[vec != scal][:5]
        # F(k-1) < y <= F(k) in the scalar pow that defines F
        assert all(spec.cdf(k - 1) < v <= spec.cdf(k) for k, v in zip(vec, y))


def _ulps_from(x, steps):
    """The float ``steps`` ulps above x (below, for negative steps)."""
    to = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        x = math.nextafter(x, to)
    return x


@given(
    st.lists(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            # 1 - y rounds to 1.0 here, and only the clamp at 0 holds
            st.floats(0.0, 2.0**-53, exclude_min=True, exclude_max=True),
            st.integers(-6, 6).map(lambda j: _ulps_from(0.5, j)),
            st.integers(1, 6).map(lambda j: _ulps_from(1.0, -j)),
        ),
        min_size=1,
        max_size=32,
    )
)
@settings(max_examples=300, deadline=None)
def test_geometric_half_matches_scalar(ys):
    # q = 1/2 reads k off the float exponent of 1 - y; it must still be the
    # scalar inverse bit for bit, with no -0.0
    spec = Geometric(0.5)
    y = np.array(ys)
    vec = spec.inv_cdf_array(y)
    scal = np.array([spec.inv_cdf(v) for v in ys])
    assert vec.dtype == np.float64
    assert vec.tobytes() == scal.tobytes(), y[vec != scal]


class TestSampling:
    def test_determinism(self):
        region = point_window(4, 2, 2)
        f1 = sample_field(Uniform(0, 1), region, seed=42)
        f2 = sample_field(Uniform(0, 1), region, seed=42)
        assert np.array_equal(f1.weights, f2.weights)
        f3 = sample_field(Uniform(0, 1), region, seed=43)
        assert not np.array_equal(f1.weights, f3.weights)

    def test_uniform_mean_clt(self):
        u = sample_weights(Uniform(0, 1), 7, dense_keys(10**6))
        assert abs(u.mean() - 0.5) < 0.002  # 4 sigma of 1/sqrt(12 n)

    def test_bernoulli_fraction_clt(self):
        region = Torus(100, 2)  # 2 * 10^4 edges per field; tile to 10^6
        vals = []
        for s in range(50):
            vals.append(sample_field(Bernoulli(1, 2, 0.5), region, seed=s).weights)
        w = np.concatenate(vals)
        assert w.size == 10**6
        frac = np.mean(w == 1.0)
        assert abs(frac - 0.5) < 0.002

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            sample_field(Bernoulli(0.0, 1.0, 0.6), Torus(3, 2), seed=0)
        validate_for_fpp(Bernoulli(0.0, 1.0, 0.4), 2)
        with pytest.raises(ValueError):
            validate_for_fpp(Bernoulli(0.0, 1.0, 0.3), 3)

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    def test_field_rejects_negative_or_nan(self, bad):
        region = Torus(3, 2)
        weights = np.ones(region.n_edges())
        weights[4] = bad
        with pytest.raises(ValueError, match="negative or NaN"):
            WeightField(region, weights, 0, None)

    def test_mix64_reference_values(self):
        # pinned vectors: the docstring states the algorithm bit-exactly, so
        # any drift in constants or steps must fail here
        assert mix64(0, 0) == 0xE220A8397B1DCDAF
        assert mix64(1, 2) == 0x26E9B9B126B89ADA
        assert mix64(123456789, 987654321) == 0x82D82D944A064C92
        assert mix64(1, 2) != mix64(2, 1)


def _key_fields(d):
    """(a, b) of the edge key as the weights docstring states them."""
    a = (d - 1).bit_length()
    return a, (64 - a) // d


class TestEdgeKey:
    def test_reference_values(self):
        # pinned like the mix64 vectors: Box fields hang on these counters
        assert edge_key((0, 0), 0) == 0x4000000080000000
        assert edge_key((0, 0), 1) == 0x4000000080000001
        assert edge_key((-3, 5), 1) == 0x3FFFFFFD8000000B
        assert edge_key((-(2**30), 2**30 - 1), 0) == 0xFFFFFFFE
        assert edge_key((1, 2, 3), 2) == 0x2000060000A0000E
        assert edge_key((-1,), 0) == 2**63 - 1

    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_decodes_over_the_whole_range(self, data, d):
        # reading the fields back recovers (base, axis), so the key is injective
        a, b = _key_fields(d)
        h = 2 ** (b - 1)
        base = tuple(data.draw(st.integers(-h, h - 1)) for _ in range(d))
        axis = data.draw(st.integers(0, d - 1))
        key = edge_key(base, axis)
        assert 0 <= key < 2**64
        assert key % 2**a == axis
        site = key >> a
        got = []
        for _ in range(d):
            got.append(site % 2**b - h)
            site >>= b
        assert tuple(reversed(got)) == base

    def test_injective_on_a_full_small_box(self):
        box = Box((-4, -4), (4, 4))
        keys = [edge_key(e.base, e.axis) for e in enumerate_edges(box)]
        assert len(set(keys)) == len(keys) == box.n_edges()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_outside_the_range_raises(self, d):
        h = 2 ** (_key_fields(d)[1] - 1)
        edge_key((h - 1,) * d, d - 1)
        edge_key((-h,) * d, 0)
        for x in (h, -h - 1):
            with pytest.raises(ValueError, match="key range"):
                edge_key((0,) * (d - 1) + (x,), 0)
        with pytest.raises(ValueError):
            edge_key((0,) * d, d)
        with pytest.raises(ValueError, match="key range"):
            sample_field(Uniform(0, 1), Box((h - 1,) * d, (h,) * d), 0, for_fpp=False)

    def test_box_field_draws_from_the_keys(self):
        box = point_window(3, 2, 2)
        field = sample_field(Uniform(0, 1), box, 5)
        counters = [edge_key(e.base, e.axis) for e in enumerate_edges(box)]
        assert list(field.weights) == [uniform53(mix64(5, c)) for c in counters]
        keyed = counter_keys(np.array(counters, dtype=np.uint64))
        assert np.array_equal(field.weights, sample_weights(Uniform(0, 1), 5, keyed))

    def test_torus_field_keeps_the_dense_index(self):
        field = sample_field(Uniform(0, 1), Torus(4, 2), 5)
        dense = sample_weights(Uniform(0, 1), 5, dense_keys(field.region.n_edges()))
        assert np.array_equal(field.weights, dense)


# more than one sampling block, the last one partial: one full block and a
# partial one at 2^15 draws a block, three and a partial one at 2^14
_STREAM_COUNT = 3 * 2**14 + 7
_STREAM_SEED = 20180101
# sha256 of sample_weights(spec, _STREAM_SEED, dense_keys(count)).tobytes(),
# recorded from the unblocked sampler; the bytes of every field hang on these
_STREAM_DIGESTS = {
    ("bernoulli", 1): "3f710ac088db33363087de2b9a657541fe5447821debaa9fe5cbd538eb1a5f29",
    ("bernoulli", _STREAM_COUNT): "584cb51038f43508d7ed9d60f0e31632572055a4336ee200f44c333e0d06a938",
    ("uniform", 1): "e38560fbe38fe11bd07db5d2e7d1b6cb19d5b00bf15291ff7cbcf0f17122f521",
    ("uniform", _STREAM_COUNT): "1cbfea3c80c62819ce773f0910e14095c4d4bda94b356ddd08e0c0837ad63f65",
    ("exponential", 1): "2a49c1f30234315491b51e1616907b30962c59f2ba968d4ddd2659ce5f961672",
    ("exponential", _STREAM_COUNT): "fae299fc321718572d22307aa5af08d62a97c025d6069e7e5527fd16a57ee083",
    ("geometric", 1): "f52df18731eea8d020801fe2c6b3164648d9d81256a6c37964533a25999961d3",
    ("geometric", _STREAM_COUNT): "1326ca59b6f91837b0a88e177ef121f774ec54d75fde37a4e96d1e342d889478",
    ("table", 1): "5caaabe50da77f59f448b3edf650d68fbca7b858390664c251c52b3f458a881c",
    ("table", _STREAM_COUNT): "3ed3422b610d0e0ef42c4b4b3515ae4ae0c017f14991abf12dc30bc91a983453",
}


# mix64(_ZERO_SEED, 0) == 0, so counter 0 draws the uniform 0 exactly
_ZERO_SEED = 0x31355EC292F2C8C3


class TestStream:
    SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]
    # both sides of each block edge, and the ends of the counter range
    COUNTERS = [0, 1, 2**14 - 1, 2**14, 2**15 - 1, 2**15, 3 * 2**14 - 1, 3 * 2**14,
                _STREAM_COUNT - 1, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("a", SEEDS)
    def test_keyed_walk_matches_scalar(self, a):
        keys = counter_keys(np.array(self.COUNTERS, dtype=np.uint64))
        w = sample_weights(Uniform(0, 1), a, keys)
        assert list(w) == [uniform53(mix64(a, c)) for c in self.COUNTERS]

    @pytest.mark.parametrize("a", SEEDS)
    def test_uniforms_match_scalar_across_blocks(self, a):
        u = sample_weights(Uniform(0, 1), a, dense_keys(_STREAM_COUNT))
        idx = [i for i in self.COUNTERS if i < _STREAM_COUNT]
        assert [float(u[i]) for i in idx] == [uniform53(mix64(a, i)) for i in idx]

    def test_the_zero_seed_draws_zero(self):
        assert mix64(_ZERO_SEED, 0) == 0

    # geometric:0.3 sends y = 0 to its scalar walk, which raises on it
    @pytest.mark.parametrize("spec", [*ALL_SPECS, Geometric(0.3)], ids=repr)
    def test_a_zero_uniform_draws_the_support_infimum(self, spec):
        w = sample_weights(spec, _ZERO_SEED, counter_keys(np.array([0, 1, 2], dtype=np.uint64)))
        assert w[0] == spec.support_inf()
        assert list(w[1:]) == [spec.inv_cdf(uniform53(mix64(_ZERO_SEED, c))) for c in (1, 2)]

    def test_a_zero_uniform_in_a_later_block(self, monkeypatch):
        # counter 0 at offset 3 of the second of three blocks, the last one
        # partial: the patch is block-relative (geometric:0.3 raises on an
        # unpatched 0)
        monkeypatch.setattr("fpplab.weights._BLOCK", 8)
        counters = np.arange(1, 21, dtype=np.uint64)
        counters[11] = 0
        spec = Geometric(0.3)
        w = sample_weights(spec, _ZERO_SEED, counter_keys(counters))
        assert list(w) == [
            spec.inv_cdf(uniform53(mix64(_ZERO_SEED, int(c)))) if c else 0.0 for c in counters
        ]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("count", [0, 1, _STREAM_COUNT])
    def test_golden_weight_stream(self, spec, count):
        w = sample_weights(spec, _STREAM_SEED, dense_keys(count))
        assert w.dtype == np.float64 and w.shape == (count,)
        digest = hashlib.sha256(w.tobytes()).hexdigest()
        empty = hashlib.sha256(b"").hexdigest()  # count 0
        assert digest == _STREAM_DIGESTS.get((spec.name, count), empty)


class TestLogCdfWeight:
    # w = 1 - log F(t), the weight criterion 10 computes, has P(w >= r) <= e^{1-r}
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_exponential_tail_bound(self, spec):
        n = 10**5
        u = np.maximum(sample_weights(Uniform(0, 1), 3, dense_keys(n)), 2.0**-53)
        t = spec.inv_cdf_array(u)
        F = np.array([spec.cdf(float(v)) for v in np.atleast_1d(t)])
        w = 1.0 - np.log(F)
        for r in range(2, 9):
            bound = math.exp(1 - r)
            sigma = math.sqrt(bound * (1 - bound) / n)
            assert np.mean(w >= r) <= bound + 4 * sigma


class TestParsing:
    def test_round_trip(self):
        for spec in ALL_SPECS:
            assert parse_spec(spec.serialize()) == spec

    def test_grammar(self):
        s = parse_spec("bernoulli:1,2,0.5")
        assert s == Bernoulli(1, 2, 0.5)
        assert parse_spec("point:1").atoms() == [(1.0, 1.0)]

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_spec("cauchy:0,1")

    @pytest.mark.parametrize(
        "text",
        ["uniform:0,1,7", "uniform:0", "bernoulli:1,2,0.5,9", "bernoulli:1,2", "point:1,2",
         "exponential:1,2", "exponential", "geometric:0.5,0.5"],
    )
    def test_wrong_parameter_count(self, text):
        with pytest.raises(ValueError, match="wrong parameter count"):
            parse_spec(text)

    @pytest.mark.parametrize(
        "text",
        ["exponential:inf", "exponential:nan", "uniform:0,nan", "uniform:nan,1", "uniform:0,inf",
         "bernoulli:0,nan,0.5", "bernoulli:nan,1,0.5", "bernoulli:0,inf,0.5", "bernoulli:0,1,nan",
         "table:nan,1", "table:inf,1", "table:0,nan", "table:0,nan,1,1", "point:inf", "point:nan",
         "geometric:nan"],
    )
    def test_non_finite_parameter(self, text):
        with pytest.raises(ValueError):
            parse_spec(text)


MOMENT_SPECS = [
    *ALL_SPECS,
    Bernoulli(0.0, 1.0, 0.3),
    Uniform(0.3, 1.7),
    Exponential(2.5),
    Geometric(0.7),
    Geometric(0.1),
]


def brute_clipped_moments(spec, x):
    """(E min(s, x), E min(s, x)^2) by brute force: a sum over the atoms, a
    series over k < 5000 for Geometric, and otherwise quadrature of
    E min(s, x)^j = integral over 0 < t < x of j t^(j-1) P(s > t)."""
    from scipy.integrate import quad

    if isinstance(spec, Geometric):
        k = np.arange(5000.0)
        vals, probs = np.minimum(k, x), (1 - spec.q) * spec.q**k
        return math.fsum(probs * vals), math.fsum(probs * vals**2)
    if hasattr(spec, "atoms"):
        vals, probs = map(np.array, zip(*spec.atoms()))
        vals = np.minimum(vals, x)
        return math.fsum(probs * vals), math.fsum(probs * vals**2)
    if isinstance(spec, Uniform):
        top, points = min(x, spec.hi), [spec.lo] if spec.lo < min(x, spec.hi) else None
    else:
        top, points = x, None
    return tuple(
        quad(lambda t: j * t ** (j - 1) * (1.0 - spec.cdf(t)), 0.0, top, points=points,
             epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for j in (1, 2)
    )


def moment_points(spec):
    """x = 0, two points inside the support, one past it (far in the tail
    of an unbounded law) and inf."""
    if isinstance(spec, Exponential):
        past = 60.0 / spec.rate
    elif isinstance(spec, Geometric):
        past = 200.0
    else:
        past = spec.inv_cdf(1 - 2.0**-53) + 1.0
    return [0.0, spec.inv_cdf(0.3) + 0.25, spec.inv_cdf(0.8) + 0.125, past, math.inf]


class TestClippedMoments:
    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=repr)
    def test_matches_brute_force(self, spec):
        for x in moment_points(spec):
            got = tuple(map(float, spec.clipped_moments(x)))
            assert got == pytest.approx(brute_clipped_moments(spec, x), rel=1e-12, abs=1e-14), x

    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=repr)
    def test_elementwise_over_arrays(self, spec):
        xs = np.array(moment_points(spec) * 2).reshape(2, -1)
        m1, m2 = spec.clipped_moments(xs)
        assert m1.shape == m2.shape == xs.shape
        for x, a, b in zip(xs.ravel(), m1.ravel(), m2.ravel()):
            assert (a, b) == tuple(spec.clipped_moments(x)), x

    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=repr)
    def test_second_moment_is_the_old_closed_form(self, spec):
        # the closed forms each law stated before the clipped moments
        if isinstance(spec, Uniform):
            old = (spec.hi**3 - spec.lo**3) / (3.0 * (spec.hi - spec.lo))
        elif isinstance(spec, Exponential):
            old = 2.0 / spec.rate**2
        elif isinstance(spec, Geometric):
            old = spec.q * (1 + spec.q) / (1 - spec.q) ** 2
        else:
            old = float(np.sum(np.array([x * x * m for x, m in spec.atoms()])))
        assert isinstance(spec.second_moment(), float)
        assert spec.second_moment() == pytest.approx(old, rel=2.0**-52, abs=0)


class TestIntScale:
    def test_integer_atoms(self):
        assert Bernoulli(1, 2, 0.5).int_scale() == 1
        assert Geometric(0.5).int_scale() == 1

    def test_rational_atoms(self):
        assert TableCDF(((0.5, 0.5), (1.5, 1.0))).int_scale() == 2
        assert Bernoulli(0.1, 0.3, 0.5).int_scale() == 10

    def test_continuous_none(self):
        assert Uniform(0, 1).int_scale() is None
        assert Exponential(2.0).int_scale() is None


class _TwoPointReference:
    """The two-point law's formulas as written out before it became a table."""

    def __init__(self, a, b, p):
        self.a, self.b, self.p = a, b, p

    def cdf(self, x):
        return 0.0 if x < self.a else self.p if x < self.b else 1.0

    def inv_cdf(self, y):
        return self.a if y <= self.p else self.b

    def inv_cdf_array(self, y):
        return np.where(y <= self.p, self.a, self.b)

    def atoms(self):
        if self.p == 0:
            return [(self.b, 1.0)]
        if self.p == 1:
            return [(self.a, 1.0)]
        return [(self.a, self.p), (self.b, 1.0 - self.p)]

    def support_inf(self):
        return self.a if self.p > 0 else self.b

    def atom_at_zero(self):
        return (self.p if self.a == 0 else 0.0) + (1 - self.p if self.b == 0 else 0.0)

    def int_scale(self):
        denom = 1
        for value, _ in self.atoms():
            frac = Fraction(value).limit_denominator(10**6)
            if abs(float(frac) - value) > 1e-9 * max(1.0, abs(value)):
                return None
            denom = denom * frac.denominator // math.gcd(denom, frac.denominator)
        return denom

    def second_moment(self):
        return self.p * self.a**2 + (1 - self.p) * self.b**2

    def clipped_moments(self, x):
        lo, hi = min(self.a, x), min(self.b, x)
        return self.p * lo + (1 - self.p) * hi, self.p * lo**2 + (1 - self.p) * hi**2


class TestTwoPointLaw:
    LAWS = [(a, b, p) for a, b in [(1.0, 2.0), (0.1, 0.3), (1.5, 1.5), (0.0, 1.0), (0.0, 0.0)]
            for p in (0.0, 0.3, 1.0)]

    @pytest.mark.parametrize("a, b, p", LAWS)
    def test_matches_the_two_point_formulas(self, a, b, p):
        law, ref = Bernoulli(a, b, p), _TwoPointReference(a, b, p)
        ys = [p, np.nextafter(p, -1.0), np.nextafter(p, 2.0), 2.0**-53, 1 - 2.0**-53]
        for y in ys:
            if 0 < y < 1:
                assert law.inv_cdf(float(y)) == ref.inv_cdf(y)
        y = np.array(ys)
        assert np.array_equal(law.inv_cdf_array(y), ref.inv_cdf_array(y))
        for x in (-1.0, 0.0, a, b, np.nextafter(a, -1.0), np.nextafter(b, -1.0), 0.5 * (a + b), b + 1):
            assert law.cdf(x) == ref.cdf(x)
        assert law.atoms() == ref.atoms()
        for method in ("support_inf", "atom_at_zero", "int_scale"):
            assert getattr(law, method)() == getattr(ref, method)(), method
        # a sum over the table, which may round apart from the two-term formula
        assert law.second_moment() == pytest.approx(ref.second_moment(), rel=2.0**-52, abs=0)
        for x in (0.0, a, b, 0.5 * (a + b), b + 1, math.inf):
            got = tuple(map(float, law.clipped_moments(x)))
            assert got == pytest.approx(ref.clipped_moments(x), rel=1e-15, abs=0), x

    @pytest.mark.parametrize("a, b, p", [(1, 2, 0.5), (0, 1, 0.3), (0.1, 0.3, 0.5)])
    def test_draws_equal_the_table_of_the_same_law(self, a, b, p):
        table = TableCDF(((a, p), (b, 1)))
        for count in (1, _STREAM_COUNT):
            keys = dense_keys(count)
            draws = sample_weights(Bernoulli(a, b, p), _STREAM_SEED, keys)
            assert draws.tobytes() == sample_weights(table, _STREAM_SEED, keys).tobytes()
