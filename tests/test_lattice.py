import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab import fpp
from fpplab.lattice import (
    Box,
    EdgeId,
    Torus,
    ball,
    enumerate_edges,
    point_window,
    window_halfwidth,
)


def brute_ball(m, d):
    from itertools import product

    return {x for x in product(range(-m, m + 1), repeat=d) if sum(map(abs, x)) <= m}


class TestBall:
    def test_m0(self):
        assert ball(0, 2) == [(0, 0)]

    def test_m1_d2(self):
        assert len(ball(1, 2)) == 5

    def test_m2_d2_brute(self):
        got = set(ball(2, 2))
        assert got == brute_ball(2, 2)
        assert len(got) == 13

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
    def test_brute_force_scan(self, m, d):
        got = ball(m, d)
        assert len(got) == len(set(got))
        assert set(got) == brute_ball(m, d)

    def test_symmetry(self):
        pts = set(ball(3, 3))
        for p in list(pts):
            assert tuple(-c for c in p) in pts
            assert p[::-1] in pts


class TestEdgeEnumeration:
    def test_torus_count(self):
        assert Torus(4, 2).n_edges() == 32

    def test_box_2x2(self):
        assert Box((0, 0), (1, 1)).n_edges() == 4

    def test_box_3cube_oracle(self):
        box = Box((0, 0, 0), (2, 2, 2))
        # direct enumeration: 3 axes x (3*3*2) edges per axis
        assert box.n_edges() == 54
        edges = enumerate_edges(box)
        seen = set()
        for e in edges:
            base, head = e.endpoints()
            assert box.contains(base) and box.contains(head)
            seen.add((base, e.axis))
        assert len(seen) == 54

    @pytest.mark.parametrize(
        "region",
        [
            Box((0, 0), (3, 2)),
            Box((-2, -1), (2, 1)),
            Box((0, 0, 0), (2, 1, 1)),
            Torus(3, 2),
            Torus(4, 3),
            Torus(3, 4),
            point_window(5, 2, 3),
            fpp._cylinder(3, 2),
            fpp._cylinder(4, 3),
        ],
    )
    def test_index_round_trip(self, region):
        E = region.n_edges()
        for i in range(E):
            e = region.edge_from_index(i)
            assert region.edge_index(e) == i
        with pytest.raises(ValueError):
            region.edge_index(EdgeId(region.site_from_index(0), -1))
        tails, heads = region.edge_arrays()
        assert tails.shape == (E,) and len(heads) == E
        torus = Torus(region.n, region.d) if hasattr(region, "torus_edge") else None
        for i in range(E):
            edge = region.edge_from_index(i)
            base, head = edge.endpoints()
            assert region.site_index(base) == tails[i]
            assert region.site_index(region.wrap(head)) == heads[i]
            if torus is not None:
                # cylinder edges cover the torus edge of the same axis and base
                want = torus.edge_index(EdgeId(torus.wrap(base), edge.axis))
                assert region.torus_edge[i] == want

    def test_site_round_trip(self):
        for region in (Box((-1, 0), (2, 3)), Torus(5, 2)):
            for i in range(region.n_sites()):
                assert region.site_index(region.site_from_index(i)) == i


class TestNeighbors:
    def test_box_interior(self):
        box = Box((0, 0), (4, 4))
        assert len(box.neighbors((2, 2))) == 4

    def test_box_corner(self):
        box = Box((0, 0), (4, 4))
        assert len(box.neighbors((0, 0))) == 2

    def test_torus_degree(self):
        t = Torus(3, 3)
        for s in t.sites():
            nbs = t.neighbors(s)
            assert len(nbs) == 6
            for nb, e in nbs:
                base, head = e.endpoints()
                assert {t.wrap(base), t.wrap(head)} == {s, nb} or t.wrap(head) == nb

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1, 1)).neighbors((5, 5))


class TestRegionValidation:
    def test_empty_box(self):
        with pytest.raises(ValueError):
            Box((0, 0), (-1, 0))

    def test_small_torus(self):
        with pytest.raises(ValueError):
            Torus(2, 2)

    @pytest.mark.parametrize("region", [Box((0, 0), (2, 2)), Torus(3, 2)], ids=["box", "torus"])
    def test_edge_index_out_of_range(self, region):
        E = region.n_edges()
        assert region.edge_index(region.edge_from_index(E - 1)) == E - 1
        for bad in (-1, -E, E, E + 5):
            with pytest.raises(ValueError, match="edge index"):
                region.edge_from_index(bad)

    def test_window(self):
        win = point_window(8, 2, 4)
        assert win.lo == (-4, -4) and win.hi == (12, 4)
        assert window_halfwidth(8, 0, 1.0) == 4
        assert window_halfwidth(8, 6, 1.0) == 10
        assert window_halfwidth(128, 0, 1.25) == 32
        assert window_halfwidth(64, 0, 1.25) == 20

    @pytest.mark.parametrize("n", [8, 27, 64, 1000])
    def test_window_at_perfect_cube(self, n):
        # n^(2/3) is a whole number c; pow may round it one ulp either way
        c = round(n ** (2 / 3))
        assert window_halfwidth(n, 0, 1.0) == c
        assert window_halfwidth(n, 2, 1.0) == c + 2
        above = math.nextafter(float(c), math.inf) / n ** (2 / 3)
        assert window_halfwidth(n, 0, above) == c


@given(
    d=st.integers(min_value=2, max_value=3),
    side=st.integers(min_value=3, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_torus_edge_bijection(d, side):
    t = Torus(side, d)
    E = t.n_edges()
    assert E == d * side**d
    idx = {t.edge_index(t.edge_from_index(i)) for i in range(E)}
    assert idx == set(range(E))
