import math
import os
import subprocess
import sys
from collections import defaultdict, deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpplab import fpp
from fpplab.estimators import efron_stein_bound
from fpplab.fpp import (
    averaged_passage,
    brute_force_passage,
    edge_removal_oracle,
    passage_time,
    single_edge_update,
    torus_passage,
    torus_winding_oracle,
)
from fpplab.lattice import Box, EdgeId, Torus, enumerate_edges, point_window, window_halfwidth
from fpplab.weights import (
    Bernoulli,
    TableCDF,
    Uniform,
    WeightField,
    parse_spec,
    sample_field,
)

BOX33 = Box((0, 0), (2, 2))  # 9 sites, 12 edges

LAWS = [
    "uniform:0,1",
    "exponential:1",
    "bernoulli:1,2,0.5",
    "bernoulli:0,1,0.3",
    "bernoulli:0,1,0.1",
]
# bernoulli:0,1,0.7 has a supercritical atom at 0; only for_fpp=False draws it
BOUNDED_LAWS = [*LAWS[:4], "bernoulli:0,1,0.7"]
# a torus stands for its winding cylinder; point_window(6, 2, 3) under
# bernoulli:0,1,0.1 has the zero-weight clusters of the [window] oracle case
DAG_REGIONS = [
    pytest.param(BOX33, id="box3x3"),
    pytest.param(Box((0, 0), (5, 4)), id="box6x5"),
    pytest.param(point_window(6, 2, 3), id="window"),
    *(pytest.param(Torus(n, 2), id=f"cyl{n}") for n in (3, 4, 8)),
]


def unit_field(region):
    return WeightField(region, np.ones(region.n_edges()), 0, TableCDF.point_mass(1.0))


def random_field(region, spec, seed):
    return sample_field(spec, region, seed, for_fpp=False)


def searched_graph(field):
    """(graph, weights, site labels) that a passage searches: the box itself,
    or the winding cylinder of a torus."""
    weff, _ = fpp._effective_weights(field)
    if isinstance(field.region, Torus):
        cyl = fpp._cylinder(field.region.n, field.region.d)
        return fpp._graph(cyl), weff[cyl.torus_edge], cyl.site_from_index
    return fpp._graph(field.region), weff, field.region.site_from_index


def criticality(field, e, src, dst):
    """D = C - min(C, a) of edge e under the single-edge law, in time units,
    after one passage on the Box field, not grown."""
    res = passage_time(field, src, dst, max_grows=0)
    C, a = res.edge_law
    return float(res._time(C[e]) - res._time(min(C[e], a[e])))


def reference_dag(graph, weff, d_src, dst):
    """Every tight arc of the graph whose head reaches dst along tight arcs."""
    tight = [
        (a, b, e)
        for e, (t, h) in enumerate(zip(graph.tails.tolist(), graph.heads.tolist()))
        for a, b in ((t, h), (h, t))
        if d_src[a] + weff[e] == d_src[b]
    ]
    into = defaultdict(list)
    for a, b, _ in tight:
        into[b].append(a)
    reach, stack = {dst}, [dst]
    while stack:
        for a in into[stack.pop()]:
            if a not in reach:
                reach.add(a)
                stack.append(a)
    return {(a, b, e) for a, b, e in tight if b in reach}


def reference_walk(arcs, d, src, dst, site_of):
    """Back from dst, always to the lexicographically smallest predecessor; a
    zero-length arc counts only when its tail is fewer arcs from src."""
    out = defaultdict(list)
    for a, b, _ in arcs:
        out[a].append(b)
    hops, queue = {src: 0}, deque([src])
    while queue:
        a = queue.popleft()
        for b in out[a]:
            if b not in hops:
                hops[b] = hops[a] + 1
                queue.append(b)
    path = [dst]
    while path[-1] != src:
        v = path[-1]
        cands = [
            a for a, b, _ in arcs
            if b == v and (d[a] != d[v] or hops.get(a, np.inf) < hops.get(v, np.inf))
        ]
        path.append(min(cands, key=site_of))
    return [site_of(i) for i in reversed(path)]


class TestPassageTime:
    def test_unit_weights_straight_segment(self):
        win = point_window(5, 2, 3)
        field = unit_field(win)
        res = passage_time(field, (0, 0), (5, 0), max_grows=0)
        assert res.T == 5.0
        axis_edges = {win.edge_index(EdgeId((k, 0), 0)) for k in range(5)}
        assert set(res.gint_edge_idx) == axis_edges
        assert set(res.dag_edge_idx) == axis_edges
        assert res.sample_path == [(k, 0) for k in range(6)]

    @pytest.mark.parametrize("spec", [Uniform(0, 1), Bernoulli(1, 2, 0.5)])
    def test_brute_force_oracle(self, spec):
        for seed in range(100):
            field = random_field(BOX33, spec, seed)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            oracle = brute_force_passage(field, (0, 0), (2, 2))
            assert res.T == pytest.approx(oracle, abs=1e-12)

    def test_scaling_homogeneity(self):
        field = random_field(BOX33, Uniform(0, 1), 7)
        res = passage_time(field, (0, 0), (2, 2), max_grows=0)
        scaled = WeightField(BOX33, field.weights * 3.0, 0, None)
        res3 = passage_time(scaled, (0, 0), (2, 2), max_grows=0)
        assert res3.T == pytest.approx(3.0 * res.T, rel=1e-15)
        assert set(res3.dag_edge_idx) == set(res.dag_edge_idx)

    def test_T_equals_distance_fields(self):
        field = random_field(BOX33, Uniform(0, 1), 3)
        res = passage_time(field, (0, 0), (2, 2), max_grows=0)
        di = BOX33.site_index((2, 2))
        si = BOX33.site_index((0, 0))
        assert res.T == res.d_src[di] == res.d_dst[si]
        # on a tight window that grows, d_dst refers to the grown window
        grew = 0
        for seed in range(10):
            field = random_field(point_window(6, 2, 1), Uniform(0, 1), seed)
            res = passage_time(field, (0, 0), (6, 0))
            grew += res.grows > 0
            fresh = passage_time(
                res.field, (6, 0), (0, 0), max_grows=0, want_geometry=False
            )
            assert np.array_equal(res.d_dst, fresh.d_src)
            assert fresh.path_idx.size == 0
            assert fresh.sample_path == [] and fresh.path_edge_indices() == []
            si = res.window.site_index((0, 0))
            assert res.d_dst[si] == pytest.approx(res.T, abs=1e-12)
        assert grew > 0

    def test_one_dijkstra_per_passage(self, monkeypatch):
        calls = []
        real = fpp._csgraph_dijkstra

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(fpp, "_csgraph_dijkstra", counting)
        spec = Bernoulli(1, 2, 0.5)
        field = random_field(point_window(8, 2, 4), spec, 1)
        res = passage_time(field, (0, 0), (8, 0), max_grows=0)
        assert len(calls) == 1
        assert res.d_dst.size == res.window.n_sites()
        assert len(calls) == 2
        assert res.d_dst.size == res.window.n_sites()
        assert len(calls) == 2
        # a torus passage: two one-way bound searches, from the cut (level 0)
        # and from its second copy (level 2n), then one search per cut site
        # that can still attain T, fewer than all K = 16
        calls.clear()
        torus = torus_passage(random_field(Torus(16, 2), spec, 1))
        searched = np.flatnonzero(np.isfinite(torus.d_src).any(axis=1))
        cut = np.arange(16)
        for call, level in zip(calls[:2], (0, 32)):
            assert call["min_only"]
            assert np.array_equal(call["indices"], level * 16 + cut)
        assert not any(c["min_only"] for c in calls[2:])
        assert sorted(c["indices"] for c in calls[2:]) == searched.tolist()
        assert 0 < searched.size < 16

    def test_triangle_inequality(self):
        field = random_field(Box((0, 0), (4, 4)), Uniform(0, 1), 11)
        rng = np.random.default_rng(0)
        sites = [tuple(rng.integers(0, 5, 2)) for _ in range(12)]
        for x, y, z in zip(sites, sites[4:], sites[8:]):
            if len({x, y, z}) < 3:
                continue
            txz = passage_time(field, x, z, max_grows=0, want_geometry=False).T
            txy = passage_time(field, x, y, max_grows=0, want_geometry=False).T
            tyz = passage_time(field, y, z, max_grows=0, want_geometry=False).T
            assert txz <= txy + tyz + 1e-12

    def test_monotone_in_single_weight(self):
        field = random_field(BOX33, Uniform(0, 1), 5)
        base = passage_time(field, (0, 0), (2, 2), max_grows=0).T
        for e in range(BOX33.n_edges()):
            up = field.with_weight(e, field.weights[e] + 0.5)
            assert passage_time(up, (0, 0), (2, 2), max_grows=0).T >= base - 1e-12

    def test_continuous_geodesic_unique(self):
        # under exact float ties, uniform weights give a unique geodesic
        for seed in range(100):
            field = random_field(BOX33, Uniform(0, 1), 1000 + seed)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            assert len(res.dag_edge_idx) == len(res.sample_path) - 1
            assert set(res.path_edge_indices()) == set(res.dag_edge_idx)

    def test_zero_atom_sample_path(self):
        # weight-0 edges are tight both ways, so the geodesic DAG has 2-cycles;
        # the sampled path must still be a geodesic (simple in the box; on the
        # torus a winding walk may close a zero-weight loop)
        spec = Bernoulli(0, 1, 0.3)
        for seed in range(20):
            box = passage_time(
                random_field(point_window(16, 2, 8), spec, seed), (0, 0), (16, 0)
            )
            assert len(set(box.sample_path)) == len(box.sample_path)
            torus = torus_passage(random_field(Torus(8, 2), spec, seed))
            for res in (box, torus):
                path = res.sample_path
                assert (path[0], path[-1]) == (res.src, res.dst)
                edges = res.path_edge_indices()
                assert set(edges) <= set(res.dag_edge_idx)
                assert sum(res.field.weights[edges]) == res.T

    @pytest.mark.parametrize(
        "spec", [Bernoulli(0, 1, 0.3), Bernoulli(1, 2, 0.5), Uniform(0, 1)], ids=str
    )
    def test_torus_sample_path_winds_once(self, spec):
        # a closed walk of unit torus steps with net axis-0 displacement +-n;
        # a simple cycle unless the law has an atom at 0, whose zero-weight
        # loops the walk may close (29 of 120 tori at n = 4, 8, 16 under
        # Bernoulli(0, 1, 0.3))
        revisits = 0
        for n in (4, 8):
            for seed in range(20):
                path = torus_passage(random_field(Torus(n, 2), spec, seed)).sample_path
                assert path[0] == path[-1]
                net = 0
                for a, b in zip(path, path[1:]):
                    step = [(y - x + 1) % n - 1 for x, y in zip(a, b)]
                    assert sorted(map(abs, step)) == [0, 1], (a, b)
                    net += step[0]
                assert abs(net) == n
                revisits += len(set(path[:-1])) < len(path) - 1
        if spec.atom_at_zero() == 0:
            assert revisits == 0
        else:
            assert revisits > 0

    def test_path_edges_inside_dag(self):
        for seed in range(20):
            field = random_field(BOX33, Bernoulli(1, 2, 0.5), seed)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            assert set(res.path_edge_indices()) <= set(res.dag_edge_idx)
            assert set(res.gint_edge_idx) <= set(res.dag_edge_idx)

    @pytest.mark.parametrize("spec,tol", [(Bernoulli(1, 2, 0.5), 0.0), (Uniform(0, 1), 1e-12)])
    def test_dag_membership_sum_criterion(self, spec, tol):
        # an edge is in the DAG iff the best orientation of
        # d_src(u) + t_e + d_dst(v) meets T (exactly for integer weights)
        tails, heads = BOX33.edge_arrays()
        for seed in range(30):
            field = random_field(BOX33, spec, 4000 + seed)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            in_dag = np.zeros(BOX33.n_edges(), dtype=bool)
            in_dag[res.dag_edge_idx] = True
            best = np.minimum(
                res.d_src[tails] + field.weights + res.d_dst[heads],
                res.d_src[heads] + field.weights + res.d_dst[tails],
            )
            criterion = best <= res.T + tol
            assert np.array_equal(criterion, in_dag)


def reference_path_edges(region, path):
    """Edge index of each path step by a walk over ``Region.neighbors``."""
    out = []
    for a, b in zip(path, path[1:]):
        for nb, edge in region.neighbors(a):
            if nb == b:
                out.append(region.edge_index(edge))
                break
        else:
            raise ValueError(f"sites {a} and {b} are not adjacent")
    return out


class TestPathEdges:
    @pytest.mark.parametrize("law", ["uniform:0,1", "bernoulli:1,2,0.5", "bernoulli:0,1,0.3"])
    def test_box_paths_match_neighbor_walk(self, law):
        for seed in range(10):
            field = random_field(point_window(12, 2, 6), parse_spec(law), seed)
            res = passage_time(field, (0, 0), (12, 0))
            assert res.path_edge_indices() == reference_path_edges(res.field.region, res.sample_path)

    @pytest.mark.parametrize("law", ["bernoulli:1,2,0.5", "bernoulli:0,1,0.3"])
    def test_torus_walks_match_neighbor_walk(self, law):
        wrapped = revisits = 0
        for torus in (Torus(3, 2), Torus(4, 2), Torus(8, 2), Torus(3, 3)):
            for seed in range(15):
                res = torus_passage(random_field(torus, parse_spec(law), seed))
                path = res.sample_path
                assert res.path_edge_indices() == reference_path_edges(torus, path)
                wrapped += any(
                    max(abs(x - y) for x, y in zip(a, b)) == torus.n - 1
                    for a, b in zip(path, path[1:])
                )
                revisits += len(set(path[:-1])) < len(path) - 1
        assert wrapped > 0
        if law == "bernoulli:0,1,0.3":
            assert revisits > 0

    def test_short_paths(self):
        # a passage from a site to itself: a one-site path with no steps
        field = random_field(BOX33, Uniform(0, 1), 5)
        res = passage_time(field, (1, 1), (1, 1), max_grows=0)
        assert res.T == 0.0
        assert res.path_idx.tolist() == [BOX33.site_index((1, 1))]
        assert res.sample_path == [(1, 1)] and res.path_edge_indices() == []


class TestLatticeGraph:
    @pytest.mark.parametrize(
        "law", ["uniform:0,1", "bernoulli:1,2,0.5", "bernoulli:0,1,0.3"]
    )
    def test_limit_is_inclusive(self, law):
        # sites at exactly the limit keep their distance, sites above it are inf
        region = Box((0, 0), (6, 5))
        graph = fpp._graph(region)
        sources = [0, 17, region.n_sites() - 1]
        for seed in range(10):
            field = random_field(region, parse_spec(law), seed)
            weff, _ = fpp._effective_weights(field)
            full = graph.load(weff).search(sources)
            levels = np.unique(full)
            for L in levels[[0, 1, levels.size // 2, -2]]:
                got = graph.load(weff).search(sources, limit=L)
                assert (full == L).any()
                assert np.array_equal(got[full <= L], full[full <= L])
                assert np.isinf(got[full > L]).all()


class TestDistinct:
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3] * 9, [-2, 5, -2, 0, 5, 5, 2**40]],
        ids=["empty", "one", "all_equal", "mixed"],
    )
    def test_equals_np_unique(self, values):
        a = np.array(values, dtype=np.int64)
        got = fpp._distinct(a)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(a))

    @pytest.mark.parametrize("size", [2, 50, 400, 5000])
    def test_equals_np_unique_random(self, size):
        rng = np.random.default_rng(size)
        for high in (3, size, 2**62):
            a = rng.integers(-high, high, size=size, dtype=np.int64)
            got = fpp._distinct(a)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.unique(a))


class TestIntersection:
    @pytest.mark.parametrize(
        "spec,region,dst",
        [
            pytest.param(Bernoulli(1, 2, 0.5), BOX33, (2, 2), id="spec0"),
            pytest.param(Uniform(0, 1), BOX33, (2, 2), id="spec1"),
            pytest.param(Bernoulli(0, 1, 0.3), BOX33, (2, 2), id="spec2"),
            # zero-weight clusters of several sites: the walk explores off-path sites
            pytest.param(
                Bernoulli(0, 1, 0.1), point_window(6, 2, 3), (6, 0), id="window"
            ),
        ],
    )
    def test_edge_removal_oracle(self, spec, region, dst):
        for seed in range(60):
            field = random_field(region, spec, seed)
            res = passage_time(field, (0, 0), dst, max_grows=0)
            assert set(int(i) for i in res.gint_edge_idx) == edge_removal_oracle(
                field, (0, 0), dst
            )

    def test_two_disjoint_corridors_empty(self):
        # straight bottom corridor of weight 3 vs disjoint top corridor of
        # weight 3 built from dyadic values (ties detected exactly in binary64)
        box = Box((0, 0), (3, 1))
        w = np.full(box.n_edges(), 100.0)
        bottom = [box.edge_index(EdgeId((k, 0), 0)) for k in range(3)]
        for e in bottom:
            w[e] = 1.0
        top = [
            box.edge_index(EdgeId((0, 0), 1)),
            box.edge_index(EdgeId((0, 1), 0)),
            box.edge_index(EdgeId((1, 1), 0)),
            box.edge_index(EdgeId((2, 1), 0)),
            box.edge_index(EdgeId((3, 0), 1)),
        ]
        for e, val in zip(top, [1.0, 0.5, 0.5, 0.5, 0.5]):
            w[e] = val
        field = WeightField(box, w, 0, None)
        res = passage_time(field, (0, 0), (3, 0), max_grows=0)
        assert res.T == 3.0
        assert len(res.gint_edge_idx) == 0
        assert set(res.dag_edge_idx) == set(bottom) | set(top)


def searched_dags(region, law, rng_seed):
    """Per field of ``law`` on ``region``, for a random (src, dst) pair of the
    searched graph: the search's distance row and tree path into dst, and the
    DAG grown from that path (``seeded``) and from [dst] (``plain``)."""
    rng = np.random.default_rng(rng_seed)
    for seed in range(12):
        field = random_field(region, parse_spec(law), seed)
        graph, weff, _ = searched_graph(field)
        src, dst = (int(i) for i in rng.choice(graph.n_sites, 2, replace=False))
        d_src, pred = graph.load(weff).search(src, tree=True)
        path = fpp._tree_path(pred, dst)
        yield SimpleNamespace(
            graph=graph, weff=weff, src=src, dst=dst, d_src=d_src, path=path,
            key_of=(
                fpp._cylinder(region.n, region.d).torus_edge
                if isinstance(region, Torus) else None
            ),
            seeded=fpp._geodesic_dag(graph, weff, d_src, path),
            plain=fpp._geodesic_dag(graph, weff, d_src, [dst]),
        )


class TestGeodesicDag:
    @pytest.mark.parametrize("region", DAG_REGIONS)
    @pytest.mark.parametrize("law", LAWS)
    def test_matches_reference_construction(self, law, region):
        # the tree path runs src -> dst on tight arcs, and grown from it or
        # from [dst] the DAG is the reference's arc set, each arc once
        for c in searched_dags(region, law, 0):
            want = reference_dag(c.graph, c.weff, c.d_src, c.dst)
            assert c.path[0] == c.src and c.path[-1] == c.dst
            assert set(zip(c.path, c.path[1:])) <= {(a, b) for a, b, _ in want}
            for arcs in (c.seeded, c.plain):
                got = list(zip(*(a.tolist() for a in arcs)))
                assert len(got) == len(set(got))
                assert set(got) == want

    @pytest.mark.parametrize("region", DAG_REGIONS)
    @pytest.mark.parametrize("law", LAWS)
    def test_tree_path_shortcut_matches_walk(self, law, region):
        # when the DAG is the tree path, the shortcut's path and members are
        # the walk's; under a continuous law it always is
        fired = 0
        for c in searched_dags(region, law, 3):
            keys = c.seeded[2] if c.key_of is None else c.key_of[c.seeded[2]]
            got = fpp._geodesics(c.seeded, c.path, c.d_src, np.unique(keys), c.key_of)
            want = fpp._geodesic_walk(*c.seeded, c.d_src, c.src, c.dst, c.key_of)
            assert all(a.dtype == np.int64 for a in got)
            assert [a.tolist() for a in got] == list(want)
            fired += c.seeded[0].size == len(c.path) - 1
        if parse_spec(law).int_scale() is None:
            assert fired == 12

    @pytest.mark.parametrize("region", DAG_REGIONS)
    @pytest.mark.parametrize("law", LAWS)
    def test_sample_path_matches_reference_walk(self, law, region):
        rng = np.random.default_rng(1)
        for seed in range(12):
            field = random_field(region, parse_spec(law), seed)
            graph, weff, site_of = searched_graph(field)
            if isinstance(region, Torus):
                # the path is taken from the first minimizing cut site
                K = fpp._cylinder(region.n, region.d).K
                dists = graph.load(weff).search(list(range(K)))
                src = int(np.argmin(dists[np.arange(K), region.n * K + np.arange(K)]))
                dst, d_src = region.n * K + src, dists[src]
                res = torus_passage(field)
            else:
                src, dst = (int(i) for i in rng.choice(graph.n_sites, 2, replace=False))
                d_src = graph.load(weff).search([src])[0]
                res = passage_time(field, site_of(src), site_of(dst), max_grows=0)
            arcs = reference_dag(graph, weff, d_src, dst)
            want = reference_walk(arcs, d_src, src, dst, site_of)
            if isinstance(region, Torus):
                want = [region.wrap(s) for s in want]
            assert res.sample_path == want
            assert sum(float(w) for w in field.weights[res.path_edge_indices()]) == res.T


class TestCriticality:
    def test_unit_weight_kink(self):
        # detour around one axis edge costs 3, so the kink sits at D = 3:
        # grid sweep of t_e with full recomputes locates it
        win = point_window(5, 2, 3)
        field = unit_field(win)
        e = win.edge_index(EdgeId((0, 0), 0))
        D = criticality(field, e, (0, 0), (5, 0))
        Ts = {}
        for t in [0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 8.0]:
            f2 = WeightField(win, field.weights.copy(), 0, None).with_weight(e, t)
            Ts[t] = passage_time(f2, (0, 0), (5, 0), max_grows=0, want_geometry=False).T
        for t, T in Ts.items():
            assert T == pytest.approx(min(7.0, 4.0 + t), abs=1e-12)
        assert D == pytest.approx(3.0, abs=1e-12)

    def test_unusable_edge_clamp(self):
        # an edge strictly dominated even at weight zero has D = 0
        box = Box((0, 0), (2, 1))
        w = np.full(box.n_edges(), 10.0)
        for k in range(2):
            w[box.edge_index(EdgeId((k, 0), 0))] = 0.1
        # make the top row useless even for free
        field = WeightField(box, w, 0, None)
        e_top = box.edge_index(EdgeId((0, 1), 0))
        D = criticality(field, e_top, (0, 0), (2, 0))
        assert D == 0.0

    def test_update_law_random(self):
        rng = np.random.default_rng(42)
        win = Box((0, 0), (4, 3))
        errs = []
        for trial in range(50):
            field = random_field(win, Uniform(0, 1), 500 + trial)
            e = int(rng.integers(0, win.n_edges()))
            s, t = np.sort(rng.uniform(0, 2, size=2))
            D = criticality(field, e, (0, 0), (4, 3))
            fs = field.with_weight(e, s)
            ft = field.with_weight(e, t)
            Ts = passage_time(fs, (0, 0), (4, 3), max_grows=0, want_geometry=False).T
            Tt = passage_time(ft, (0, 0), (4, 3), max_grows=0, want_geometry=False).T
            errs.append(abs((Tt - Ts) - min(t - s, max(D - s, 0.0))))
        assert max(errs) <= 1e-10


class TestSingleEdgeUpdate:
    def test_raise_off_dag(self):
        field = random_field(BOX33, Uniform(0, 1), 9)
        res = passage_time(field, (0, 0), (2, 2), max_grows=0)
        off = [e for e in range(BOX33.n_edges()) if e not in set(res.dag_edge_idx)]
        for e in off[:4]:
            assert single_edge_update(res, e, field.weights[e] + 5.0) == res.T

    def test_lower_geodesic_edge_linear(self):
        field = random_field(BOX33, Uniform(0, 1), 10)
        res = passage_time(field, (0, 0), (2, 2), max_grows=0)
        path_edges = res.path_edge_indices()
        e = max(path_edges, key=lambda i: field.weights[i])
        delta = field.weights[e] * 0.5
        newT = single_edge_update(res, e, field.weights[e] - delta)
        assert newT == pytest.approx(res.T - delta, abs=1e-12)

    def test_random_triples_match_recompute(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            field = random_field(BOX33, Uniform(0, 2), 2000 + trial)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            e = int(rng.integers(0, BOX33.n_edges()))
            new_t = float(rng.uniform(0, 3))
            got = single_edge_update(res, e, new_t)
            want = passage_time(
                field.with_weight(e, new_t), (0, 0), (2, 2),
                max_grows=0, want_geometry=False,
            ).T
            assert got == pytest.approx(want, abs=1e-12)

    def test_integer_mode_exact(self):
        for trial in range(30):
            field = random_field(BOX33, Bernoulli(1, 2, 0.5), 3000 + trial)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            for e, new_t in ((1, 1.0), (5, 2.0), (8, 1.0)):
                got = single_edge_update(res, e, new_t)
                want = passage_time(
                    field.with_weight(e, new_t), (0, 0), (2, 2),
                    max_grows=0, want_geometry=False,
                ).T
                assert got == want

    def test_needs_box_result_with_geometry(self):
        field = random_field(BOX33, Uniform(0, 1), 9)
        bare = passage_time(field, (0, 0), (2, 2), max_grows=0, want_geometry=False)
        torus = torus_passage(random_field(Torus(4, 2), Bernoulli(1, 2, 0.5), 9))
        for res, why in ((bare, "geometry"), (torus, "Box")):
            with pytest.raises(ValueError):
                single_edge_update(res, 0, 0.5)
            with pytest.raises(ValueError, match=why):
                res.edge_law

    def test_off_grid_value_matches_float_recompute(self):
        # Bernoulli(1, 2, 1/2) runs in integer mode; a value off its grid
        # enters the law unrounded and must match a search in raw floats
        rng = np.random.default_rng(5)
        for trial in range(30):
            field = random_field(BOX33, Bernoulli(1, 2, 0.5), 3100 + trial)
            res = passage_time(field, (0, 0), (2, 2), max_grows=0)
            assert res.scale
            for e in rng.choice(BOX33.n_edges(), 4, replace=False):
                new_t = float(rng.uniform(0, 3))
                w = field.weights.copy()
                w[e] = new_t
                want = passage_time(
                    WeightField(BOX33, w, 0, None), (0, 0), (2, 2),
                    max_grows=0, want_geometry=False,
                ).T
                assert single_edge_update(res, int(e), new_t) == pytest.approx(
                    want, abs=1e-12
                )

    def test_arrays_match_scalar_calls(self):
        field = random_field(Box((0, 0), (4, 3)), Uniform(0, 1), 21)
        res = passage_time(field, (0, 0), (4, 3), max_grows=0)
        edges = np.arange(field.weights.size)
        new_t = np.random.default_rng(1).uniform(0, 2, edges.size)
        got = single_edge_update(res, edges, new_t)
        assert got.shape == edges.shape
        assert got.tolist() == [
            single_edge_update(res, int(e), float(t)) for e, t in zip(edges, new_t)
        ]

    def test_rejects_edge_outside_window(self):
        field = random_field(BOX33, Uniform(0, 1), 9)
        res = passage_time(field, (0, 0), (2, 2), max_grows=0)
        for e in (-1, BOX33.n_edges(), [0, -1]):
            with pytest.raises(ValueError, match="edge index"):
                single_edge_update(res, e, 0.5)

    def test_rejects_negative_or_nan_weight(self):
        # a negative weight that reaches scipy's dijkstra makes it run away and
        # abort the interpreter (std::bad_alloc), so the calls run in a child
        # process with capped memory, where such an abort fails only this test
        code = (
            "import math\n"
            "from fpplab.fpp import passage_time, single_edge_update\n"
            "from fpplab.lattice import Box\n"
            "from fpplab.weights import Uniform, sample_field\n"
            "field = sample_field(Uniform(0, 1), Box((0, 0), (2, 2)), 9, for_fpp=False)\n"
            "res = passage_time(field, (0, 0), (2, 2), max_grows=0)\n"
            "assert 1 in res.gint_edge_idx\n"
            "for t in (-0.5, math.nan, [0.5, -0.5]):\n"
            "    try:\n"
            "        single_edge_update(res, [0, 1] if isinstance(t, list) else 1, t)\n"
            "    except ValueError:\n"
            "        print('ValueError')\n"
        )
        out = _run_capped(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["ValueError"] * 3

    def test_single_edge_answers_need_one_more_search(self, monkeypatch):
        # the passage's search keeps its shortest-path tree; the edge law,
        # updates on several edges and an Efron-Stein bound read one more
        # row, from a lazy search from dst alone, and one replacement-path
        # pass builds the law once
        calls, rows, covers = [], [], []
        real, real_cover = fpp._csgraph_dijkstra, fpp._cover_min

        def counting(*args, **kwargs):
            calls.append(kwargs)
            out = real(*args, **kwargs)
            rows.append(out)
            return out

        def counting_cover(*args):
            covers.append(args)
            return real_cover(*args)

        monkeypatch.setattr(fpp, "_csgraph_dijkstra", counting)
        monkeypatch.setattr(fpp, "_cover_min", counting_cover)
        spec = Uniform(0, 1)
        field = random_field(point_window(8, 2, 4), spec, 3)
        res = passage_time(field, (0, 0), (8, 0), max_grows=0)
        assert len(calls) == 1 and calls[0]["return_predecessors"]
        dist, pred = rows[0]
        assert dist[0].tobytes() == res.d_src_eff.tobytes()
        assert pred[0].tobytes() == res.src_tree.tobytes()
        assert res.gint_edge_idx.size and res.edge_law is res.edge_law
        for e in [*res.gint_edge_idx[:3].tolist(), 0, 7]:
            single_edge_update(res, e, 0.25)
            single_edge_update(res, e, 3.0)
        efron_stein_bound(res)
        assert len(calls) == 2 and not calls[1]["return_predecessors"]
        assert len(covers) == 1
        assert calls[1]["indices"] == [res.window.site_index((8, 0))]
        assert rows[1].shape == (1, res.window.n_sites())
        assert rows[1][0].tobytes() == res.d_dst_eff.tobytes()


def _run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this tree's sources, with its
    address space capped at 2 GiB and a 120 s timeout."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, preexec_fn=cap,
    )


REPLACEMENT_CASES = [
    pytest.param(BOX33, (2, 2), id="box3x3"),
    pytest.param(Box((0, 0), (4, 3)), (4, 3), id="box5x4"),
    *(
        pytest.param(point_window(n, 2, window_halfwidth(n, 0, 1.25)), (n, 0), id=f"n{n}")
        for n in (8, 16)
    ),
]


class TestReplacementPaths:
    @pytest.mark.parametrize("region,dst", REPLACEMENT_CASES)
    @pytest.mark.parametrize("law", BOUNDED_LAWS)
    def test_without_edge_matches_removal_search(self, law, region, dst):
        # T with an intersection edge deleted equals a search without it:
        # exactly in integer mode, to 1e-12 in float mode; off the
        # intersection it is T itself
        graph = fpp._graph(region)
        si, di = region.site_index((0, 0)), region.site_index(dst)
        checked = 0
        for seed in range(12):
            field = random_field(region, parse_spec(law), seed)
            res = passage_time(field, (0, 0), dst, max_grows=0)
            without = res.edge_law[0]
            off = np.ones(region.n_edges(), dtype=bool)
            off[res.gint_edge_idx] = False
            assert np.all(without[off] == res.T_eff)
            for e in res.gint_edge_idx:
                w = res.weff.copy()
                w[e] = np.inf
                want = graph.load(w).search([si])[0, di]
                if res.scale or np.isinf(want):
                    assert without[e] == want
                else:
                    assert without[e] == pytest.approx(want, abs=1e-12)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("region,dst", REPLACEMENT_CASES)
    @pytest.mark.parametrize("law", BOUNDED_LAWS)
    def test_update_law_matches_recompute(self, law, region, dst):
        # on every intersection edge and a few off it: exact at each atom in
        # integer mode, to 1e-12 off the grid and under a continuous law
        spec, rng = parse_spec(law), np.random.default_rng(17)
        for seed in range(12):
            field = random_field(region, spec, seed)
            res = passage_time(field, (0, 0), dst, max_grows=0)
            off = np.setdiff1d(np.arange(region.n_edges()), res.gint_edge_idx)
            atoms = [float(v) for v, _ in spec.atoms()] if res.scale else []
            for e in [*res.gint_edge_idx.tolist(), *rng.choice(off, 3, replace=False).tolist()]:
                for t in [*atoms, *rng.uniform(0, 3, 2).tolist()]:
                    want = passage_time(
                        field.with_weight(e, t), (0, 0), dst,
                        max_grows=0, want_geometry=False,
                    ).T
                    got = single_edge_update(res, e, t)
                    if t in atoms:
                        assert got == want
                    else:
                        assert got == pytest.approx(want, abs=1e-12)


GROWTH_LAWS = st.sampled_from(["uniform:0,1", "bernoulli:0,1,0.3"])


def box_geometry(res):
    """(T, geodesic DAG, intersection) of a box result, in lattice edges."""
    dag, gint = (
        frozenset(res.window.edge_from_index(int(i)) for i in idx)
        for idx in (res.dag_edge_idx, res.gint_edge_idx)
    )
    return res.T, dag, gint


class TestWindowGrowth:
    def test_growth_occurs_and_is_deterministic(self):
        win = point_window(6, 2, 1)  # deliberately tight window
        grew = 0
        for seed in range(10):
            field = sample_field(Uniform(0, 1), win, seed)
            r1 = passage_time(field, (0, 0), (6, 0))
            r2 = passage_time(field, (0, 0), (6, 0))
            assert r1.T == r2.T and r1.grows == r2.grows
            assert not r1.boundary_flag
            grew += r1.grows > 0
        assert grew > 0  # the tight window must trigger at least one regrow

    def test_grown_window_keeps_hand_edits(self):
        field = sample_field(Uniform(0, 1), point_window(6, 2, 1), 3)
        row0 = [field.region.edge_index(EdgeId((x, 0), 0)) for x in range(6)]
        weights = field.weights.copy()
        weights[row0] = 10.0
        edited = WeightField(field.region, weights, field.seed, field.spec)
        res = passage_time(edited, (0, 0), (6, 0))
        assert res.grows == 1 and not res.boundary_flag
        at = [res.window.edge_index(e) for e in enumerate_edges(edited.region)]
        assert np.array_equal(res.field.weights[at], edited.weights)
        assert res.T == passage_time(res.field, (0, 0), (6, 0), max_grows=0).T
        assert res.T == 3.8693566740085554

    @pytest.mark.parametrize("law", BOUNDED_LAWS)
    def test_seeded_passage_matches_unseeded(self, law, monkeypatch):
        # the tree path only changes where the DAG search starts: T, growth,
        # the flag and the geometry equal a run whose DAGs grow from [dst]
        spec = parse_spec(law)
        windows = [(point_window(8, 2, 1), (8, 0)), (point_window(16, 2, 3), (16, 0))]

        def run():
            passages, averages = [], []
            for seed in range(6):
                for win, dst in windows:
                    res = passage_time(
                        random_field(win, spec, seed), (0, 0), dst, max_grows=2
                    )
                    passages.append((
                        res.T, res.grows, res.boundary_flag, res.dag_edge_idx.tolist(),
                        res.gint_edge_idx.tolist(), res.sample_path,
                    ))
                field = random_field(point_window(8, 2, 2), spec, seed)
                avg = averaged_passage(field, 8, max_grows=2)
                averages.append((avg.F_n, avg.terms, avg.grows, avg.boundary_flag))
            return passages, averages

        seeded = run()
        real = fpp._geodesic_dag
        monkeypatch.setattr(
            fpp, "_geodesic_dag", lambda graph, weff, d, seed: real(graph, weff, d, seed[-1:])
        )
        assert run() == seeded
        assert any(grows for _, grows, *_ in seeded[0])
        if law == "bernoulli:0,1,0.7":
            assert all(flag for _, _, flag, *_ in seeded[0])

    def test_path_site_indices_on_grown_windows(self):
        # a grown window starts below the origin (lo != 0): the stored site
        # and edge indices are the grown window's, as the tuples read them
        grew = 0
        for seed in range(10):
            field = sample_field(Uniform(0, 1), point_window(6, 2, 1), seed)
            res = passage_time(field, (0, 0), (6, 0))
            grew += res.grows > 0
            path = res.sample_path
            assert res.path_idx.tolist() == [res.window.site_index(s) for s in path]
            assert res.path_edge_indices() == reference_path_edges(res.window, path)
        assert grew > 0

    def test_grown_window_shape(self):
        # a point window's shortest side is 2w + 1, so each grow doubles w
        for d in (2, 3, 4):
            for n in range(0, 40, 3):
                for w in range(1, 20):
                    box = point_window(n, d, w)
                    for grow in range(1, 4):
                        box = fpp._grow_box(box)
                        assert box == point_window(n, d, w << grow), (n, d, w, grow)

    @pytest.mark.parametrize(
        "box, grown",
        [
            pytest.param(Box((0, 0), (9, 3)), Box((-2, -2), (11, 5)), id="10x4"),
            pytest.param(Box((2, -1, 0), (4, 5, 8)), Box((1, -2, -1), (5, 6, 9)), id="3x7x9"),
            pytest.param(Box((0, 0), (7, 0)), Box((-1, -1), (8, 1)), id="8x1"),
            pytest.param(Box((-3, -3), (3, 3)), Box((-6, -6), (6, 6)), id="7x7"),
        ],
    )
    def test_hand_box_grows_by_half_its_shortest_side(self, box, grown):
        # every face moves out by the same half shortest side, at least 1
        assert fpp._grow_box(box) == grown

    @pytest.mark.parametrize("law", ["uniform:0,1", "bernoulli:0,1,0.3"])
    def test_tight_hand_box_grows_to_a_field_sampled_on_its_final_window(self, law):
        # a hand box, no point window: the passage grows it by _grow_box, and
        # its result is that of a field sampled on the final window
        spec, box, src, dst = parse_spec(law), Box((0, 0), (7, 2)), (1, 1), (6, 1)
        grew = 0
        for seed in range(6):
            res = passage_time(random_field(box, spec, seed), src, dst)
            window = box
            for _ in range(res.grows):
                window = fpp._grow_box(window)
            assert res.window == window
            again = passage_time(random_field(window, spec, seed), src, dst, max_grows=0)
            assert np.array_equal(res.field.weights, again.field.weights)
            assert (
                res.T, res.boundary_flag, res.dag_edge_idx.tolist(),
                res.gint_edge_idx.tolist(), res.sample_path,
            ) == (
                again.T, again.boundary_flag, again.dag_edge_idx.tolist(),
                again.gint_edge_idx.tolist(), again.sample_path,
            )
            grew += res.grows
        assert grew > 0

    @given(law=GROWTH_LAWS, seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grow_keeps_every_weight(self, law, seed):
        small = random_field(point_window(16, 2, 8), parse_spec(law), seed)
        big = random_field(fpp._grow_box(small.region), parse_spec(law), seed)
        at = [big.region.edge_index(e) for e in enumerate_edges(small.region)]
        assert np.array_equal(big.weights[at], small.weights)

    @given(
        law=GROWTH_LAWS,
        seed=st.integers(0, 2**32),
        n=st.integers(4, 12),
        kappas=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_unflagged_results_do_not_depend_on_kappa(self, law, seed, n, kappas):
        narrow, wide = sorted(
            (
                passage_time(
                    random_field(point_window(n, 2, window_halfwidth(n, 0, k)), parse_spec(law), seed),
                    (0, 0), (n, 0),
                )
                for k in kappas
            ),
            key=lambda res: res.window.n_sites(),
        )
        assume(not (narrow.boundary_flag or wide.boundary_flag))
        # The boundary test is no certificate: a geodesic of the wider window
        # can leave the narrower one while the narrower window's DAG stays off
        # its boundary.  Wherever the wider DAG stays inside, the two agree.
        box = narrow.window
        sites = {s for e in box_geometry(wide)[1] for s in e.endpoints()}
        assume(all(l < x < h for s in sites for x, l, h in zip(s, box.lo, box.hi)))
        assert box_geometry(narrow) == box_geometry(wide)

    @given(
        law=GROWTH_LAWS,
        seed=st.integers(0, 2**32),
        n=st.integers(4, 12),
        kappas=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_unflagged_fn_terms_do_not_depend_on_kappa(self, law, seed, n, kappas):
        spec, m = parse_spec(law), math.ceil(n**0.25)
        runs = []
        for k in kappas:
            window = point_window(n, 2, window_halfwidth(n, m, k))
            fn = averaged_passage(random_field(window, spec, seed), n, m)
            for _ in range(fn.grows):
                window = fpp._grow_box(window)
            runs.append((window, fn))
        (box, narrow), (wide_box, wide) = sorted(runs, key=lambda run: run[0].n_sites())
        assume(not (narrow.boundary_flag or wide.boundary_flag))
        field = random_field(wide_box, spec, seed)
        for z, Tz in narrow.terms.items():
            # as for T: equal wherever the wider term's DAG stays inside
            res = passage_time(field, z, (z[0] + n, z[1]), max_grows=0, want_geometry=False)
            assert res.T == wide.terms[z]
            sites = {s for e in box_geometry(res)[1] for s in e.endpoints()}
            if all(l < x < h for s in sites for x, l, h in zip(s, box.lo, box.hi)):
                assert Tz == wide.terms[z]


def reference_torus_passage(field):
    """(T, DAG edges, intersection, sample path) of a torus passage from one
    unbounded search per cut site, with the reference DAG and walk."""
    region = field.region
    cyl = fpp._cylinder(region.n, region.d)
    graph, weff, site_of = searched_graph(field)
    dists = graph.load(weff).search(list(range(cyl.K)))
    vals = dists[np.arange(cyl.K), region.n * cyl.K + np.arange(cyl.K)]
    T_eff = vals.min()
    dag, inter, path = set(), None, None
    for src in np.flatnonzero(vals == T_eff).tolist():
        dst = region.n * cyl.K + src
        arcs = reference_dag(graph, weff, dists[src], dst)
        edges = {int(cyl.torus_edge[e]) for _, _, e in arcs}
        dag |= edges
        # a torus edge is on every geodesic iff dropping its lifts cuts src off
        on_all = set()
        for t in edges:
            out = defaultdict(list)
            for a, b, e in arcs:
                if cyl.torus_edge[e] != t:
                    out[a].append(b)
            seen, stack = {src}, [src]
            while stack:
                for b in out[stack.pop()]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
            if dst not in seen:
                on_all.add(t)
        inter = on_all if inter is None else inter & on_all
        if path is None:
            walk = reference_walk(arcs, dists[src], src, dst, site_of)
            path = [region.wrap(x) for x in walk]
    _, scale = fpp._effective_weights(field)
    return T_eff / scale if scale else T_eff, sorted(dag), sorted(inter), path


TORI = [
    pytest.param(Torus(n, d), id=f"torus{n}x{d}")
    for n, d in ((3, 2), (4, 2), (8, 2), (4, 3))
]


class TestTorus:
    @pytest.mark.parametrize("torus", TORI)
    @pytest.mark.parametrize("law", BOUNDED_LAWS)
    def test_bounded_search_matches_full_search(self, law, torus):
        for seed in range(8):
            field = random_field(torus, parse_spec(law), seed)
            T, dag, inter, path = reference_torus_passage(field)
            res = torus_passage(field)
            assert res.T == T
            assert res.dag_edge_idx.tolist() == dag
            assert res.gint_edge_idx.tolist() == inter
            assert res.sample_path == path

    @pytest.mark.parametrize("torus", TORI)
    @pytest.mark.parametrize("law", BOUNDED_LAWS)
    def test_skipped_cut_sites_cannot_attain_T(self, law, torus):
        # a cut site left unsearched (an all-inf d_src row) winds at more than T
        n, K = torus.n, torus.n ** (torus.d - 1)
        for seed in range(8):
            field = random_field(torus, parse_spec(law), seed)
            res = torus_passage(field)
            skipped = np.flatnonzero(np.isinf(res.d_src_eff).all(axis=1))
            if skipped.size:
                graph, weff, _ = searched_graph(field)
                full = graph.load(weff).search(skipped.tolist())
                assert np.all(full[np.arange(skipped.size), n * K + skipped] > res.T_eff)

    @pytest.mark.parametrize("torus", TORI)
    @pytest.mark.parametrize("law", BOUNDED_LAWS)
    def test_screen_bounds_are_lower_bounds(self, law, torus):
        # against one unbounded search per cut site: the cut bound sums from
        # y's own side, so it is at most T(y) exactly; the top bound sums a
        # shifted prefix of y's path in reverse, so it needs the slack
        n, K = torus.n, torus.n ** (torus.d - 1)
        far = n * K + np.arange(K)
        for seed in range(8):
            field = random_field(torus, parse_spec(law), seed)
            graph, weff, _ = searched_graph(field)
            slack = 1.0 + 4.0 * graph.n_sites * np.finfo(np.float64).eps
            T = graph.load(weff).search(list(range(K)))[np.arange(K), far]
            cut, top = fpp._winding_bounds(graph, n, K, np.inf)
            assert np.all(cut <= T)
            assert np.all(top <= T * slack)

    @pytest.mark.parametrize("n", [16, 32])
    def test_bound_sums_rows_left_to_right(self, n):
        # axis-1 edges cost 10, so the cheapest straight row is the geodesic and
        # T is its left-to-right sum; a pairwise-summed bound can fall an ulp
        # below that and cut off the geodesic's endpoint
        for seed in range(40):
            w = np.full(2 * n * n, 10.0)
            w[::2] = np.random.default_rng(seed).random(n * n)
            field = WeightField(Torus(n, 2), w, 0, None)
            graph, weff, _ = searched_graph(field)
            dists = graph.load(weff).search(list(range(n)))
            full = dists[np.arange(n), n * n + np.arange(n)]
            row_sums = np.zeros(n)
            for row in w[::2].reshape(n, n):
                row_sums += row
            T = torus_passage(field).T
            assert np.isfinite(T)
            assert T == full.min() == row_sums.min()

    def test_zero_row_bound(self):
        # one all-zero straight row: the search limit and T are both 0
        t = Torus(3, 2)
        w = np.random.default_rng(5).random(t.n_edges()) + 0.5
        w[[t.edge_index(EdgeId((x, 1), 0)) for x in range(3)]] = 0.0
        field = WeightField(t, w, 0, None)
        res = torus_passage(field)
        T_or, gint_or = torus_winding_oracle(field, max_len=12)
        assert res.T == T_or == 0.0
        assert set(res.gint_edge_idx.tolist()) == gint_or
        assert np.isinf(res.d_src).any()

    def test_unit_weights(self):
        t = Torus(4, 2)
        res = torus_passage(unit_field(t))
        assert res.T == 4.0
        assert len(res.gint_edge_idx) == 0  # every column ties
        assert len(res.sample_path) == 5

    @pytest.mark.parametrize(
        "law,torus,seed,gint",
        [
            pytest.param("bernoulli:0,1,0.3", Torus(4, 3), 34, [54], id="torus4x3-seed34"),
            pytest.param("bernoulli:0,1,0.3", Torus(4, 3), 70, [91], id="torus4x3-seed70"),
            pytest.param(
                "bernoulli:0,1,0.5", Torus(5, 2), 218, [10, 19, 20, 31],
                id="torus5x2-seed218",
            ),
        ],
    )
    def test_multi_lift_edge_without_cut_arc(self, law, torus, seed, gint):
        # every geodesic uses one of the edge's cylinder lifts, but the sample
        # path's lift alone is no cut: only the search that avoids all of
        # its lifts finds the edge
        field = random_field(torus, parse_spec(law), seed)
        T, dag, inter, path = reference_torus_passage(field)
        res = torus_passage(field)
        assert inter == gint
        assert res.T == T
        assert res.gint_edge_idx.tolist() == gint
        assert res.sample_path == path

    def test_side3_brute_force(self):
        # the atom at zero gives zero-length DAG arcs and torus edges with
        # several lifts in one DAG; the walk's cut test and the search that
        # avoids every lift decide them
        t = Torus(3, 2)
        for spec in (Bernoulli(1, 2, 0.5), Bernoulli(0, 1, 0.3)):
            for seed in range(10):
                field = random_field(t, spec, seed)
                res = torus_passage(field)
                T_or, gint_or = torus_winding_oracle(field, max_len=12)
                assert res.T == T_or
                assert set(int(i) for i in res.gint_edge_idx) == gint_or

    def test_cut_invariance(self):
        # relabeling the cut hyperplane = rotating the field along axis 0
        t = Torus(4, 2)
        field = random_field(t, Uniform(0, 1), 77)
        base = torus_passage(field).T
        for c in range(1, 4):
            w = np.empty_like(field.weights)
            for i in range(t.n_edges()):
                e = t.edge_from_index(i)
                shifted = t.wrap(tuple((e.base[0] + c, e.base[1])))
                w[t.edge_index(EdgeId(shifted, e.axis))] = field.weights[i]
            rotated = WeightField(t, w, 0, None)
            assert torus_passage(rotated).T == pytest.approx(base, abs=1e-12)

    def test_winding_geodesic_length(self):
        t = Torus(5, 2)
        field = random_field(t, Bernoulli(1, 2, 0.5), 4)
        res = torus_passage(field)
        assert len(res.sample_path) >= 6  # at least n+1 sites on a winding cycle
        assert res.sample_path[0] == res.sample_path[-1]


class TestAveragedPassage:
    def test_unit_weights(self):
        win = point_window(16, 2, 8)
        fn = averaged_passage(unit_field(win), 16)
        assert fn.F_n == 16.0
        assert len(fn.terms) == 13  # m = ceil(16^(1/4)) = 2, |B_2| = 13 in d = 2

    def test_subadditivity_bound(self):
        win = point_window(8, 2, 4)
        field = random_field(win, Uniform(0, 1), 21)
        T0 = passage_time(field, (0, 0), (8, 0), max_grows=0, want_geometry=False).T
        terms = averaged_passage(field, 8, m=2).terms
        for z, Tz in terms.items():
            z2 = (z[0] + 8, z[1])
            a = passage_time(field, (0, 0), z, max_grows=0, want_geometry=False).T if z != (0, 0) else 0.0
            b = passage_time(field, (8, 0), z2, max_grows=0, want_geometry=False).T if z != (0, 0) else 0.0
            assert abs(T0 - Tz) <= a + b + 1e-12

    def test_grows_for_all_terms(self):
        spec, grew = Uniform(0, 1), 0
        for seed in range(20):
            tight = random_field(point_window(8, 2, 2), spec, seed)
            fn = averaged_passage(tight, 8, m=2)
            final = tight.region
            for _ in range(fn.grows):
                final = fpp._grow_box(final)
            again = averaged_passage(random_field(final, spec, seed), 8, m=2, max_grows=0)
            assert again.terms == fn.terms
            assert not (again.boundary_flag or fn.boundary_flag)
            grew += fn.grows > 0
        assert grew > 0

    def test_window_too_small(self):
        win = point_window(8, 2, 1)
        with pytest.raises(ValueError):
            averaged_passage(unit_field(win), 8, m=3)
