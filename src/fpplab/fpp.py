"""Passage times, geodesic DAGs, the intersection of all geodesics, the
single-edge law, torus winding geodesics, and the averaged passage time.

Arithmetic policy
-----------------
Atomic specs whose atoms are rationals with a small common denominator are
computed in scaled integers carried in float64 (all sums stay far below 2^53),
so tie detection is exact.  Continuous specs run in plain binary64 with a tie
tolerance of zero: the geodesic-DAG criterion tests exact equality of the sums
the shortest-path relaxation itself produced ("tight" arcs), which keeps the
criterion consistent even though float addition is not associative.

The geodesic DAG is the set of tight arcs whose head can still reach the
destination through tight arcs; every source-destination path inside it is a
geodesic and every geodesic is such a path.  One walk decides the rest: it
takes a sample geodesic through each site's smallest-index predecessor, and
an edge lies on every geodesic iff its arc on that path is a cut of the DAG,
which a running maximum of where the other arcs rejoin the path decides for
every path arc at once.  The test is exact in both arithmetic modes, and
zero-length arcs need no special case.  Only a torus edge with several
cylinder lifts in one DAG can be on every geodesic without a cut arc; one
breadth-first search that avoids all of its lifts decides it.

Searches
--------
A point passage runs one weighted shortest-path search, from the source.  A
torus passage runs two one-way searches that bound every cut site's winding
cost from below, one from the cut and one from the cut's second copy at the
top of the cylinder, and then one search from each cut site that can still
attain T (see :func:`torus_passage`).  The point search and the cut-site
searches also return scipy's shortest-path tree, which costs them nothing
measurable.  A Box result keeps its source's tree; its ``d_dst`` comes from
one more search, from the destination alone, on first read, and every
single-edge answer is a formula over those rows and that tree.

The geodesic DAG grows from the tree's path into the destination.  That
path is a geodesic made of tight arcs: the search stored each site's
distance as exactly the binary64 sum over its tree arc that the tightness
test forms again (proof at :func:`_geodesic_dag`).  One numpy gather tests
the in-arcs of every path site, and a backward search over the graph's CSR
runs, in pure Python, only from the tails of tight arcs that enter the path
from off it, so its cost scales with the part of the DAG off the path, not
with the window.  When the path's own arcs are the only tight ones into
it, the DAG is the path: a DAG site off it would reach the destination
along tight arcs and so enter it through one.  The path is then the only
geodesic, the one the walk would take, and each of its arcs is a cut, so
the passage takes the path and its edges and skips the walk; under a
continuous law that is every DAG, with probability one.  Otherwise the
walk runs, and everything in it, the hop counts that order zero-length
arcs included, walks the DAG's arcs in pure Python.

Paths
-----
A result keeps its sample geodesic as the region's site indices and, per
step, the region edge of the DAG arc the path took: the tree path's arcs
in the shortcut, the arcs the walk chose otherwise.  Nothing on the way
from the search to a record builds a site tuple; ``sample_path`` builds
the tuples from the indices on first read.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .lattice import Box, Region, Site, Torus, _edge_tables, ball
from .weights import DistributionSpec, WeightField, sample_field

GROW_LIMIT = 6


class LatticeGraph:
    """CSR scaffolding for an undirected edge list, built once and reused.

    The sparsity structure depends only on the edges; per field we overwrite
    the data array through a precomputed edge-to-data-position map, avoiding a
    COO sort per replica.  A search is :meth:`load` of the field's edge
    weights, then :meth:`search` on them: ``graph.load(w).search(sources)``.
    """

    def __init__(self, tails: np.ndarray, heads: np.ndarray, n_sites: int):
        self.tails = tails
        self.heads = heads
        N = n_sites
        E = tails.size
        arc_from = np.concatenate([tails, heads])
        arc_to = np.concatenate([heads, tails])
        coo = sp.coo_matrix(
            (np.arange(2 * E, dtype=np.float64), (arc_from, arc_to)), shape=(N, N)
        )
        csr = coo.tocsr()
        if csr.nnz != 2 * E:
            raise ValueError("parallel edges in lattice graph")
        arc_of_pos = csr.data.astype(np.int64)
        self._edge_of_pos = np.where(arc_of_pos < E, arc_of_pos, arc_of_pos - E)
        self._csr = sp.csr_matrix(
            (np.zeros(2 * E), csr.indices, csr.indptr), shape=(N, N)
        )
        self.n_sites = N
        self.n_edges = E

    def load(self, edge_weights: np.ndarray) -> "LatticeGraph":
        """Write one field's edge weights into the CSR that :meth:`search` reads."""
        self._csr.data[:] = edge_weights[self._edge_of_pos]
        return self

    def search(
        self, sources, limit: float = np.inf, min_only: bool = False, tree: bool = False
    ):
        """Shortest-path distances over the loaded weights: one row per source,
        or with ``min_only`` one row of the distance to the nearest source;
        sites farther than ``limit`` are inf (scipy's limit is inclusive).
        With ``tree``, (distances, predecessors): each row's shortest-path
        tree as scipy returns it, -9999 at the source and past the limit."""
        return _csgraph_dijkstra(
            self._csr, directed=True, indices=sources, limit=limit, min_only=min_only,
            return_predecessors=tree,
        )


@lru_cache(maxsize=128)
def _graph(region: Region) -> LatticeGraph:
    return LatticeGraph(*region.edge_arrays(), region.n_sites())


@lru_cache(maxsize=128)
def _boundary_mask(region: Region) -> np.ndarray:
    """Sites on the first or last layer of an open axis: a Box window's
    boundary; no site of a torus."""
    coords = np.indices(region.shape).reshape(region.d, -1).T
    ends = (coords == 0) | (coords == np.array(region.shape) - 1)
    return np.any(ends & ~np.array(region.periodic), axis=1)


def _sites(region: Region, idx) -> list[Site]:
    """The sites of row-major site indices ``idx``, as tuples of Python ints."""
    coords = np.stack(np.unravel_index(idx, region.shape), axis=-1) + region.lo
    return list(map(tuple, coords.tolist()))


def scaled_weights(
    weights: np.ndarray, spec: Optional[DistributionSpec], n_sites: int
) -> tuple[np.ndarray, Optional[float]]:
    """(weights to sum paths in, scale) for weights of law ``spec`` on a region
    of ``n_sites`` sites; scale None means float mode."""
    weights = np.asarray(weights, dtype=np.float64)
    scale = spec.int_scale() if spec is not None else None
    if scale is None or scale <= 0:
        return weights, None
    scaled = weights * float(scale)
    snapped = np.rint(scaled)
    if not np.all(np.abs(scaled - snapped) < 1e-6):
        return weights, None
    # keep all path sums exactly representable in float64
    if (float(snapped.max(initial=0.0)) + 1.0) * n_sites > 2.0**52:
        return weights, None
    return snapped, float(scale)


def _effective_weights(field: WeightField) -> tuple[np.ndarray, Optional[float]]:
    """(weights to run shortest paths on, scale); scale None means float mode."""
    return scaled_weights(field.weights, field.spec, field.region.n_sites())


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class PassageResult:
    """Passage time with distance fields and geodesic structure.

    ``T_eff``, ``weff`` (the region's edge weights) and ``d_src_eff`` are what
    the shortest-path search ran on, in scaled units: integers times
    1/``scale`` when ``scale`` is set, time units otherwise.  ``T``, ``d_src``
    and ``d_dst`` are the same in time units.  ``d_src`` is per site of
    ``window``; on the torus it holds one row per cut site over the winding
    cylinder, inf past the limit that cut site's search ran with (the least
    winding cost found before it), and all inf for a cut site that
    :func:`torus_passage` skipped because one of its two lower bounds shows
    it cannot attain T.
    A Box result's ``src_tree`` is the predecessor row (scipy's) of the
    search behind ``d_src_eff``; its ``d_dst`` (and ``d_dst_eff``) comes on
    first read from one search from ``dst``, and ``edge_law`` (T as a
    function of each edge's weight) on first read from those rows and that
    tree.
    ``dag_edge_idx`` and ``gint_edge_idx`` hold sorted region edge indices.
    The sample geodesic is stored as indices too: ``path_idx`` its region
    site indices, ``path_edge_idx`` the region edge of each step, in path
    order; ``sample_path`` builds its site tuples from ``path_idx`` on first
    read.  ``field`` is that of the last search, and ``window`` its region:
    after ``grows`` growth steps of a Box window (``max_grows`` of
    :func:`passage_time` is the one setting for them), the larger box, whose
    field holds the first window's weights on the first window's edges, hand
    edits included.  ``boundary_flag`` says the geodesic DAG still touched
    that window's boundary.  A box result without geometry has the DAG but
    an empty path and ``gint_edge_idx``.  In a box the sample path is a
    simple geodesic.  On the torus it is a closed walk of unit steps from a
    cut site back to itself, winding once around axis 0, of weight T; it is
    a simple cycle unless the law has an atom at 0, when it can revisit a
    site through a zero-weight loop.
    """

    T_eff: float
    src: Site
    dst: Site
    weff: np.ndarray
    d_src_eff: np.ndarray
    dag_edge_idx: np.ndarray
    gint_edge_idx: np.ndarray
    path_idx: np.ndarray
    path_edge_idx: np.ndarray
    field: WeightField
    scale: Optional[float]
    grows: int = 0
    boundary_flag: bool = False
    src_tree: Optional[np.ndarray] = None

    @property
    def window(self) -> Region:
        return self.field.region

    def _time(self, x):
        return x / self.scale if self.scale else x

    @cached_property
    def T(self) -> float:
        return self._time(self.T_eff)

    @cached_property
    def d_src(self) -> np.ndarray:
        return self._time(self.d_src_eff)

    @cached_property
    def sample_path(self) -> list[Site]:
        return _sites(self.window, self.path_idx)

    def path_edge_indices(self) -> list[int]:
        """Region edge indices of the sampled geodesic, in path order."""
        return self.path_edge_idx.tolist()

    @cached_property
    def d_dst_eff(self) -> np.ndarray:
        if not isinstance(self.window, Box):
            raise ValueError("a torus passage result has no d_dst")
        dst = self.window.site_index(self.dst)
        return _graph(self.window).load(self.weff).search([dst])[0]

    @cached_property
    def d_dst(self) -> np.ndarray:
        return self._time(self.d_dst_eff)

    @cached_property
    def edge_law(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, a) per region edge e = {u, v}, in scaled units: T as a function
        of e's weight s alone is T(s) = min(C[e], a[e] + s).  C is T with e
        deleted (inf for a bridge) and a = min(d_src[u] + d_dst[v], d_src[v]
        + d_dst[u]) is the cheapest approach through e, exactly, although the
        intact rows may route through e: a row that does adds a term such as
        d_src[v] + w + s + d_dst[v], a walk that avoids e or uses it twice,
        which costs at least C or the other orientation's term.  Edge
        criticality, the largest weight at which e still lies on some
        geodesic, is D = C - min(C, a) in time units.  Needs a Box result
        with geometry, and reads ``d_dst`` (one search on first read).

        C is T itself off the intersection, where a geodesic avoids the
        edge, and on it one exact replacement-path pass along the sample
        path p_0 = src, ..., p_m = dst.  Give each p_i the parent p_(i-1) in
        the source's shortest-path tree (it stays tight and acyclic) and let
        label(x) be the index of the first path site on x's tree path, found
        by pointer doubling.  C at e_i = {p_i, p_(i+1)} is the least
        d_src[x] + w + d_dst[y] over the arcs x -> y off the path with
        label(x) <= i < label(y); no step compares distances, so ties and
        zero weights need no case.
        - A route avoiding e_i goes from label 0 to label m, so it uses such
          an arc (the only such path arc is e_i) and costs at least its term.
        - For label(x) <= i the tree path to x avoids e_i and costs d_src[x].
        - For label(y) = j > i a route from y through e_i costs at least
          d_src[y] - d_src[p_(i+1)] + d_dst[p_(i+1)]; y's subtree up to p_j,
          then the path, avoids e_i and costs d_src[y] - d_src[p_j] +
          d_dst[p_j], no more, so d_dst[y] avoids e_i.
        In binary64 the tree sums are the sums the search stored, so the
        source side is exact; the rest differs from a search by rounding.
        """
        _require_box_geometry(self)
        graph, d_src, d_dst = _graph(self.window), self.d_src_eff, self.d_dst_eff
        t, h = graph.tails, graph.heads
        a = np.minimum(d_src[t] + d_dst[h], d_src[h] + d_dst[t])
        C = np.full(self.weff.size, self.T_eff)
        if not self.gint_edge_idx.size:
            return C, a
        parent, gint, path = self.src_tree, self.gint_edge_idx, self.path_idx
        label = np.full(parent.size, -1)
        label[path] = np.arange(path.size)
        on_path = label >= 0
        # path sites stay put, and so do sites the search never reached (label -1)
        up = np.where(on_path | (parent < 0), np.arange(parent.size), parent)
        while not np.array_equal(nxt := up[up], up):
            up = nxt
        label = label[up]
        # an edge can cross only from its lower-labelled end; path arcs never count
        x, y = np.where(label[t] <= label[h], t, h), np.where(label[t] <= label[h], h, t)
        path_arc = on_path[x] & on_path[y] & (label[y] - label[x] == 1)
        cross = np.flatnonzero((label[x] >= 0) & (label[x] < label[y]) & ~path_arc)
        x, y = x[cross], y[cross]
        terms = d_src[x] + self.weff[cross] + d_dst[y]
        cover = _cover_min(label[x], label[y], terms, path.size - 1)
        C[gint] = cover[np.minimum(label[t[gint]], label[h[gint]])]
        return C, a


# ---------------------------------------------------------------------------
# Tight-arc machinery
# ---------------------------------------------------------------------------


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d array, its distinct values in ascending order,
    by one sort and a mask of the entries that differ from their
    predecessor: several times cheaper on the path-sized edge arrays here."""
    s = np.sort(a)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _tree_path(pred, dst: int) -> list[int]:
    """The path into dst of a shortest-path tree (scipy predecessors), source
    first; just [dst] when dst is the source or was not reached."""
    up, path = memoryview(pred), [dst]
    while (u := up[path[-1]]) >= 0:
        path.append(u)
    path.reverse()
    return path


def _geodesic_dag(graph: LatticeGraph, weff, d_src, seed):
    """Tight arcs into the sites that reach dst through tight arcs: (from, to, edge).

    u -> v along edge e is tight when d_src[u] + weff[e] == d_src[v], the
    binary64 sum the relaxation produced.  ``seed`` is a path of tight arcs
    that ends at dst: ``[dst]``, or the path into dst of the search's own
    shortest-path tree.  A tree arc pred[v] -> v is tight: the search relaxes
    the arcs out of u only once u is popped, when d_src[u] is final, and each
    time it lowers d_src[v] through u -> v it stores the rounded sum
    d_src[u] + weff[e] and sets pred[v] = u.  The last such store stays, so
    d_src[v] is exactly the sum this test forms for pred[v] -> v.  Every
    seed site therefore reaches dst through tight arcs.

    One numpy gather tests every CSR in-arc of the seed's sites.  A
    backward search, in pure Python, then runs only from the tails of the
    tight ones that lie off the seed, with the seed's sites already seen, so
    each site that reaches dst has its in-arcs tested once and the arcs are
    the same set whatever the seed.  When the seed's own len(seed) - 1 arcs
    are the only tight ones found, the DAG is the seed: a DAG site off it
    would reach dst along tight arcs and so enter the seed through one.
    Memoryviews hand out Python ints and floats, several times cheaper per
    element than numpy scalars.
    """
    csr = graph._csr
    path = np.asarray(seed, dtype=np.int64)
    first = csr.indptr[path]
    count = csr.indptr[path + 1] - first
    head = np.repeat(path, count)
    pos = np.arange(head.size) + np.repeat(first - np.cumsum(count) + count, count)
    tail, edge = csr.indices[pos], graph._edge_of_pos[pos]
    tight = d_src[tail] + weff[edge] == d_src[head]
    found = (tail[tight], head[tight], edge[tight])
    if found[0].size == len(seed) - 1:
        return found
    indptr, nbr, d, w = map(memoryview, (csr.indptr, csr.indices, d_src, weff))
    edges = memoryview(graph._edge_of_pos)
    arcs, seen, stack = [], set(seed), []
    for u in found[0].tolist():
        if u not in seen:
            seen.add(u)
            stack.append(u)
    while stack:
        v = stack.pop()
        for pos in range(indptr[v], indptr[v + 1]):
            u, e = nbr[pos], edges[pos]
            if d[u] + w[e] == d[v]:
                arcs.append((u, v, e))
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    more = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
    return tuple(np.concatenate(pair) for pair in zip(found, more))


def _bfs(out: dict, src: int, avoid: int = -1) -> dict:
    """Fewest arcs from src to each site it reaches along ``out``'s (head, key)
    arcs, skipping the arcs whose key is ``avoid``."""
    hops, frontier = {src: 0}, [src]
    while frontier:
        nxt = []
        for a in frontier:
            for b, key in out[a]:
                if key != avoid and b not in hops:
                    hops[b] = hops[a] + 1
                    nxt.append(b)
        frontier = nxt
    return hops


def _geodesic_walk(dag_from, dag_to, dag_edge, d, src: int, dst: int, key_of=None):
    """(sample geodesic as site indices, the key of each of its arcs, sorted
    keys on every src -> dst path).

    An arc's key is its own edge in a box; on the cylinder ``key_of`` maps it
    to the torus edge it covers.  The path walks back from dst through each
    site's smallest-index DAG predecessor; box and cylinder site indices are
    row-major, so that is the lexicographically smallest site.  A zero-length
    arc u -> v (d[u] == d[v]) is a candidate only when u is fewer arcs from
    src than v, so (d, hops) strictly decreases along the walk and the path
    is simple.

    A key on every path lies on this one.  The path arc out of position i is
    a cut iff no DAG arc leaving positions 0..i lands beyond i, directly or
    through off-path sites.  Each off-path site is explored once, from the
    first position that reaches it, so a running maximum of the landings
    decides every path arc in one pass.  Dropping a path arc cuts dst off
    exactly when dropping both arcs of its edge does: a detour through the
    reverse arc can skip the loop it closes.  A torus edge with several lifts
    in the DAG and no cut among its path arcs is in iff one BFS that avoids
    all of its lifts misses dst.
    """
    edges = dag_edge.tolist()
    keys = edges if key_of is None else key_of[dag_edge].tolist()
    frm, to = dag_from.tolist(), dag_to.tolist()
    out = defaultdict(list)
    for a, b, k in zip(frm, to, keys):
        out[a].append((b, k))
    flat = (d[dag_from] == d[dag_to]).tolist()
    hops = _bfs(out, src) if any(flat) else None
    pred = {}
    for a, b, f in zip(frm, to, flat):
        if (not f or hops[a] < hops[b]) and a < pred.get(b, a + 1):
            pred[b] = a
    path = [dst]
    while path[-1] != src:
        path.append(pred[path[-1]])
    path.reverse()

    at = {v: i for i, v in enumerate(path)}
    explored = set()
    reach = 0  # furthest path position reached by leaving the path by now
    steps, cut, not_cut = [], set(), set()
    for i, (u, nxt) in enumerate(zip(path, path[1:])):
        stack = [u]
        while stack:
            x = stack.pop()
            for v, k in out[x]:
                if x == u and v == nxt:
                    key = k
                elif v in at:
                    reach = max(reach, at[v])
                elif v not in explored:
                    explored.add(v)
                    stack.append(v)
        steps.append(key)
        (cut if reach <= i else not_cut).add(key)
    if key_of is not None:
        lifts = Counter(k for k, _ in set(zip(keys, edges)))
        for k in not_cut - cut:
            if lifts[k] > 1 and dst not in _bfs(out, src, avoid=k):
                cut.add(k)
    return path, steps, sorted(cut)


def _geodesics(arcs, path: list[int], d, dag_keys: np.ndarray, key_of=None):
    """(sample geodesic's site indices, the key of each of its arcs, sorted
    keys on every geodesic) of the DAG ``arcs`` that :func:`_geodesic_dag`
    grew from the tight path ``path``, src first, as int64 arrays;
    ``dag_keys`` are the sorted keys of all of its arcs.

    When the DAG holds only the path's own arcs, the path is the only
    geodesic, so the walk would take it, and each of its arcs is a cut, so
    every key in the DAG, each lift of a torus edge included, lies on every
    geodesic; the walk runs only otherwise.  :func:`_geodesic_dag` then
    returns those arcs in path order, one into each site after src.
    """
    if arcs[0].size == len(path) - 1:
        keys = arcs[2] if key_of is None else key_of[arcs[2]]
        return np.asarray(path, dtype=np.int64), keys, dag_keys
    walk = _geodesic_walk(*arcs, d, path[0], path[-1], key_of)
    return tuple(np.asarray(x, dtype=np.int64) for x in walk)


# ---------------------------------------------------------------------------
# Point-to-point passage
# ---------------------------------------------------------------------------


def _grow_box(box: Box) -> Box:
    """``box`` with every face moved out by half its shortest side (at least
    1).  A point window's shortest side is 2w + 1, so ``point_window(n, d,
    w)`` grows to ``point_window(n, d, 2w)`` for every d >= 2."""
    g = max(1, min(box.shape) // 2)
    return Box(tuple(l - g for l in box.lo), tuple(h + g for h in box.hi))


def _search_inside(field: WeightField, pairs, max_grows: int):
    """One search from each (src, dst) pair's source and the geodesic DAG into
    its destination, grown from the search tree's path into it, rerun on a
    grown window while some DAG touches the window's boundary, at most
    ``max_grows`` times; only a Box field with a law grows.  Each grow moves
    every face out by half the window's shortest side (:func:`_grow_box`), so
    a point window's half-width w doubles.

    Returns ``(field, weff, scale, dists, preds, dags, grows, touched)`` of
    the last window: distance and predecessor rows, one per pair, and per
    DAG ``(tree path, arcs)``; ``dags`` stops at the first DAG that touches.
    A grown field draws its new edges from the law and keeps the current
    weights on the edges both windows share, so hand-edited weights survive
    the grow.
    """
    growable = isinstance(field.region, Box) and field.spec is not None
    grows = 0
    while True:
        region = field.region
        graph, boundary = _graph(region), _boundary_mask(region)
        weff, scale = _effective_weights(field)
        dists, preds = graph.load(weff).search(
            [region.site_index(src) for src, _ in pairs], tree=True
        )
        dags, touched = [], False
        for row, pred, (_, dst) in zip(dists, preds, pairs):
            path = _tree_path(pred, region.site_index(dst))
            arcs = _geodesic_dag(graph, weff, row, path)
            dags.append((path, arcs))
            touched = bool(np.any(boundary[arcs[0]]) or np.any(boundary[arcs[1]]))
            if touched:
                break
        if not (touched and growable and grows < max_grows):
            return field, weff, scale, dists, preds, dags, grows, touched
        big = _grow_box(region)
        weights = sample_field(field.spec, big, field.seed, for_fpp=False).weights
        _, tails, axes, _ = _edge_tables(region)
        coords = np.unravel_index(tails, region.shape)
        at = np.ravel_multi_index(
            [c + (l - bl) for c, l, bl in zip(coords, region.lo, big.lo)], big.shape
        )
        weights[_edge_tables(big)[0][at * region.d + axes]] = field.weights
        field = WeightField(big, weights, field.seed, field.spec)
        grows += 1


def passage_time(
    field: WeightField,
    src: Site,
    dst: Site,
    *,
    want_geometry: bool = True,
    max_grows: int = GROW_LIMIT,
) -> PassageResult:
    """Exact minimum passage time over lattice paths from src to dst.

    ``max_grows`` is the one growth setting.  A Box field with a law (``spec``
    set) reruns the search on a grown window whenever a geodesic-DAG edge
    touches the boundary, up to ``max_grows`` times, and ``max_grows=0``
    never grows; past that the result is flagged (``boundary_flag``).  Each
    grow moves every face out by half the shortest side, so a point window's
    half-width w doubles.  The grown window keeps the field it grew from,
    edits included, and draws only its new edges; a sampled Box field keys
    its weights by lattice coordinates, so those are the very weights a
    sample of the larger window holds: growing reveals more of the same
    environment.  The DAG and the test run with or without
    ``want_geometry``, so T, ``grows`` and the flag do not depend on it; only
    the sample geodesic and the intersection (``path_idx``,
    ``path_edge_idx``, ``gint_edge_idx``) are skipped.
    """
    field, weff, scale, dists, preds, dags, grows, touched = _search_inside(
        field, [(src, dst)], max_grows
    )
    (tree_path, arcs), region = dags[0], field.region
    dag = _distinct(arcs[2])
    path = steps = member = np.empty(0, dtype=np.int64)
    if want_geometry:
        path, steps, member = _geodesics(arcs, tree_path, dists[0], dag)
    return PassageResult(
        float(dists[0, region.site_index(dst)]), src, dst, weff, dists[0], dag,
        member, path, steps, field, scale, grows, boundary_flag=touched,
        src_tree=preds[0],
    )


def _edge_removal_increases_T(
    graph: LatticeGraph, weff: np.ndarray, edge: int, src: int, dst: int, T_eff: float
) -> bool:
    w2 = weff.copy()
    w2[edge] = np.inf
    d = graph.load(w2).search([src])[0]
    return bool(d[dst] > T_eff)


def edge_removal_oracle(field: WeightField, src: Site, dst: Site) -> set[int]:
    """e lies in every geodesic iff deleting e strictly increases T (exact oracle)."""
    region = field.region
    graph = _graph(region)
    weff, _ = _effective_weights(field)
    si, di = region.site_index(src), region.site_index(dst)
    T = float(graph.load(weff).search([si])[0][di])
    return {
        e
        for e in range(region.n_edges())
        if _edge_removal_increases_T(graph, weff, e, si, di, T)
    }


# ---------------------------------------------------------------------------
# Single-edge law
# ---------------------------------------------------------------------------


def _require_box_geometry(result: PassageResult) -> None:
    if not isinstance(result.window, Box):
        raise ValueError("single-edge updates need a Box result, not a torus one")
    if not result.path_idx.size:
        raise ValueError("single-edge updates need a passage result with geometry")


def _cover_min(lo: np.ndarray, hi: np.ndarray, val: np.ndarray, m: int) -> np.ndarray:
    """out[i] = min of val[k] over the k with lo[k] <= i < hi[k] (inf if none),
    for i < m: each range writes its value to the two blocks of length 2^j
    that cover it, and each level of blocks hands its minima to its halves."""
    j = np.frexp(hi - lo)[1] - 1  # the largest 2^j <= hi - lo
    table = np.full((m.bit_length(), 2 * m), np.inf)
    np.minimum.at(table, (j, lo), val)
    np.minimum.at(table, (j, hi - np.left_shift(1, j)), val)
    for level in range(table.shape[0] - 1, 0, -1):
        half = 1 << (level - 1)
        for lower in (table[level - 1, :m], table[level - 1, half : half + m]):
            np.minimum(lower, table[level, :m], out=lower)
    return table[0, :m]


def single_edge_update(result: PassageResult, edge_idx, new_t):
    """New passage time after setting one edge weight; equals a full recompute.

    ``edge_idx`` and ``new_t`` may be arrays, each entry changing its edge
    alone; the answer has their broadcast shape (a float for scalars).  For
    edge e set to t' it is min(C[e], a[e] + t') under ``result.edge_law``.
    The law runs in scaled units; a value off the integer grid enters
    unrounded.  Integer mode is exact on the grid; in float mode a[e] + t'
    can differ by an ulp from the left-to-right sum d_src[u] + t' + d_dst[v]
    of the same path.  An edge index outside [0, E) or a negative or NaN
    weight raises ValueError.
    """
    edges, E = np.asarray(edge_idx), result.weff.size
    if edges.dtype.kind not in "iu" or np.any((edges < 0) | (edges >= E)):
        raise ValueError(f"edge index {edge_idx} outside 0..{E - 1}")
    t = np.asarray(new_t, dtype=np.float64)
    if not np.all(t >= 0):
        raise ValueError("negative or NaN edge weight")
    if result.scale:
        t = t * result.scale
        t = np.where(np.abs(t - np.rint(t)) <= 1e-6, np.rint(t), t)
    C, a = result.edge_law
    T_new = result._time(np.minimum(C[edges], a[edges] + t))
    return float(T_new) if T_new.ndim == 0 else T_new


# ---------------------------------------------------------------------------
# Torus winding passage
# ---------------------------------------------------------------------------


class _Cylinder(Region):
    """Two fundamental domains of the torus (Z/nZ)^d cut along x_0 = 0.

    A region with levels 0..2n along axis 0, which is open, and side n along
    the other axes, which wrap; K = n^(d-1) sites per level.  Cylinder site
    i covers torus site i mod n^d, so every cylinder edge covers the torus
    edge of the same axis out of that site, recorded in ``torus_edge``.
    """

    def __init__(self, n: int, d: int):
        super().__init__(
            (0,) * d, (2 * n + 1,) + (n,) * (d - 1), (False,) + (True,) * (d - 1)
        )
        self.n, self.K = n, n ** (d - 1)
        _, tails, axes, _ = _edge_tables(self)
        self.torus_edge = tails % n**d * d + axes


@lru_cache(maxsize=32)
def _cylinder(n: int, d: int) -> _Cylinder:
    return _Cylinder(n, d)


def _winding_bounds(graph: LatticeGraph, n: int, K: int, limit: float):
    """(cut bound, top bound) on each cut site's winding cost, over the loaded
    cylinder weights: the distance to its far copy from the nearest site of
    the cut, and from the nearest site of the cut's second copy, each inf
    past ``limit`` (proofs at :func:`torus_passage`)."""
    cut, far, top = np.arange(K), n * K + np.arange(K), 2 * n * K + np.arange(K)
    return tuple(
        graph.search(sources, limit=limit, min_only=True)[far] for sources in (cut, top)
    )


def torus_passage(field: WeightField) -> PassageResult:
    """Minimal weight over closed torus paths winding once around axis 0.

    Cuts along x_0 = 0, lifts to a cylinder of two fundamental domains, and
    minimizes T(y), the distance from cut site y to its shifted copy
    y + n·e_0; geodesic structure is computed per minimizing cut site and
    mapped back to torus edges.  The intersection is taken over the
    minimizing cycles of every minimizing cut site.  The sample path is a
    closed walk of weight T, and under a law with an atom at 0 it can revisit
    a site through a zero-weight loop (29 of 120 ``Bernoulli(0, 1, 0.3)``
    tori at n = 4, 8, 16 do); see ``PassageResult``.

    Only the cut sites that can still attain T are searched.  U, the
    cheapest straight winding row summed as the relaxation sums it, is at
    least T.  Two one-way ``min_only`` searches, both stopped at U·slack and
    both read at each cut site's far copy far[y] = y + n·e_0, bound T(y)
    from below (:func:`_winding_bounds`); ``lower[y]`` is the larger read.
    A search's value at a site is at most the left-to-right rounded sum of
    every path into it from one of its sources: it stores d[v] <= the
    rounded d[u] + w for each arc u -> v, and binary64 addition is monotone.

    - Cut bound, from the cut (level 0).  y is one of its sources, so it
      sums y's own tree path to far[y] from y's side, and that sum is the
      computed T(y): the bound is at most T(y) outright.
    - Top bound, from the cut's second copy (level 2n).  Let P be the path
      that gives T(y) and Q its prefix up to its first level-n site z.  Q
      lies in levels 0..n, since the cylinder has no level below 0.  Levels
      n..2n are an exact copy of levels 0..n, transverse edges at both end
      levels included (cylinder site i covers torus site i mod n^d), so Q
      shifted by n·e_0 runs from far[y] to the level-2n site z + n·e_0 over
      the same weights.  Read backwards it starts at a source, so the bound
      is at most Q's sum in reverse order, which is at most T(y) up to the
      slack below.

    The cut sites are then searched one at a time in stable order of
    ``lower``, each stopped at ``best``, the least T(y) found so far (U at
    first), until ``lower[y] > best·slack``; every later site then has
    T(y) > best >= T too.  A bound past U·slack reads inf, and then T(y) >
    U·slack >= best·slack as well.  scipy's limit is inclusive, and a row
    stopped at ``best`` equals the full row wherever it is at most
    ``best``.  T, the minimizers, their DAGs (sites at distance at most T)
    and the walk therefore match a full search from every cut site.  A
    skipped cut site's ``d_src`` row is all inf.

    Slack: let P have m <= N_cyl arcs, exact sum S, and u = eps/2.
    Recursive summation of at most m nonnegative terms errs by at most
    g = (m - 1)u / (1 - (m - 1)u) of the exact sum, in either order, so the
    top bound <= (reverse sum of Q) <= S(1 + g) <= T(y)(1 + g)/(1 - g) <
    T(y)(1 + 2·N_cyl·eps), while the rounded best·slack with slack = 1 +
    4·N_cyl·eps is at least best(1 + 3·N_cyl·eps).  So lower[y] >
    best·slack implies T(y) > best.  In integer mode the sums are exact and
    both bounds are at most T(y) outright.
    """
    region = field.region
    if not isinstance(region, Torus):
        raise ValueError("torus_passage requires a Torus region")
    n, d = region.n, region.d
    cyl = _cylinder(n, d)
    K, N = cyl.K, cyl.n_sites()
    graph = _graph(cyl)
    weff, scale = _effective_weights(field)
    wcyl = weff[cyl.torus_edge]
    graph.load(wcyl)
    # the cheapest straight row, summed left to right as the relaxation sums
    # it, bounds T; a 1-D .sum() would sum pairwise and could undercut T
    U = float(np.cumsum(weff[::d].reshape(n, K), axis=0)[-1].min())
    slack = 1.0 + 4.0 * N * np.finfo(np.float64).eps
    far = n * K + np.arange(K)
    lower = np.maximum(*_winding_bounds(graph, n, K, U * slack))
    dists, trees = np.full((K, N), np.inf), {}
    best = U
    for y in np.argsort(lower, kind="stable").tolist():
        if lower[y] > best * slack:
            break
        dists[y], trees[y] = graph.search(y, limit=best, tree=True)
        best = min(best, float(dists[y, far[y]]))
    vals = dists[np.arange(K), far]
    T_eff = float(vals.min())
    minimizers = np.flatnonzero(vals == T_eff)
    dags, inter, sample = [], None, None
    for y in minimizers.tolist():
        path = _tree_path(trees[y], int(far[y]))
        arcs = _geodesic_dag(graph, wcyl, dists[y], path)
        dags.append(_distinct(cyl.torus_edge[arcs[2]]))
        raw, steps, mem = _geodesics(arcs, path, dists[y], dags[-1], cyl.torus_edge)
        # both sorted and unique, so intersect1d skips its np.unique of each
        inter = mem if inter is None else np.intersect1d(inter, mem, assume_unique=True)
        if sample is None:
            sample = (raw % region.n_sites(), steps)
    start = region.site_from_index(int(sample[0][0]))
    return PassageResult(
        T_eff, start, start, weff, dists, _distinct(np.concatenate(dags)), inter,
        *sample, field, scale, 0,
    )


def torus_winding_oracle(field: WeightField, max_len: int) -> tuple[float, set[int]]:
    """Brute force over simple winding-one cycles up to ``max_len`` edges.

    Exponential; for cross-checks on tiny tori only.  Every winding cycle
    visits the hyperplane x_0 = 0, so roots range over cut sites.
    """
    region = field.region
    if not isinstance(region, Torus):
        raise ValueError("oracle requires a Torus region")
    n, d = region.n, region.d
    weff, scale = _effective_weights(field)
    best_T = math.inf
    best: list[frozenset[int]] = []

    def crossing(site: Site, nb: Site) -> int:
        if site[0] == n - 1 and nb[0] == 0:
            return 1
        if site[0] == 0 and nb[0] == n - 1:
            return -1
        return 0

    def dfs(site, start, winding, used, visited, cost):
        nonlocal best_T, best
        if cost > best_T:
            return
        for nb, edge in region.neighbors(site):
            eidx = region.edge_index(edge)
            if eidx in used:
                continue
            w = winding + crossing(site, nb)
            c = cost + float(weff[eidx])
            if nb == start:
                if w == 1 and used:
                    if c < best_T:
                        best_T = c
                        best = [frozenset(used | {eidx})]
                    elif c == best_T:
                        best.append(frozenset(used | {eidx}))
                continue
            if nb in visited or len(used) + 1 >= max_len:
                continue
            dfs(nb, start, w, used | {eidx}, visited | {nb}, c)

    cut_sites = [s for s in region.sites() if s[0] == 0]
    for start in cut_sites:
        dfs(start, start, 0, frozenset(), {start}, 0.0)
    inter: Optional[frozenset[int]] = None
    for edges in best:
        inter = edges if inter is None else (inter & edges)
    T = best_T / scale if scale else best_T
    return T, set(inter or set())


# ---------------------------------------------------------------------------
# Averaged passage time
# ---------------------------------------------------------------------------


@dataclass
class AveragedPassage:
    """F_n, its terms T(z, z + n e_1) by source z, and the window growth behind
    them: ``grows`` growth steps, and ``boundary_flag`` when some term's
    geodesic DAG still touched the final window's boundary."""

    F_n: float
    terms: dict[Site, float]
    grows: int
    boundary_flag: bool


def averaged_passage(
    field: WeightField,
    n: int,
    m: Optional[int] = None,
    *,
    max_grows: int = GROW_LIMIT,
) -> AveragedPassage:
    """F_n: the passage time averaged over sources z in the L1 ball B_m.

    m defaults to ceil(n^(1/4)).  One multi-source search gives every term;
    each term's geodesic DAG gets the boundary test of :func:`passage_time`,
    and the window grows for all terms at once when any DAG touches it.
    """
    d = field.region.d
    if m is None:
        m = math.ceil(n**0.25)
    shift = tuple(n if i == 0 else 0 for i in range(d))
    pairs = [(z, tuple(a + b for a, b in zip(z, shift))) for z in ball(m, d)]
    for z, z2 in pairs:
        if not (field.region.contains(z) and field.region.contains(z2)):
            raise ValueError(f"window too small for translate {z}")
    field, _, scale, dists, _, _, grows, touched = _search_inside(field, pairs, max_grows)
    terms = {}
    for (z, z2), row in zip(pairs, dists):
        val = float(row[field.region.site_index(z2)])
        terms[z] = val / scale if scale else val
    return AveragedPassage(sum(terms.values()) / len(terms), terms, grows, touched)


def simple_path_matrix(region: Region, src: Site, dst: Site) -> np.ndarray:
    """0/1 matrix of the self-avoiding ``src -> dst`` paths, one row per path
    and one column per edge index (exhaustive; for tiny regions only).

    The minimum over rows of ``P @ w`` is the passage time under weights w.
    """
    rows = []

    def dfs(site, visited, edges):
        if site == dst:
            rows.append(edges)
            return
        for nb, edge in region.neighbors(site):
            if nb not in visited:
                dfs(nb, visited | {nb}, edges + [region.edge_index(edge)])

    dfs(src, {src}, [])
    P = np.zeros((len(rows), region.n_edges()))
    for r, edges in enumerate(rows):
        P[r, edges] = 1.0
    return P


def brute_force_passage(field: WeightField, src: Site, dst: Site) -> float:
    """Exhaustive minimum over self-avoiding paths (oracle for tiny regions)."""
    weff, scale = _effective_weights(field)
    P = simple_path_matrix(field.region, src, dst)
    # a masked sum, not P @ weff, so an infinite weight off a path costs nothing
    best = float(np.where(P > 0, weff, 0.0).sum(axis=1).min(initial=math.inf))
    return best / scale if scale else best
