"""Finite lattice geometry: boxes in Z^d, tori (Z/nZ)^d, edges, and L1 balls.

Sites are plain integer tuples.  An edge is identified by its base site and an
axis; the edge runs from ``base`` to ``base + unit(axis)`` (wrapping on a
torus).  Every region exposes a dense edge index (row-major over sites, then
axis) so that weight fields can live in flat numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True)
class EdgeId:
    """Canonical lattice edge: from ``base`` to ``base + unit(axis)``."""

    base: Site
    axis: int

    def endpoints(self) -> tuple[Site, Site]:
        head = list(self.base)
        head[self.axis] += 1
        return self.base, tuple(head)


def unit(axis: int, d: int) -> Site:
    return tuple(1 if i == axis else 0 for i in range(d))


def add(a: Site, b: Site) -> Site:
    return tuple(x + y for x, y in zip(a, b))


def ball(m: int, d: int) -> list[Site]:
    """All sites x with ||x||_1 <= m, in lexicographic order."""
    if m < 0:
        raise ValueError("radius must be >= 0")
    out: list[Site] = []

    def rec(prefix: list[int], budget: int, axes_left: int) -> None:
        if axes_left == 0:
            out.append(tuple(prefix))
            return
        for v in range(-budget, budget + 1):
            prefix.append(v)
            rec(prefix, budget - abs(v), axes_left - 1)
            prefix.pop()

    rec([], m, d)
    return out


class Region:
    """Common interface for Box and Torus regions."""

    d: int

    # -- sites -----------------------------------------------------------
    def n_sites(self) -> int:
        raise NotImplementedError

    def contains(self, site: Site) -> bool:
        raise NotImplementedError

    def site_index(self, site: Site) -> int:
        raise NotImplementedError

    def site_from_index(self, idx: int) -> Site:
        raise NotImplementedError

    def sites(self) -> Iterator[Site]:
        for i in range(self.n_sites()):
            yield self.site_from_index(i)

    # -- edges -----------------------------------------------------------
    def n_edges(self) -> int:
        raise NotImplementedError

    def edge_index(self, edge: EdgeId) -> int:
        raise NotImplementedError

    def edge_from_index(self, idx: int) -> EdgeId:
        raise NotImplementedError

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) site-index arrays, one entry per edge, edge-index order."""
        raise NotImplementedError

    def neighbors(self, site: Site) -> list[tuple[Site, EdgeId]]:
        raise NotImplementedError


def enumerate_edges(region: Region) -> list[EdgeId]:
    """Every edge of the region exactly once, in dense index order."""
    return [region.edge_from_index(i) for i in range(region.n_edges())]


@dataclass(frozen=True)
class Box(Region):
    """Axis-aligned box of sites {x : lo_i <= x_i <= hi_i}."""

    lo: Site
    hi: Site

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty box")
        object.__setattr__(self, "d", len(self.lo))
        shape = tuple(h - l + 1 for l, h in zip(self.lo, self.hi))
        object.__setattr__(self, "shape", shape)
        strides = [0] * self.d
        acc = 1
        for i in reversed(range(self.d)):
            strides[i] = acc
            acc *= shape[i]
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_nsites", acc)

    # sites
    def n_sites(self) -> int:
        return self._nsites

    def contains(self, site: Site) -> bool:
        return len(site) == self.d and all(
            l <= x <= h for x, l, h in zip(site, self.lo, self.hi)
        )

    def site_index(self, site: Site) -> int:
        if not self.contains(site):
            raise ValueError(f"site {site} outside box")
        return sum((x - l) * s for x, l, s in zip(site, self.lo, self._strides))

    def site_from_index(self, idx: int) -> Site:
        out = []
        for l, s in zip(self.lo, self._strides):
            q, idx = divmod(idx, s)
            out.append(l + q)
        return tuple(out)

    # edges
    def n_edges(self) -> int:
        return int(_box_edge_tables(self)[1].size)

    def edge_index(self, edge: EdgeId) -> int:
        base, head = edge.endpoints()
        if not (self.contains(base) and self.contains(head)):
            raise ValueError(f"edge {edge} outside box")
        pair = self.site_index(base) * self.d + edge.axis
        idx = int(_box_edge_tables(self)[0][pair])
        assert idx >= 0
        return idx

    def edge_from_index(self, idx: int) -> EdgeId:
        _, tails, axes, _ = _box_edge_tables(self)
        return EdgeId(self.site_from_index(int(tails[idx])), int(axes[idx]))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        _, tails, _, heads = _box_edge_tables(self)
        return tails, heads

    def neighbors(self, site: Site) -> list[tuple[Site, EdgeId]]:
        if not self.contains(site):
            raise ValueError(f"site {site} outside box")
        out = []
        for a in range(self.d):
            up = add(site, unit(a, self.d))
            if self.contains(up):
                out.append((up, EdgeId(site, a)))
            down = add(site, tuple(-u for u in unit(a, self.d)))
            if self.contains(down):
                out.append((down, EdgeId(down, a)))
        return out


@dataclass(frozen=True)
class Torus(Region):
    """The torus (Z/nZ)^d; every site has degree 2d and E = d * n^d."""

    n: int
    d: int = field(default=2)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("torus side must be >= 3")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        strides = [self.n ** (self.d - 1 - i) for i in range(self.d)]
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_nsites", self.n**self.d)

    def n_sites(self) -> int:
        return self._nsites

    def contains(self, site: Site) -> bool:
        return len(site) == self.d and all(0 <= x < self.n for x in site)

    def site_index(self, site: Site) -> int:
        if not self.contains(site):
            raise ValueError(f"site {site} outside torus")
        return sum(x * s for x, s in zip(site, self._strides))

    def site_from_index(self, idx: int) -> Site:
        out = []
        for s in self._strides:
            q, idx = divmod(idx, s)
            out.append(q)
        return tuple(out)

    def wrap(self, site: Sequence[int]) -> Site:
        return tuple(x % self.n for x in site)

    def n_edges(self) -> int:
        return self.d * self._nsites

    def edge_index(self, edge: EdgeId) -> int:
        return self.site_index(edge.base) * self.d + edge.axis

    def edge_from_index(self, idx: int) -> EdgeId:
        return EdgeId(self.site_from_index(idx // self.d), idx % self.d)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _torus_edge_arrays(self)

    def neighbors(self, site: Site) -> list[tuple[Site, EdgeId]]:
        if not self.contains(site):
            raise ValueError(f"site {site} outside torus")
        out = []
        for a in range(self.d):
            up = self.wrap(add(site, unit(a, self.d)))
            out.append((up, EdgeId(site, a)))
            down = self.wrap(add(site, tuple(-u for u in unit(a, self.d))))
            out.append((down, EdgeId(down, a)))
        return out


# Edge tables are cached by region value, so equal regions built anew (a
# fresh window per replica) share one table.


@lru_cache(maxsize=128)
def _box_edge_tables(box: Box):
    """(dense index of each (site, axis) pair or -1, tails, axes, heads).

    Edges run row-major over sites then axis, skipping (site, axis) pairs
    whose head would leave the box, with consecutive dense indices.
    """
    coords = np.stack(
        np.meshgrid(
            *[np.arange(l, h + 1) for l, h in zip(box.lo, box.hi)], indexing="ij"
        ),
        axis=-1,
    ).reshape(box._nsites, box.d)
    valid = np.zeros((box._nsites, box.d), dtype=bool)
    for a in range(box.d):
        valid[:, a] = coords[:, a] < box.hi[a]
    flat = valid.ravel()
    idx_of_pair = np.cumsum(flat) - 1
    idx_of_pair[~flat] = -1
    pairs = np.flatnonzero(flat)
    tails = pairs // box.d
    axes = pairs % box.d
    heads = tails + np.array(box._strides)[axes]
    return (
        idx_of_pair.astype(np.int64),
        tails.astype(np.int64),
        axes.astype(np.int64),
        heads.astype(np.int64),
    )


@lru_cache(maxsize=128)
def _torus_edge_arrays(torus: Torus) -> tuple[np.ndarray, np.ndarray]:
    tails = np.repeat(np.arange(torus._nsites, dtype=np.int64), torus.d)
    coords = np.stack(
        np.meshgrid(*[np.arange(torus.n)] * torus.d, indexing="ij"), axis=-1
    ).reshape(torus._nsites, torus.d)
    heads = np.empty(torus.n_edges(), dtype=np.int64)
    strides = np.array(torus._strides)
    for a in range(torus.d):
        delta = np.where(coords[:, a] == torus.n - 1, 1 - torus.n, 1)
        heads[a :: torus.d] = tails[a :: torus.d] + delta * strides[a]
    return tails, heads


def point_window(n: int, d: int, w: int) -> Box:
    """Simulation box [-w, n+w] x [-w, w]^(d-1) for point-to-point passage."""
    lo = tuple([-w] + [-w] * (d - 1))
    hi = tuple([n + w] + [w] * (d - 1))
    return Box(lo, hi)


def window_halfwidth(n: int, m: int = 0, kappa: float = 0.5) -> int:
    """Initial window half-width: max(m, ceil(kappa * n))."""
    return max(m, int(np.ceil(kappa * n)), 1)
