"""Finite lattice geometry: boxes in Z^d, tori (Z/nZ)^d, edges, and L1 balls.

Sites are plain integer tuples.  An edge is identified by its base site and an
axis; it runs from ``base`` one step up ``axis``, wrapping where that axis is
periodic.  Every region is a ``Region``: a row-major block of sites given by
``lo``, ``shape`` and one ``periodic`` flag per axis.  Box (no axis wraps)
and Torus (every axis wraps) only set that grid, so the site index, the
neighbour rule and the dense edge index exist once.  The edge index runs
row-major over sites, then axis, so that weight fields can live in flat numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True)
class EdgeId:
    """Canonical lattice edge: from ``base`` one step up ``axis``."""

    base: Site
    axis: int

    def endpoints(self) -> tuple[Site, Site]:
        head = list(self.base)
        head[self.axis] += 1
        return self.base, tuple(head)


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
    """A row-major block of sites in which some axes wrap.

    Axis i has ``shape[i]`` layers, from ``lo[i]`` up; ``periodic[i]`` says
    whether a step off its last layer wraps back to the first.  An edge
    leaves every site along each axis, except from the last layer of an open
    axis.  Box and Torus only set the grid; the cylinder that torus passage
    searches is such a region too.
    """

    def __init__(self, lo: Site, shape: Sequence[int], periodic: Sequence[bool]):
        shape, periodic = tuple(shape), tuple(periodic)
        n_sites = math.prod(shape)
        # every (site, axis) pair but those on the last layer of an open axis
        n_edges = sum(n_sites // s * (s if p else s - 1) for s, p in zip(shape, periodic))
        strides = tuple(math.prod(shape[i + 1 :]) for i in range(len(shape)))
        # object.__setattr__, because Box and Torus are frozen dataclasses
        for name, value in (
            ("lo", tuple(lo)),
            ("shape", shape),
            ("periodic", periodic),
            ("d", len(shape)),
            ("_strides", strides),
            ("_nsites", n_sites),
            ("_nedges", n_edges),
        ):
            object.__setattr__(self, name, value)

    # -- sites -----------------------------------------------------------
    def n_sites(self) -> int:
        return self._nsites

    def contains(self, site: Site) -> bool:
        return len(site) == self.d and all(
            0 <= x - l < s for x, l, s in zip(site, self.lo, self.shape)
        )

    def site_index(self, site: Site) -> int:
        if not self.contains(site):
            raise ValueError(f"site {site} outside {self}")
        return sum((x - l) * s for x, l, s in zip(site, self.lo, self._strides))

    def site_from_index(self, idx: int) -> Site:
        out = []
        for l, s in zip(self.lo, self._strides):
            q, idx = divmod(idx, s)
            out.append(l + q)
        return tuple(out)

    def sites(self) -> Iterator[Site]:
        for i in range(self.n_sites()):
            yield self.site_from_index(i)

    def wrap(self, site: Sequence[int]) -> Site:
        """``site`` with every periodic coordinate reduced into the region."""
        return tuple(
            l + (x - l) % s if p else x
            for x, l, s, p in zip(site, self.lo, self.shape, self.periodic)
        )

    def _step(self, site: Site, axis: int, delta: int) -> Site:
        """The site ``delta`` layers from ``site`` along ``axis``, wrapped."""
        out = list(site)
        out[axis] += delta
        return self.wrap(out)

    # -- edges -----------------------------------------------------------
    def n_edges(self) -> int:
        return self._nedges

    def edge_index(self, edge: EdgeId) -> int:
        base, axis = edge.base, edge.axis
        if not (
            0 <= axis < self.d
            and self.contains(base)
            and self.contains(self._step(base, axis, 1))
        ):
            raise ValueError(f"edge {edge} outside {self}")
        pair = self.site_index(base) * self.d + axis
        return int(_edge_tables(self)[0][pair])

    def edge_from_index(self, idx: int) -> EdgeId:
        if not 0 <= idx < self._nedges:
            raise ValueError(f"edge index {idx} outside 0..{self._nedges - 1}")
        _, tails, axes, _ = _edge_tables(self)
        return EdgeId(self.site_from_index(int(tails[idx])), int(axes[idx]))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) site-index arrays, one entry per edge, edge-index order."""
        _, tails, _, heads = _edge_tables(self)
        return tails, heads

    def neighbors(self, site: Site) -> list[tuple[Site, EdgeId]]:
        if not self.contains(site):
            raise ValueError(f"site {site} outside {self}")
        out = []
        for a in range(self.d):
            up = self._step(site, a, 1)
            if self.contains(up):
                out.append((up, EdgeId(site, a)))
            down = self._step(site, a, -1)
            if self.contains(down):
                out.append((down, EdgeId(down, a)))
        return out


def enumerate_edges(region: Region) -> list[EdgeId]:
    """Every edge of the region exactly once, in dense index order."""
    return [region.edge_from_index(i) for i in range(region.n_edges())]


@dataclass(frozen=True)
class Box(Region):
    """Axis-aligned box of sites {x : lo_i <= x_i <= hi_i}; no axis wraps."""

    lo: Site
    hi: Site

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty box")
        shape = tuple(h - l + 1 for l, h in zip(self.lo, self.hi))
        Region.__init__(self, self.lo, shape, (False,) * len(shape))


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
        Region.__init__(self, (0,) * self.d, (self.n,) * self.d, (True,) * self.d)


# Edge tables are cached by region value, so equal regions built anew (a
# fresh window per replica) share one table.


@lru_cache(maxsize=128)
def _edge_tables(region: Region):
    """(dense index of each (site, axis) pair or -1, tails, axes, heads).

    Edges run row-major over sites then axis, skipping the pairs on the last
    layer of an open axis, with consecutive dense indices.
    """
    shape = np.array(region.shape)
    coords = np.indices(region.shape).reshape(region.d, -1).T
    last = coords == shape - 1
    flat = (~last | np.array(region.periodic)).ravel()
    idx_of_pair = np.cumsum(flat) - 1
    idx_of_pair[~flat] = -1
    pairs = np.flatnonzero(flat)
    tails, axes = np.divmod(pairs, region.d)
    strides = np.array(region._strides)[axes]
    # only a periodic axis has edges off its last layer; they wrap to the first
    heads = tails + np.where(last.ravel()[pairs], (1 - shape[axes]) * strides, strides)
    return tuple(a.astype(np.int64) for a in (idx_of_pair, tails, axes, heads))


def point_window(n: int, d: int, w: int) -> Box:
    """Simulation box [-w, n+w] x [-w, w]^(d-1) for point-to-point passage."""
    lo = tuple([-w] + [-w] * (d - 1))
    hi = tuple([n + w] + [w] * (d - 1))
    return Box(lo, hi)


def window_halfwidth(n: int, m: int, kappa: float) -> int:
    """Initial window half-width: max(m + ceil(kappa * n^(2/3)), 1).

    Geodesics wander n^(2/3) off the straight line (the KPZ transverse
    scale), so that is the width that scales with where they go.  An F_n
    term starts up to m off the axis, so m is added: each term gets the
    room T gets.  The ceiling forgives a float error of 1e-9, so a perfect
    cube n gives the same width whichever way ``pow`` rounds its last bit.
    """
    return max(m + math.ceil(kappa * n ** (2 / 3) - 1e-9), 1)
