"""Directed last-passage percolation on the square with up-right paths.

Vertex weights sit on ([0,n] x [0,n]) and paths step by (1,0) or (0,1); the
last-passage time is the maximal path sum.  The default weight law is
geometric with mean one (P(k) = (1/2)^(k+1) on {0,1,2,...}), whose rescaled
fluctuations follow the GUE Tracy-Widom law with exponent 1/3.

A grid stores its weights by anti-diagonal, so the DP reads each diagonal as
one contiguous slice.  Cell (i, j) still draws from counter i*(n+1)+j, so a
sampled grid holds the very weights of the row-major stream, only reordered.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .weights import DistributionSpec, Geometric, counter_keys, sample_weights


class _Layout(NamedTuple):
    """The anti-diagonal order of one size, with the DP's scratch rows."""

    keys: np.ndarray  # counter keys of the cells in order, read-only
    plan: tuple[tuple[slice, slice], ...]  # (cells, strided) per diagonal
    rows: np.ndarray  # two DP scratch rows of length n + 2
    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, slice], ...]


@lru_cache(maxsize=8)
def _layout(n: int) -> _Layout:
    """The anti-diagonal order of size n, built once per n.

    Diagonal k = 0..2n holds cells (i, k-i), i0 <= i <= i1 with i0 = max(0, k-n)
    and i1 = min(k, n), by increasing i, right after diagonal k-1.  ``plan[k]``
    is ``(cells, strided)``: the slice of the diagonal's cells in that order,
    and the same cells in the row-major (n+1)^2 array, where (i, k-i) sits at
    k + i*n.  ``steps[k-1]`` is ``(out, prev_row, prev_below, cells)`` for
    diagonal k >= 1: views of rows i, i and i-1 of the scratch rows, indexed by
    row at offset 1, diagonal k in ``rows[k % 2]`` and k-1 in the other one.
    Every grid of size n is built or drawn through this, so n < 0 stops here.
    """
    if n < 0:
        raise ValueError(f"grid size must be >= 0, got {n}")
    rows = np.empty((2, n + 2))
    plan, steps = [], []
    off = 0
    for k in range(2 * n + 1):
        i0, i1 = max(0, k - n), min(k, n)
        cells = slice(off, off + i1 - i0 + 1)
        plan.append((cells, slice(k + i0 * n, k + i1 * n + 1, max(n, 1))))
        if k:
            out, prev = rows[k % 2], rows[1 - k % 2]
            steps.append((out[i0 + 1 : i1 + 2], prev[i0 + 1 : i1 + 2], prev[i0 : i1 + 1], cells))
        off = cells.stop
    flat_index = np.arange(off, dtype=np.uint64)
    counters = np.empty_like(flat_index)
    for cells, strided in plan:
        counters[cells] = flat_index[strided]
    keys = counter_keys(counters)
    keys.flags.writeable = False
    return _Layout(keys, tuple(plan), rows, tuple(steps))


class LppGrid:
    """(n+1) x (n+1) nonnegative vertex weights for paths (0,0) -> (n,n).

    ``diagonals`` holds the weights in the anti-diagonal order of
    :func:`_layout`.  ``vertex_weights`` rebuilds the (n+1) x (n+1) array, as a
    fresh read-only copy, each time it is read.  A grid built from an array is
    checked for negative or NaN weights; :func:`sample_grid` draws from a
    validated law and stores its draws unchecked.
    """

    n: int
    diagonals: np.ndarray

    def __init__(self, n: int, vertex_weights):
        w = np.asarray(vertex_weights, dtype=np.float64)
        if w.shape != (n + 1, n + 1):
            raise ValueError("vertex weight array must be (n+1) x (n+1)")
        if not w.min(initial=0.0) >= 0:  # NaN fails too
            raise ValueError("negative or NaN vertex weight")
        flat = w.reshape(-1)
        self.n, self.diagonals = n, np.empty(flat.size)
        for cells, strided in _layout(n).plan:
            self.diagonals[cells] = flat[strided]

    @property
    def vertex_weights(self) -> np.ndarray:
        flat = np.empty(self.diagonals.size)
        for cells, strided in _layout(self.n).plan:
            flat[strided] = self.diagonals[cells]
        w = flat.reshape(self.n + 1, self.n + 1)
        w.flags.writeable = False
        return w


def default_spec() -> Geometric:
    return Geometric(0.5)


def sample_grid(n: int, seed: int, spec: Optional[DistributionSpec] = None) -> LppGrid:
    """Deterministic grid: vertex (i, j) draws from mix64(seed, i*(n+1)+j).

    The draws are made in anti-diagonal order, from the keys of :func:`_layout`.
    """
    if spec is None:
        spec = default_spec()
    grid = LppGrid.__new__(LppGrid)
    grid.n, grid.diagonals = n, sample_weights(spec, seed, _layout(n).keys)
    return grid


def last_passage_value(grid: LppGrid) -> float:
    """T_n by anti-diagonal dynamic programming, O(n) memory.

    Each anti-diagonal is one contiguous slice of ``grid.diagonals``.  The
    scratch rows of :func:`_layout` hold consecutive diagonals by row, at
    offset 1, with -inf wherever a row has no cell; so row i takes max(row i,
    row i-1) of the previous diagonal plus its weight, with no special end
    cells.  The steps of :func:`_layout` are those views, built once per n.

    The scratch rows are shared by every call at the same n, so two threads
    must not call this at once; fpplab runs replicas in parallel in
    processes, each with its own cache.
    """
    n = grid.n
    d = grid.diagonals
    layout = _layout(n)
    rows = layout.rows
    rows.fill(-np.inf)
    rows[0, 1] = d[0]
    for out, prev_row, prev_below, cells in layout.steps:
        np.maximum(prev_row, prev_below, out=out)
        np.add(out, d[cells], out=out)
    return float(rows[0, n + 1])


def last_passage(grid: LppGrid) -> tuple[float, list[tuple[int, int]]]:
    """T_n plus one argmax path, backtracking with ties to the (i-1, j) side."""
    w = grid.vertex_weights
    n = grid.n
    M = np.empty_like(w)
    M[0, 0] = w[0, 0]
    for j in range(1, n + 1):
        M[0, j] = M[0, j - 1] + w[0, j]
    for i in range(1, n + 1):
        row = M[i - 1].copy()
        acc = -np.inf
        wi = w[i]
        Mi = M[i]
        # M[i, j] = w[i, j] + max(M[i-1, j], M[i, j-1]) with a running scan
        for j in range(n + 1):
            up = row[j]
            acc = up if up >= acc else acc
            Mi[j] = wi[j] + acc
            acc = Mi[j]
    path = [(n, n)]
    i, j = n, n
    while (i, j) != (0, 0):
        if i > 0 and (j == 0 or M[i - 1, j] >= M[i, j - 1]):
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return float(M[n, n]), path


def brute_force_last_passage(grid: LppGrid) -> float:
    """Maximum over all C(2n, n) monotone paths; oracle for tiny grids."""
    n = grid.n
    w = grid.vertex_weights
    best = -math.inf

    def rec(i, j, acc):
        nonlocal best
        acc += w[i, j]
        if i == n and j == n:
            best = max(best, acc)
            return
        if i < n:
            rec(i + 1, j, acc)
        if j < n:
            rec(i, j + 1, acc)

    rec(0, 0, 0.0)
    return best


# Z's scale SCALE_COEFF * n^SCALE_POWER: the n^(1/3) fluctuation scale, with
# the coefficient 2^(4/3) of mean-one exponential weights
SCALE_POWER = 1.0 / 3.0
SCALE_COEFF = 2.0 ** (4.0 / 3.0)


def rescaled_statistic(T_n: float, n: int, center: float) -> float:
    """Z = (T_n - center * n) / (SCALE_COEFF * n^SCALE_POWER)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (T_n - center * n) / (SCALE_COEFF * n**SCALE_POWER)


def fit_center(means: dict[int, float]) -> float:
    """Extrapolate mean(T_n)/n to n = infinity.

    The leading finite-size correction to the mean is of order n^(1/3), so
    mean/n is regressed on n^(-2/3) and read off at zero.
    """
    if len(means) < 2:
        raise ValueError("need at least two sizes to extrapolate")
    ns = np.array(sorted(means))
    y = np.array([means[int(n)] / n for n in ns])
    x = ns ** (-2.0 / 3.0)
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])
