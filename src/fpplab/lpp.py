"""Directed last-passage percolation on the square with up-right paths.

Vertex weights sit on ([0,n] x [0,n]) and paths step by (1,0) or (0,1); the
last-passage time is the maximal path sum.  The default weight law is
geometric with mean one (P(k) = (1/2)^(k+1) on {0,1,2,...}), whose rescaled
fluctuations follow the GUE Tracy-Widom law with exponent 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .weights import DistributionSpec, Geometric, sample_weights


@dataclass
class LppGrid:
    """(n+1) x (n+1) nonnegative vertex weights for paths (0,0) -> (n,n)."""

    n: int
    vertex_weights: np.ndarray
    spec: Optional[DistributionSpec] = None

    def __post_init__(self):
        self.vertex_weights = np.asarray(self.vertex_weights, dtype=np.float64)
        if self.vertex_weights.shape != (self.n + 1, self.n + 1):
            raise ValueError("vertex weight array must be (n+1) x (n+1)")
        if not np.all(self.vertex_weights >= 0):
            raise ValueError("negative or NaN vertex weight")


def default_spec() -> Geometric:
    return Geometric(0.5)


def sample_grid(n: int, seed: int, spec: Optional[DistributionSpec] = None) -> LppGrid:
    """Deterministic grid: vertex (i, j) draws from mix64(seed, i*(n+1)+j)."""
    if spec is None:
        spec = default_spec()
    w = sample_weights(spec, seed, (n + 1) * (n + 1))
    return LppGrid(n, w.reshape(n + 1, n + 1), spec)


def last_passage_value(grid: LppGrid) -> float:
    """T_n by anti-diagonal dynamic programming, O(n) memory.

    Cell (i, k-i) sits at flat index k + i*n, so each anti-diagonal is a
    strided view.  Two buffers hold consecutive diagonals by row, at offset 1,
    with -inf wherever a row has no cell; so row i takes max(row i, row i-1)
    of the previous diagonal plus its weight, with no special end cells.
    """
    n = grid.n
    flat = np.ascontiguousarray(grid.vertex_weights).reshape(-1)
    prev = np.full(n + 2, -np.inf)
    cur = prev.copy()
    prev[1] = flat[0]
    for k in range(1, 2 * n + 1):
        i0, i1 = max(0, k - n), min(k, n)
        out = cur[i0 + 1 : i1 + 2]
        np.maximum(prev[i0 + 1 : i1 + 2], prev[i0 : i1 + 1], out=out)
        out += flat[k + i0 * n : k + i1 * n + 1 : n]
        prev, cur = cur, prev
    return float(prev[n + 1])


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


def rescaled_statistic(
    T_n: float,
    n: int,
    center: float,
    scale_power: float = 1.0 / 3.0,
    scale_coeff: float = 2.0 ** (4.0 / 3.0),
) -> float:
    """Z = (T_n - center * n) / (scale_coeff * n^scale_power)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (T_n - center * n) / (scale_coeff * n**scale_power)


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
