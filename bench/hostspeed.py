"""Host speed, measured by a fixed reference kernel timed during each run.

On a shared machine the same code runs 20-100% slower for seconds to minutes
at a time, because other tenants load the cores; CPU time tracks wall time,
so the process cannot tell from its own clock.  The benchmark therefore times
a reference kernel next to its rounds and reports each time rescaled to the
speed the kernel had on the reference box:

    reported = wall * REF_S[kind] / kernel_s

Kinds of work slow down by different amounts under the same load: a
pure-Python loop slowed about 2x where scipy Dijkstra slowed about 1.6x.  So
each workload is rescaled by the kernel of its own kind of work.  The kernels
do not call fpplab, so no change to fpplab changes them.  Raw wall times are
kept in the run record next to the rescaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

# Median kernel times on the reference box (2-core x86-64 VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1).  They only fix the scale of reported times.
REF_S = {"dijkstra": 0.0015, "numpy": 0.0018, "python": 0.0010}
SAMPLES = 5


class HostSpeed:
    def __init__(self, kind: str):
        if kind not in REF_S:
            raise ValueError(f"unknown kernel kind {kind!r}")
        self.kind = kind
        side = 97
        idx = np.arange(side * side).reshape(side, side)
        tails = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
        heads = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
        weights = np.random.default_rng(12345).random(tails.size) + 0.01
        n = side * side
        self._graph = sp.csr_matrix((weights, (tails, heads)), shape=(n, n))
        self._counter = np.arange(250_000, dtype=np.uint64)
        # preallocated, so kernel times do not depend on the allocator's state
        self._z = np.empty_like(self._counter)
        self._t = np.empty_like(self._counter)
        self._u = np.empty(self._counter.size)
        self._kernel = getattr(self, "_" + kind)

    def _dijkstra(self):
        """Lattice shortest paths, as in fpp."""
        return dijkstra(self._graph, directed=False, indices=[0])[0, -1]

    def _numpy(self):
        """Counter hashing and an inverse-CDF-like transform, as in weights and lpp."""
        z, t, u = self._z, self._t, self._u
        with np.errstate(over="ignore"):
            np.multiply(self._counter, np.uint64(0x9E3779B97F4A7C15), out=z)
        np.right_shift(z, np.uint64(31), out=t)
        np.bitwise_xor(z, t, out=z)
        np.right_shift(z, np.uint64(11), out=t)
        np.multiply(t, -(2.0**-54), out=u)
        np.log1p(u, out=u)
        np.ceil(np.divide(u, -0.693, out=u), out=u)
        return float(u.sum())

    def _python(self):
        """Interpreter-bound dict and integer work, as in ineqlab."""
        table = {}
        for i in range(8_000):
            table[i % 97] = table.get(i % 97, 0) + i * i % 13
        return len(table)

    def kernel_s(self) -> float:
        """Median wall time of the kernel over a few back-to-back runs."""
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def factor(self, *kernel_s: float) -> float:
        """Multiplier from wall time to reference-box time."""
        return REF_S[self.kind] / statistics.fmean(kernel_s)
