"""Span tracing around fpplab's public entry points, from outside the package.

A wrapper is installed on every fpplab module attribute (or class attribute)
that binds the wrapped function, so ``from .fpp import passage_time`` copies
are wrapped too.  Spans are kept in memory as ``[name, start, end, parent,
item]`` lists and written out once, when the traced run ends.  Span wrappers
are installed only for the traced pass of a ``--trace 1`` run, so timed rounds
never run wrapped.  ``Patcher`` also serves the correctness checks, which
capture results after the timed part.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _fpplab_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fpplab" or name.startswith("fpplab."))
    ]


class Patcher:
    """Replace a function wherever fpplab binds it; ``restore`` undoes it."""

    def __init__(self):
        self._undo = []

    def module_function(self, module, attr, make):
        """Wrap ``module.attr`` and every other fpplab binding of the same object."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in _fpplab_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def method(self, base, attr, make):
        """Wrap ``attr`` on ``base`` and on every subclass that defines its own."""
        classes = [base, *_all_subclasses(base)]
        for cls in classes:
            if attr in vars(cls):
                orig = vars(cls)[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, make(orig))

    def restore(self):
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


class Tracer:
    """In-memory span recorder with per-name event counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1  # id of the item being processed; -1 outside items
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(tracer, args, kwargs, out)`` counts."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped, per fpplab module
# ---------------------------------------------------------------------------

INEQ_CHECKS = (
    "efron_stein", "falik_samorodnitsky", "log_sobolev", "tensorization",
    "entropy_variational", "rossignol",
)


def _count_dijkstra(tr, args, kwargs, out):
    tr.counts["fpp.dijkstra.sources"] += int(np.size(kwargs.get("indices", args[-1])))


def _count_passage(tr, args, kwargs, res):
    tr.counts["fpp.window_grows"] += res.grows
    tr.counts["fpp.flagged"] += bool(res.boundary_flag)


def _count_csv(tr, args, kwargs, text):
    tr.counts["cli.csv_bytes"] += len(text.encode())


def _count_suite(tr, args, kwargs, reports):
    tr.counts["ineqlab.violations"] += sum(r.violations for r in reports)


def _count_exhaustive(tr, args, kwargs, res):
    tr.counts["ineqlab.violations"] += not res.holds


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public entry points of every fpplab module in spans."""
    from fpplab import cli, estimators, fpp, ineqlab, lattice, lpp, weights

    def fn(module, attr, name, hook=None):
        patcher.module_function(module, attr, lambda f: tracer.wrap(name, f, hook))

    patcher.method(lattice.Region, "n_edges", lambda f: tracer.wrap("lattice.n_edges", f))
    fn(weights, "sample_field", "weights.sample_field")
    patcher.method(
        weights.DistributionSpec, "inv_cdf_array",
        lambda f: tracer.wrap("weights.inv_cdf_array", f),
    )
    fn(fpp, "passage_time", "fpp.passage_time", _count_passage)
    fn(fpp, "torus_passage", "fpp.torus_passage")
    # the fpp -> scipy seam shared by box and torus passage
    fn(fpp, "_csgraph_dijkstra", "fpp.dijkstra", _count_dijkstra)
    fn(lpp, "sample_grid", "lpp.sample_grid")
    fn(lpp, "last_passage_value", "lpp.last_passage_value")
    fn(estimators, "run_replica", "estimators.run_replica")
    fn(estimators, "summarize", "estimators.summarize")
    fn(cli, "build_summary", "cli.build_summary")
    fn(cli, "records_to_csv", "cli.records_to_csv", _count_csv)
    fn(ineqlab, "run_randomized_suite", "ineqlab.run_randomized_suite", _count_suite)
    for check in INEQ_CHECKS:
        fn(ineqlab, f"{check}_check", f"ineqlab.{check}")
    fn(ineqlab, "fpp_exhaustive_check", "ineqlab.fpp_exhaustive_check", _count_exhaustive)


def layer_metrics(tracer: Tracer, items: int, factor: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json; times are per item, rescaled by ``factor``."""
    incl, own, calls = tracer.totals()
    per_item = 1e3 * factor / max(items, 1)

    def ms(name):
        return (incl[name] * per_item, "ms/item")

    def self_ms(name):
        return (own[name] * per_item, "ms/item")

    def count(value):
        return (float(value), "count")

    out = {
        "lattice.n_edges.ms": ms("lattice.n_edges"),
        "lattice.n_edges.calls": count(calls["lattice.n_edges"]),
        "weights.sample_field.ms": ms("weights.sample_field"),
        "weights.sample_field.calls": count(calls["weights.sample_field"]),
        "weights.inv_cdf_array.ms": ms("weights.inv_cdf_array"),
        "fpp.passage_time.self_ms": self_ms("fpp.passage_time"),
        "fpp.torus_passage.self_ms": self_ms("fpp.torus_passage"),
        "fpp.dijkstra.ms": ms("fpp.dijkstra"),
        "fpp.dijkstra.calls": count(calls["fpp.dijkstra"]),
        "fpp.dijkstra.sources": count(tracer.counts["fpp.dijkstra.sources"]),
        "fpp.dijkstra.sources_per_item": (
            tracer.counts["fpp.dijkstra.sources"] / max(items, 1), "count/item"
        ),
        "fpp.window_grows": count(tracer.counts["fpp.window_grows"]),
        "fpp.flagged": count(tracer.counts["fpp.flagged"]),
        "lpp.sample_grid.self_ms": self_ms("lpp.sample_grid"),
        "lpp.last_passage_value.ms": ms("lpp.last_passage_value"),
        "estimators.run_replica.self_ms": self_ms("estimators.run_replica"),
        "estimators.summarize.ms": ms("estimators.summarize"),
        "estimators.summarize.calls": count(calls["estimators.summarize"]),
        "cli.build_summary.self_ms": self_ms("cli.build_summary"),
        "cli.records_to_csv.ms": ms("cli.records_to_csv"),
        "cli.csv_bytes": (float(tracer.counts["cli.csv_bytes"]), "bytes"),
    }
    for check in INEQ_CHECKS:
        out[f"ineqlab.{check}.ms"] = ms(f"ineqlab.{check}")
    out["ineqlab.fpp_exhaustive_check.ms"] = ms("ineqlab.fpp_exhaustive_check")
    out["ineqlab.violations"] = count(tracer.counts["ineqlab.violations"])
    return out
