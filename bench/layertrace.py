"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the package's public layer functions, at every
module attribute that refers to them (so ``cli.find_decomposition`` and
``triangulation.find_decomposition`` are both wrapped), with wrappers that
record a span (name, start, end, parent, operation) or only count calls.
Spans stay in memory until ``write``.  A layer's ``_s`` metric is its self
time: the span minus the time covered by its child spans, summed over the
run; the operation's own span gives ``cli.self_s``, the time no layer below
covers.

The span stack is shared by all threads.  That is correct only while one
thread at a time runs layer code, which the benchmark ensures by pinning the
sweep pool to one worker (``RIGIDITY_LAB_THREADS=1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "rigidity_lab"

# (defining module, function, metric name) of each timed layer.
SPANS = (
    ("cli", "_make_document", "generators.build"),
    ("triangulation", "find_decomposition", "triangulation.find_decomposition"),
    ("triangulation", "tet_admissible", "triangulation.tet_admissible"),
    ("triangulation", "tets_interior_disjoint",
     "triangulation.tets_interior_disjoint"),
    ("triangulation", "tri_validate", "triangulation.tri_validate"),
    ("stiffness", "assemble_mt", "stiffness.assemble_mt"),
    ("hilbert_einstein", "total_angles", "hilbert_einstein.total_angles"),
    ("stiffness", "spectrum", "stiffness.spectrum"),
    ("geom", "is_weakly_convex", "geom.is_weakly_convex"),
    ("geom", "surface_validate", "geom.surface_validate"),
    ("deformation", "deformation_space", "deformation.deformation_space"),
)
# Layers that are only counted: they are called too often for a span each.
COUNTS = (
    ("triangulation", "classify_point", "triangulation.classify_point"),
    ("cayley_menger", "dihedral_angle", "cayley_menger.dihedral_angle"),
    ("deformation", "rigidity_matrix", "deformation.rigidity_matrix"),
)
OP = "cli"


class Tracer:
    def __init__(self):
        self.spans: list = []         # [name, start, end, parent, op]
        self.calls: Counter = Counter()
        self.missing: list[str] = []  # layers the package no longer has
        self._stack: list[int] = []
        self.reset()

    def reset(self):
        """Forgets everything recorded so far (the wrappers keep working)."""
        self.spans.clear()
        self.calls.clear()
        self.search_nodes = 0         # from NonDecomposable / BudgetExceeded
        self.mt_dim_max = 0
        self._op = -1

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name):
        if name == "triangulation.find_decomposition":
            def after(outcome):
                self.search_nodes += getattr(outcome, "nodes_explored", 0)
        elif name == "stiffness.assemble_mt":
            def after(m):
                self.mt_dim_max = max(self.mt_dim_max, m.matrix.shape[0])
        else:
            return None
        return after

    def operation(self, run):
        """Runs ``run()`` as one operation under a root span."""
        self._op = len(self.spans)
        return self._span(OP, run)()

    def install(self) -> None:
        """Wraps every layer at each package module attribute bound to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for home, attr, name in table:
                try:
                    fn = getattr(importlib.import_module(f"{PACKAGE}.{home}"),
                                 attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{home}.{attr}")
                    continue
                wrapper = (self._span(name, fn, self._after(name))
                           if kind == "span" else self._counter(name, fn))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Counter = Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, covered):
            out[name] += (t1 - t0) - c
        return out

    def overhead_s(self) -> float:
        """Estimated cost of the wrappers: the recorded spans and counted
        calls times the measured cost of one wrapped empty call."""
        n = 20000

        def empty():
            return None

        probe = Tracer()
        costs = []
        for wrapped in (probe._span("probe", empty), probe._counter("probe", empty)):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(n):
                    wrapped()
                t1 = time.perf_counter()
                for _ in range(n):
                    empty()
                t2 = time.perf_counter()
                best = min(best, ((t1 - t0) - (t2 - t1)) / n)
                probe.spans.clear()
            costs.append(best)
        return len(self.spans) * costs[0] + sum(self.calls.values()) * costs[1]

    def metrics(self) -> dict:
        """The per-layer metrics, by the names in BENCHMARK.json."""
        busy = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        m = {f"{name}_s": busy[name] for _, _, name in SPANS}
        m["cli.self_s"] = busy[OP]
        m.update({
            "triangulation.tet_admissible.calls":
                calls["triangulation.tet_admissible"],
            "triangulation.tets_interior_disjoint.calls":
                calls["triangulation.tets_interior_disjoint"],
            "triangulation.tri_validate.calls": calls["triangulation.tri_validate"],
            "triangulation.search_nodes": self.search_nodes,
            "hilbert_einstein.total_angles.calls":
                calls["hilbert_einstein.total_angles"],
            "stiffness.mt_dim.max": self.mt_dim_max,
            "trace.spans": len(self.spans),
            "trace.overhead_s": self.overhead_s(),
        })
        m.update({f"{name}.calls": self.calls[name] for _, _, name in COUNTS})
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
