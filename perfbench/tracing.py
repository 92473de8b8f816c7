"""Outside-in tracing of polynov's layers.

`Tracer` replaces 15 public functions with timing wrappers wherever
polynov's own modules look them up (module globals, re-exports, and the
class for the two `EquivariantComplex` methods), and puts the originals
back on exit. Each call becomes a span ``[name, start, end, parent, job]``
kept in memory; `write` dumps them as JSON lines when the benchmark ends.
A layer's self time is its span's duration minus the time covered by its
direct child spans.

Counts are read from the wrapped calls' inputs and return values. The work
of counting is itself recorded as a ``trace.count`` span, so it lands in no
layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric prefix, module, attribute path inside the module)
WRAPPED = (
    ("cli.main", "cli", "main"),
    ("complexes.ingest", "complexes", "ingest"),
    ("complexes.validate", "complexes", "EquivariantComplex.validate"),
    ("complexes.specialize", "complexes", "EquivariantComplex.specialize"),
    ("lattice.quotient_map", "lattice", "quotient_map"),
    ("twist.twisted_complex", "twist", "twisted_complex"),
    ("twist.tensor_base_change", "twist", "tensor_base_change"),
    ("morse.acyclic_matching", "morse", "acyclic_matching"),
    ("morse.vpath_boundary", "morse", "vpath_boundary"),
    ("groupring.matrix_rank_fraction_field", "groupring", "matrix_rank_fraction_field"),
    ("novseries.leading_unit_inverse", "novseries", "leading_unit_inverse"),
    ("homology.novikov_betti", "homology", "novikov_betti"),
    ("homology.polytope_betti", "homology", "polytope_betti"),
    ("homology.truncated_homology_oracle", "homology", "truncated_homology_oracle"),
    ("homology.main_theorem_check", "homology", "main_theorem_check"),
)

COUNTS = (
    ("complexes.cells", "count", "lower"),
    ("complexes.nnz", "count", "lower"),
    ("complexes.max_terms", "count", "lower"),
    ("complexes.validate_mults", "count", "lower"),
    ("morse.pairs", "count", "higher"),
    ("morse.candidates", "count", "higher"),
    ("morse.match_yield", "ratio", "higher"),
    ("morse.cells_left_ratio", "ratio", "lower"),
    ("groupring.route.fraction-free", "count", "higher"),
    ("groupring.route.evaluation", "count", "lower"),
    ("groupring.exact_share", "ratio", "higher"),
    ("groupring.max_dim", "count", "lower"),
    ("homology.oracle_max_order", "count", "lower"),
    ("homology.oracle_orders", "count", "lower"),
    ("trace.jobs", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def metric_specs():
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for name, _, _ in WRAPPED:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    return specs + list(COUNTS)


def _entries(X):
    for matrix in X.boundaries:
        for row in matrix:
            yield from row


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []
        self.sums = {
            "cells": 0, "nnz": 0, "max_terms": 0, "validate_mults": 0,
            "pairs": 0, "candidates": 0, "cells_before": 0, "cells_after": 0,
            "fraction-free": 0, "evaluation": 0, "exact": 0, "ranks": 0,
            "max_dim": 0, "oracle_max_order": 0, "oracle_orders": 0,
        }

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                tally = self._open("trace.count")
                try:
                    count(args, result)
                finally:
                    self._close(tally)
            return result

        return traced

    # -- counts -----------------------------------------------------------

    def _count_ingest(self, args, X):
        s = self.sums
        s["cells"] += sum(X.cell_counts())
        for e in _entries(X):
            if e.terms:
                s["nnz"] += 1
                s["max_terms"] = max(s["max_terms"], len(e.terms))

    def _count_validate(self, args, _):
        n = args[0].cell_counts()
        self.sums["validate_mults"] += sum(
            n[k] * n[k + 1] * n[k + 2] for k in range(len(n) - 2)
        )

    def _count_matching(self, args, matching):
        self.sums["pairs"] += len(matching)
        self.sums["candidates"] += sum(
            1 for e in _entries(args[0]) if e.unit_monomial() is not None
        )

    def _count_vpath(self, args, reduced):
        self.sums["cells_before"] += sum(args[0].cell_counts())
        self.sums["cells_after"] += sum(reduced.cell_counts())

    def _count_rank(self, args, result):
        s = self.sums
        rows = args[0]
        s["ranks"] += 1
        s["exact"] += bool(result.exact)
        if result.method in ("fraction-free", "evaluation"):
            s[result.method] += 1
        s["max_dim"] = max(s["max_dim"], len(rows), len(rows[0]) if rows else 0)

    def _count_oracle(self, args, report):
        orders = report.checks["orders"]
        self.sums["oracle_orders"] += len(orders)
        self.sums["oracle_max_order"] = max(self.sums["oracle_max_order"], *orders)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        counters = {
            "complexes.ingest": self._count_ingest,
            "complexes.validate": self._count_validate,
            "morse.acyclic_matching": self._count_matching,
            "morse.vpath_boundary": self._count_vpath,
            "groupring.matrix_rank_fraction_field": self._count_rank,
            "homology.truncated_homology_oracle": self._count_oracle,
        }
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "polynov" or n.startswith("polynov."))
        ]
        for name, module, path in WRAPPED:
            owner = sys.modules[f"polynov.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counters.get(name))
            targets = [owner] if outer else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        return False

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-function calls, total and self seconds, plus the counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for name, _, _ in WRAPPED:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name == "trace.count":
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered[index]
        s = self.sums
        out.update({
            "complexes.cells": s["cells"],
            "complexes.nnz": s["nnz"],
            "complexes.max_terms": s["max_terms"],
            "complexes.validate_mults": s["validate_mults"],
            "morse.pairs": s["pairs"],
            "morse.candidates": s["candidates"],
            "morse.match_yield": s["pairs"] / s["candidates"] if s["candidates"] else 0.0,
            "morse.cells_left_ratio": (
                s["cells_after"] / s["cells_before"] if s["cells_before"] else 0.0
            ),
            "groupring.route.fraction-free": s["fraction-free"],
            "groupring.route.evaluation": s["evaluation"],
            "groupring.exact_share": s["exact"] / s["ranks"] if s["ranks"] else 0.0,
            "groupring.max_dim": s["max_dim"],
            "homology.oracle_max_order": s["oracle_max_order"],
            "homology.oracle_orders": s["oracle_orders"],
        })
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")
