"""In-memory span tracer for one in-process pass over factorlab.

`Tracer.installed()` wraps the public functions listed in WRAPPED and rebinds
every name in the package's module namespaces that refers to one of them, so
calls made from inside the package (for example `variety.generate_pool`
calling `congruences.all_congruences`) are timed too.  The original functions
are restored on exit; nothing under `src/` is edited.

Work counters are computed from the arguments and results of the wrapped
calls, never from inside the per-assignment loops, so the package itself is
unchanged and the counters cost nothing in untraced runs.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, function) of every wrapped public function.  `cli.main` is the root
# span of one invocation; the rest are the layer boundaries on the hot paths.
WRAPPED = (
    ("cli", "main"),
    ("fileio", "load_context"),
    ("fileio", "load_formula"),
    ("variety", "generate_pool"),
    ("congruences", "all_congruences"),
    ("congruences", "principal_congruence"),
    ("congruences", "factor_pairs"),
    ("congruences", "quotient"),
    ("core", "direct_product"),
    ("core", "subalgebra_generated"),
    ("freealg", "free_algebra"),
    ("positivize", "positivize"),
    ("dfc", "verify_dfc"),
    ("dfc", "correspondence_check"),
    ("dfc", "central_elements"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in WRAPPED)

# Deterministic work counters, each computed by an observer below.
COUNTERS = (
    "variety.pool_members",
    "variety.pool_elements",
    "congruences.lattice_size",
    "congruences.factor_pairs.found",
    "core.direct_product.cells",
    "formulas.assignments",
    "freealg.carrier",
    "freealg.vector_cells",
    "positivize.search_space",
    "positivize.witness_rank",
    "dfc.verify_dfc.pairs_tested",
    "dfc.verify_dfc.counterexamples",
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _observe_pool(tracer, args, kwargs, entries):
    tracer.counts["variety.pool_members"] += len(entries)
    tracer.counts["variety.pool_elements"] += sum(e.algebra.size for e in entries)


def _observe_congruences(tracer, args, kwargs, cons):
    tracer.counts["congruences.lattice_size"] += len(cons)


def _observe_factor_pairs(tracer, args, kwargs, pairs):
    tracer.counts["congruences.factor_pairs.found"] += len(pairs)


def _observe_product(tracer, args, kwargs, product):
    tracer.counts["core.direct_product.cells"] += sum(len(t) for t in product.tables)


def _observe_free(tracer, args, kwargs, fa):
    c = tracer.counts
    c["freealg.carrier"] = max(c["freealg.carrier"], fa.size)
    c["freealg.vector_cells"] += fa.size * fa.base.size ** fa.rank
    tracer.last_free_size[fa.rank] = fa.size


def _observe_positivize(tracer, args, kwargs, result):
    # The witness search runs over F(x) x F(x,y), the rank-1 and rank-2 free
    # algebras built inside this call; it walks bound-variable tuples in
    # lexicographic order of product index, so the witness's rank in that
    # order is the number of candidates the chosen disjunct examined.
    n = tracer.last_free_size[1] * tracer.last_free_size[2]
    ws = result.certificate.witness_indices
    rank = 0
    for w in ws:
        rank = rank * n + w
    tracer.counts["positivize.search_space"] += n ** len(ws)
    tracer.counts["positivize.witness_rank"] += rank + 1


def _observe_verify(tracer, args, kwargs, report):
    ctx = _arg(args, kwargs, 1, "ctx")
    sizes = {a.name: a.size for a in ctx.pool_algebras}
    c = tracer.counts
    c["dfc.verify_dfc.pairs_tested"] += len(report.pairs_tested)
    c["dfc.verify_dfc.counterexamples"] += len(report.counterexamples)
    c["formulas.assignments"] += sum(
        (sizes[a] * sizes[b]) ** 2 for a, b in report.pairs_tested
    )


def _observe_correspondence(tracer, args, kwargs, report):
    algebra = _arg(args, kwargs, 0, "algebra")
    tracer.counts["formulas.assignments"] += (
        len(report.element_reports) * algebra.size ** 2
    )


OBSERVERS = {
    "variety.generate_pool": _observe_pool,
    "congruences.all_congruences": _observe_congruences,
    "congruences.factor_pairs": _observe_factor_pairs,
    "core.direct_product": _observe_product,
    "freealg.free_algebra": _observe_free,
    "positivize.positivize": _observe_positivize,
    "dfc.verify_dfc": _observe_verify,
    "dfc.correspondence_check": _observe_correspondence,
}


class Tracer:
    """Spans and counters of one traced pass.

    A span is [name, parent span index, start, end, request]; `request`
    numbers the CLI invocations, so the spans of one invocation share it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = 0
        self.last_free_size: dict[int, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind the wrapped functions in every loaded factorlab module."""
        importlib.import_module("factorlab.cli")
        # Keyed by id: module namespaces also hold unhashable values.  Each
        # wrapper keeps its function alive, so no other object shares its id.
        wrappers = {}
        for module, fn_name in WRAPPED:
            fn = getattr(importlib.import_module(f"factorlab.{module}"), fn_name)
            wrappers[id(fn)] = self._wrap(f"{module}.{fn_name}", fn)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "factorlab" and not mod_name.startswith("factorlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time, self time and call count per wrapped function.

        Calls run on one thread, so a span's children do not overlap and its
        self time is its duration minus the sum of its children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            out[f"{name}.calls"] += 1
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON, times in seconds from the first start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"request": request, "name": name, "parent": parent,
             "start": start - t0, "end": end - t0}
            for name, parent, start, end, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows), encoding="utf-8")

    def covered_s(self) -> float:
        """Time inside root spans that child spans cover."""
        return sum(
            end - start
            for name, parent, start, end, _ in self.spans
            if parent is not None and self.spans[parent][1] is None
        )
