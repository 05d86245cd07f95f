"""Spans around the benchmark's calls into the library's public functions.

The benchmark reaches every layer through an ``Api`` namespace.  Untraced, its
attributes are the library functions themselves, so the timed path has no
wrapper at all.  Traced, each attribute records a span (name, query id,
start, end) into an in-memory list; the spans are written out once, after the
run.  Spans inside the program are a separate, later addition.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter
from types import SimpleNamespace

# Every library call the benchmark makes, as "<module>.<name>"; the part
# after the dot is the attribute name on the Api namespace.
LAYER_FUNCTIONS = (
    "rootdata.build_catalog_group",
    "rootdata.datum_product",
    "rootdata.classify",
    "rootdata.fundamental_group",
    "levi.analyze_levi",
    "satake.transfer_levi",
    "satake.levi_satake_diagram",
    "satake.render_ascii",
    "satake.parse_ascii",
    "kottwitz.kottwitz_group",
    "kottwitz.inner_form_classes_gl",
    "appendix.verify_catalog",
    "appendix.catalog_markdown",
    "weyl.weyl_group_order",
    "weyl.find_w_theta",
    "weyl.reduced_roots",
    "weyl.rank_one_decomposition",
    "grothendieck.parse_virtual",
    "grothendieck.add",
    "grothendieck.scale",
    "grothendieck.equal",
    "grothendieck.hash",
    "grothendieck.lj_map",
    "grothendieck.render",
    "grothendieck.tensor",
    "grothendieck.tensor_lj",
    "globalize.plan_globalization",
    "globalize.global_division_algebra",
)

CLI_SUBCOMMANDS = ("levi", "satake", "appendix-a", "weyl", "kottwitz", "inner-forms",
                   "globalize", "division-algebra", "lj")

# Counts and ratios recorded next to the spans, with their units.
COUNTERS = {
    "levi.sandwich_ratio": "ratio",
    "weyl.order_answered_ratio": "ratio",
    "weyl.restricted_roots": "count",
    "grothendieck.terms_parsed": "count",
    "grothendieck.terms_kept_ratio": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.work_ms": "ms",
    **{f"cli.{command}.p50_ms": "ms" for command in CLI_SUBCOMMANDS},
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in LAYER_FUNCTIONS:
        out.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.p50_ms": "ms"})
    out.update(COUNTERS)
    return out


def library_functions() -> dict:
    """Map each LAYER_FUNCTIONS entry to the callable it names."""
    import operator

    from innerforms import appendix, globalize, grothendieck, kottwitz, levi, rootdata, satake, weyl

    modules = {
        "rootdata": rootdata, "levi": levi, "satake": satake, "kottwitz": kottwitz,
        "appendix": appendix, "weyl": weyl, "grothendieck": grothendieck, "globalize": globalize,
    }
    methods = {
        "grothendieck.add": operator.add,
        "grothendieck.scale": grothendieck.VirtualElement.scale,
        "grothendieck.equal": operator.eq,
        "grothendieck.hash": hash,
        "grothendieck.render": grothendieck.VirtualElement.render,
    }
    out = {}
    for full in LAYER_FUNCTIONS:
        module, name = full.split(".")
        out[full] = methods.get(full) or getattr(modules[module], name)
    return out


class Tracer:
    """In-memory span store; ``query`` is the id of the query being run."""

    def __init__(self):
        self.spans: list[tuple[str, int | None, float, float]] = []
        self.query: int | None = None

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, self.query, start, perf_counter()))

        return traced

    def layer_metrics(self) -> dict:
        """calls, busy_s and p50_ms per layer function (zeros when never called)."""
        durations: dict[str, list[float]] = {name: [] for name in LAYER_FUNCTIONS}
        for name, _, start, end in self.spans:
            if name in durations:
                durations[name].append(end - start)
        out = {}
        for name, ds in durations.items():
            out[f"{name}.calls"] = (len(ds), "count")
            out[f"{name}.busy_s"] = (sum(ds), "s")
            out[f"{name}.p50_ms"] = (1000 * statistics.median(ds) if ds else 0.0, "ms")
        return out

    def dump(self, path) -> None:
        """Write spans as JSON lines: layer spans point at their query span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, query, start, end in self.spans:
                parent = None if name.startswith("query.") else query
                fh.write(json.dumps({"name": name, "query": query, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    funcs = library_functions()
    return SimpleNamespace(**{
        full.split(".")[1]: (fn if tracer is None else tracer.wrap(full, fn))
        for full, fn in funcs.items()
    })
