"""Span tracing of tradenet from outside the package.

``Tracer.install()`` replaces every public function of the layer modules
with a timing wrapper, at every ``tradenet`` module attribute bound to it.
Calls through names another module imported (``tradenet.cli.load_corpus``,
``tradenet.detector.compute_features``) and calls inside one module
(``gof_pvalue`` -> ``select_xmin``) both resolve through those attributes,
so both are caught.  The program's source is not touched.

Each call records a span: name, start, end, parent span, the exception it
raised if any, and counts taken from its arguments or return value.  Spans
stay in memory; ``layer_metrics`` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("ingest", "sim", "network", "powerlaw", "features", "detector", "cli")


# Counts taken at the layer boundary: span name -> hook(bound args, result).
COUNT_HOOKS = {
    "ingest.parse_transactions": lambda b, r: {"rows": r.n_records},
    "ingest.write_transactions": lambda b, r: {"rows": b.arguments["log"].n_records},
    "network.build_network": lambda b, r: {"edges": r.edge_count},
    "powerlaw.scan_xmin": lambda b, r: {"candidates": len(r[0])},
    "powerlaw.gof_pvalue": lambda b, r: {
        "replicas": b.arguments["cfg"].bootstrap_replicas},
    "detector.detect_corpus": lambda b, r: {"reports": len(r)},
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of the wrapped tradenet functions of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        hook = COUNT_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = hook(bound, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap the public functions of every imported layer module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tradenet" or n.startswith("tradenet."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"tradenet.{layer}")
            if mod is None:
                raise RuntimeError(f"tradenet.{layer} is not imported")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn.__name__}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, pair[1])
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def ancestors(self, span: Span) -> list[str]:
        """Names of the spans enclosing ``span``, innermost first."""
        names = []
        parent = span.parent
        while parent is not None:
            names.append(self.spans[parent].name)
            parent = self.spans[parent].parent
        return names

    def summary(self) -> dict:
        """Per span name: calls, errors, inclusive and self seconds, and
        summed counts; plus refits and missing fits keyed by their parent."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(span.name, {"calls": 0, "errors": 0,
                                             "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["errors"] += span.error is not None
            agg["incl_s"] += span.duration
            agg["self_s"] += span.duration - child_time[span.sid]
            for key, val in span.counts.items():
                agg[key] = agg.get(key, 0) + val
        refits = [s for s in self.spans if s.name == "powerlaw.select_xmin"
                  and s.parent is not None
                  and self.spans[s.parent].name == "powerlaw.gof_pvalue"]
        fits = [s for s in self.spans if s.name == "powerlaw.fit_tail"
                and s.parent is not None
                and self.spans[s.parent].name == "features.compute_features"]
        out["powerlaw.refit"] = {"calls": len(refits),
                                 "errors": sum(s.error is not None for s in refits)}
        out["features.fit"] = {"calls": len(fits),
                               "errors": sum(s.error is not None for s in fits)}
        return out


# Per-layer metric -> (span name, field, unit).  Self times vary run to run;
# every other field is a count that must repeat exactly for one seed.
SPAN_METRICS = {
    "ingest.parse.self_s": ("ingest.parse_transactions", "self_s", "s"),
    "ingest.parse.calls": ("ingest.parse_transactions", "calls", "count"),
    "ingest.parse.rows": ("ingest.parse_transactions", "rows", "count"),
    "ingest.write.self_s": ("ingest.write_transactions", "self_s", "s"),
    "ingest.write.calls": ("ingest.write_transactions", "calls", "count"),
    "ingest.write.rows": ("ingest.write_transactions", "rows", "count"),
    "ingest.filter_period.self_s": ("ingest.filter_period", "self_s", "s"),
    "ingest.filter_period.calls": ("ingest.filter_period", "calls", "count"),
    "sim.simulate.self_s": ("sim.simulate", "self_s", "s"),
    "sim.simulate.calls": ("sim.simulate", "calls", "count"),
    "network.build.self_s": ("network.build_network", "self_s", "s"),
    "network.build.calls": ("network.build_network", "calls", "count"),
    "network.build.edges": ("network.build_network", "edges", "count"),
    "features.compute.self_s": ("features.compute_features", "self_s", "s"),
    "features.compute.calls": ("features.compute_features", "calls", "count"),
    "features.daily_series.self_s": ("features.daily_series", "self_s", "s"),
    "features.daily_series.calls": ("features.daily_series", "calls", "count"),
    "features.fit_missing": ("features.fit", "errors", "count"),
    "detector.detect_corpus.self_s": ("detector.detect_corpus", "self_s", "s"),
    "detector.reports": ("detector.detect_corpus", "reports", "count"),
    "powerlaw.scan_xmin.self_s": ("powerlaw.scan_xmin", "self_s", "s"),
    "powerlaw.scan_xmin.calls": ("powerlaw.scan_xmin", "calls", "count"),
    "powerlaw.scan_xmin.candidates": ("powerlaw.scan_xmin", "candidates", "count"),
    "powerlaw.gof_pvalue.self_s": ("powerlaw.gof_pvalue", "self_s", "s"),
    "powerlaw.gof_pvalue.replicas": ("powerlaw.gof_pvalue", "replicas", "count"),
    "powerlaw.refit.calls": ("powerlaw.refit", "calls", "count"),
    "powerlaw.refit.failed": ("powerlaw.refit", "errors", "count"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


def _field(summary: dict, span: str, name: str):
    return summary.get(span, {}).get(name, 0)


def counts_of(summary: dict) -> dict:
    """The count metrics of one traced call (must repeat exactly)."""
    return {m: _field(summary, span, f) for m, (span, f, unit) in SPAN_METRICS.items()
            if unit == "count"}


def layer_metrics(summaries: list[dict], n_stocks: int) -> dict[str, tuple[float, str]]:
    """Fold the summaries of several traced calls of one workload into the
    per-layer metrics: medians of times, counts of the first call."""
    first = summaries[0]
    out: dict[str, tuple[float, str]] = {}
    for metric, (span, name, unit) in SPAN_METRICS.items():
        if unit == "s":
            out[metric] = (statistics.median(_field(s, span, name) for s in summaries), unit)
        else:
            out[metric] = (_field(first, span, name), unit)
    parse_rates = [_field(s, "ingest.parse_transactions", "rows")
                   / _field(s, "ingest.parse_transactions", "self_s")
                   for s in summaries if _field(s, "ingest.parse_transactions", "self_s")]
    out["ingest.parse.rows_per_s"] = (statistics.median(parse_rates) if parse_rates else 0.0,
                                      "rows/s")
    computes = _field(first, "features.compute_features", "calls")
    out["features.computes_per_stock"] = (computes / n_stocks, "computes/stock")
    refits = _field(first, "powerlaw.refit", "calls")
    ok = refits - _field(first, "powerlaw.refit", "errors")
    out["powerlaw.refit.ok_ratio"] = (ok / refits if refits else 0.0, "ratio")
    return out


def shares(summary: dict) -> dict[str, float]:
    """Inclusive time of each span name as a share of ``cli.main``."""
    total = _field(summary, "cli.main", "incl_s")
    return {name: agg["incl_s"] / total for name, agg in summary.items()
            if "incl_s" in agg and total}
