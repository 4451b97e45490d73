"""Span recording around dicode's public functions, installed from outside.

A `Tracer` replaces each traced name, at the place where callers look it up,
with a wrapper that records a span: name, start, end, parent span and
optional counters.  Spans stay in memory until `dump` writes them.  Nothing
under `src/` is changed; `uninstall` restores every original binding, so an
untraced iteration runs the unmodified program.

Worker threads (the `--jobs` pool inside `bounds.sweep`) start with an empty
span stack; their spans take the innermost open span of the installing thread
as parent, which is the `bounds.sweep` span that owns the pool.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field


#: unit of every per-layer metric the traced run reports; layer_metrics gives
#: most, the workloads' observe() the widths and bytes, run.py the last two
UNITS = {
    "codebook.construct_s": "s",
    "codebook.distance_code_s": "s",
    "codebook.words_scanned": "count",
    "codebook.greedy_kept": "count",
    "codebook.code_size": "count",
    "codebook.kept_per_scanned": "ratio",
    "codebook.words_per_s": "1/s",
    "evaluator.mc_s": "s",
    "evaluator.mc_stat_evals": "count",
    "evaluator.mc_evals_per_s": "1/s",
    "evaluator.dp_calls": "count",
    "evaluator.dp_s": "s",
    "evaluator.dp_call_ms.p50": "ms",
    "evaluator.dp_call_ms.p99": "ms",
    "evaluator.lambda1_s": "s",
    "evaluator.lambda2_s": "s",
    "evaluator.pairs_total": "count",
    "evaluator.pairs_exact": "count",
    "evaluator.exact_per_pair": "ratio",
    "evaluator.width_exact": "prob",
    "evaluator.width_screened": "prob",
    "infodist.false_accept_bound_calls": "count",
    "infodist.false_accept_bound_s": "s",
    "geometry.distance_matrix_calls": "count",
    "geometry.distance_cells": "count",
    "geometry.dm_builds_per_cloud": "ratio",
    "geometry.packing_s": "s",
    "geometry.covering_s": "s",
    "geometry.dimension_s": "s",
    "bounds.sweep_s": "s",
    "bounds.points": "count",
    "bounds.self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "svgplot.line_chart_s": "s",
    "channel.load_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_thread = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner_thread:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        else:
            owner = self._owner_stack
            parent = owner[-1].span_id if owner else None
        with self._lock:
            span = Span(next(self._ids), parent, name, 0.0,
                        thread=threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, counters=None):
        """Trace `owner.attr` as span `name`.

        `counters(args, kwargs, result)` returns a dict stored on the span;
        it runs after the span has closed, so its cost is not timed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if counters is not None:
                span.attrs.update(counters(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path, extra: dict):
        t0 = min((s.start for s in self.spans), default=0.0)
        payload = dict(extra, spans=[
            {"id": s.span_id, "parent": s.parent, "name": s.name,
             "start_s": s.start - t0, "end_s": s.end - t0,
             "thread": s.thread, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans])
        path.write_text(json.dumps(payload) + "\n")


def install(tracer: Tracer, m):
    """Wrap the public dicode names each workload reaches; `m` holds the
    imported modules (channel, codebook, evaluator, geometry, bounds, cli)."""
    w = tracer.wrap

    # codebook: construction pipeline
    w(m.codebook, "construct", "codebook.construct",
      lambda a, k, r: {"code_size": r.size})
    w(m.codebook, "build_letter_alphabet", "codebook.build_letter_alphabet")
    w(m.codebook, "distance_code", "codebook.distance_code", _distance_code_counters)
    w(m.codebook, "entropy_binning", "codebook.entropy_binning")
    w(m.codebook, "min_pairwise_hamming", "codebook.min_pairwise_hamming")

    # evaluator and the infodist ceiling it screens with
    w(m.evaluator, "exact_error_report", "evaluator.exact_error_report")
    w(m.evaluator, "measure_lambda1", "evaluator.measure_lambda1")
    w(m.evaluator, "measure_lambda2", "evaluator.measure_lambda2",
      lambda a, k, r: {"pairs": a[0].size * (a[0].size - 1)})
    w(m.evaluator, "typical_set_prob", "evaluator.typical_set_prob")
    w(m.evaluator, "monte_carlo_errors", "evaluator.monte_carlo_errors",
      _mc_counters)
    w(m.evaluator, "false_accept_bound", "infodist.false_accept_bound")

    # geometry, at every module that imported its functions by name
    w(m.geometry.PointCloud, "distance_matrix", "geometry.distance_matrix",
      _distance_matrix_counters)
    for mod in (m.geometry, m.bounds, m.codebook, m.cli):
        w(mod, "max_packing", "geometry.max_packing")
    for mod in (m.geometry, m.bounds, m.cli):
        w(mod, "min_covering", "geometry.min_covering")
    w(m.cli, "estimate_dimension", "geometry.estimate_dimension")

    # bounds: sweep machinery and the formulas the CLI workloads reach
    for mod in (m.bounds, m.cli):
        w(mod, "sweep", "bounds.sweep", lambda a, k, r: {"points": len(r.points)})
    for fn in ("thm1_lower", "thm2_upper", "trend_lower_point", "trend_upper_point"):
        w(m.bounds, fn, f"bounds.{fn}")
    w(m.cli, "curves_to_csv", "bounds.curves_to_csv")

    # cli and svgplot
    w(m.cli, "main", "cli.main")
    for cmd in ("cmd_bounds", "cmd_geometry"):
        w(m.cli, cmd, f"cli.{cmd}")
    w(m.cli, "line_chart", "svgplot.line_chart")
    w(m.cli, "load_channel", "channel.load_channel")


def _distance_code_counters(args, kwargs, result):
    q, n = args[0], args[1]
    return {"q": q, "n": n, "kept": len(result)}


def _mc_counters(args, kwargs, result):
    code = args[0]
    trials = kwargs.get("trials", args[2] if len(args) > 2 else 0)
    return {"N": code.size, "n": code.blocklength, "trials": trials}


def _distance_matrix_counters(args, kwargs, result):
    cloud = args[0]
    digest = hashlib.sha1(cloud.points.tobytes() + cloud.metric.encode()).hexdigest()
    return {"m": len(cloud), "cloud": digest}


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.span_id] = s.duration - covered
    return out


def _total(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced iteration."""
    def named(name):
        return [s for s in spans if s.name == name]

    selfs = _self_times(spans)

    dcode = named("codebook.distance_code")
    scanned = sum(s.attrs["q"] ** s.attrs["n"] for s in dcode)
    kept = sum(s.attrs["kept"] for s in dcode)
    dcode_s = _total(spans, "codebook.distance_code")

    mc = named("evaluator.monte_carlo_errors")
    mc_s = _total(spans, "evaluator.monte_carlo_errors")
    mc_evals = sum(s.attrs["N"] ** 2 * s.attrs["trials"] * s.attrs["n"] for s in mc)

    dp = named("evaluator.typical_set_prob")
    dp_ms = [1e3 * s.duration for s in dp]
    lam2 = named("evaluator.measure_lambda2")
    lam2_ids = {s.span_id for s in lam2}
    pairs_total = sum(s.attrs["pairs"] for s in lam2)
    pairs_exact = sum(1 for s in dp if s.parent in lam2_ids)

    dm = named("geometry.distance_matrix")
    clouds = {s.attrs["cloud"] for s in dm}

    sweeps = named("bounds.sweep")

    def layer_self(layer):
        return sum(selfs[s.span_id] for s in spans if s.layer == layer)

    return {
        "codebook.construct_s": _total(spans, "codebook.construct"),
        "codebook.distance_code_s": dcode_s,
        "codebook.words_scanned": scanned,
        "codebook.greedy_kept": kept,
        "codebook.code_size": sum(s.attrs["code_size"] for s in named("codebook.construct")),
        "codebook.kept_per_scanned": _ratio(kept, scanned),
        "codebook.words_per_s": _ratio(scanned, dcode_s),
        "evaluator.mc_s": mc_s,
        "evaluator.mc_stat_evals": mc_evals,
        "evaluator.mc_evals_per_s": _ratio(mc_evals, mc_s),
        "evaluator.dp_calls": len(dp),
        "evaluator.dp_s": sum(s.duration for s in dp),
        "evaluator.dp_call_ms.p50": _percentile(dp_ms, 50),
        "evaluator.dp_call_ms.p99": _percentile(dp_ms, 99),
        "evaluator.lambda1_s": _total(spans, "evaluator.measure_lambda1"),
        "evaluator.lambda2_s": _total(spans, "evaluator.measure_lambda2"),
        "evaluator.pairs_total": pairs_total,
        "evaluator.pairs_exact": pairs_exact,
        "evaluator.exact_per_pair": _ratio(pairs_exact, pairs_total),
        "infodist.false_accept_bound_calls": len(named("infodist.false_accept_bound")),
        "infodist.false_accept_bound_s": _total(spans, "infodist.false_accept_bound"),
        "geometry.distance_matrix_calls": len(dm),
        "geometry.distance_cells": sum(s.attrs["m"] ** 2 for s in dm),
        "geometry.dm_builds_per_cloud": _ratio(len(dm), len(clouds)),
        "geometry.packing_s": _total(spans, "geometry.max_packing"),
        "geometry.covering_s": _total(spans, "geometry.min_covering"),
        "geometry.dimension_s": _total(spans, "geometry.estimate_dimension"),
        "bounds.sweep_s": sum(s.duration for s in sweeps),
        "bounds.points": sum(s.attrs["points"] for s in sweeps),
        "bounds.self_s": layer_self("bounds"),
        "cli.main_s": _total(spans, "cli.main"),
        "cli.self_s": layer_self("cli"),
        "svgplot.line_chart_s": _total(spans, "svgplot.line_chart"),
    }


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
