"""Spans around the public entry points of each nol layer, installed from outside.

Nothing under src/ is instrumented. ``install`` replaces the bindings that
callers actually resolve (``nol.cli.run_stream`` as well as the defining
module's name, class attributes for methods) with timing wrappers. Spans are
kept in memory as ``{id, name, start, end, parent, run}`` plus call-specific
attributes and written out when the workload process ends. The per-example
``SparseExample.__post_init__`` is counted per parent span instead of
spanned, so tracing it stays cheap.

``layer_metrics`` turns one traced sample into the per-layer metrics; a
layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import statistics
from time import perf_counter

KINDS = ("ng", "nag", "snag", "adagrad", "sgd")
SWEEP_KINDS = ("ng", "nag", "snag")
CHECK_SPANS = {"thm1": ("regret.theorem1_check",), "thm2": ("regret.theorem2_check",),
               "lemma1": ("regret.conditioned_run", "regret.lemma1_check")}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}   # (name, parent id) -> [calls, seconds]
        self.run = None      # label of the command being run

    def _new(self, name):
        span = {"id": len(self.spans), "name": name, "start": perf_counter(), "end": None,
                "parent": self.stack[-1] if self.stack else None, "run": self.run}
        self.spans.append(span)
        return span

    def _open(self, name):
        span = self._new(name)
        self.stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, attrs=None):
        """Span every call; attrs(args, result) adds fields after the span closes."""
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.update(attrs(args, result))
            return result
        return traced

    def wrap_generator(self, name, fn):
        """Span a generator over its whole consumption, counting only the time
        spent inside it (``busy``); items are passed through one at a time, so
        nothing is materialized early."""
        def traced(*args, **kwargs):
            # the body runs at the first next(), so the parent is the
            # span active when consumption starts
            span = self._new(name)
            span.update(busy=0.0, items=0, nnz=0)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = perf_counter()
                    self.stack.append(span["id"])
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.stack.pop()
                        span["busy"] += perf_counter() - t0
                    span["items"] += 1
                    span["nnz"] += len(item.features)
                    yield item
            finally:
                span["end"] = perf_counter()
        return traced

    def wrap_counted(self, name, fn):
        """Count calls and seconds per enclosing span, without a span each."""
        counters = self.counters
        stack = self.stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, stack[-1] if stack else None)
                c = counters.get(key)
                if c is None:
                    c = counters[key] = [0, 0.0]
                c[0] += 1
                c[1] += perf_counter() - t0
        return counted

    def dump(self):
        return {"spans": self.spans,
                "counters": [{"name": n, "parent": p, "calls": c, "seconds": s}
                             for (n, p), (c, s) in self.counters.items()]}


def install(tracer: Tracer):
    """Wrap each layer's entry points; returns nothing, patches in place."""
    import nol.cli as cli
    import nol.conditioners as conditioners
    import nol.core as core
    import nol.data as data
    import nol.evaluate as evaluate
    import nol.learners as learners
    import nol.regret as regret

    def stream_attrs(args, report):
        stream = args[2]
        # a lazily read stream is already consumed; its read_svmlight child
        # span counted the nonzeros instead
        nnz = (sum(len(ex.features) for ex in stream)
               if isinstance(stream, (list, tuple)) else None)
        return {"kind": args[0].kind, "examples": report.n_examples, "nnz": nnz}

    def sweep_attrs(args, report):
        return {"cells": len(report.cells),
                "useful": sum(1 for c in report.cells if c.error is None)}

    # cli: main, the command bodies, and argument parsing
    cli.main = tracer.wrap("cli.main", cli.main)
    for cmd in ("cmd_train", "cmd_sweep", "cmd_regret"):
        setattr(cli, cmd, tracer.wrap("cli.cmd", getattr(cli, cmd)))
    cli.build_parser = tracer.wrap("cli.parse_args", cli.build_parser)
    cli._Parser.parse_args = tracer.wrap("cli.parse_args", cli._Parser.parse_args)

    # data: cli calls data_io.read_svmlight / data_io.prenormalize by attribute
    data.read_svmlight = tracer.wrap_generator("data.read_svmlight", data.read_svmlight)
    data.prenormalize = tracer.wrap("data.prenormalize", data.prenormalize)

    core.SparseExample.__post_init__ = tracer.wrap_counted(
        "core.example_init", core.SparseExample.__post_init__)

    learners.Learner.state_dump = tracer.wrap("learners.state_dump",
                                              learners.Learner.state_dump)
    run_stream = tracer.wrap("learners.run_stream", learners.run_stream, stream_attrs)
    cli.run_stream = learners.run_stream = run_stream

    pv = tracer.wrap("evaluate.progressive_validation", evaluate.progressive_validation,
                     lambda args, res: {"kind": args[0].kind, "examples": res.n_examples})
    evaluate.progressive_validation = pv
    cli.sweep = evaluate.sweep = tracer.wrap("evaluate.sweep", evaluate.sweep, sweep_attrs)

    for name in ("theorem1_check", "theorem2_check", "lemma1_check", "conditioned_run"):
        wrapped = tracer.wrap("regret." + name, getattr(regret, name))
        setattr(regret, name, wrapped)
        setattr(cli, name, wrapped)
    regret.best_in_hindsight = tracer.wrap("regret.best_in_hindsight", regret.best_in_hindsight,
                                           lambda args, res: {"loss": args[1].kind})
    regret.project = tracer.wrap("conditioners.project", regret.project)
    conditioners.DiagonalConditioner.step = tracer.wrap(
        "conditioners.step", conditioners.DiagonalConditioner.step)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced sample

PER_LAYER_UNITS = {
    "cli.load_self_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "data.parse_lines_per_s": "lines/s",
    "data.parse_nnz_per_s": "nnz/s",
    "data.prenormalize_s": "s",
    "core.examples_built": "count",
    "core.example_init_s": "s",
    **{f"learners.{k}.examples_per_s": "ex/s" for k in KINDS},
    **{f"learners.{k}.nnz_per_s": "nnz/s" for k in KINDS},
    "learners.state_dump_s": "s",
    "evaluate.sweep_s": "s",
    "evaluate.cells_per_s": "cells/s",
    **{f"evaluate.{k}.cell_s": "s" for k in SWEEP_KINDS},
    "evaluate.stream_passes": "count",
    "evaluate.cells": "count",
    "evaluate.useful_cells": "count",
    "evaluate.useful_cells_ratio": "ratio",
    "regret.oracle.hinge_s": "s",
    "regret.oracle.logistic_s": "s",
    "regret.thm1_s": "s",
    "regret.thm2_s": "s",
    "regret.lemma1_s": "s",
    "regret.conditioned_run_s": "s",
    "regret.oracle_s": "s",
    "regret.check_s": "s",
    "regret.oracle_share": "ratio",
    "conditioners.project_us": "us",
    "conditioners.project_calls": "count",
    "conditioners.step_us": "us",
    "conditioners.step_calls": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    # a layer the workload does not load reports 0
    return num / den if den > 0 else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, report_bytes: int) -> dict:
    """Per-layer metrics of one traced sample (everything but the overhead
    ratio, which needs the untraced samples too)."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def duration(s):
        return s["busy"] if "busy" in s else s["end"] - s["start"]

    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    for c in trace["counters"]:
        if c["parent"] is not None:
            child_time[c["parent"]] = child_time.get(c["parent"], 0.0) + c["seconds"]

    def self_time(s):
        return duration(s) - child_time.get(s["id"], 0.0)

    def stream_nnz(s):
        if s["nnz"] is not None:
            return s["nnz"]
        return sum(c["nnz"] for c in spans
                   if c["parent"] == s["id"] and c["name"] == "data.read_svmlight")

    def named(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    m = {}
    m["cli.load_self_s"] = sum(self_time(s) for s in named("cli.cmd"))
    m["cli.emit_s"] = sum(self_time(s) for s in named("cli.main"))
    m["cli.report_bytes"] = report_bytes

    reads = named("data.read_svmlight")
    busy = sum(s["busy"] for s in reads)
    m["data.parse_lines_per_s"] = _ratio(sum(s["items"] for s in reads), busy)
    m["data.parse_nnz_per_s"] = _ratio(sum(s["nnz"] for s in reads), busy)
    m["data.prenormalize_s"] = sum(duration(s) for s in named("data.prenormalize"))

    inits = [c for c in trace["counters"] if c["name"] == "core.example_init"]
    m["core.examples_built"] = sum(c["calls"] for c in inits)
    m["core.example_init_s"] = sum(c["seconds"] for c in inits)

    for k in KINDS:
        runs = named("learners.run_stream", kind=k)
        learn = sum(self_time(s) for s in runs)
        m[f"learners.{k}.examples_per_s"] = _ratio(sum(s["examples"] for s in runs), learn)
        m[f"learners.{k}.nnz_per_s"] = _ratio(sum(stream_nnz(s) for s in runs), learn)
    m["learners.state_dump_s"] = sum(duration(s) for s in named("learners.state_dump"))

    sweeps = named("evaluate.sweep")
    m["evaluate.sweep_s"] = sum(duration(s) for s in sweeps)
    cells = sum(s["cells"] for s in sweeps)
    useful = sum(s["useful"] for s in sweeps)
    m["evaluate.cells_per_s"] = _ratio(cells, m["evaluate.sweep_s"])
    for k in SWEEP_KINDS:
        m[f"evaluate.{k}.cell_s"] = _median(
            [duration(s) for s in named("evaluate.progressive_validation", kind=k)])
    m["evaluate.stream_passes"] = len(named("evaluate.progressive_validation"))
    m["evaluate.cells"] = cells
    m["evaluate.useful_cells"] = useful
    m["evaluate.useful_cells_ratio"] = _ratio(useful, cells)

    for loss in ("hinge", "logistic"):
        m[f"regret.oracle.{loss}_s"] = _median(
            [duration(s) for s in named("regret.best_in_hindsight", loss=loss)])
    check_total = 0.0
    for check, names in CHECK_SPANS.items():
        # an instance is the check's calls made directly by the command body
        top = [s for s in spans if s["name"] in names and s["run"] == f"regret:{check}"
               and s["parent"] is not None and by_id[s["parent"]]["name"] == "cli.cmd"]
        instances = sum(1 for s in top if s["name"] == names[-1])
        seconds = sum(duration(s) for s in top)
        check_total += seconds
        m[f"regret.{check}_s"] = _ratio(seconds, instances)
    m["regret.conditioned_run_s"] = _median(
        [duration(s) for s in named("regret.conditioned_run")])
    m["regret.oracle_s"] = sum(duration(s) for s in named("regret.best_in_hindsight"))
    m["regret.check_s"] = check_total
    m["regret.oracle_share"] = _ratio(m["regret.oracle_s"], check_total)

    for layer in ("project", "step"):
        calls = named(f"conditioners.{layer}")
        m[f"conditioners.{layer}_us"] = _ratio(1e6 * sum(duration(s) for s in calls), len(calls))
        m[f"conditioners.{layer}_calls"] = len(calls)
    return m
