"""Spans around the calls into each potts-sl layer, recorded from outside.

`Tracer.install` replaces every public function of the layer modules, in
every potts_sl module that bound it at import, by a wrapper that records a
span: name, parent span, thread, start, end and a few counts taken at the
boundary. It also wraps the `cg` that `potts_sl.oracles` imported from scipy,
adding a callback that counts iterations. `uninstall` puts the originals
back, so untraced jobs run the program unchanged. Spans stay in memory and
are written once, by `write`.

`job_metrics` turns the spans of one job into the per-layer metrics; a
layer's self time is its span's duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("affinity", "potts", "data_terms", "simplex", "losses", "solver",
          "trainer", "oracles", "fileio")

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workload where it should move). The last two document the benchmark.
PER_LAYER = [
    ("potts.edge_values.s", "s", "lower", "job_s, peak_rss_mb", "solve-sparse2"),
    ("potts.edge_values.calls", "count", "lower", "job_s", "solve-sparse2"),
    ("potts.edge_grads.s", "s", "lower", "job_s, peak_rss_mb", "solve-sparse2"),
    ("potts.edge_grads.calls", "count", "lower", "job_s", "solve-sparse2"),
    ("potts.rows", "count", "lower", "job_s", "solve-sparse2"),
    ("potts.bytes_in", "B", "lower", "job_s, peak_rss_mb", "solve-sparse2"),
    ("solver.solve_pseudo_labels.s", "s", "lower", "job_s", "solve-sparse2, train-nn4"),
    ("solver.solve_pseudo_labels.self_s", "s", "lower", "job_s", "solve-sparse2"),
    ("solver.solve_pseudo_labels.calls", "count", "lower", "job_s", "train-nn4"),
    ("solver.steps", "count", "lower", "job_s, objective", "solve-sparse2, train-nn4"),
    ("solver.divergence_events", "count", "lower", "objective", "solve-sparse2"),
    ("solver.pseudo_label_objective.calls", "count", "lower", "job_s", "train-nn4"),
    ("data_terms.row_values.s", "s", "lower", "job_s", "train-nn4"),
    ("data_terms.row_values.calls", "count", "lower", "job_s", "train-nn4"),
    ("data_terms.row_grads.s", "s", "lower", "job_s", "train-nn4"),
    ("data_terms.row_grads.calls", "count", "lower", "job_s", "train-nn4"),
    ("simplex.softmax_rows.s", "s", "lower", "job_s", "train-nn4"),
    ("simplex.softmax_rows.calls", "count", "lower", "job_s", "train-nn4"),
    ("losses.sl_loss.s", "s", "lower", "job_s", "train-nn4"),
    ("losses.sl_loss.self_s", "s", "lower", "job_s", "train-nn4"),
    ("losses.sl_loss.calls", "count", "lower", "job_s", "train-nn4"),
    ("trainer.pretrain.s", "s", "lower", "job_s", "train-nn4"),
    ("trainer.alternate.self_s", "s", "lower", "job_s", "train-nn4"),
    ("trainer.rounds", "count", "lower", "job_s, miou, objective", "train-nn4"),
    ("trainer.candidates_kept", "count", "higher", "miou, objective", "train-nn4"),
    ("trainer.candidates_compared", "count", "lower", "job_s", "train-nn4"),
    ("trainer.candidate_keep_ratio", "1", "higher", "job_s, miou, objective", "train-nn4"),
    ("trainer.wasted_solver_steps", "count", "lower", "job_s", "train-nn4"),
    ("oracles.random_walker_solve.s", "s", "lower", "job_s", "oracle-nn4"),
    ("oracles.assembly_s", "s", "lower", "job_s", "oracle-nn4"),
    ("oracles.cg.calls", "count", "lower", "job_s", "oracle-nn4"),
    ("oracles.cg_iters", "count", "lower", "job_s", "oracle-nn4"),
    ("oracles.cg_busy_s", "s", "lower", "job_s", "oracle-nn4"),
    ("oracles.cg_wall_s", "s", "lower", "job_s", "oracle-nn4"),
    ("affinity.build_graph.s", "s", "lower", "job_s", "oracle-nn4, solve-sparse2"),
    ("affinity.edges", "count", "lower", "job_s", "oracle-nn4, solve-sparse2"),
    ("fileio.read.s", "s", "lower", "job_s", "oracle-nn4"),
    ("fileio.write.s", "s", "lower", "job_s", "oracle-nn4"),
    ("fileio.bytes_written", "B", "lower", "job_s", "oracle-nn4"),
    ("trace.job_s", "s", "lower", "(tracing overhead)", "all"),
    ("trace.overhead", "1", "lower", "(tracing overhead)", "all"),
    ("trace.spans", "count", "lower", "(tracing overhead)", "all"),
]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    job: int
    attrs: dict | None = None


def _edge_attrs(args, kwargs, result):
    p, q = args[1], args[2]
    return {"rows": p.shape[0], "bytes_in": p.nbytes + q.nbytes}


def _solve_attrs(args, kwargs, result):
    y, report = result
    return {"steps": len(report.trace) - 1, "divergence_events": report.divergence_events,
            "candidate": id(y)}


def _sl_loss_attrs(args, kwargs, result):
    return {"y": id(args[1] if len(args) > 1 else kwargs["y"])}


def _written_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


ANNOTATORS = {
    "potts.edge_values": _edge_attrs,
    "potts.edge_grads": _edge_attrs,
    "solver.solve_pseudo_labels": _solve_attrs,
    "losses.sl_loss": _sl_loss_attrs,
    "affinity.build_graph": lambda a, k, r: {"edges": r.nedges},
    "trainer.alternate": lambda a, k, r: {"rounds": len(r[2])},
}


class Tracer:
    """Installs span-recording wrappers into the potts_sl modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)
        if annotate is None and name.startswith("fileio.write_"):
            annotate = _written_attrs
        counts_iterations = name == "oracles.cg"

        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span belongs to the span that started the pool
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            attrs = None
            if counts_iterations:
                attrs = {"iters": 0}
                user_callback = kwargs.get("callback")

                def count(xk):
                    attrs["iters"] += 1
                    if user_callback is not None:
                        user_callback(xk)

                kwargs["callback"] = count
            span = Span(sid, parent, name, threading.get_ident(), 0.0, 0.0, self.job, attrs)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function under all the names potts_sl bound it to."""
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"potts_sl.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    names[id(obj)] = (f"{layer}.{attr}", obj)
        from potts_sl import oracles

        names[id(oracles.cg)] = ("oracles.cg", oracles.cg)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in names.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "potts_sl" and not module_name.startswith("potts_sl."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        self._main_stack = self._stack()

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def run_job(self, fn):
        """Call fn inside a root `job` span with the wrappers installed."""
        self.job += 1
        self.install()
        try:
            return self._wrap("job", fn)()
        finally:
            self.uninstall()

    def write(self, path):
        """Write every span as one JSON line, times relative to its job's start."""
        starts = {s.job: s.start for s in self.spans if s.name == "job"}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "job": s.job, "id": s.id, "parent": s.parent, "name": s.name,
                    "thread": s.thread, "start": s.start - starts[s.job],
                    "end": s.end - starts[s.job], "attrs": s.attrs,
                }) + "\n")


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def job_metrics(spans: list[Span], job: int) -> dict:
    """Per-layer metrics of one traced job, keyed by the PER_LAYER names."""
    spans = [s for s in spans if s.job == job]
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def self_time(name):
        out = 0.0
        for s in named(name):
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, [])]
            out += (s.end - s.start) - _union([k for k in kids if k[1] > k[0]])
        return out

    def attr_sum(names, key):
        return sum(s.attrs[key] for n in names for s in named(n) if s.attrs)

    m = {}
    for name in ("potts.edge_values", "potts.edge_grads", "solver.solve_pseudo_labels",
                 "data_terms.row_values", "data_terms.row_grads", "simplex.softmax_rows",
                 "losses.sl_loss"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = len(named(name))
    m["potts.rows"] = attr_sum(("potts.edge_values", "potts.edge_grads"), "rows")
    m["potts.bytes_in"] = attr_sum(("potts.edge_values", "potts.edge_grads"), "bytes_in")
    m["solver.solve_pseudo_labels.self_s"] = self_time("solver.solve_pseudo_labels")
    m["solver.steps"] = attr_sum(("solver.solve_pseudo_labels",), "steps")
    m["solver.divergence_events"] = attr_sum(("solver.solve_pseudo_labels",), "divergence_events")
    m["solver.pseudo_label_objective.calls"] = len(named("solver.pseudo_label_objective"))
    m["losses.sl_loss.self_s"] = self_time("losses.sl_loss")

    m["trainer.pretrain.s"] = total("trainer.pretrain")
    m["trainer.alternate.self_s"] = self_time("trainer.alternate")
    m["trainer.rounds"] = attr_sum(("trainer.alternate",), "rounds")
    kept = compared = wasted = 0
    for alt in named("trainer.alternate"):
        # the first round has nothing to compare; a later round keeps its
        # candidate iff the joint loss evaluated after the solve uses it
        pending, first = None, True
        for c in sorted(children.get(alt.id, []), key=lambda c: c.start):
            if c.name == "solver.solve_pseudo_labels":
                pending = None if first else c
                compared += pending is not None
                first = False
            elif c.name == "losses.sl_loss" and pending is not None:
                if c.attrs["y"] == pending.attrs["candidate"]:
                    kept += 1
                else:
                    wasted += pending.attrs["steps"]
                pending = None
    m["trainer.candidates_kept"] = kept
    m["trainer.candidates_compared"] = compared
    m["trainer.candidate_keep_ratio"] = kept / compared if compared else 1.0
    m["trainer.wasted_solver_steps"] = wasted

    m["oracles.random_walker_solve.s"] = total("oracles.random_walker_solve")
    m["oracles.assembly_s"] = self_time("oracles.random_walker_solve")
    m["oracles.cg.calls"] = len(named("oracles.cg"))
    m["oracles.cg_iters"] = attr_sum(("oracles.cg",), "iters")
    m["oracles.cg_busy_s"] = total("oracles.cg")
    m["oracles.cg_wall_s"] = _union([(s.start, s.end) for s in named("oracles.cg")])

    m["affinity.build_graph.s"] = total("affinity.build_graph")
    m["affinity.edges"] = attr_sum(("affinity.build_graph",), "edges")

    ids = {s.id: s for s in spans}

    def outermost(prefix):
        return [s for s in spans if s.name.startswith(prefix)
                and not (s.parent in ids and ids[s.parent].name.startswith(prefix))]

    m["fileio.read.s"] = sum(s.end - s.start for s in outermost("fileio.read_"))
    m["fileio.write.s"] = sum(s.end - s.start for s in outermost("fileio.write_"))
    m["fileio.bytes_written"] = sum(s.attrs["bytes"] for s in outermost("fileio.write_") if s.attrs)

    m["trace.job_s"] = total("job")
    m["trace.spans"] = len(spans) - 1
    return m

