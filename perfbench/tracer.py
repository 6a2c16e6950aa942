"""Spans recorded from the benchmark's side, around the program's layers.

:class:`Tracer` replaces each function named in :data:`LAYERS` with a
wrapper that records one span per call (name, start, end, parent span,
thread) plus a count taken from the return value.  The program's files
are untouched: the wrapper replaces every binding of the function in
the loaded ``repro`` modules and in the caller modules named to the
tracer, and :meth:`Tracer.restore` puts the originals back.  A span's self time is its duration minus the durations of its
direct child spans on the same thread.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass


def _len_target(result) -> dict:
    return {"symbolic.pair_updates": len(result.target)}


def _units(result) -> dict:
    return {"core.units": int(result.num_units)}


def _dep_edges(result) -> dict:
    return {"core.dep_edges": len(result.edges)}


def _reads(result) -> dict:
    return {"machine.reads": int(result.num_reads)}


def _sim(result) -> dict:
    _timeline, run = result
    return {"machine.sim_messages": len(run.messages), "machine.sim_makespan": float(run.makespan)}


def _comm(result) -> dict:
    _factor, stats = result
    return {
        "mpsim.messages": sum(s.messages_sent for s in stats),
        "mpsim.bytes": sum(s.bytes_sent for s in stats),
    }


#: (module, attribute, layer metric, count extractor).  ``Class.method``
#: attributes wrap a method on the class.
LAYERS = (
    ("repro.ordering", "order", "ordering.order_s", None),
    ("repro.symbolic.fill", "symbolic_cholesky", "symbolic.fill_s", None),
    ("repro.symbolic.updates", "enumerate_updates", "symbolic.updates_s", _len_target),
    ("repro.core.partitioner", "partition_factor", "core.partition_s", _units),
    ("repro.core.dependencies", "analyze_dependencies", "core.dependencies_s", _dep_edges),
    ("repro.core.scheduler", "schedule_blocks", "core.schedule_s", None),
    ("repro.core.adaptive", "adaptive_schedule", "core.adaptive_s", None),
    ("repro.machine.traffic", "data_traffic", "machine.traffic_s", None),
    ("repro.machine.work", "processor_work", "machine.balance_s", None),
    ("repro.machine.metrics", "load_balance", "machine.balance_s", None),
    ("repro.machine.batched", "build_read_index", "machine.read_index_s", _reads),
    ("repro.machine.batched", "batched_metrics", "machine.batched_s", None),
    ("repro.machine.simulate", "simulate_assignment", "machine.simulate_s", _sim),
    ("repro.obs.simtime", "SimRun.critical_path", "obs.simtime_s", None),
    ("repro.obs.simtime", "SimRun.proc_times", "obs.simtime_s", None),
    ("repro.obs.simtime", "SimRun.imbalance", "obs.simtime_s", None),
    ("repro.obs.simtime", "SimRun.comm_matrix", "obs.simtime_s", None),
    ("repro.mpsim.distchol", "distributed_cholesky", "mpsim.fanout_s", _comm),
    ("repro.mpsim.fanin", "distributed_cholesky_fanin", "mpsim.fanin_s", _comm),
    ("repro.mpsim.distblock", "distributed_block_cholesky", "mpsim.distblock_s", _comm),
    ("repro.numeric.cholesky", "sparse_cholesky", "numeric.cholesky_s", None),
    ("repro.perf.sweep", "sweep", "perf.sweep_self_s", None),
    ("repro.analysis.explain", "explain_run", "analysis.explain_self_s", None),
)

#: Count metrics the extractors above produce, with their units.
COUNTS = {
    "symbolic.pair_updates": "count", "core.units": "count", "core.dep_edges": "count",
    "machine.reads": "count", "machine.sim_messages": "count",
    "machine.sim_makespan": "simclock", "mpsim.messages": "count", "mpsim.bytes": "count",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str
    counts: dict
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Installs the layer wrappers; spans land in :attr:`spans`."""

    def __init__(self, callers=()):
        #: Modules outside the program whose bindings are wrapped too.
        self.callers = tuple(callers)
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, extract):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            index = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                        threading.get_ident(), tracer.phase, {})
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.end - span.start
            if extract is not None:
                span.counts = extract(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, extract in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, extract))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, extract)
            # Every module that imported the function by name holds its
            # own binding; replace each one.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                    or mod_name in self.callers
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def layer_metrics(self, names, ops: int, setups: int) -> dict[str, float]:
        """Self time and counts per layer: per operation for layers the
        operation runs, per set-up for layers only the set-up runs, and 0
        for layers the workload never enters."""
        totals = {phase: {} for phase in ("setup", "op")}
        for span in self.spans:
            acc = totals[span.phase]
            acc[span.name] = acc.get(span.name, 0.0) + span.self_s
            for key, value in span.counts.items():
                acc[key] = acc.get(key, 0) + value
        out = {}
        for name in names:
            if name in totals["op"]:
                out[name] = totals["op"][name] / ops
            elif name in totals["setup"]:
                out[name] = totals["setup"][name] / setups
            else:
                out[name] = 0
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "thread": s.thread, "phase": s.phase, "self_s": s.self_s, "counts": s.counts}
            for s in self.spans
        ]
