"""Traced runs: spans around the calls into each layer's public functions.

The simulator is not edited.  :meth:`Tracer.instrument` wraps, inside the
job process only, the public entry points of each layer -- Algorithm 1's
steps 1(a)-1(e), SimulateRouting, the disk array, the storage plane, and the
process backend -- so every call records a span ``[name, start, end,
parent]``.  All spans of one traced job share the tracer's run id, stay in
memory, and are written out when the traced job ends.

Process-backend workers are forked after instrumentation, so they inherit the
wrappers.  Each worker starts an empty span list at fork and ships its spans
back through the engine's own telemetry drain (``Collector.drain`` in the
worker, ``Collector.ingest`` in the engine).  A layer whose calls all ran in
workers therefore reports the workers' time, never a zero from the engine
process.  The sequential engine has no backend, so there ``core.backend.*``
and the ``ipc``/``barrier_wait`` host categories are a measured zero.

A span's self time is its duration minus its children's durations (calls in
one process nest and never overlap).  Whatever the wrapped layers do not
cover inside the engine's ``run()`` is ``engine.self_s``, so in the engine
process the layer self times plus ``engine.self_s`` equal the traced wall.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core import context, parsim, seqsim
from repro.core.backend import ProcessBackend
from repro.emio import diskarray, layout, linked, storage
from repro.obs import Collector
from repro.obs.profile import build_report

_READ, _WRITE = "emio.diskarray.read", "emio.diskarray.write"
_SREAD, _SWRITE = "emio.storage.read", "emio.storage.write"

#: ``(owner, attribute, span name)``.  A callable name is computed from the
#: call's positional arguments.
_LAYER_CALLS = [
    (context.ContextStore, "load_group", "core.context.load"),
    (context.ContextStore, "save_group", "core.context.save"),
    (layout.StripedRegion, "read_slots", "emio.layout.read_slots"),
    (layout.StripedRegion, "read_slot", "emio.layout.read_slots"),
    (linked.LinkedBuckets, "append_blocks", "emio.linked.append"),
    (seqsim, "simulate_routing", "core.routing.route"),
    (parsim, "simulate_routing", "core.routing.route"),
    (diskarray.DiskArray, "parallel_read", _READ),
    (diskarray.DiskArray, "read_batched", _READ),
    (diskarray.DiskArray, "parallel_write", _WRITE),
    (diskarray.DiskArray, "write_batched", _WRITE),
    (diskarray.DiskArray, "charge_batched",
     lambda args: _READ if args[1] == "R" else _WRITE),
    (ProcessBackend, "call_all", lambda args: f"core.backend.{args[1]}"),
]
_STORAGE_CALLS = {"get": _SREAD, "get_many": _SREAD,
                  "put": _SWRITE, "put_many": _SWRITE, "sync": _SWRITE}

#: Per-layer time metrics: metric name -> span names whose self time it sums.
_SELF_TIMES = {
    "core.context.load_s": ("core.context.load",),
    "core.context.save_s": ("core.context.save",),
    "emio.layout.read_slots_s": ("emio.layout.read_slots",),
    "kernel.superstep_s": ("kernel.superstep",),
    "emio.linked.append_s": ("emio.linked.append",),
    "core.routing.route_s": ("core.routing.route",),
    "emio.diskarray.read_s": (_READ,),
    "emio.diskarray.write_s": (_WRITE,),
    "emio.storage.read_s": (_SREAD,),
    "emio.storage.write_s": (_SWRITE,),
    "core.backend.fetch_s": ("core.backend.fetch",),
    "core.backend.compute_s": ("core.backend.compute",),
    "core.backend.write_s": ("core.backend.write",),
    "core.backend.reorganize_s": ("core.backend.reorganize",),
    "engine.self_s": ("engine.run",),
}
#: Per-layer call counts: metric name -> span-name prefix.
_CALL_COUNTS = {
    "core.context.calls": "core.context.",
    "kernel.calls": "kernel.",
    "emio.storage.calls": "emio.storage.",
    "core.backend.rounds": "core.backend.",
}
_HOST = ("kernel", "serialize", "syscall_io", "layout", "routing", "ipc",
         "barrier_wait")


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder for one traced job (and its forked workers)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._arrays: list = []  # disk arrays built in this process
        self.in_worker = False
        self.worker_payloads: list[dict] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Cleared in place: the wrappers hold these very lists.
        self.spans.clear()
        self._stack.clear()
        self._arrays.clear()
        self.worker_payloads.clear()
        self.in_worker = True

    # -- recording ---------------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args) if namer else name, clock(), 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def instrument(self, algorithm) -> None:
        """Wrap every layer entry point.  Job processes only: never restored."""
        for owner, attr, name in _LAYER_CALLS:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
        for cls in (storage.MemoryStorage, storage.FileStorage,
                    storage.MmapStorage):
            for attr, name in _STORAGE_CALLS.items():
                if attr in vars(cls):
                    setattr(cls, attr, self._wrap(vars(cls)[attr], name))
        kernel = type(algorithm)
        kernel.superstep = self._wrap(kernel.superstep, "kernel.superstep")

        arrays = self._arrays
        init = diskarray.DiskArray.__init__

        @functools.wraps(init)
        def tracked_init(array, *args, **kwargs):
            init(array, *args, **kwargs)
            arrays.append(array)

        diskarray.DiskArray.__init__ = tracked_init

        drain, ingest = Collector.drain, Collector.ingest
        tracer = self

        @functools.wraps(drain)
        def drain_with_spans(collector):
            payload = drain(collector)
            if tracer.in_worker:
                payload["perfbench"] = tracer._export()
            return payload

        @functools.wraps(ingest)
        def ingest_with_spans(collector, payload):
            extra = payload.pop("perfbench", None)
            if extra is not None:
                tracer.worker_payloads.append(extra)
            return ingest(collector, payload)

        Collector.drain = drain_with_spans
        Collector.ingest = ingest_with_spans

    def _counters(self) -> dict[str, int]:
        return {
            "parallel_ops": sum(a.parallel_ops for a in self._arrays),
            "read_bytes": sum(a.storage_read_bytes for a in self._arrays),
            "write_bytes": sum(a.storage_write_bytes for a in self._arrays),
        }

    def _export(self) -> dict:
        return {"pid": os.getpid(), "spans": list(self.spans),
                "counters": self._counters()}

    def processes(self) -> list[dict]:
        """This process's spans and counters, then each worker's."""
        return [self._export(), *self.worker_payloads]


# -- turning spans into per-layer metrics --------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outer_time(spans: list[list], layer: str) -> float:
    """Summed duration of a layer's outermost spans (children included)."""
    nested = [False] * len(spans)  # some ancestor belongs to ``layer``
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            nested[i] = nested[parent] or _layer(spans[parent][0]) == layer
        if not nested[i] and _layer(name) == layer:
            total += end - start
    return total


def _check_coverage(spans: list[list]) -> None:
    """Engine-process self times must add up to the traced ``run()`` wall."""
    roots = [s for s in spans if s[3] < 0]
    if [s[0] for s in roots] != ["engine.run"]:
        raise AssertionError(
            f"engine-process spans outside engine.run: {len(roots) - 1}"
        )
    wall = roots[0][2] - roots[0][1]
    covered = sum(_self_times(spans))
    if abs(covered - wall) > 1e-6 * max(1.0, wall):
        raise AssertionError(f"layer self times cover {covered} of {wall} s")


def _span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, call counts, and array counters."""
    self_by_name: dict[str, float] = defaultdict(float)
    count_by_name: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    diskarray_s = 0.0
    nspans = 0
    for proc in tracer.processes():
        spans = proc["spans"]
        nspans += len(spans)
        for (name, *_), own in zip(spans, _self_times(spans)):
            self_by_name[name] += own
            count_by_name[name] += 1
        diskarray_s += _outer_time(spans, "emio.diskarray")
        for key, val in proc["counters"].items():
            counters[key] += val

    out = {
        metric: sum(self_by_name[n] for n in names)
        for metric, names in _SELF_TIMES.items()
    }
    for metric, prefix in _CALL_COUNTS.items():
        out[metric] = sum(c for n, c in count_by_name.items()
                          if n.startswith(prefix))
    ops = counters["parallel_ops"]
    moved = counters["read_bytes"] + counters["write_bytes"]
    calls = out["emio.storage.calls"]
    out.update({
        "emio.diskarray.parallel_ops": ops,
        # Whole disk-array calls (storage included) per parallel I/O: the
        # host's effective G.
        "emio.diskarray.s_per_op": diskarray_s / ops if ops else 0.0,
        "emio.storage.read_bytes": counters["read_bytes"],
        "emio.storage.write_bytes": counters["write_bytes"],
        "emio.storage.bytes_per_call": moved / calls if calls else 0.0,
        "trace.spans": nspans,
    })
    return out


def _host_metrics(collector: Collector) -> dict[str, float]:
    """Host-category seconds and scope counts, summed over every track."""
    report = build_report(collector)
    tracks = report.tracks.values()
    out = {f"host.{cat}_s": sum(tr["totals"].get(cat, 0.0) for tr in tracks)
           for cat in _HOST}
    for cat in ("serialize", "syscall_io"):
        out[f"host.{cat}_n"] = sum(tr["counts"].get(cat, 0) for tr in tracks)
    steps_ms = [row["wall"] * 1e3 for row in report.supersteps]
    out["engine.superstep_ms_p50"] = statistics.median(steps_ms)
    out["engine.superstep_ms_p90"] = (
        statistics.quantiles(steps_ms, n=10, method="inclusive")[-1]
        if len(steps_ms) > 1 else steps_ms[0]
    )
    return out


def _report_metrics(report) -> dict[str, float]:
    """Counted per-phase costs from the simulation report (exact)."""
    steps = report.supersteps
    return {
        "core.context.io_ops": sum(
            s.phases.fetch_context + s.phases.write_context for s in steps),
        "emio.layout.io_ops": sum(s.phases.fetch_messages for s in steps),
        "emio.linked.blocks": sum(s.message_blocks for s in steps),
        "core.routing.io_ops": sum(s.phases.reorganize for s in steps),
        "core.routing.blocks": sum(
            r.total_blocks for s in steps for r in s.routing_stats()),
        "core.routing.max_load_ratio": report.max_load_ratio,
        "model.comp_ops": report.ledger.summary()["comp_ops"],
        "model.io_efficiency": report.io_efficiency(),
        "engine.supersteps": report.num_supersteps,
    }


def layer_metrics(tracer: Tracer, collector: Collector, engine, report,
                  input_bytes: int) -> dict[str, float]:
    """Every per-layer metric one traced job yields."""
    _check_coverage(tracer.spans)
    out = _span_metrics(tracer)
    out.update(_host_metrics(collector))
    out.update(_report_metrics(report))
    out["emio.storage.write_amp"] = out["emio.storage.write_bytes"] / input_bytes
    # The sequential engine has no backend: no IPC rounds, no pipe bytes.
    backend = getattr(engine, "backend", None)
    out["core.backend.tx_bytes"] = getattr(backend, "tx_bytes", 0)
    out["core.backend.rx_bytes"] = getattr(backend, "rx_bytes", 0)
    return out
