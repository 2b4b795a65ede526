"""Span tracing from outside the program, for the traced benchmark run.

Nothing here changes what the program computes.  The traced run wraps
only public seams:

* a timing :class:`~repro.sim.backends.CampaignBackend` passed as
  ``backend=`` (:class:`TimingBackend`);
* a :class:`~repro.store.CampaignStore` subclass passed as ``store=`` or
  to ``CampaignService(store=)`` (:func:`traced_store`);
* an event consumer added through ``CampaignSession(consumers=)``
  (:class:`EventCounter`);
* module-attribute wrappers on ``run_cell``, ``run_cell_vectorized``,
  the sinks' ``emit``, ``store_report``, ``cells_from_store``,
  ``execute_spec`` and ``CampaignService.report_query``
  (:func:`install_wrappers`, undone by the returned restore callable).

Spans stay in memory (:class:`Tracer`) and are aggregated into the
per-layer metrics by :func:`layer_metrics`.  A span's *self* time is its
duration minus the time its child spans cover; spans of one top-level
operation share its root id.  ``time.monotonic`` is the clock, so spans
recorded in the daemon process line up with the load generator's
request times on the same machine.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager

from common import median

CLOCK = time.monotonic


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "args")

    def __init__(self, id_, parent, root, name, start, args):
        self.id = id_
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.end = start
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "root": self.root,
                "name": self.name, "start": self.start, "end": self.end,
                "args": self.args}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["parent"], data["root"], data["name"],
                   data["start"], data["args"])
        span.end = data["end"]
        return span


class Tracer:
    """In-memory span recorder with one span stack per thread.

    ``active`` gates recording: wrappers stay installed but pass straight
    through while it is False (the daemon toggles it for the overhead
    probe).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), parent.id if parent else 0,
                    parent.root if parent else 0, name, CLOCK(), args)
        if parent is None:
            span.root = span.id
        stack.append(span)
        try:
            yield span
        finally:
            span.end = CLOCK()
            stack.pop()
            self.spans.append(span)  # list.append is atomic


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------
def _timing_backend_class():
    from repro.sim.backends import CampaignBackend

    class TimingBackend(CampaignBackend):
        """Delegates to a real backend, one span per produced chunk."""

        def __init__(self, inner, tracer: Tracer):
            self.inner = inner
            self.tracer = tracer
            self.workers = getattr(inner, "workers", 1)

        def execute(self, config, chunks, controller):
            produced = self.inner.execute(config, chunks, controller)
            while True:
                if not self.tracer.active:
                    item = next(produced, None)
                else:
                    with self.tracer.span("sim.backends") as span:
                        item = next(produced, None)
                        span.args["chunk"] = item is not None
                if item is None:
                    return
                yield item

    return TimingBackend


def timing_backend(inner, tracer: Tracer):
    return _timing_backend_class()(inner, tracer)


def traced_store(root, tracer: Tracer, **kwargs):
    """A :class:`~repro.store.CampaignStore` subclass instance whose
    publish/lookup/preload/coverage calls record spans."""
    from repro.store import CampaignStore

    class TracedStore(CampaignStore):
        def publish(self, key, result):
            if not tracer.active:
                return super().publish(key, result)
            with tracer.span("store.publish"):
                return super().publish(key, result)

        def lookup(self, key):
            if not tracer.active:
                return super().lookup(key)
            with tracer.span("store.lookup") as span:
                result = super().lookup(key)
                span.args["hit"] = result is not None
                return result

        def preload(self, keys):
            if not tracer.active:
                return super().preload(keys)
            with tracer.span("store.preload") as span:
                loaded = super().preload(keys)
                span.args["entries"] = loaded
                return loaded

        def coverage(self, spec):
            if not tracer.active:
                return super().coverage(spec)
            with tracer.span("store.coverage"):
                return super().coverage(spec)

    return TracedStore(root, **kwargs)


def event_counter():
    """An :class:`~repro.sim.events.EventConsumer` counting events and
    finished cells (subscribed via ``CampaignSession(consumers=)``)."""
    from repro.sim.events import CellFinished, EventConsumer

    class EventCounter(EventConsumer):
        def __init__(self):
            self.events = 0
            self.cells = 0

        def on_event(self, event):
            self.events += 1
            if isinstance(event, CellFinished):
                self.cells += 1

    return EventCounter()


def _patch(owner, name, wrapper, undo: list) -> None:
    original = getattr(owner, name)
    undo.append((owner, name, original))
    setattr(owner, name, wrapper(original))


def install_wrappers(tracer: Tracer, *, counters: list | None = None):
    """Wrap the program's layer entry points; returns ``restore()``.

    ``counters`` collects the :func:`event_counter` of every session the
    wrapped ``execute_spec`` opens (the daemon's fill campaigns).
    """
    import repro.experiments.report as report_mod
    import repro.service.app as app_mod
    import repro.sim.backends as backends_mod
    import repro.sim.executor as executor_mod
    import repro.sim.sinks as sinks_mod
    import repro.sim.vectorized as vectorized_mod
    import repro.store as store_pkg

    undo: list = []

    def cell_wrapper(name):
        def wrap(fn):
            def wrapped(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                with tracer.span(name) as span:
                    results = fn(*args, **kwargs)
                    span.args["replicas"] = len(results)
                    return results
            return wrapped
        return wrap

    _patch(backends_mod, "run_cell", cell_wrapper("sim.des"), undo)
    _patch(vectorized_mod, "run_cell_vectorized",
           cell_wrapper("sim.vectorized"), undo)

    def emit_wrapper(fn):
        def emit(self, plan, results):
            if not tracer.active:
                return fn(self, plan, results)
            path = getattr(self, "path", None)
            before = _size(path)
            with tracer.span("sim.sinks") as span:
                fn(self, plan, results)
            span.args["records"] = len(results)
            span.args["bytes"] = _size(path) - before
        return emit

    for cls in (sinks_mod.OrderedJsonlSink, sinks_mod.FramedJsonlSink,
                sinks_mod.NullSink):
        _patch(cls, "emit", emit_wrapper, undo)

    def span_wrapper(name):
        def wrap(fn):
            def wrapped(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapped
        return wrap

    _patch(report_mod, "store_report", span_wrapper("experiments.report"),
           undo)
    _patch(store_pkg, "cells_from_store", span_wrapper("store.resolve"),
           undo)

    def execute_wrapper(fn):
        def execute_spec(spec, *, store=None, backend=None, **kwargs):
            if not tracer.active:
                return fn(spec, store=store, backend=backend, **kwargs)
            counter = event_counter()
            if counters is not None:
                counters.append(counter)
            with tracer.span("sim.executor"):
                return executor_mod.CampaignSession(
                    spec, store=store, backend=backend,
                    consumers=[counter], **kwargs).run()
        return execute_spec

    _patch(executor_mod, "execute_spec", execute_wrapper, undo)

    def handler_wrapper(fn):
        def report_query(self, spec, **kwargs):
            if not tracer.active:
                return fn(self, spec, **kwargs)
            with tracer.span("service.handler",
                             spec=spec_digest(spec)) as span:
                payload = fn(self, spec, **kwargs)
                span.args["simulated_replicas"] = \
                    payload["simulated_replicas"]
                return payload
        return report_query

    _patch(app_mod.CampaignService, "report_query", handler_wrapper, undo)

    def restore() -> None:
        while undo:
            owner, name, original = undo.pop()
            setattr(owner, name, original)

    return restore


def _size(path) -> int:
    if path is None:
        return 0
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def spec_digest(spec) -> str:
    """A short identity of a spec (pairs client requests with handler
    spans)."""
    import hashlib
    import json

    text = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def layer_metrics(spans, *, per: float = 1.0) -> dict[str, tuple]:
    """The per-layer metrics of a span list: ``name → (value, unit)``.

    Totals (counts, busy and self times) are divided by ``per`` — the
    sweeps report them per traced cold+warm cycle.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ())) / per

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, ())) / per

    def count(name, arg=None):
        group = by_name.get(name, ())
        if arg is None:
            return len(group) / per
        return sum(s.args.get(arg, 0) for s in group) / per

    def p50(name):
        return median((s.duration for s in by_name.get(name, ())), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    des_reps = count("sim.des", "replicas")
    vec_reps = count("sim.vectorized", "replicas")
    lookups = by_name.get("store.lookup", [])
    hits = [s.duration for s in lookups if s.args.get("hit")]
    misses = [s.duration for s in lookups if not s.args.get("hit")]
    chunks = sum(1 for s in by_name.get("sim.backends", ())
                 if s.args.get("chunk")) / per
    renders = [own[s.id] for s in by_name.get("experiments.report", ())]
    return {
        "sim.des.replicas": (des_reps, "count"),
        "sim.des.busy_s": (busy("sim.des"), "s"),
        "sim.des.us_per_replica": (
            ratio(busy("sim.des"), des_reps) * 1e6, "us"),
        "sim.vectorized.cells": (count("sim.vectorized"), "count"),
        "sim.vectorized.busy_s": (busy("sim.vectorized"), "s"),
        "sim.vectorized.us_per_replica": (
            ratio(busy("sim.vectorized"), vec_reps) * 1e6, "us"),
        "sim.backends.chunks": (chunks, "count"),
        "sim.backends.self_s": (self_s("sim.backends"), "s"),
        "sim.executor.self_s": (self_s("sim.executor"), "s"),
        "sim.sinks.records": (count("sim.sinks", "records"), "count"),
        "sim.sinks.bytes": (count("sim.sinks", "bytes"), "B"),
        "sim.sinks.busy_s": (busy("sim.sinks"), "s"),
        "store.publish.count": (count("store.publish"), "count"),
        "store.publish.busy_s": (busy("store.publish"), "s"),
        "store.publish.us_p50": (p50("store.publish") * 1e6, "us"),
        "store.lookup.count": (len(lookups) / per, "count"),
        "store.lookup.hit_ratio": (ratio(len(hits), len(lookups)),
                                   "ratio"),
        "store.lookup.hit_us_p50": (median(hits, 0.0) * 1e6, "us"),
        "store.lookup.miss_ms_p50": (median(misses, 0.0) * 1e3, "ms"),
        "store.lookup.busy_s": (busy("store.lookup"), "s"),
        "store.coverage.count": (count("store.coverage"), "count"),
        "store.coverage.ms_p50": (p50("store.coverage") * 1e3, "ms"),
        "store.preload.entries": (count("store.preload", "entries"),
                                  "count"),
        "store.preload.busy_s": (busy("store.preload"), "s"),
        "store.resolve.self_s": (self_s("store.resolve"), "s"),
        "experiments.report.render_ms_p50": (median(renders, 0.0) * 1e3,
                                             "ms"),
    }
