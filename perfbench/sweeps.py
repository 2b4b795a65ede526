"""The two sweep workloads: a campaign run cold into a fresh store, then
re-run warm against it (see ``WARM_SHARE``), as many cycles as fit in
the measured window.

* ``sweep-des`` — the ``high-churn`` preset (shared traces, so even a
  vectorized policy would fall back to the per-event engine), serial,
  ordered sink, replicas raised to 64 (the DES cost of a replica
  depends on its failure draws; more replicas keep a run's total work
  about the same from seed to seed).
* ``sweep-vec`` — 3 protocols × 16 M × 8 φ at 16 independent-trace
  replicas, ``backend="vectorized"``, framed sink: many small cells, so
  publish, executor, event and sink overhead weigh as much as the
  kernel.

Every cycle uses the same spec (the campaign seed comes from
``--seed``) and a store directory of its own.  Untimed, the hot-cell
cache is emptied before every run and the deleted files are written
back between cycles, so each run starts as a fresh process on a quiet
disk would.
``setup_s`` is the time from the start of the process to the first
cycle's cold phase: import, spec and the first store.  After the
window, untimed, both results files of every cycle are compared byte
for byte with a run of the same spec that uses no store.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np

from common import (
    Outcome, finish, machine_facts, median, peak_rss_mb_self, quantile,
    tree_bytes,
)
from tracer import (
    CLOCK, Tracer, event_counter, install_wrappers, layer_metrics,
    timing_backend, traced_store,
)

#: Latency limits of one cycle's operations (the SLO share counts
#: correct operations that finished within them).
SLO_S = {"cold": 10.0, "warm": 5.0}
MIN_CYCLES = 3
#: Warm re-runs follow a cycle's cold run until their time adds up to
#: this share of it (at least one).  A short warm re-run then gets more
#: samples: with one per cycle, ``warm_p90_ms`` on ``sweep-des`` rested
#: on the slowest of about eight.
WARM_SHARE = 1 / 3


def build_spec(workload: str, seed: int):
    from repro.experiments.scenarios import get_campaign_preset
    from repro.sim.spec import CampaignSpec, ExecutionPolicy

    preset = get_campaign_preset("high-churn")
    if workload == "sweep-des":
        return preset.spec(replicas=64, seed=seed)
    grid = preset.campaign_config(
        replicas=16, seed=seed, share_traces=False,
        m_values=tuple(float(m) for m in
                       np.round(np.geomspace(120.0, 3600.0, 16), 3)),
        phi_values=tuple(float(p) for p in np.linspace(0.25, 4.0, 8)),
    )
    return CampaignSpec(grid=grid, policy=ExecutionPolicy(
        backend="vectorized", sink="framed"))


def _run_session(spec, path, store, tracer, counters):
    from repro.sim.backends import make_backend
    from repro.sim.executor import CampaignSession

    if tracer is None:
        return CampaignSession(spec, results_path=path, store=store).run()
    counter = event_counter()
    counters.append(counter)
    backend = timing_backend(
        make_backend(spec.policy.workers, spec.policy.backend), tracer)
    with tracer.span("sim.executor"):
        return CampaignSession(
            spec, results_path=path, store=store, backend=backend,
            consumers=[counter]).run()


class _Cycles:
    """Per-cycle measurements; :meth:`check` verifies them afterwards."""

    def __init__(self, spec, work):
        self.spec = spec
        self.work = work
        self.replicas = (len(spec.grid.protocols) * len(spec.grid.m_values)
                         * len(spec.grid.phi_values) * spec.grid.replicas)
        self.outcome = Outcome()
        #: ``(cycle, klass, results digest, seconds, failure reason)``
        self.ops: list[tuple] = []
        self.first_timed: float | None = None
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []
        self.slo_met = 0
        self.entries = 0
        self.store_bytes = 0
        self.compact_s: list[float] = []

    def run(self, index: int, tracer=None, counters=None):
        from repro.store import CampaignStore
        from repro.store.cache import default_cache

        store_dir = self.work / f"store-{index}"
        if tracer is None:
            store = CampaignStore(store_dir, create=True)
        else:
            store = traced_store(store_dir, tracer, create=True)
        times: dict[str, list[float]] = {"cold": [], "warm": []}
        klass = "cold"
        while klass is not None:
            path = self.work / f"{klass}{len(times[klass])}-{index}.jsonl"
            simulated = self.replicas if klass == "cold" else 0
            default_cache().clear()
            started = CLOCK()
            if self.first_timed is None:
                self.first_timed = started
            try:
                execution = _run_session(
                    self.spec, path, store, tracer, counters)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                self.ops.append((index, klass, None, 0.0,
                                 type(exc).__name__))
                break
            elapsed = CLOCK() - started
            times[klass].append(elapsed)
            ran = execution.report.replicas_run
            self.ops.append((
                index, klass, hashlib.sha256(path.read_bytes()).digest(),
                elapsed, "" if ran == simulated else
                f"simulated {ran} replicas, expected {simulated}"))
            if klass == "cold":
                self.entries = store.stat().entries
                self.store_bytes = tree_bytes(store_dir)
            klass = ("warm" if sum(times["warm"])
                     < WARM_SHARE * times["cold"][0] else None)
        if tracer is not None:
            started = CLOCK()
            store.compact()
            self.compact_s.append(CLOCK() - started)
        shutil.rmtree(store_dir, ignore_errors=True)
        for path in self.work.glob(f"*-{index}.jsonl*"):
            path.unlink()
        # Write back this cycle's files now rather than during the next
        # cycle's timed phases.
        os.sync()
        return times

    def check(self, reference: bytes) -> None:
        """Count every operation against the no-store ``reference``;
        keep the times of cycles whose every run is correct."""
        digest = hashlib.sha256(reference).digest()
        good: dict[int, list] = {}
        failed: set[int] = set()
        for index, klass, got, elapsed, reason in self.ops:
            if got is not None and got != digest:
                reason = "results differ from the no-store run"
            self.outcome.record(klass, not reason, reason)
            if reason:
                failed.add(index)
            else:
                self.slo_met += elapsed <= SLO_S[klass]
                good.setdefault(index, []).append((klass, elapsed))
        for index, runs in good.items():
            if index not in failed:
                self.cold_s.extend(t for k, t in runs if k == "cold")
                self.warm_s.extend(t for k, t in runs if k == "warm")


def run(workload: str, seed: int, seconds: float, trace: bool, work,
        started: float) -> None:
    from repro.sim.executor import execute_spec
    from repro.store.cache import default_cache

    spec = build_spec(workload, seed)
    cycles = _Cycles(spec, work)

    tracer = Tracer() if trace else None
    counters: list = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    phase_s = {"cold": 0.0, "warm": 0.0}
    cache_delta = {"hits": 0, "misses": 0, "evictions": 0}
    cycle_walls: list[float] = []
    window_start = CLOCK()
    index = 0
    # Start another cycle only while one more is expected to end inside
    # the window (after the first few).
    while index < MIN_CYCLES or (CLOCK() - window_start
                                 + median(cycle_walls) <= seconds):
        cycle_start = CLOCK()
        # The traced run alternates plain and traced cycles: the plain
        # ones are the baseline of the tracing overhead.
        traced = tracer is not None and index % 2 == 1
        if traced:
            restore = install_wrappers(tracer)
            before = default_cache().stats()
            try:
                times = cycles.run(index, tracer, counters)
            finally:
                restore()
            traced_walls.append(sum(map(sum, times.values())))
            after = default_cache().stats()
            for name in cache_delta:
                cache_delta[name] += (getattr(after, name)
                                      - getattr(before, name))
            for klass, elapsed in times.items():
                phase_s[klass] += sum(elapsed)
        else:
            plain_walls.append(sum(map(sum, cycles.run(index).values())))
        cycle_walls.append(CLOCK() - cycle_start)
        index += 1
    window_s = CLOCK() - window_start
    peak_rss = peak_rss_mb_self()

    ref_path = work / "reference.jsonl"
    execute_spec(spec, results_path=ref_path)  # untimed, no store
    cycles.check(ref_path.read_bytes())

    print(f"workload {workload}: seed {seed}, {index} cycles of "
          f"{cycles.replicas} replicas in {window_s:.2f} s")
    print("machine: " + machine_facts(store_entries=cycles.entries,
                                      store_bytes=cycles.store_bytes))
    outcome = cycles.outcome
    if tracer is None:
        metrics = _end_to_end(cycles, cycles.first_timed - started,
                              peak_rss)
    else:
        metrics = _per_layer(tracer, counters, len(traced_walls), phase_s,
                             cache_delta, cycles, traced_walls,
                             plain_walls)
    finish(outcome, metrics, correct=outcome.failed == 0)


def _end_to_end(cycles: _Cycles, setup_s: float,
                peak_rss: float) -> dict:
    # With no correct cycle, report each phase at its latency limit.
    cold = cycles.cold_s or [SLO_S["cold"]]
    warm = cycles.warm_s or [SLO_S["warm"]]
    attempted = max(cycles.outcome.attempted, 1)
    return {
        "setup_s": (setup_s, "s"),
        "cold_replicas_per_s": (median(cycles.replicas / t for t in cold),
                                "1/s"),
        "warm_replicas_per_s": (median(cycles.replicas / t for t in warm),
                                "1/s"),
        "cold_p50_ms": (median(cold) * 1e3, "ms"),
        "warm_p50_ms": (median(warm) * 1e3, "ms"),
        "warm_p90_ms": (quantile(warm, 0.9) * 1e3, "ms"),
        "slo_met_share": (cycles.slo_met / attempted, "share"),
        "ok_share": ((attempted - cycles.outcome.failed) / attempted,
                     "share"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def _per_layer(tracer, counters, traced_cycles, phase_s, cache_delta,
               cycles, traced_walls, plain_walls) -> dict:
    per = max(traced_cycles, 1)
    metrics = layer_metrics(tracer.spans, per=per)
    cells = sum(c.cells for c in counters) / per
    events = sum(c.events for c in counters) / per
    executor_self = metrics["sim.executor.self_s"][0]
    metrics["sim.executor.cells"] = (cells, "count")
    metrics["sim.executor.events"] = (events, "count")
    metrics["sim.executor.us_per_cell"] = (
        executor_self / cells * 1e6 if cells else 0.0, "us")
    probes = cache_delta["hits"] + cache_delta["misses"]
    metrics["store.cache.hit_ratio"] = (
        cache_delta["hits"] / probes if probes else 0.0, "ratio")
    metrics["store.cache.evictions"] = (cache_delta["evictions"] / per,
                                        "count")
    metrics["store.entries"] = (cycles.entries, "count")
    metrics["store.bytes_per_entry"] = (
        cycles.store_bytes / cycles.entries if cycles.entries else 0.0,
        "B")
    metrics["store.compact_s"] = (median(cycles.compact_s, 0.0), "s")
    for name, unit in _SERVICE_ONLY:
        metrics[name] = (0.0, unit)
    metrics["trace.cold_phase_s"] = (phase_s["cold"] / per, "s")
    metrics["trace.warm_phase_s"] = (phase_s["warm"] / per, "s")
    metrics["trace.overhead"] = (
        median(traced_walls) / median(plain_walls) - 1.0
        if traced_walls and plain_walls else 0.0, "ratio")
    return metrics


#: Per-layer metrics only the service workload exercises; the sweeps
#: report them as 0 (no call was made).
_SERVICE_ONLY = (
    ("service.requests", "count"),
    ("service.status_4xx", "count"),
    ("service.status_5xx", "count"),
    ("service.handler_ms_p50", "ms"),
    ("service.transport_ms_p50", "ms"),
    ("service.fills", "count"),
    ("service.fill_replicas", "count"),
    ("service.fill_useful_ratio", "ratio"),
    ("service.coalesce_joined", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.connections", "count"),
)
