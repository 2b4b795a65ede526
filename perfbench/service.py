"""The ``service-mixed`` workload: open-loop report queries against a
``serve`` daemon over a compacted store.

Set-up builds the warehouse through the public API: a DES *catalog*
campaign (3 protocols × 4 M × 3 φ × 16 independent-trace replicas,
576 entries) plus a vectorized filler campaign of 3072 entries — 3648
entries, 25× the largest warm footprint (``MAX_FOOTPRINT``) — compacts
it, then starts the daemon in its own process.

Load: ``RATE_PER_S`` × ``--seconds`` queries (rounded to whole blocks)
over ``CONNECTIONS`` persistent connections, one due at a uniformly
drawn time in each of equal slots of the window; each query is timed
from when it was due.  Classes come in shuffled blocks of 20, so every
run has the same mix:

* ``warm`` (13/20) — sub-grids of the catalog (protocol, M and φ
  subsets; 4, 8 or 16 replicas) from a pool of ``POOL`` specs, picked
  with Zipf frequencies: first touches preload, repeats hit the cache;
* ``cold`` (6/20) — a 2-cell sub-grid at a campaign seed the store
  does not hold: the fill publishes loose entries beside the segments,
  via the miss path;
* ``vec`` (1/20) — a 2-cell ``backend="vectorized"`` sub-grid, odd ones
  at the catalog seed and even ones at a fresh one.

The daemon writes a response's headers and body in two sends with
Nagle's algorithm on, so the body waits for the client's ACK of the
headers.  The load connections are put in delayed-ACK mode before each
response, so every response pays that wait (about 40 ms) rather than a
share of the queries that the kernel's ACK timing picks, which changes
from run to run.

After the window every 200 report is checked, untimed, against
``campaign_report`` of a no-store run of the same spec.  Failures of
the ``vec`` class are the known defect of the seed (report queries key
the store without the engine) and leave ``correct`` true; a failure of
any other class makes it false.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse

from common import (
    ROOT, Outcome, finish, machine_facts, median, peak_rss_mb_of, quantile,
    report_lines, tree_bytes,
)
from tracer import CLOCK, Span, layer_metrics, spec_digest

RATE_PER_S = 12.0
CONNECTIONS = 2
POOL = 24
ZIPF_S = 1.1
BLOCK = ("warm",) * 13 + ("cold",) * 6 + ("vec",)
#: Latency limit of one query (the SLO share counts correct queries
#: answered within it, from when they were due).
SLO_S = 2.0
#: Classes whose failures are a known defect of the program, counted
#: in ``failed`` without making the run incorrect.
KNOWN_DEFECT_CLASSES = ("vec",)
CATALOG_M = (120.0, 300.0, 600.0, 1200.0)
CATALOG_PHI = (0.5, 1.0, 2.0)
CATALOG_REPLICAS = 16
#: Largest replica footprint of a warm pool spec; the store holds over
#: 20 times as many entries.
MAX_FOOTPRINT = 144
#: The cells of every cold and vec query (the protocol rotates).
FILL_M = (300.0, 600.0)
FILL_PHI = (1.0,)
FILL_REPLICAS = 4
REQUEST_TIMEOUT_S = 60.0
OVERHEAD_PROBE = 5


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
def _grid(seed: int, *, protocols=None, m_values=CATALOG_M,
          phi_values=CATALOG_PHI, replicas=CATALOG_REPLICAS):
    from repro.experiments.scenarios import get_campaign_preset

    preset = get_campaign_preset("high-churn")
    return preset.campaign_config(
        protocols=protocols or preset.protocols, m_values=m_values,
        phi_values=phi_values, replicas=replicas, seed=seed,
        work_target=900.0, share_traces=False,
    )


def _spec(grid, backend: str = "des"):
    from repro.sim.spec import CampaignSpec, ExecutionPolicy

    return CampaignSpec(grid=grid, policy=ExecutionPolicy(backend=backend))


def _subset(rng: random.Random, values, k: int):
    picked = set(rng.sample(range(len(values)), k))
    return tuple(v for i, v in enumerate(values) if i in picked)


class Schedule:
    """Every query of one run, derived from the seed alone.

    The seed draws the arrival times, the class order inside each
    block, the catalog's campaign seed, the subsets of each warm pool
    spec and the order of the warm picks.  What should not vary from
    seed to seed is fixed: each pool rank's shape (subset sizes and
    replicas), the cold and vec sub-grids and the fresh campaign seeds
    of their fills (so every run simulates the same cold work), and how
    often each rank is picked (systematic sampling of the Zipf weights,
    so the counts match the law instead of scattering around it).
    """

    def __init__(self, seed: int, seconds: float):
        from repro.experiments.scenarios import get_campaign_preset

        rng = random.Random(f"service-mixed/{seed}")
        shapes = random.Random("service-mixed/pool-shapes")
        protocols = get_campaign_preset("high-churn").protocols
        self.catalog_seed = 1000 + seed
        self.catalog = _spec(_grid(self.catalog_seed))
        self.pool = []
        while len(self.pool) < POOL:
            k_p, k_m, k_phi = (shapes.randint(1, 3), shapes.randint(1, 4),
                               shapes.randint(1, 3))
            replicas = shapes.choice((4, 8, 16))
            if k_p * k_m * k_phi * replicas > MAX_FOOTPRINT:
                continue
            self.pool.append(_spec(_grid(
                self.catalog_seed, protocols=_subset(rng, protocols, k_p),
                m_values=_subset(rng, CATALOG_M, k_m),
                phi_values=_subset(rng, CATALOG_PHI, k_phi),
                replicas=replicas,
            )))

        # A whole number of class blocks, one arrival at a uniform time
        # in each equal slot of the window.  Unlike Poisson arrivals,
        # the slots keep arrivals from clumping, so the share of queries
        # that overlap in the daemon stays about the same between seeds.
        count = len(BLOCK) * max(1, round(RATE_PER_S * seconds / len(BLOCK)))
        arrivals = [(i + rng.random()) * seconds / count for i in range(count)]
        classes: list[str] = []
        for _ in range(count // len(BLOCK)):
            block = list(BLOCK)
            rng.shuffle(block)
            classes.extend(block)
        warm = self._zipf_picks(rng, classes.count("warm"))

        self.queries: list[tuple[float, str, object]] = []
        fills = {"cold": 0, "vec": 0}
        for due, klass in zip(arrivals, classes):
            if klass == "warm":
                spec = self.pool[warm.pop()]
            else:
                fills[klass] += 1
                n = fills[klass]
                grid_seed = 100_000 + 2 * n + (klass == "vec")
                if klass == "vec" and n % 2:
                    grid_seed = self.catalog_seed
                spec = _spec(_grid(
                    grid_seed, protocols=(protocols[n % len(protocols)],),
                    m_values=FILL_M, phi_values=FILL_PHI,
                    replicas=FILL_REPLICAS,
                ), "vectorized" if klass == "vec" else "des")
            self.queries.append((due, klass, spec))

    @staticmethod
    def _zipf_picks(rng: random.Random, count: int) -> list[int]:
        """``count`` pool ranks with Zipf frequencies, shuffled."""
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(POOL)]
        total = sum(weights)
        bounds, acc = [], 0.0
        for w in weights:
            acc += w / total
            bounds.append(acc)
        offset = rng.random()
        picks = []
        for i in range(count):
            u = (offset + i) / count
            picks.append(next((r for r, b in enumerate(bounds) if u < b),
                              POOL - 1))
        rng.shuffle(picks)
        return picks


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build_store(store_dir, schedule: Schedule, seed: int):
    """Warehouse the catalog plus vectorized filler, then compact;
    returns ``(stat, compact seconds)``."""
    import numpy as np

    from repro.sim.executor import execute_spec
    from repro.store import CampaignStore

    store = CampaignStore(store_dir, create=True)
    filler = _spec(_grid(
        50_000 + seed,
        m_values=tuple(float(m) for m in
                       np.round(np.geomspace(120.0, 3600.0, 16), 3)),
        phi_values=tuple(float(p) for p in np.linspace(0.25, 4.0, 4)),
    ), "vectorized")
    for spec in (schedule.catalog, filler):
        execute_spec(spec, store=store)
    started = CLOCK()
    store.compact()
    return store.stat(), CLOCK() - started


def start_daemon(work, store_dir, trace: bool):
    """Start the daemon in its own process; returns ``(process, port)``
    once it listens."""
    log = work / "daemon.log"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if trace:
        cmd = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
               "--store", str(store_dir), "--data", str(work / "data"),
               "--spans", str(work / "spans.json")]
    else:
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--store", str(store_dir), "--data", str(work / "data"),
               "--port", "0"]
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        for line in log.read_text(errors="replace").splitlines():
            if line.startswith("campaign service listening on http://"):
                address = line.split("http://", 1)[1].split("/", 1)[0]
                return proc, int(address.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    stop_daemon(proc, None)
    raise RuntimeError("daemon did not start:\n" + log.read_text())


def stop_daemon(proc, port) -> None:
    if port is not None and proc.poll() is None:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("POST", "/shutdown", body=b"{}",
                         headers={"Content-Type": "application/json"})
            conn.getresponse().read()
            conn.close()
        except OSError:
            pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _path(spec) -> str:
    return "/reports?" + urllib.parse.urlencode(
        {"spec": json.dumps(spec.to_dict())})


def _get(conn, path):
    conn.request("GET", path)
    # Delay the ACK of the response's first segment, as a busy client
    # does; left to the kernel, some responses are acked at once and
    # the stall would hit a share of queries that changes between runs.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
    resp = conn.getresponse()
    return resp.status, resp.read()


def drive(port: int, schedule: Schedule) -> tuple[list[dict], list[float]]:
    """Send every query at its due time; returns the per-query records
    and the generator's lateness (dispatch time minus due time)."""
    if CONNECTIONS > (os.cpu_count() or 1):
        raise RuntimeError(f"{CONNECTIONS} connections exceed the "
                           f"{os.cpu_count()} processors")
    records: list[dict] = [{} for _ in schedule.queries]
    pending: queue.Queue = queue.Queue()
    origin = CLOCK()

    def worker():
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            while (item := pending.get()) is not None:
                index, due = item
                _, _, spec = schedule.queries[index]
                record = records[index]
                record["sent"] = CLOCK()
                try:
                    status, body = _get(conn, _path(spec))
                except (OSError, http.client.HTTPException) as exc:
                    status, body = None, repr(exc).encode()
                    conn.close()
                record.update(due=due, done=CLOCK(), status=status,
                              body=body)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    late: list[float] = []
    for index, (offset, _, _) in enumerate(schedule.queries):
        due = origin + offset
        pause = due - CLOCK()
        if pause > 0:
            time.sleep(pause)
        late.append(CLOCK() - due)
        pending.put((index, due))
    for _ in threads:
        pending.put(None)
    for t in threads:
        t.join(timeout=REQUEST_TIMEOUT_S * 2)
        if t.is_alive():
            raise RuntimeError("a load connection did not finish")
    return records, late


def overhead_probe(proc, port, spec) -> float:
    """Traced over untraced latency of one warm query, minus 1: blocks
    of queries alternate with span recording on (SIGUSR2) and off
    (SIGUSR1) in the daemon."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    times = {True: [], False: []}
    try:
        for traced in (True, False, True, False):
            proc.send_signal(signal.SIGUSR2 if traced else signal.SIGUSR1)
            time.sleep(0.05)
            for _ in range(OVERHEAD_PROBE):
                started = CLOCK()
                _get(conn, _path(spec))
                times[traced].append(CLOCK() - started)
        proc.send_signal(signal.SIGUSR2)
    finally:
        conn.close()
    return median(times[True]) / median(times[False]) - 1.0


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check(records, schedule: Schedule, work) -> tuple[Outcome, list]:
    """Verify every response; returns the outcome and, per query,
    ``(klass, ok, latency, payload)``."""
    from repro.experiments.report import campaign_report
    from repro.sim.executor import execute_spec

    references: dict[str, list[str]] = {}

    def reference(spec):
        digest = spec_digest(spec)
        if digest not in references:
            path = work / f"reference-{digest}.jsonl"
            execute_spec(spec, results_path=path)
            references[digest] = report_lines(campaign_report(path))
        return references[digest]

    outcome = Outcome()
    checked = []
    for record, (_, klass, spec) in zip(records, schedule.queries):
        payload = None
        if record.get("status") != 200:
            reason = f"HTTP {record.get('status')}"
        else:
            payload = json.loads(record["body"])
            if report_lines(payload["report"]) != reference(spec):
                reason = "200 with a wrong report"
            else:
                reason = ""
        ok = not reason
        outcome.record(klass, ok, reason)
        checked.append((klass, ok, record["done"] - record["due"], payload))
    return outcome, checked


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, work, started: float):
    store_dir = work / "store"
    schedule = Schedule(seed, seconds)
    phases = {"import": CLOCK() - started}
    mark = CLOCK()
    stat, compact_s = build_store(store_dir, schedule, seed)
    store_bytes = tree_bytes(store_dir)
    phases["warehouse"] = CLOCK() - mark
    mark = CLOCK()
    proc, port = start_daemon(work, store_dir, trace)
    try:
        phases["daemon start"] = CLOCK() - mark
        setup_s = CLOCK() - started
        mark = CLOCK()
        records, late = drive(port, schedule)
        phases["load"] = CLOCK() - mark
        overhead = (overhead_probe(proc, port, schedule.pool[0])
                    if trace else 0.0)
        peak_rss = peak_rss_mb_of(proc.pid)
    finally:
        stop_daemon(proc, port)
    mark = CLOCK()
    outcome, checked = check(records, schedule, work)
    phases["checks"] = CLOCK() - mark

    print(f"workload service-mixed: seed {seed}, {len(records)} queries "
          f"at {RATE_PER_S:g}/s over {CONNECTIONS} connections")
    print("machine: " + machine_facts(store_entries=stat.entries,
                                      store_bytes=store_bytes))
    print("phases: " + ", ".join(f"{name} {secs:.2f} s"
                                 for name, secs in phases.items()))
    print(f"generator lateness p99 {quantile(late, 0.99) * 1e3:.2f} ms "
          f"over {CONNECTIONS} connections")
    for klass in ("warm", "cold", "vec"):
        lat = sorted(lat * 1e3 for k, _, lat, _ in checked if k == klass)
        if lat:
            print(f"latency {klass}: n={len(lat)} min {lat[0]:.0f} "
                  f"p50 {median(lat):.0f} max {lat[-1]:.0f} ms")
    if trace:
        dump = json.loads((work / "spans.json").read_text())
        metrics = _per_layer(dump, records, schedule, checked, late,
                             stat, store_bytes, compact_s, overhead)
    else:
        metrics = _end_to_end(checked, setup_s, peak_rss)
    unexpected = sum(entry["failed"]
                     for klass, entry in outcome.by_class.items()
                     if klass not in KNOWN_DEFECT_CLASSES)
    finish(outcome, metrics, correct=unexpected == 0)


def _end_to_end(checked, setup_s: float, peak_rss: float) -> dict:
    def latencies(klass):
        # With no correct query of a class, report the request timeout.
        return [lat for k, ok, lat, _ in checked if k == klass and ok] \
            or [REQUEST_TIMEOUT_S]

    def served(klass, field):
        # Replicas per second of latency, summed over the correct
        # queries of the class: a median of per-query ratios would jump
        # between the warm pool's footprints.
        pairs = [(_replicas(p, field), lat) for k, ok, lat, p in checked
                 if k == klass and ok]
        return (sum(r for r, _ in pairs) / sum(lat for _, lat in pairs)
                if pairs else 0.0)

    warm = latencies("warm")
    cold = latencies("cold")
    attempted = len(checked)
    ok = sum(1 for _, good, _, _ in checked if good)
    met = sum(1 for _, good, lat, _ in checked if good and lat <= SLO_S)
    return {
        "setup_s": (setup_s, "s"),
        "cold_replicas_per_s": (served("cold", "simulated"), "1/s"),
        "warm_replicas_per_s": (served("warm", "served"), "1/s"),
        "cold_p50_ms": (median(cold) * 1e3, "ms"),
        "warm_p50_ms": (median(warm) * 1e3, "ms"),
        "warm_p90_ms": (quantile(warm, 0.9) * 1e3, "ms"),
        "slo_met_share": (met / attempted, "share"),
        "ok_share": (ok / attempted, "share"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def _replicas(payload, field: str) -> int:
    if field == "simulated":
        return payload["simulated_replicas"]
    return payload["coverage"]["total"]


def _per_layer(dump, records, schedule, checked, late, stat, store_bytes,
               compact_s, overhead) -> dict:
    spans = [Span.from_dict(s) for s in dump["spans"]]
    metrics = layer_metrics(spans)
    cells = dump["cells"]
    metrics["sim.executor.cells"] = (cells, "count")
    metrics["sim.executor.events"] = (dump["events"], "count")
    metrics["sim.executor.us_per_cell"] = (
        metrics["sim.executor.self_s"][0] / cells * 1e6 if cells else 0.0,
        "us")
    cache = dump["cache"] or {}
    probes = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["store.cache.hit_ratio"] = (
        cache.get("hits", 0) / probes if probes else 0.0, "ratio")
    metrics["store.cache.evictions"] = (cache.get("evictions", 0), "count")
    metrics["store.entries"] = (stat.entries, "count")
    metrics["store.bytes_per_entry"] = (store_bytes / stat.entries, "B")
    metrics["store.compact_s"] = (compact_s, "s")

    handlers = [s for s in spans if s.name == "service.handler"]
    statuses = [r.get("status") for r in records]
    fills = [s for s in spans if s.name == "sim.executor"]
    useful = {spec_digest(spec)
              for (_, _, spec), (_, ok, _, payload)
              in zip(schedule.queries, checked)
              if ok and payload and payload["simulated_replicas"]}
    metrics["service.requests"] = (len(records), "count")
    metrics["service.status_4xx"] = (
        sum(1 for s in statuses if s and 400 <= s < 500), "count")
    metrics["service.status_5xx"] = (
        sum(1 for s in statuses if s and s >= 500), "count")
    metrics["service.handler_ms_p50"] = (
        median(s.duration for s in handlers) * 1e3 if handlers else 0.0,
        "ms")
    metrics["service.transport_ms_p50"] = (
        _transport_ms_p50(records, schedule, handlers), "ms")
    metrics["service.fills"] = (len(fills), "count")
    metrics["service.fill_replicas"] = (
        sum(s.args.get("simulated_replicas", 0) for s in handlers),
        "count")
    metrics["service.fill_useful_ratio"] = (
        len(useful) / len(fills) if fills else 0.0, "ratio")
    metrics["service.coalesce_joined"] = (dump["coalesce_joined"], "count")
    metrics["loadgen.late_ms_p99"] = (quantile(late, 0.99) * 1e3, "ms")
    metrics["loadgen.connections"] = (CONNECTIONS, "count")
    metrics["trace.cold_phase_s"] = (0.0, "s")
    metrics["trace.warm_phase_s"] = (0.0, "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def _transport_ms_p50(records, schedule, handlers) -> float:
    """Median of client latency (from send) minus the daemon's handler
    time, pairing each request with an unclaimed handler span of the
    same spec inside its send..receive interval."""
    by_spec: dict[str, list] = {}
    for span in sorted(handlers, key=lambda s: s.start):
        by_spec.setdefault(span.args["spec"], []).append(span)
    gaps = []
    for record, (_, _, spec) in zip(records, schedule.queries):
        candidates = by_spec.get(spec_digest(spec), [])
        for i, span in enumerate(candidates):
            if record["sent"] <= span.start and span.end <= record["done"]:
                gaps.append(record["done"] - record["sent"] - span.duration)
                del candidates[i]
                break
    return median(gaps) * 1e3 if gaps else 0.0
