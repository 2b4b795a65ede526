"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that

* the layer wrappers restore every original function;
* a traced campaign writes the same bytes as an untraced one, cold and
  warm, on both engines;
* the reported layer busy and self times add up to the measured wall
  time of a traced campaign (the executor's self time is what no other
  layer covers);
* every workload's traced run emits every ``per_layer`` metric of
  ``BENCHMARK.json``, and its untraced run every ``end_to_end`` metric.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from common import ROOT, WORK_ROOT, load_config

sys.path.insert(0, str(ROOT / "src"))

from tracer import (  # noqa: E402
    CLOCK, Tracer, event_counter, install_wrappers, layer_metrics,
    timing_backend, traced_store,
)

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def _small_specs():
    from repro.experiments.scenarios import get_campaign_preset
    from repro.sim.spec import CampaignSpec, ExecutionPolicy

    preset = get_campaign_preset("high-churn")
    des = preset.spec(replicas=3, seed=5)
    vec = CampaignSpec(
        grid=preset.campaign_config(replicas=4, seed=5,
                                    share_traces=False),
        policy=ExecutionPolicy(backend="vectorized", sink="framed"))
    return {"des": des, "vectorized": vec}


def _patched_attributes():
    import repro.experiments.report as report_mod
    import repro.service.app as app_mod
    import repro.sim.backends as backends_mod
    import repro.sim.executor as executor_mod
    import repro.sim.sinks as sinks_mod
    import repro.sim.vectorized as vectorized_mod
    import repro.store as store_pkg

    return [
        (backends_mod, "run_cell"), (vectorized_mod, "run_cell_vectorized"),
        (sinks_mod.OrderedJsonlSink, "emit"),
        (sinks_mod.FramedJsonlSink, "emit"), (sinks_mod.NullSink, "emit"),
        (report_mod, "store_report"), (store_pkg, "cells_from_store"),
        (executor_mod, "execute_spec"),
        (app_mod.CampaignService, "report_query"),
    ]


def check_restore() -> None:
    attributes = _patched_attributes()
    before = [getattr(owner, name) for owner, name in attributes]
    restore = install_wrappers(Tracer())
    wrapped = [getattr(owner, name) for owner, name in attributes]
    restore()
    after = [getattr(owner, name) for owner, name in attributes]
    expect(all(w is not b for w, b in zip(wrapped, before)),
           "install_wrappers replaces every seam")
    expect(all(a is b for a, b in zip(after, before)),
           "restore() puts every original function back")


def _campaign(spec, work: Path, tracer):
    """Cold then warm into one store; returns the two files' bytes and,
    traced, the wall time of both sessions."""
    from repro.sim.backends import make_backend
    from repro.sim.executor import CampaignSession
    from repro.store import CampaignStore

    store_dir = work / f"store-{'traced' if tracer else 'plain'}"
    store = (traced_store(store_dir, tracer, create=True) if tracer
             else CampaignStore(store_dir, create=True))
    outputs, wall = [], 0.0
    for phase in ("cold", "warm"):
        path = work / f"{phase}-{'traced' if tracer else 'plain'}.jsonl"
        if tracer is None:
            CampaignSession(spec, results_path=path, store=store).run()
        else:
            backend = timing_backend(
                make_backend(1, spec.policy.backend), tracer)
            started = CLOCK()
            with tracer.span("sim.executor"):
                CampaignSession(spec, results_path=path, store=store,
                                backend=backend,
                                consumers=[event_counter()]).run()
            wall += CLOCK() - started
        outputs.append(path.read_bytes())
    return outputs, wall


def check_bytes_and_coverage() -> None:
    from repro.store.cache import default_cache

    for engine, spec in _small_specs().items():
        WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            work = Path(tmp)
            default_cache().clear()
            plain, _ = _campaign(spec, work, None)
            default_cache().clear()
            tracer = Tracer()
            restore = install_wrappers(tracer)
            try:
                traced, wall = _campaign(spec, work, tracer)
            finally:
                restore()
        expect(plain == traced,
               f"{engine}: traced cold and warm files equal the untraced "
               "ones byte for byte")
        # The reported busy and self times, summed, must account for
        # the wall time: no layer missing, none counted twice.
        metrics = layer_metrics(tracer.spans)
        covered = sum(value for name, (value, _) in metrics.items()
                      if name.endswith(("busy_s", "self_s")))
        expect(0.95 * wall <= covered <= wall * 1.001,
               f"{engine}: layer busy and self times cover "
               f"{covered:.4f} s of {wall:.4f} s wall")


def check_metric_names() -> None:
    config = load_config()
    wanted = {0: [m["name"] for m in config["end_to_end"]],
              1: [m["name"] for m in config["per_layer"]]}
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} --trace {trace} printed a "
                              f"result (stderr: {done.stderr[-500:]})")
                continue
            expect(done.returncode == 0 and
                   set(result["metrics"]) == set(wanted[trace]),
                   f"{workload} --trace {trace} emits exactly the "
                   f"{'per-layer' if trace else 'end-to-end'} metrics")


def main() -> int:
    check_restore()
    check_bytes_and_coverage()
    check_metric_names()
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # absent, or a run's directory is still there
    print(f"{len(FAILURES)} check(s) failed" if FAILURES
          else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
