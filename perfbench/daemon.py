"""The traced campaign daemon: ``serve`` with the benchmark's layer
wrappers installed in its own process.

    python3 perfbench/daemon.py --store DIR --data DIR --spans FILE

Serves like ``repro-checkpoint serve --port 0`` (same start-up line)
until ``POST /shutdown``, then writes the recorded spans, the fill
sessions' event counts and the cache and coalescer counters to
``FILE`` as JSON.  SIGUSR1 pauses span recording and SIGUSR2 resumes
it, so the load generator can time the same query with and without
tracing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import asdict

from common import ROOT
from tracer import Tracer, install_wrappers, timing_backend, traced_store


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service import CampaignService
    from repro.sim.backends import make_backend

    tracer = Tracer()
    counters: list = []
    restore = install_wrappers(tracer, counters=counters)
    try:
        service = CampaignService(
            store=traced_store(args.store, tracer, create=False),
            data_dir=args.data, port=0,
            backend_factory=lambda spec: timing_backend(
                make_backend(spec.policy.workers, spec.policy.backend),
                tracer),
        )

        def pause(*_):
            tracer.active = False

        def resume(*_):
            tracer.active = True

        signal.signal(signal.SIGUSR1, pause)
        signal.signal(signal.SIGUSR2, resume)
        signal.signal(signal.SIGTERM,
                      lambda *_: service.shutdown(drain=False))
        service.start()
        print(f"campaign service listening on {service.url()} "
              f"(store: {service.store.root})", flush=True)
        while not service.wait_closed(0.2):
            pass
        cache = service.store.cache_stats()
        dump = {
            "spans": [s.to_dict() for s in tracer.spans],
            "cells": sum(c.cells for c in counters),
            "events": sum(c.events for c in counters),
            "cache": asdict(cache) if cache is not None else None,
            "coalesce_joined": service.coalescer.stats().joined,
        }
    finally:
        restore()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
