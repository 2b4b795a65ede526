"""Helpers shared by the workloads: the run record, statistics, facts."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, results files and spans, inside the
#: checkout; one subdirectory per run, removed when the run ends.
WORK_ROOT = ROOT / ".bench_work"


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between order
    statistics; the single value for one sample."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values, default=None) -> float:
    """The median, or ``default`` (when given) for no samples."""
    values = list(values)
    if not values and default is not None:
        return default
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def machine_facts(**store) -> str:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    facts.update(store)
    return " ".join(f"{k}={v}" for k, v in facts.items())


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def report_lines(text: str) -> list[str]:
    """A report's table lines: everything but the title line naming the
    source (a results file or a store), which legitimately differs."""
    return [line for line in text.splitlines()
            if not line.startswith("=== campaign results (")]


@dataclass
class Outcome:
    """Operations attempted and failed, by class, with reasons."""

    attempted: int = 0
    failed: int = 0
    by_class: dict = field(default_factory=dict)

    def record(self, klass: str, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        entry = self.by_class.setdefault(
            klass, {"attempted": 0, "failed": 0, "reasons": {}})
        entry["attempted"] += 1
        if not ok:
            self.failed += 1
            entry["failed"] += 1
            entry["reasons"][reason] = entry["reasons"].get(reason, 0) + 1

    def describe(self) -> list[str]:
        lines = []
        for klass, entry in sorted(self.by_class.items()):
            reasons = ", ".join(f"{r}: {n}" for r, n in
                                sorted(entry["reasons"].items()))
            lines.append(f"  {klass:<8} {entry['failed']}/"
                         f"{entry['attempted']} failed"
                         + (f" ({reasons})" if reasons else ""))
        return lines


def finish(outcome: Outcome, metrics: dict, *, correct: bool) -> None:
    """Print the human-readable metric lines, then the result object as
    the last line of standard output."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print("operations by class:")
    for line in outcome.describe():
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
