"""Steadiness and comparison command for the benchmark.

    python3 perfbench/steady.py --workload sweep-des -k 10
    python3 perfbench/steady.py --workload sweep-des -k 10 --against DIR

Runs one workload ``k`` times with seeds 1..k and prints per
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share
of the median, next to the metric's bound in ``BENCHMARK.json``.  A
spread wider than its bound is flagged ``OVER``, and one wider than a
third of its bound ``WIDE``.

With ``--against DIR`` (another checkout, e.g. the parent commit) the
same seeds run in both trees, alternating which goes first, and each
metric is reported for both sides with the change's median relative to
the other's, and how many of the pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT, load_config


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(results: list[dict], bounds: dict) -> None:
    names = list(results[0]["metrics"])
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, share = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and share > bound:
            flag = "OVER"
        elif bound is not None and share > bound / 3:
            flag = "WIDE"
        print(f"{name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{share:>8.3f} {bound if bound is not None else '-':>6} "
              f"{flag}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed {failed} of "
          f"{attempted} operations")


def compare(change: list[dict], other: list[dict], config: dict) -> None:
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    print(f"{'metric':<24} {'change':>12} {'other':>12} {'ratio':>8} "
          f"{'wins':>6}")
    for name in change[0]["metrics"]:
        mine = [r["metrics"][name]["value"] for r in change]
        theirs = [r["metrics"][name]["value"] for r in other]
        sign = 1 if better.get(name, "higher") == "higher" else -1
        wins = sum(1 for a, b in zip(mine, theirs) if sign * (a - b) > 0)
        med_a, med_b = statistics.median(mine), statistics.median(theirs)
        ratio = med_a / med_b if med_b else float("inf")
        print(f"{name:<24} {med_a:>12.6g} {med_b:>12.6g} {ratio:>8.3f} "
              f"{wins:>3}/{len(mine)}")


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to compare with")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    change: list[dict] = []
    other: list[dict] = []
    for i in range(args.k):
        seed = i + 1
        sides = [(ROOT, change)]
        if args.against is not None:
            sides.append((args.against.resolve(), other))
            if i % 2:
                sides.reverse()
        for root, results in sides:
            results.append(run_once(root, args.workload, seed,
                                    config["run_seconds"]))
            print(f"run {i + 1}/{args.k} seed {seed} in {root}: "
                  f"{json.dumps(results[-1]['metrics'])}", flush=True)
    print(f"\n{args.workload}: {args.k} runs of {config['run_seconds']} s")
    summarize(change, bounds)
    if other:
        print(f"\nagainst {args.against}:")
        summarize(other, bounds)
        print()
        compare(change, other, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
