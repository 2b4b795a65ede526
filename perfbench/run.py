"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {sweep-des,sweep-vec,service-mixed}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is a separate run that wraps the program's layer seams
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from common import ROOT, make_workdir  # noqa: E402

WORKLOADS = ("sweep-des", "sweep-vec", "service-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = make_workdir(args.workload)
    try:
        if args.workload == "service-mixed":
            import service

            service.run(args.seed, args.seconds, bool(args.trace), work,
                        STARTED)
        else:
            import sweeps

            sweeps.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), work, STARTED)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
        # Flush the deletions now, so that their write-back does not
        # land in the next run's measurements.
        os.sync()
    return 0


if __name__ == "__main__":
    sys.exit(main())
