"""Benchmark of ucsbound: certificate search, threshold search, lab and CLI.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 10 --trace 0

Runs whole passes of the workload's op sequence, in one process and one
at a time, until ``--seconds`` have passed; checks every output against
the published values and the lab's ground truth; prints each named
metric with its unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` it also runs one pass with spans around the package's
public calls and reports the per-layer metrics instead of the
end-to-end ones.  Details and the metric table are in README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("certify", "tmax", "lab", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # ucslab sizes its thread pool from UCSB_THREADS; the benchmark measures
    # the single-threaded default, so a set value would measure something else.
    if "UCSB_THREADS" in os.environ:
        print(f"error: UCSB_THREADS is set ({os.environ['UCSB_THREADS']!r}); unset it", file=sys.stderr)
        return 2
    if not (SRC / "ucsbound" / "__init__.py").is_file():
        print(f"error: no ucsbound source tree at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    # One CPU for this process and the subprocesses it starts, so that the
    # reference kernel that rescales the gated times runs where the work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.lines():
        print(line)
    print(f"  results in {result.save(workloads.RESULTS).relative_to(SRC.parent)}")
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
