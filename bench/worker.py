"""One benchmark pass in a fresh interpreter (started by run.py).

Sets up (imports rupsim and rupsim.cli, parses the workload's configs), runs
one timed pass of the workload, checks its outputs and writes report.json to
the pass's working directory. With --trace 1 the pass runs under span
tracing and the report carries the per-layer metrics.

Exit codes: 0 report written (it may record failed operations), 3 set-up
failed (the program could not be imported or the configs not parsed).

    python3 bench/worker.py --workload mise_sweep --seed 1 --workdir DIR \
        --t0 <time.time() before the process was started> [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
        workload = workloads.WORKLOADS[args.workload]
        workload.setup()
    except Exception:  # report why set-up failed; run.py aborts the benchmark
        traceback.print_exc()
        return 3
    setup_s = time.time() - args.t0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    tally = workloads.Tally()
    cpu0 = time.process_time()
    start = time.perf_counter()
    results = workload.run(args.seed, args.workdir, tally)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops_ok = not tally.failures
    try:
        workload.check(results, tally)
    except Exception as exc:  # a check that cannot run has failed
        tally.check("outputs readable", False, f"{type(exc).__name__}: {exc}")
    seeds = json.loads(REFERENCE.read_text())["seeds"]
    reference = seeds.get(str(args.seed), {}).get(workload.name)
    if reference is None:
        tally.skipped.append(f"reference comparison (no reference for seed {args.seed})")
    elif not ops_ok:
        tally.skipped.append("reference comparison (an operation failed)")
    else:
        try:
            actual = workload.values(results)
            workloads.compare_reference(actual, reference, tally)
        except Exception as exc:  # a comparison that cannot run has failed
            tally.check("reference comparison ran", False, f"{type(exc).__name__}: {exc}")

    report = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "units": workload.units, "peak_rss_mb": peak_rss_mb,
              "attempted": tally.attempted, "failures": tally.failures,
              "skipped": tally.skipped}
    if tracer is not None:
        report["layers"] = tracer.summary(wall_s)
        report["missing"] = tracer.missing
    (args.workdir / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
