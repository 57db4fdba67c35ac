"""Record the reference outputs that bench/worker.py compares each pass with.

Runs every workload once per seed, in this process, with the current solver
and writes bench/reference.json. Run it only when the reference is meant to
change (a new workload or config), never to make a failing check pass.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402  (needs the paths above)

SEEDS = range(16)


def main() -> int:
    out = {"rel_tol": workloads.REL_TOL, "abs_tol": workloads.ABS_TOL, "seeds": {}}
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        workload.setup()
    for seed in SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=runs))
            try:
                tally = workloads.Tally()
                results = workload.run(seed, workdir, tally)
                workload.check(results, tally)
                if tally.failures:
                    print(f"seed {seed} {name}: {tally.failures}", file=sys.stderr)
                    return 1
                out["seeds"].setdefault(str(seed), {})[name] = workload.values(results)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        print(f"seed {seed} done", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(out, separators=(",", ":")) + "\n")
    if not any(runs.iterdir()):
        runs.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
