"""Benchmark for rupsim: time to result per experiment, plus a traced run.

    python3 bench/run.py [--workload mise_sweep|risk_cv|kl_tau|all]
                         [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds, which is also the value
BENCHMARK.json's command is called with, together with --workload, --seed and
--trace. With --workload all (the default) the seconds are shared out among
the workloads, so that one command measures all three in the declared time.

Each pass of a workload runs in a fresh interpreter (bench/worker.py) with
its own working directory under .bench_runs/ at the repository root, which
is removed once the pass's outputs are checked; nothing is written under
out/. Passes repeat one after another (a closed loop, one process at a
time) while a further pass still ends within --seconds, and at least
MIN_PASSES run.

With --trace 0 the end-to-end metrics named in BENCHMARK.json are reported
as medians over passes. With --trace 1 passes alternate between untraced
and traced; the per-layer metrics are medians over the traced passes, and
trace.overhead_frac compares traced with untraced wall time.

Standard output ends with one JSON line {correct, attempted, failed,
metrics}; the lines before it give the environment and, per metric, the
median, quartiles and number of passes. Exit codes: 0 result printed,
1 benchmark could not run (no result printed), 2 bad arguments.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
RUNS = ROOT / ".bench_runs"

WORKLOADS = ("mise_sweep", "risk_cv", "kl_tau")
DEFAULT_SEED = 1
MIN_PASSES = 3          # untraced passes of a --trace 0 run
MIN_TRACE_PASSES = 2    # untraced and traced passes each, of a --trace 1 run
RUN_LIMIT_S = 170       # a workload's passes must all end within this
# The workloads are single-threaded; BLAS helper threads only add noise on
# small machines. A value already set by the caller is kept.
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in SINGLE_THREAD_ENV:
        env.setdefault(var, "1")
    return env


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--workdir", str(workdir), "--t0", repr(t0), "--trace", str(int(traced))],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{workload} pass exited with code {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads((workdir / "report.json").read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} passes did not end within {RUN_LIMIT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(untraced reports, traced reports) of a closed loop of passes.

    Once the minimum number of passes has run, a pass starts only if a pass of
    median length still ends within `seconds`, so the loop keeps to its time.
    """
    plain, traced, lengths = [], [], []
    start = time.monotonic()
    while True:
        use_trace = trace and len(plain) > len(traced)
        t0 = time.monotonic()
        timeout = start + RUN_LIMIT_S - t0
        (traced if use_trace else plain).append(run_pass(workload, seed, use_trace, timeout))
        lengths.append(time.monotonic() - t0)
        enough = (min(len(plain), len(traced)) >= MIN_TRACE_PASSES if trace
                  else len(plain) >= MIN_PASSES)
        if enough and time.monotonic() + statistics.median(lengths) > start + seconds:
            return plain, traced


def _median(values):
    if any(v is None for v in values):
        return None
    return statistics.median(values)


def end_to_end(plain: list[dict], attempted: int, failed: int) -> dict[str, list[float]]:
    return {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "units_per_s": [r["units"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        # fail_frac's complement: a bound is a share of the median, so no
        # end-to-end metric may read 0
        "ok_frac": [1.0 - failed / attempted],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, list]:
    samples: dict[str, list] = {}
    for rep in traced:
        for name, value in rep["layers"].items():
            samples.setdefault(name, []).append(value)
    samples["process.cpu_s"] = [r["cpu_s"] for r in plain]
    samples["process.cpu_per_wall"] = [r["cpu_s"] / r["wall_s"] for r in plain]
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
    samples["trace.overhead_frac"] = [overhead]
    return samples


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "cpu_model": _cpu_model(), "python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            env[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            env[dist] = None
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        env["blas"] = "unknown"
    env["num_threads_env"] = {k: v for k, v in sorted(child_env().items())
                              if k.endswith("_NUM_THREADS")}
    env["git_commit"] = _git_commit()
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _describe(name: str, unit: str, values: list) -> str:
    med = _median(values)
    if med is None:
        return f"  {name} = missing"
    text = f"  {name} = {med:.6g} {unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" (quartiles {q1:.6g} .. {q3:.6g})"
    return text + f", n={len(values)}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict):
    plain, traced = measure(workload, seed, seconds, trace)
    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports)
    samples = per_layer(plain, traced) if trace else end_to_end(plain, attempted, failed)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    print(f"{workload}: seed {seed}, {len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} operations and checks, {failed} failed")
    for note in sorted({s for r in reports for s in r["skipped"]}):
        print(f"  skipped: {note}")
    for failure in sorted({f for r in reports for f in r["failures"]}):
        print(f"  FAILED: {failure}")
    missing = sorted({m for r in traced for m in r.get("missing", [])})
    if missing:
        print(f"  missing traced functions: {', '.join(missing)}")
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"], [None])
        print(_describe(m["name"], m["unit"], values))
        metrics[m["name"]] = {"value": _median(values), "unit": m["unit"]}
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        print(f"run.py: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        if not (ROOT / "src" / "rupsim" / "__init__.py").is_file():
            raise BenchError(f"no rupsim sources under {ROOT / 'src'}")
        spec = json.loads(SPEC.read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        seconds = (args.seconds or spec["run_seconds"]) / len(names)
        print("env " + json.dumps(environment(), sort_keys=True))
        attempted, failed, metrics = 0, 0, {}
        for name in names:
            a, f, m = run_workload(name, args.seed, seconds, bool(args.trace), spec)
            attempted, failed = attempted + a, failed + f
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
