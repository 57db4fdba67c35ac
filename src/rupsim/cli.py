"""Config-driven experiment runner.

Subcommands: sample, mise-sweep, bandwidth-vs-n, kl-check, estimate-tau.
Each run reads one YAML config, derives every random stream from the
mandatory seed, writes CSV artifacts plus SVG charts rendered purely from
those CSVs, and records a manifest with the config echo and per-output
checksums. The echo is the record the config getters kept: every value the
command read, defaults included, with the seed the run used; fed back as a
config, it reruns the run. Reruns with the same config and seed are
checksum-identical. Monte Carlo replicates always run one after another in
this process; --threads is still accepted (an integer >= 1) and recorded in
the manifest, but results never depend on it.

Exit codes: 0 success, 2 config error (also a NaN or infinite number, an
estimate-tau input file or noise variance it cannot use, a --config path
that is a directory or a file that is not UTF-8, and an output directory
that cannot be created, such as a path naming a file or a file's child), 3
numeric/regime warnings under --strict, 4 numeric dead end (no bandwidth in
the grid can be scored, e.g. none has local support at every evaluation
point). A run that does not succeed leaves the output directory as it was:
files are staged in a hidden .rupsim-* directory and renamed into place, the
manifest last, once the command finishes (exit 0 or 3). A rerun replaces its
own files and no others; a run killed by SIGKILL may leave a .rupsim-* behind.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import (EVAL_WINDOW, NumericDeadEnd, effective_sample_size,
                        estimate_tau_from_summaries, oracle_bandwidth,
                        within_bucket_noise_variance)
from .baseline import BaselineConfig, get_function, sample_baseline
from .config import Conf, ConfigError, load_yaml
from .kernels import KERNELS, get_kernel
from .klscale import correlated_noise_kl_suite
from .local_poly import MIN_BANDWIDTH, LpeConfig
from .perturbation import (CorrelatedNoiseSpec, PartitionSpec, WeightLaw,
                           draw_perturbation, sample_perturbed, save_realization)
from .risk import optimal_bandwidth_curve
from .streams import substream, substreams
from .svgplot import line_chart

DEFAULT_GRID_POINTS = 101


def _keep_freed_heap() -> None:
    """Stop glibc from returning the engines' per-call temporaries to the system.

    Each local fit, partition stack or KL design allocates and frees up to
    about 1 MB of numpy temporaries. Under glibc's default dynamic
    thresholds the freed top of the heap can be trimmed after a call and
    faulted back in at the next. On the benchmark configs, estimate-tau
    takes about 410 minor faults with fixed thresholds against 13k without
    (and about 9% less wall time), mise-sweep 320 against 500; kl-check is
    unchanged at about 90. The CLI owns its process, so it sets fixed
    thresholds; without glibc's mallopt this does nothing.
    """
    if sys.platform != "linux":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks up to 4 MB come from the heap
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: up to 8 MB of freed heap is kept


# ---------------------------------------------------------------- file output

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------- config parsing

def _parse_baseline(root: Conf, need: str = "n") -> tuple[BaselineConfig, list[int]]:
    """The baseline at the first n, and the n list: one baseline.n, or baseline.n_grid."""
    blk = root.block("baseline")
    fname = blk.get_str("f", default="sine", choices=sorted(("zero", "sine")))
    sigma2 = blk.get_float("sigma2", ge=0.0)
    n_grid = [blk.get_int("n", ge=1)] if need == "n" else blk.get_int_list("n_grid", ge=1)
    return BaselineConfig(f=get_function(fname), sigma2=sigma2, n=n_grid[0]), n_grid


def _check_finite_product(field: str, product: str, *factors) -> None:
    """A ConfigError naming field unless product, the product of factors, is finite."""
    if not math.prod(factors) < math.inf:
        raise ConfigError(f"{field}: {product} must be finite, got "
                          + " * ".join(f"{f:g}" for f in factors))


def _parse_rup_spec(root: Conf, base: BaselineConfig):
    blk = root.block("rup")
    model = blk.get_str("model", choices=("correlated_noise", "partition"))
    b_x = blk.get_int("b_x", ge=1)
    if model == "correlated_noise":
        delta2 = blk.get_float("delta2", ge=0.0)
        _check_finite_product("rup.delta2", "delta2 * baseline.sigma2", delta2, base.sigma2)
        return CorrelatedNoiseSpec(b_x=b_x, delta2=delta2, baseline=base)
    b_eps = blk.get_int("b_eps", ge=2)
    law_blk = blk.block("weight_law", required=False)
    kind = law_blk.get_str("kind", default="exp", choices=("exp", "lognormal"))
    if kind == "exp":
        law = WeightLaw.exponential()
    else:
        law = WeightLaw.lognormal_with_ratio(
            law_blk.get_float("var_over_mean_sq", default=1.0, gt=0.0))
    if base.sigma2 <= 0:
        raise ConfigError("baseline.sigma2: partition model needs sigma2 > 0")
    return PartitionSpec(b_x=b_x, b_eps=b_eps, weight_law=law, baseline=base)


def _parse_lpe(root: Conf):
    blk = root.block("lpe")
    order = blk.get_int("order", default=1, ge=0)
    if order > 5:
        raise ConfigError("lpe.order: must be at most 5")
    kname = blk.get_str("kernel", default="epanechnikov", choices=sorted(KERNELS))
    h_grid = _parse_h_grid(blk)
    return LpeConfig(order=order, bandwidth=h_grid[0], kernel=get_kernel(kname)), h_grid


def _parse_h_grid(blk: Conf) -> list[float]:
    if blk.has_block("h_grid"):
        sub = blk.block("h_grid")
        lo = sub.get_float("min", gt=0.0)
        hi = sub.get_float("max", gt=0.0)
        count = sub.get_int("count", ge=1)
        spacing = sub.get_str("spacing", default="log", choices=("log", "linear"))
        if hi < lo:
            raise ConfigError("lpe.h_grid.max: must be >= min")
        if hi > 1.0:
            raise ConfigError("lpe.h_grid.max: bandwidths must lie in (0, 1]")
        if lo < MIN_BANDWIDTH:
            raise ConfigError(f"lpe.h_grid.min: bandwidths must be at least {MIN_BANDWIDTH:g}")
        if spacing == "log":
            grid = np.geomspace(lo, hi, count)
        else:
            grid = np.linspace(lo, hi, count)
        return [float(h) for h in grid]
    grid = blk.get_float_list("h_grid", ge=0.0)
    if min(grid) <= 0 or max(grid) > 1:
        raise ConfigError("lpe.h_grid: bandwidths must lie in (0, 1]")
    if min(grid) < MIN_BANDWIDTH:
        raise ConfigError(f"lpe.h_grid: bandwidths must be at least {MIN_BANDWIDTH:g}")
    return sorted(grid)


def _parse_eval_grid(root: Conf):
    blk = root.block("eval", required=False)
    window = blk.get_float_list("window", default=list(EVAL_WINDOW), min_len=2)
    if len(window) != 2 or not 0.0 <= window[0] < window[1] <= 1.0:
        raise ConfigError("eval.window: expected [lo, hi] with 0 <= lo < hi <= 1")
    points = blk.get_int("grid_points", default=DEFAULT_GRID_POINTS, ge=2)
    return np.linspace(window[0], window[1], points)


# ----------------------------------------------------------------- subcommands

def cmd_sample(root: Conf, seed: int, outdir: Path):
    base, _ = _parse_baseline(root)
    outputs = {}
    if root.has("rup"):
        spec = _parse_rup_spec(root, base)
        xi = draw_perturbation(spec, substream(seed, "xi", 0), realization_id="xi00000")
        ds = sample_perturbed(spec, xi, base.n, substream(seed, "data", 0))
        real_path = outdir / "realization.json"
        save_realization(xi, real_path)
        outputs["realization.json"] = real_path
    else:
        ds = sample_baseline(base, substream(seed, "data", 0))
    rows = []
    for i in range(len(ds)):
        rows.append((ds.xs[i], ds.ys[i],
                     None if ds.bucket_ids is None else int(ds.bucket_ids[i]),
                     ds.realization_id))
    csv_path = outdir / "dataset.csv"
    write_csv(csv_path, ["x", "y", "bucket_id", "realization_id"], rows)
    outputs["dataset.csv"] = csv_path
    print(f"sampled {len(ds)} points")
    return outputs, []


def _parse_sweep(root: Conf, need: str):
    """Arguments of optimal_bandwidth_curve, less the seed.

    Both sweeps read the same rup, lpe, eval and mc blocks; need="n" reads a
    single baseline.n (mise-sweep), need="n_grid" a list (bandwidth-vs-n).
    """
    base, n_grid = _parse_baseline(root, need)
    blk = root.block("rup")
    blk.get_str("model", default="correlated_noise", choices=("correlated_noise",))
    b_x = blk.get_int("b_x", ge=1)
    tau_grid = blk.get_float_list("tau_grid", ge=0.0)
    for i, tau in enumerate(tau_grid):  # the spec's delta2 is tau * b_x
        _check_finite_product(f"rup.tau_grid[{i}]", "tau * rup.b_x * baseline.sigma2",
                              tau, b_x, base.sigma2)
    lpe_base, h_grid = _parse_lpe(root)
    eval_grid = _parse_eval_grid(root)
    reps = root.block("mc").get_int("reps", default=100, ge=2)
    return {"base": base, "lpe_base": lpe_base, "b_x": b_x, "tau_grid": tau_grid,
            "n_grid": n_grid, "h_grid": h_grid, "eval_grid": eval_grid, "reps": reps}


def cmd_mise_sweep(root: Conf, seed: int, outdir: Path):
    args = _parse_sweep(root, need="n")
    warnings: list[str] = []
    rows = []
    for cell in optimal_bandwidth_curve(**args, seed=seed):
        tau, curve = cell["tau"], cell["curve"]
        rows.extend((h, tau, m, s) for h, m, s in curve.rows)
        for h in curve.meta["failed_h"]:
            warnings.append(f"tau={tau:g}: h={h:g} invalid (no local support on the grid)")
        print(f"tau={tau:g}: argmin_h={curve.argmin_h:g}")
    csv_path = outdir / "mise_curve.csv"
    write_csv(csv_path, ["h", "tau", "mise", "se"], rows)
    svg_path = outdir / "fig4.svg"
    _render_mise_svg(csv_path, svg_path)
    return {"mise_curve.csv": csv_path, "fig4.svg": svg_path}, warnings


def _render_by_tau(csv_path: Path, svg_path: Path, x: str, y: str, **chart) -> None:
    """Chart the CSV's (x, y) columns with one series per tau, in file order."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for row in read_csv(csv_path):
        groups.setdefault(row["tau"], []).append((float(row[x]), float(row[y])))
    series = [(f"tau={tau}", [p[0] for p in pts], [p[1] for p in pts])
              for tau, pts in groups.items()]
    svg_path.write_text(line_chart(series, **chart), encoding="utf-8")


def _render_mise_svg(csv_path: Path, svg_path: Path) -> None:
    _render_by_tau(csv_path, svg_path, "h", "mise", xlabel="bandwidth h", ylabel="MISE",
                   title="MISE against bandwidth")


def cmd_bandwidth_vs_n(root: Conf, seed: int, outdir: Path):
    table = optimal_bandwidth_curve(**_parse_sweep(root, need="n_grid"), seed=seed)
    rows = [(r["n"], r["tau"], r["h_star"]) for r in table]
    csv_path = outdir / "hstar_vs_n.csv"
    write_csv(csv_path, ["n", "tau", "h_star"], rows)
    svg_path = outdir / "fig5.svg"
    _render_hstar_svg(csv_path, svg_path)
    warnings = []
    for r in table:
        print(f"n={r['n']} tau={r['tau']:g}: h_star={r['h_star']:g}")
        for h in r["curve"].meta["failed_h"]:
            warnings.append(f"n={r['n']}, tau={r['tau']:g}: h={h:g} invalid "
                            "(no local support on the grid)")
    return {"hstar_vs_n.csv": csv_path, "fig5.svg": svg_path}, warnings


def _render_hstar_svg(csv_path: Path, svg_path: Path) -> None:
    _render_by_tau(csv_path, svg_path, "n", "h_star", xlabel="n", ylabel="optimal bandwidth",
                   title="Optimal bandwidth against sample size", logx=True, logy=True)


def cmd_kl_check(root: Conf, seed: int, outdir: Path):
    sigma2 = root.block("baseline", required=False).get_float("sigma2", default=1.0, gt=0.0)
    kl = root.block("kl")
    n_grid = kl.get_int_list("n_grid", ge=2)
    delta2 = kl.get_float("delta2", ge=0.0)
    _check_finite_product("kl.delta2", "delta2 * baseline.sigma2", delta2, sigma2)
    _check_finite_product("kl.delta2", "max(kl.n_grid) * delta2", max(n_grid), delta2)
    beta = kl.get_float("beta", default=1.0, gt=0.0)
    holder_const = kl.get_float("holder_const", default=1.0, gt=0.0)
    x0 = kl.get_float("x0", default=0.5, ge=0.0)
    if x0 > 1.0:
        raise ConfigError("kl.x0: must lie in [0, 1]")
    reps = kl.get_int("reps", default=400, ge=2)
    rule_name = kl.get_str("bucket_rule", default="per_point",
                           choices=("per_point", "fixed"))
    bucket_rule = None
    if rule_name == "fixed":
        b_x = kl.get_int("b_x", ge=1)
        bucket_rule = lambda n: b_x
    base = BaselineConfig(f=get_function("zero"), sigma2=sigma2, n=n_grid[0])
    table = correlated_noise_kl_suite(n_grid, delta2, base, beta, holder_const, x0,
                                      bucket_rule=bucket_rule, reps=reps, seed=seed)
    rows = [(r.n, r.n_eff, r.kl_mean, r.kl_se, r.ratio, r.regime_warning)
            for r in table.rows]
    csv_path = outdir / "kl_scaling.csv"
    write_csv(csv_path, ["n", "n_eff", "kl_mean", "kl_se", "ratio", "regime_warning"], rows)
    warnings = []
    if table.regime_warning:
        warnings.append("n/B_X grows across the grid: outside the bounded-occupancy "
                        "regime, the ratio column need not stabilize")
    for r in table.rows:
        print(f"n={r.n}: n_eff={r.n_eff:.4g} kl={r.kl_mean:.6g} ratio={r.ratio:.6g}")
    return {"kl_scaling.csv": csv_path}, warnings


def _noise_variance(ys, buckets, where: str) -> float:
    """within_bucket_noise_variance; a layout it refuses (a negative id, no degree of
    freedom) is a ConfigError."""
    try:
        return within_bucket_noise_variance(ys, buckets)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_realization(path: str, warnings: list[str]):
    """(mean y, size, noise variance estimate) of one dataset.csv written by `sample`."""
    where = f"tau_estimate.from_files: {path}"
    try:
        data = read_csv(Path(path))
    except FileNotFoundError:
        raise ConfigError(f"{where} not found") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{where} cannot be read: {exc}") from None
    if not data:
        raise ConfigError(f"{where} has no data rows")
    if len(data) < 2:
        raise ConfigError(f"{where} has one data row; the noise variance needs two")
    if "y" not in data[0]:
        raise ConfigError(f"{where} lacks a 'y' column")
    try:
        ys = np.array([float(row["y"]) for row in data])
        buckets = (np.array([int(row["bucket_id"]) for row in data], dtype=np.int64)
                   if data[0].get("bucket_id", "") else None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} has a non-numeric y or bucket_id: {exc}") from None
    if not np.isfinite(ys).all():
        raise ConfigError(f"{where} has a non-finite y")
    if buckets is None:
        warnings.append(f"{path}: no bucket ids; sigma2 from raw variance "
                        "(inflated by the shift variance)")
        return float(ys.mean()), ys.size, float(np.var(ys, ddof=1))
    return float(ys.mean()), ys.size, _noise_variance(ys, buckets, where)


def cmd_estimate_tau(root: Conf, seed: int, outdir: Path):
    est_blk = root.block("tau_estimate", required=False)
    warnings: list[str] = []
    if est_blk.has("from_files"):
        paths = est_blk.get_str_list("from_files", min_len=2)
        thetas, n_pers, sig_parts = zip(*(_read_realization(p, warnings) for p in paths))
        if len(set(n_pers)) != 1:
            raise ConfigError("tau_estimate.from_files: realizations have unequal sizes")
        n_per = n_pers[0]
        j = len(paths)
        theta = np.array(thetas)
        sigma2_hat = float(np.mean(sig_parts))
        source = "tau_estimate.from_files"
    else:
        base, _ = _parse_baseline(root)
        spec = _parse_rup_spec(root, base)
        j = root.block("mc").get_int("j", default=500, ge=2)
        if base.f.name != "zero":
            warnings.append("baseline.f is not 'zero': outcome means also vary with "
                            "f; the estimate assumes centered outcomes")
        theta = np.empty(j)
        sig_parts = np.empty(j)
        xi_rngs = substreams(seed, "xi", count=j)
        for run, data_rngs in substreams(seed, "data", count=j).stacks(base.n):
            xi = draw_perturbation(spec, [xi_rngs[i] for i in run])
            ds = sample_perturbed(spec, xi, base.n, data_rngs)
            theta[run] = ds.ys.mean(axis=1)
            sig_parts[run] = _noise_variance(ds.ys, ds.bucket_ids, "baseline.n")
        n_per = base.n
        sigma2_hat = float(sig_parts.mean())
        source = "baseline.sigma2"
    if sigma2_hat <= 0:
        raise ConfigError(f"{source}: the noise variance estimate is {sigma2_hat:g}; "
                          "estimating tau needs it positive")

    beta = root.block("bandwidth", required=False).get_float("beta", default=2.0, gt=0.0)
    tau_hat = estimate_tau_from_summaries(theta, n_per, sigma2_hat)
    theta_var = float(np.var(theta, ddof=1))
    n_eff = effective_sample_size(n_per, tau_hat).n_eff
    h_star = oracle_bandwidth(n_per, tau_hat, beta)
    csv_path = outdir / "tau_report.csv"
    write_csv(csv_path,
              ["j", "n_per", "sigma2_hat", "theta_var", "sampling_component",
               "tau_hat", "n_eff", "h_star"],
              [(j, n_per, sigma2_hat, theta_var, sigma2_hat / n_per, tau_hat, n_eff, h_star)])
    print(f"tau_hat={tau_hat:.6g} (theta_var={theta_var:.6g}, "
          f"sampling={sigma2_hat / n_per:.6g}), n_eff={n_eff:.6g}, h_star={h_star:.6g}")
    return {"tau_report.csv": csv_path}, warnings


def _staging_dir(outdir: Path) -> tempfile.TemporaryDirectory:
    """A hidden directory to stage a run's files in, removed on every exit.

    It lies in outdir's nearest existing ancestor (outdir itself if it exists),
    so each rename into outdir stays on one file system. A path that cannot be
    a directory (a file, a file's child or a dangling link) is a ConfigError.
    """
    parent = next(d for d in (outdir, *outdir.parents) if os.path.lexists(d))
    try:
        return tempfile.TemporaryDirectory(prefix=".rupsim-", dir=parent)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: "
                          f"{exc.strerror or exc}") from None


def _replaced_outputs(outdir: Path) -> list[str]:
    """The outputs the manifest in outdir lists, [] if it cannot be read.

    Only plain file names count (one path component, not . or ..), so a
    manifest cannot point outside outdir.
    """
    try:
        listed = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, TypeError, KeyError):
        return []
    if not isinstance(listed, dict):
        return []
    return [name for name in listed if isinstance(name, str)
            and name not in ("", ".", "..") and Path(name).name == name]


def _publish(stage: Path, names: list[str], outdir: Path) -> None:
    """Rename the staged files into outdir, the manifest last.

    The old manifest goes first, so a failure part way leaves no manifest
    that vouches for files it did not write. The files it listed that this
    run does not write go with it, so outdir holds one run's outputs.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    stale = [name for name in _replaced_outputs(outdir) if name not in (*names, "manifest.json")]
    (outdir / "manifest.json").unlink(missing_ok=True)
    for name in stale:
        if (outdir / name).is_file() or (outdir / name).is_symlink():
            (outdir / name).unlink()
            print(f"removed {outdir / name}")
    for name in [*sorted(names), "manifest.json"]:
        os.replace(stage / name, outdir / name)
        print(f"wrote {outdir / name}")


COMMANDS = {
    "sample": cmd_sample,
    "mise-sweep": cmd_mise_sweep,
    "bandwidth-vs-n": cmd_bandwidth_vs_n,
    "kl-check": cmd_kl_check,
    "estimate-tau": cmd_estimate_tau,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rupsim",
                                     description="Perturbed-regression experiment runner")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the YAML run config")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and recorded in the manifest; replicates always run "
                             "in one process, so results never depend on it")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 on numeric/regime warnings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)

    _keep_freed_heap()
    started = datetime.now(timezone.utc).isoformat()
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be nonnegative, got {args.seed}")
        if args.threads < 1:
            raise ConfigError("--threads: must be at least 1")
        cfg = load_yaml(args.config)
        root = Conf(cfg)
        if args.seed is None:
            seed = root.get_int("seed", ge=0)
        else:  # the config's seed is overridden, but it must still be valid
            root.get_int("seed", default=None, ge=0)
            seed = args.seed
        out_default = root.block("output", required=False).get_str("dir", default="out")
        outdir = Path(args.out if args.out is not None else out_default)
        with _staging_dir(outdir) as stage:
            stage = Path(stage)
            outputs, warnings = COMMANDS[args.command](root, seed, stage)
            warnings += [f"config key {path} was never read" for path in root.unread()]
            manifest = {
                "command": args.command,
                "version": __version__,
                "seed": seed,
                "threads": args.threads,
                "config": {**root.record, "seed": seed},
                "started": started,
                "finished": datetime.now(timezone.utc).isoformat(),
                "outputs": {name: _sha256(path) for name, path in sorted(outputs.items())},
            }
            with open(stage / "manifest.json", "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            _publish(stage, list(outputs), outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericDeadEnd as exc:
        print(f"numeric dead end: {exc}", file=sys.stderr)
        return 4

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if warnings and args.strict:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
