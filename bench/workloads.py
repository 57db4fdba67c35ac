"""The benchmark's workloads: what one pass runs, counts and checks.

mise_sweep and kl_tau call `rupsim.cli.main(argv)` in-process; risk_cv has
no subcommand and calls the public library functions. Every call passes the
benchmark's seed and leaves --threads at its default. Calls go through
module attributes (`risk.mise_mc`, not a local alias) so the traced run's
wrappers see them.

Each workload has
  setup()                   parse its configs (part of setup_s),
  run(seed, workdir, tally) one timed pass, returning its results,
  check(results, tally)     checks that hold for every seed,
  values(results)           the outputs compared with the stored reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import rupsim
import rupsim.cli
from rupsim import bandwidth, config, perturbation, risk, streams

CONFIGS = Path(__file__).resolve().parent / "configs"

# Reference comparison, value by value: |actual - ref| <= REL_TOL * |ref| +
# ABS_TOL. Loose enough for an alternative solver whose fitted values are
# accurate to about 1e-9: a second moment such as bias2 = b**2 then moves by
# about 2 * |b| * 1e-9, which stays under the bound for every b when
# ABS_TOL >= (1e-9)**2 / REL_TOL = 1e-12; ABS_TOL leaves a factor 10 on that.
REL_TOL = 1e-6
ABS_TOL = 1e-11
# argmin_prefer_larger's tie tolerance: every candidate whose reference score
# is this close to the reference minimum is an acceptable choice.
TIE_RTOL, TIE_ATOL = 1e-9, 1e-12


class Tally:
    """Operations and output checks of one pass; every failure counts in fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.skipped: list[str] = []

    def op(self, name: str, fn, *args):
        """Run one operation; an exception is recorded as a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args)
        # the pass goes on so every failure is counted; an operation that
        # exits (argparse does) has failed whatever its code
        except (Exception, SystemExit) as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _cli(command: str, config_name: str, outdir: Path, seed: int) -> Path:
    argv = [command, "--config", str(CONFIGS / config_name), "--seed", str(seed),
            "--out", str(outdir)]
    code = rupsim.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rupsim {command} exited with code {code}")
    return outdir


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_manifest(tally: Tally, outdir: Path) -> None:
    try:
        outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
        bad = [name for name, digest in outputs.items() if _sha256(outdir / name) != digest]
    except (OSError, ValueError, KeyError) as exc:
        tally.check(f"{outdir.name} manifest", False, f"{type(exc).__name__}: {exc}")
        return
    tally.check(f"{outdir.name} manifest sha256", bool(outputs) and not bad,
                f"mismatched or no outputs: {bad}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _h_grid(spec: dict) -> np.ndarray:
    return np.geomspace(spec["min"], spec["max"], spec["count"])


def argmin_prefer_larger(values, scores) -> float:
    """Candidate with the least score; near-ties (TIE_RTOL) go to the largest.

    The benchmark's own copy of rupsim's rule, so that a change to rupsim
    cannot change how its outputs are judged.
    """
    return max(tied_candidates(values, scores))


def tied_candidates(values, scores) -> list[float]:
    finite = [s for s in scores if math.isfinite(s)]
    if not finite:
        return []
    best = min(finite)
    return [v for v, s in zip(values, scores)
            if math.isfinite(s) and s <= best + TIE_ATOL + TIE_RTOL * abs(best)]


class MiseSweep:
    """CLI mise-sweep: MISE over 24 h x 101 points for three tau."""

    name = "mise_sweep"
    config = "mise_sweep.yaml"

    def setup(self) -> None:
        cfg = config.load_yaml(CONFIGS / self.config)
        self.n_tau = len(cfg["rup"]["tau_grid"])
        self.n_h = cfg["lpe"]["h_grid"]["count"]
        # one unit = one local fit: tau x replicate x h x grid point
        self.units = self.n_tau * cfg["mc"]["reps"] * self.n_h * cfg["eval"]["grid_points"]

    def run(self, seed: int, workdir: Path, tally: Tally):
        return tally.op("mise-sweep", _cli, "mise-sweep", self.config,
                        workdir / "mise_sweep", seed)

    def _curves(self, outdir: Path) -> dict[str, list[tuple[float, float, float]]]:
        curves: dict[str, list] = {}
        for row in _read_csv(outdir / "mise_curve.csv"):
            curves.setdefault(row["tau"], []).append(
                (float(row["h"]), float(row["mise"]), float(row["se"])))
        return curves

    def check(self, outdir, tally: Tally) -> None:
        if outdir is None:
            return
        _check_manifest(tally, outdir)
        curves = self._curves(outdir)
        rows = [r for curve in curves.values() for r in curve]
        tally.check("mise_curve.csv shape", len(curves) == self.n_tau
                    and len(rows) == self.n_tau * self.n_h,
                    f"{len(curves)} tau x {len(rows)} rows")
        tally.check("mise_curve.csv finite", _finite(v for r in rows for v in r))

    def values(self, outdir) -> dict:
        floats, choices = {}, {}
        for i, curve in enumerate(self._curves(outdir).values()):
            hs, mise, se = (list(col) for col in zip(*curve))
            floats["h"] = hs
            floats[f"mise[tau{i}]"] = mise
            floats[f"se[tau{i}]"] = se
            choices[f"argmin_h[tau{i}]"] = {"chosen": argmin_prefer_larger(hs, mise),
                                            "candidates": "h", "scores": f"mise[tau{i}]"}
        return {"floats": floats, "choices": choices}


class RiskCv:
    """Library calls on partition-model data: risk decomposition, oracle, domain CV."""

    name = "risk_cv"
    config = "risk_cv.yaml"

    def setup(self) -> None:
        cfg = config.load_yaml(CONFIGS / self.config)
        b = cfg["baseline"]
        self.base = rupsim.BaselineConfig(f=rupsim.get_function(b["f"]),
                                          sigma2=b["sigma2"], n=b["n"])
        p = cfg["partition"]
        self.spec = rupsim.PartitionSpec(b_x=p["b_x"], b_eps=p["b_eps"],
                                         weight_law=rupsim.WeightLaw.exponential(),
                                         baseline=self.base)
        r = cfg["risk"]
        self.x0s = r["x0"]
        self.reps = (r["reps_xi"], r["reps_data"])
        self.lpe = rupsim.LpeConfig(order=r["order"], bandwidth=r["bandwidth"],
                                    kernel=rupsim.get_kernel(r["kernel"]))
        o = cfg["oracle"]
        self.oracle_x0, self.oracle_reps = o["x0"], o["reps"]
        self.oracle_spec = rupsim.CorrelatedNoiseSpec(b_x=o["b_x"], delta2=o["delta2"],
                                                      baseline=self.base)
        self.oracle_lpe = rupsim.LpeConfig(order=o["order"], bandwidth=o["bandwidth"],
                                           kernel=rupsim.get_kernel(o["kernel"]))
        c = cfg["domain_cv"]
        self.cv_j = c["j"]
        self.cv_h = _h_grid(c["h_grid"])
        self.cv_lpe = rupsim.LpeConfig(order=c["order"], bandwidth=float(self.cv_h[0]),
                                       kernel=rupsim.get_kernel(c["kernel"]))
        # one unit = one dataset drawn and fitted
        self.units = len(self.x0s) * self.reps[0] * self.reps[1] + self.oracle_reps + self.cv_j

    def _domain_cv(self, seed: int):
        datasets = []
        for j in range(self.cv_j):
            xi = perturbation.draw_perturbation(self.spec, streams.substream(seed, "cv-xi", j),
                                                realization_id=f"cv{j:03d}")
            datasets.append(perturbation.sample_perturbed(
                self.spec, xi, self.base.n, streams.substream(seed, "cv-data", j)))
        return bandwidth.domain_cv_bandwidth(datasets, self.cv_h, self.cv_lpe)

    def run(self, seed: int, workdir: Path, tally: Tally) -> dict:
        reports = {x0: tally.op(f"pointwise_risk_mc x0={x0}", risk.pointwise_risk_mc,
                                self.base, self.spec, self.lpe, x0, *self.reps, seed)
                   for x0 in self.x0s}
        oracle = tally.op("dist_var_weight_oracle", risk.dist_var_weight_oracle,
                          self.base, self.oracle_spec, self.oracle_lpe, self.oracle_x0,
                          self.oracle_reps, seed)
        cv = tally.op("domain_cv_bandwidth", self._domain_cv, seed)
        return {"reports": reports, "oracle": oracle, "cv": cv}

    COMPONENTS = ("bias2", "sampling_var", "dist_var_raw", "total_mse",
                  "se_total", "se_bias2", "se_sampling", "se_dist")

    @staticmethod
    def _components(rep) -> list[float]:
        return [rep.bias2, rep.sampling_var, rep.diagnostics["dist_var_raw"], rep.total_mse,
                rep.se_total, rep.se_bias2, rep.se_sampling, rep.se_dist]

    def check(self, results: dict, tally: Tally) -> None:
        for x0, rep in results["reports"].items():
            if rep is None:
                continue
            tally.check(f"risk x0={x0} finite", _finite(self._components(rep)))
            tally.check(f"risk x0={x0} |identity_residual| <= 3 se_combined",
                        abs(rep.identity_residual) <= 3.0 * rep.se_combined,
                        f"{rep.identity_residual:.3g} vs se {rep.se_combined:.3g}")
        if results["oracle"] is not None:
            tally.check("oracle finite", _finite(results["oracle"]))
        cv = results["cv"]
        if cv is not None:
            scores = dict(cv.diagnostics)
            tally.check("domain CV h_star has a finite score",
                        math.isfinite(scores.get(cv.h_star, math.inf)), f"h_star={cv.h_star}")

    def values(self, results: dict) -> dict:
        # one group per quantity, across x0
        columns = zip(*(self._components(rep) for rep in results["reports"].values()))
        floats = {f"risk.{name}": list(col) for name, col in zip(self.COMPONENTS, columns)}
        value, se = results["oracle"]
        floats["oracle.value"], floats["oracle.se"] = [value], [se]
        floats["cv_h"], floats["cv_scores"] = (list(col) for col in
                                               zip(*results["cv"].diagnostics))
        choices = {"cv_h_star": {"chosen": results["cv"].h_star,
                                 "candidates": "cv_h", "scores": "cv_scores"}}
        return {"floats": floats, "choices": choices}


class KlTau:
    """CLI kl-check and estimate-tau: no local polynomial fit at all."""

    name = "kl_tau"
    configs = ("kl_check.yaml", "estimate_tau.yaml")

    def setup(self) -> None:
        kl, tau = (config.load_yaml(CONFIGS / name) for name in self.configs)
        self.n_rows = len(kl["kl"]["n_grid"])
        # one unit = one design (kl-check) or one realization (estimate-tau)
        self.units = kl["kl"]["reps"] * self.n_rows + tau["mc"]["j"]

    def run(self, seed: int, workdir: Path, tally: Tally) -> dict:
        return {"kl": tally.op("kl-check", _cli, "kl-check", self.configs[0],
                               workdir / "kl_check", seed),
                "tau": tally.op("estimate-tau", _cli, "estimate-tau", self.configs[1],
                                workdir / "estimate_tau", seed)}

    def check(self, results: dict, tally: Tally) -> None:
        if results["kl"] is not None:
            _check_manifest(tally, results["kl"])
            rows = _read_csv(results["kl"] / "kl_scaling.csv")
            tally.check("kl_scaling.csv rows", len(rows) == self.n_rows, f"{len(rows)} rows")
            tally.check("kl_scaling.csv finite", _finite(
                float(r[k]) for r in rows for k in ("n_eff", "kl_mean", "kl_se", "ratio")))
        if results["tau"] is not None:
            _check_manifest(tally, results["tau"])
            (row,) = _read_csv(results["tau"] / "tau_report.csv")
            tally.check("tau_report.csv finite", _finite(float(v) for v in row.values()))
            tally.check("tau_hat >= 0", float(row["tau_hat"]) >= 0.0, row["tau_hat"])

    def values(self, results: dict) -> dict:
        rows = _read_csv(results["kl"] / "kl_scaling.csv")
        (tau,) = _read_csv(results["tau"] / "tau_report.csv")
        return {"floats": {"kl_ratio": [float(r["ratio"]) for r in rows],
                           "kl_mean": [float(r["kl_mean"]) for r in rows],
                           "tau_hat": [float(tau["tau_hat"])],
                           "sigma2_hat": [float(tau["sigma2_hat"])],
                           "theta_var": [float(tau["theta_var"])]},
                "choices": {}}


WORKLOADS = {w.name: w for w in (MiseSweep(), RiskCv(), KlTau())}


def compare_reference(actual: dict, ref: dict, tally: Tally) -> None:
    """Each float within REL_TOL * |ref| + ABS_TOL; choices exact up to reference ties.

    `values()` gives {"floats": {group: [float]}, "choices": {name: {"chosen":
    value, "candidates": group, "scores": group}}}; a choice names the float
    groups that hold its candidates and their scores.
    """
    bad = []
    for key, ref_vals in ref["floats"].items():
        got = actual["floats"].get(key)
        if got is None or len(got) != len(ref_vals):
            bad.append(f"{key} (shape)")
            continue
        bad += [f"{key}[{i}] {a!r} vs {r!r}" for i, (a, r) in enumerate(zip(got, ref_vals))
                if not abs(a - r) <= REL_TOL * abs(r) + ABS_TOL]
    tally.check(f"reference values (rel tol {REL_TOL:g}, abs tol {ABS_TOL:g})",
                not bad, f"outside tolerance: {bad}")
    for key, r in ref["choices"].items():
        chosen = actual["choices"].get(key, {}).get("chosen")
        ok = tied_candidates(ref["floats"][r["candidates"]], ref["floats"][r["scores"]])
        tally.check(f"reference choice {key}",
                    chosen is not None and any(math.isclose(chosen, h, rel_tol=1e-12) for h in ok),
                    f"chose {chosen}, reference allows {ok}")
