import csv
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rupsim import (BaselineConfig, CorrelatedNoiseSpec, PartitionSpec, WeightLaw, cli,
                    draw_perturbation, estimate_tau_from_summaries, load_realization,
                    sample_perturbed, substream, within_bucket_noise_variance, zero_function)
from rupsim.bandwidth import NumericDeadEnd
from rupsim.cli import _render_hstar_svg, _render_mise_svg, main
from rupsim.config import ConfigError, load_yaml
from rupsim.streams import STACK_POINTS

SAMPLE_CFG = """
seed: 7
baseline: {f: sine, sigma2: 1.0, n: 5}
rup:
  model: correlated_noise
  b_x: 4
  delta2: 0.25
"""

PARTITION_SAMPLE_CFG = """
seed: 9
baseline: {f: zero, sigma2: 1.0, n: 40}
rup:
  model: partition
  b_x: 5
  b_eps: 8
  weight_law: {kind: exp}
"""

MISE_CFG = """
seed: 21
baseline: {f: sine, sigma2: 0.5, n: 150}
rup:
  model: correlated_noise
  b_x: 5
  tau_grid: [0.0, 0.02]
lpe:
  order: 1
  kernel: epanechnikov
  h_grid: [0.3]
eval: {window: [0.05, 0.95], grid_points: 21}
mc: {reps: 2}
"""

KL_FIXED_CFG = """
seed: 33
baseline: {sigma2: 1.0}
kl:
  n_grid: [100, 200, 400]
  delta2: 1.0
  beta: 1.0
  bucket_rule: fixed
  b_x: 10
  reps: 20
"""

TAU_CFG = """
seed: 55
baseline: {f: zero, sigma2: 1.0, n: 400}
rup:
  model: correlated_noise
  b_x: 10
  delta2: 0.25
mc: {j: 40}
bandwidth: {beta: 2.0}
"""


def write_cfg(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sample_smoke_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
    rows = read_rows(out1 / "dataset.csv")
    assert len(rows) == 5
    assert list(rows[0]) == ["x", "y", "bucket_id", "realization_id"]
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
    assert (out1 / "realization.json").read_bytes() == (out2 / "realization.json").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["config"]["seed"] == 7
    assert set(manifest["outputs"]) == {"dataset.csv", "realization.json"}


def test_sample_partition_realization_replays(tmp_path):
    cfg = write_cfg(tmp_path, PARTITION_SAMPLE_CFG)
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    xi = load_realization(out / "realization.json")
    assert xi.variant == "partition"
    assert xi.partition_weights.shape == (5, 8)
    rows = read_rows(out / "dataset.csv")
    assert {int(r["bucket_id"]) for r in rows} <= set(range(5))
    assert all(r["realization_id"] == "xi00000" for r in rows)


def test_sample_without_rup_block(tmp_path):
    cfg = write_cfg(tmp_path, "seed: 3\nbaseline: {f: zero, sigma2: 0.0, n: 4}\n")
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "dataset.csv")
    assert len(rows) == 4
    assert all(r["bucket_id"] == "" for r in rows)
    assert all(float(r["y"]) == 0.0 for r in rows)


def test_seed_override_changes_data(tmp_path):
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2), "--seed", "8"]) == 0
    assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()


def test_config_errors_exit_2(tmp_path, capsys):
    no_seed = write_cfg(tmp_path, "baseline: {f: sine, sigma2: 1.0, n: 5}\n", "a.yaml")
    assert main(["sample", "--config", no_seed]) == 2
    assert "seed" in capsys.readouterr().err

    bad_field = write_cfg(tmp_path, """
seed: 1
baseline: {f: sine, sigma2: 1.0, n: 5}
rup: {model: correlated_noise, b_x: ten, delta2: 0.1}
""", "b.yaml")
    assert main(["sample", "--config", bad_field]) == 2
    assert "rup.b_x" in capsys.readouterr().err

    missing = str(tmp_path / "nope.yaml")
    assert main(["sample", "--config", missing]) == 2


@pytest.mark.parametrize("config, out, message", [
    ("run.yaml", "afile", "cannot create output directory {tmp}/afile: "),
    ("run.yaml", "afile/sub", "cannot create output directory {tmp}/afile/sub: "),
    ("adir", "o", "config file {tmp}/adir cannot be read: "),
    ("latin1.yaml", "o", "config file {tmp}/latin1.yaml is not UTF-8: 'utf-8' codec "),
    ("run.yaml", "alink", "cannot create output directory {tmp}/alink: "),
], ids=["out-is-a-file", "out-under-a-file", "config-is-a-directory", "config-not-utf-8",
        "out-is-a-dangling-link"])
def test_unusable_config_or_out_path_exits_2(tmp_path, capsys, config, out, message):
    # afile is a regular file, adir a directory, latin1.yaml holds a byte that is not
    # UTF-8, alink a symbolic link to a path that does not exist
    write_cfg(tmp_path, SAMPLE_CFG)
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    (tmp_path / "alink").symlink_to(tmp_path / "nowhere")
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.yaml").write_bytes("# caf\xe9\n".encode("latin-1") + SAMPLE_CFG.encode())
    before = sorted(tmp_path.rglob("*"))
    assert main(["sample", "--config", str(tmp_path / config),
                 "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message.format(tmp=tmp_path)}")
    assert sorted(tmp_path.rglob("*")) == before  # nothing created, nothing removed
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "x"


def test_negative_seed_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: --seed: must be nonnegative, got -1"]
    assert not out.exists()


DEAD_END_CFG = """
seed: 5
baseline: {{f: sine, sigma2: 0.5, {n}}}
rup: {{model: correlated_noise, b_x: 5, tau_grid: [0.0]}}
lpe: {{order: 1, h_grid: [0.001, 0.002]}}
eval: {{grid_points: 11}}
mc: {{reps: 2}}
"""


@pytest.mark.parametrize("command, n", [("mise-sweep", "n: 3"),
                                        ("bandwidth-vs-n", "n_grid: [3, 4]")])
def test_no_valid_bandwidth_is_numeric_dead_end(tmp_path, capsys, command, n):
    cfg = write_cfg(tmp_path, DEAD_END_CFG.format(n=n))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric dead end: no bandwidth in the grid")
    assert not (tmp_path / "o").exists()


def test_failed_run_removes_only_directories_it_created(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DEAD_END_CFG.format(n="n: 3"))
    nested = tmp_path / "new" / "deeper" / "o"
    assert main(["mise-sweep", "--config", cfg, "--out", str(nested)]) == 4
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "earlier.txt").write_text("x", encoding="utf-8")
    assert main(["mise-sweep", "--config", cfg, "--out", str(kept / "o")]) == 4
    assert main(["mise-sweep", "--config", cfg, "--out", str(kept)]) == 4
    assert sorted(p.name for p in kept.iterdir()) == ["earlier.txt"]
    capsys.readouterr()


@pytest.mark.parametrize("error", [RuntimeError("too many failed fits"), OSError(28, "disk full")])
def test_any_failure_removes_the_directory_the_run_created(tmp_path, monkeypatch, error):
    def half_written(root, seed, outdir):
        (outdir / "partial.csv").write_text("h,mise\n", encoding="utf-8")
        raise error

    monkeypatch.setitem(cli.COMMANDS, "sample", half_written)
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    with pytest.raises(type(error)):
        main(["sample", "--config", cfg, "--out", str(tmp_path / "new" / "o")])
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    with pytest.raises(type(error)):
        main(["sample", "--config", cfg, "--out", str(kept)])
    assert sorted(p.name for p in kept.iterdir()) == []


def tree(root):
    """Every path under root, mapped to its bytes (None for a directory)."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("error, code", [
    (ConfigError("rup.b_x: bad"), 2), (NumericDeadEnd("no bandwidth in the grid"), 4),
    (RuntimeError("too many failed fits"), None), (OSError(28, "disk full"), None),
    (KeyboardInterrupt(), None),
], ids=["config-error", "numeric-dead-end", "runtime-error", "os-error", "keyboard-interrupt"])
def test_failed_rerun_leaves_an_existing_out_byte_identical(tmp_path, monkeypatch, capsys,
                                                            error, code):
    # a seed-9 rerun that fails after the command wrote its files, over a seed-3 run
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    kept = tmp_path / "kept"
    assert main(["sample", "--config", cfg, "--out", str(kept), "--seed", "3"]) == 0
    before = tree(tmp_path)
    sample = cli.COMMANDS["sample"]

    def wrote_then_failed(root, seed, outdir):
        sample(root, seed, outdir)
        raise error

    monkeypatch.setitem(cli.COMMANDS, "sample", wrote_then_failed)
    argv = ["sample", "--config", cfg, "--out", str(kept), "--seed", "9"]
    if code is None:
        with pytest.raises(type(error)):
            main(argv)
    else:
        assert main(argv) == code
    assert tree(tmp_path) == before  # byte-identical, no new path
    assert not list(tmp_path.rglob(".rupsim-*"))
    capsys.readouterr()


def test_successful_rerun_replaces_its_own_files_and_keeps_others(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    first = (out / "dataset.csv").read_bytes()
    (out / "notes.txt").write_text("mine", encoding="utf-8")
    capsys.readouterr()
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    names = ["dataset.csv", "realization.json", "manifest.json"]
    assert capsys.readouterr().out.splitlines()[-3:] == [f"wrote {out / n}" for n in names]
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "notes.txt"])
    assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"
    assert (out / "dataset.csv").read_bytes() != first
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_rerun_removes_the_files_the_replaced_manifest_listed(tmp_path, capsys):
    out = tmp_path / "o"
    shipped = Path(__file__).resolve().parent.parent / "configs" / "sample.yaml"
    assert main(["sample", "--config", str(shipped), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("mine", encoding="utf-8")
    no_rup = write_cfg(tmp_path, "seed: 3\nbaseline: {f: zero, sigma2: 1.0, n: 4}\n")
    capsys.readouterr()
    assert main(["sample", "--config", no_rup, "--out", str(out)]) == 0
    assert f"removed {out / 'realization.json'}" in capsys.readouterr().out.splitlines()
    assert sorted(p.name for p in out.iterdir()) == ["dataset.csv", "manifest.json", "notes.txt"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["outputs"]) == ["dataset.csv"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("manifest", [
    {"outputs": {name: "0" * 64 for name in (
        "../outside.txt", "/tmp/outside.txt", "sub/inner.txt", "sub", ".", "..", "")}},
    {"outputs": ["kept.txt"]}, ["kept.txt"], "not json {",
], ids=["names-outside-or-below-out", "outputs-not-a-mapping", "not-a-mapping", "not-json"])
def test_rerun_removes_no_path_a_crafted_or_unreadable_manifest_names(tmp_path, capsys,
                                                                       manifest):
    out = tmp_path / "o"
    (out / "sub").mkdir(parents=True)
    (out / "sub" / "inner.txt").write_text("inner", encoding="utf-8")
    (out / "kept.txt").write_text("kept", encoding="utf-8")
    (tmp_path / "outside.txt").write_text("outside", encoding="utf-8")
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    (out / "manifest.json").write_text(text, encoding="utf-8")
    before = {p: b for p, b in tree(tmp_path).items() if p.name != "manifest.json"}
    assert main(["sample", "--config", write_cfg(tmp_path, SAMPLE_CFG), "--out", str(out)]) == 0
    after = tree(tmp_path)
    assert all(after[p] == b for p, b in before.items())
    assert "removed" not in capsys.readouterr().out


def test_bad_threads_exit_2_without_out_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SAMPLE_CFG)
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out), "--threads", "0"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: --threads: must be at least 1"]
    assert not out.exists()


def test_partition_model_rejected_for_sweeps(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
seed: 2
baseline: {f: sine, sigma2: 1.0, n: 100}
rup: {model: partition, b_x: 5, b_eps: 10, tau_grid: [0.0]}
lpe: {order: 1, h_grid: [0.2]}
mc: {reps: 2}
""")
    assert main(["mise-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rup.model" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mise_sweep_smoke_schema_and_threads(tmp_path):
    cfg = write_cfg(tmp_path, MISE_CFG)
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    assert main(["mise-sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mise-sweep", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    rows = read_rows(out1 / "mise_curve.csv")
    assert list(rows[0]) == ["h", "tau", "mise", "se"]
    assert len(rows) == 2  # singleton h grid, two tau values
    assert (out1 / "mise_curve.csv").read_bytes() == (out2 / "mise_curve.csv").read_bytes()
    assert (out1 / "fig4.svg").read_bytes() == (out2 / "fig4.svg").read_bytes()


def test_fig4_rerenders_byte_identically(tmp_path):
    cfg = write_cfg(tmp_path, MISE_CFG)
    out = tmp_path / "o"
    assert main(["mise-sweep", "--config", cfg, "--out", str(out)]) == 0
    again = tmp_path / "again.svg"
    _render_mise_svg(out / "mise_curve.csv", again)
    assert again.read_bytes() == (out / "fig4.svg").read_bytes()


def test_sample_zero_strength_bucket_means_centered(tmp_path):
    # downstream moment check on the emitted CSV: no shift, so per-bucket
    # residual means are pure noise
    cfg = write_cfg(tmp_path, """
seed: 71
baseline: {f: zero, sigma2: 1.0, n: 2000}
rup: {model: correlated_noise, b_x: 10, delta2: 0.0}
""")
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "dataset.csv")
    ys = np.array([float(r["y"]) for r in rows])
    buckets = np.array([int(r["bucket_id"]) for r in rows])
    for b in range(10):
        grp = ys[buckets == b]
        assert abs(grp.mean()) <= 3.0 / np.sqrt(grp.size)


def test_bandwidth_vs_n_smoke(tmp_path):
    cfg = write_cfg(tmp_path, """
seed: 43
baseline: {f: sine, sigma2: 0.5, n_grid: [120, 240]}
rup: {model: correlated_noise, b_x: 5, tau_grid: [0.0]}
lpe: {order: 1, h_grid: [0.15, 0.3]}
eval: {grid_points: 21}
mc: {reps: 2}
""")
    out = tmp_path / "o"
    assert main(["bandwidth-vs-n", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "hstar_vs_n.csv")
    assert list(rows[0]) == ["n", "tau", "h_star"]
    assert len(rows) == 2
    again = tmp_path / "again.svg"
    _render_hstar_svg(out / "hstar_vs_n.csv", again)
    assert again.read_bytes() == (out / "fig5.svg").read_bytes()


FAILED_H_CFG = """
seed: 8
baseline: {{f: sine, sigma2: 0.5, {n}}}
rup: {{model: correlated_noise, b_x: 5, tau_grid: [0.0]}}
lpe: {{order: 1, h_grid: [0.001, 0.3]}}
mc: {{reps: 2}}
"""


@pytest.mark.parametrize("command, n, cells", [
    ("mise-sweep", "n: 300", ["tau=0"]),
    ("bandwidth-vs-n", "n_grid: [300, 600]", ["n=300, tau=0", "n=600, tau=0"])])
def test_sweep_warns_of_failed_h_and_strict_exits_3(tmp_path, capsys, command, n, cells):
    # h = 0.001 leaves grid points without local support at these n
    cfg = write_cfg(tmp_path, FAILED_H_CFG.format(n=n))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    expected = [f"warning: {cell}: h=0.001 invalid (no local support on the grid)"
                for cell in cells]
    assert capsys.readouterr().err.strip().splitlines() == expected
    assert main([command, "--config", cfg, "--out", str(tmp_path / "s"), "--strict"]) == 3
    assert capsys.readouterr().err.strip().splitlines() == expected


def test_kl_check_regime_warning_and_strict_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, KL_FIXED_CFG)
    out = tmp_path / "o"
    assert main(["kl-check", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "kl_scaling.csv")
    assert list(rows[0]) == ["n", "n_eff", "kl_mean", "kl_se", "ratio", "regime_warning"]
    assert all(r["regime_warning"] == "true" for r in rows)
    assert "regime" in capsys.readouterr().err
    assert main(["kl-check", "--config", cfg, "--out", str(tmp_path / "p"), "--strict"]) == 3


def test_kl_check_lemma_regime_no_warning(tmp_path):
    cfg = write_cfg(tmp_path, """
seed: 34
baseline: {sigma2: 1.0}
kl: {n_grid: [100, 200], delta2: 0.0, beta: 1.0, reps: 10}
""")
    out = tmp_path / "o"
    assert main(["kl-check", "--config", cfg, "--out", str(out), "--strict"]) == 0
    rows = read_rows(out / "kl_scaling.csv")
    assert all(r["regime_warning"] == "false" for r in rows)


def test_estimate_tau_simulated(tmp_path):
    cfg = write_cfg(tmp_path, TAU_CFG)
    out = tmp_path / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out)]) == 0
    row = read_rows(out / "tau_report.csv")[0]
    tau_hat = float(row["tau_hat"])
    n_per = int(row["n_per"])
    n_eff = float(row["n_eff"])
    assert abs(n_eff * (1.0 + n_per * tau_hat) - n_per) <= 1e-12 * n_per
    assert float(row["h_star"]) > 0
    assert int(row["j"]) == 40


def _per_realization_tau_report(spec, n, j, seed):
    """tau_report.csv's numbers from one sample_perturbed call per realization."""
    theta, sig = np.empty(j), np.empty(j)
    for i in range(j):
        xi = draw_perturbation(spec, substream(seed, "xi", i), realization_id=f"xi{i:05d}")
        ds = sample_perturbed(spec, xi, n, substream(seed, "data", i))
        theta[i] = ds.ys.mean()
        sig[i] = within_bucket_noise_variance(ds.ys, ds.bucket_ids)
    sigma2_hat = float(sig.mean())
    return {"sigma2_hat": sigma2_hat, "theta_var": float(np.var(theta, ddof=1)),
            "tau_hat": estimate_tau_from_summaries(theta, n, sigma2_hat)}


@pytest.mark.parametrize("model", ["partition", "correlated_noise"])
def test_estimate_tau_stacks_equal_per_realization_results(tmp_path, model):
    n = 2000
    stack = STACK_POINTS // n
    assert stack >= 2
    base = BaselineConfig(f=zero_function(), sigma2=1.0, n=n)
    if model == "partition":
        rup = "{model: partition, b_x: 10, b_eps: 50}"
        spec = PartitionSpec(b_x=10, b_eps=50, weight_law=WeightLaw.exponential(), baseline=base)
    else:
        rup = "{model: correlated_noise, b_x: 10, delta2: 0.25}"
        spec = CorrelatedNoiseSpec(b_x=10, delta2=0.25, baseline=base)
    for j in (stack - 1, stack, 2 * stack + 1):
        cfg = write_cfg(tmp_path, f"seed: 61\nbaseline: {{f: zero, sigma2: 1.0, n: {n}}}\n"
                                  f"rup: {rup}\nmc: {{j: {j}}}\n")
        out = tmp_path / f"o{j}"
        assert main(["estimate-tau", "--config", cfg, "--out", str(out), "--strict"]) == 0
        row = read_rows(out / "tau_report.csv")[0]
        assert int(row["j"]) == j
        expected = _per_realization_tau_report(spec, n, j, 61)
        assert {k: float(row[k]) for k in expected} == expected


def test_estimate_tau_from_files(tmp_path):
    paths = []
    for i, seed in enumerate((101, 102, 103)):
        cfg = write_cfg(tmp_path, SAMPLE_CFG.replace("n: 5", "n: 200"), f"s{i}.yaml")
        out = tmp_path / f"real{i}"
        assert main(["sample", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        paths.append(str(out / "dataset.csv"))
    est_cfg = {"seed": 1, "tau_estimate": {"from_files": paths}, "bandwidth": {"beta": 2.0}}
    cfg_path = tmp_path / "est.yaml"
    cfg_path.write_text(yaml.safe_dump(est_cfg), encoding="utf-8")
    out = tmp_path / "est_out"
    assert main(["estimate-tau", "--config", str(cfg_path), "--out", str(out)]) == 0
    row = read_rows(out / "tau_report.csv")[0]
    assert int(row["j"]) == 3
    assert float(row["tau_hat"]) >= 0.0


def test_manifest_checksums_match_files(tmp_path):
    cfg = write_cfg(tmp_path, MISE_CFG)
    out = tmp_path / "o"
    assert main(["mise-sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


ECHO_CASES = {
    "sample": PARTITION_SAMPLE_CFG.replace("{kind: exp}", "{kind: lognormal}"),
    "mise-sweep": MISE_CFG.replace("h_grid: [0.3]", "h_grid: {min: 0.2, max: 0.4, count: 2}")
                          .replace("eval: {window: [0.05, 0.95], grid_points: 21}\n", ""),
    "bandwidth-vs-n": """
seed: 43
baseline: {sigma2: 0.5, n_grid: [120, 240]}
rup: {b_x: 5, tau_grid: [0.0, 0.01]}
lpe: {h_grid: [0.15, 0.3]}
eval: {grid_points: 21}
mc: {reps: 2}
""",
    "kl-check": "seed: 34\nkl: {n_grid: [100, 200], delta2: 1.0, reps: 10}\n",
    "estimate-tau": TAU_CFG.replace("bandwidth: {beta: 2.0}\n", ""),
}


@pytest.mark.parametrize("command", list(ECHO_CASES))
def test_manifest_config_echo_reruns_the_run(tmp_path, command):
    # the echo holds every value the run read, defaults included, and the seed it used
    cfg = write_cfg(tmp_path, ECHO_CASES[command])
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, "--config", cfg, "--out", str(first), "--seed", "5", "--strict"]) == 0
    echo = json.loads((first / "manifest.json").read_text())["config"]
    assert echo["seed"] == 5
    echo_cfg = write_cfg(tmp_path, yaml.safe_dump(echo), "echo.yaml")
    assert main([command, "--config", echo_cfg, "--out", str(again), "--strict"]) == 0
    assert json.loads((again / "manifest.json").read_text())["config"] == echo
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def dump_config(data: dict) -> str:
    """Canonical serialization; parse -> dump -> parse is idempotent."""
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)


def test_config_round_trip_idempotent(tmp_path):
    cfg_path = write_cfg(tmp_path, MISE_CFG)
    first = load_yaml(cfg_path)
    second = yaml.safe_load(dump_config(first))
    assert first == second
    assert dump_config(first) == dump_config(second)


def test_shipped_configs_parse(tmp_path):
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("sample.yaml", "mise_sweep.yaml", "bandwidth_vs_n.yaml",
                 "kl_check.yaml", "estimate_tau.yaml"):
        data = load_yaml(here / name)
        assert "seed" in data


def _one_config_error(capsys, out):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize("command, text, message", [
    ("sample", "seed: 1\nbaseline: {f: sine, sigma2: .nan, n: 5}\n",
     "baseline.sigma2: expected a finite number, got nan"),
    ("estimate-tau", TAU_CFG.replace("sigma2: 1.0", "sigma2: .nan").replace("0.25", ".inf"),
     "baseline.sigma2: expected a finite number, got nan"),
    ("estimate-tau", TAU_CFG.replace("delta2: 0.25", "delta2: .inf"),
     "rup.delta2: expected a finite number, got inf"),
    ("mise-sweep", MISE_CFG.replace("[0.0, 0.02]", "[0.0, -.inf]"),
     "rup.tau_grid[1]: expected a finite number, got -inf"),
    pytest.param("mise-sweep", MISE_CFG.replace("[0.3]", "{min: 0.5, max: 0.2, count: 2}"),
                 "lpe.h_grid.max: must be >= min", id="h-grid-max-below-min"),
    pytest.param("mise-sweep", MISE_CFG.replace("[0.3]", "{min: 0.2, max: 1.5, count: 2}"),
                 "lpe.h_grid.max: bandwidths must lie in (0, 1]", id="h-grid-max-above-one"),
    pytest.param("mise-sweep", MISE_CFG.replace("order: 1", "order: 6"),
                 "lpe.order: must be at most 5", id="lpe-order-6"),
    pytest.param("kl-check", KL_FIXED_CFG.replace("  reps: 20", "  reps: 20\n  x0: 1.5"),
                 "kl.x0: must lie in [0, 1]", id="kl-x0-1.5"),
    pytest.param("sample", PARTITION_SAMPLE_CFG.replace("sigma2: 1.0", "sigma2: 0"),
                 "baseline.sigma2: partition model needs sigma2 > 0",
                 id="partition-sigma2-0"),
    pytest.param("mise-sweep", MISE_CFG.replace("[0.3]", "[0.3, 1.5]"),
                 "lpe.h_grid: bandwidths must lie in (0, 1]", id="h-grid-list-above-one"),
    pytest.param("mise-sweep", MISE_CFG.replace("[0.05, 0.95]", "[0.5, 0.2]"),
                 "eval.window: expected [lo, hi] with 0 <= lo < hi <= 1", id="window-reversed"),
    pytest.param("mise-sweep", MISE_CFG.replace("[0.05, 0.95]", "[0.1, 1.5]"),
                 "eval.window: expected [lo, hi] with 0 <= lo < hi <= 1", id="window-above-one"),
    # finite numbers whose shift variance, or precision term, overflows
    pytest.param("sample", SAMPLE_CFG.replace("sigma2: 1.0", "sigma2: 10.0")
                 .replace("delta2: 0.25", "delta2: 1.0e+308"),
                 "rup.delta2: delta2 * baseline.sigma2 must be finite, got 1e+308 * 10",
                 id="sample-shift-variance-overflow"),
    pytest.param("estimate-tau", TAU_CFG.replace("sigma2: 1.0", "sigma2: 10.0")
                 .replace("delta2: 0.25", "delta2: 1.0e+308"),
                 "rup.delta2: delta2 * baseline.sigma2 must be finite, got 1e+308 * 10",
                 id="estimate-tau-shift-variance-overflow"),
    pytest.param("mise-sweep", MISE_CFG.replace("[0.0, 0.02]", "[0.0, 1.0e+308]"),
                 "rup.tau_grid[1]: tau * rup.b_x * baseline.sigma2 must be finite, "
                 "got 1e+308 * 5 * 0.5", id="mise-sweep-tau-overflow"),
    pytest.param("bandwidth-vs-n", MISE_CFG.replace("n: 150", "n_grid: [150]")
                 .replace("[0.0, 0.02]", "[4.0e+307]"),
                 "rup.tau_grid[0]: tau * rup.b_x * baseline.sigma2 must be finite, "
                 "got 4e+307 * 5 * 0.5", id="bandwidth-vs-n-tau-overflow"),
    pytest.param("kl-check", "seed: 1\nkl: {n_grid: [2, 3], delta2: 1.0e+308, reps: 2}\n",
                 "kl.delta2: max(kl.n_grid) * delta2 must be finite, got 3 * 1e+308",
                 id="kl-check-precision-overflow"),
    pytest.param("kl-check", "seed: 1\nbaseline: {sigma2: 100.0}\n"
                 "kl: {n_grid: [2, 3], delta2: 1.0e+307, reps: 2}\n",
                 "kl.delta2: delta2 * baseline.sigma2 must be finite, got 1e+307 * 100",
                 id="kl-check-shift-variance-overflow"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, text, message):
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert _one_config_error(capsys, out) == f"config error: {message}"


def _estimate_from(tmp_path, *csv_texts):
    paths = []
    for i, text in enumerate(csv_texts):
        path = tmp_path / f"d{i}.csv"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return write_cfg(tmp_path, yaml.safe_dump({"seed": 1, "tau_estimate": {"from_files": paths}}))


GOOD_CSV = "x,y,bucket_id,realization_id\n0.1,0.5,0,a\n0.2,-0.5,0,a\n0.7,1.0,1,a\n0.8,0.0,1,a\n"


def test_estimate_tau_missing_file_exits_2(tmp_path, capsys):
    cfg = _estimate_from(tmp_path, GOOD_CSV, None)
    out = tmp_path / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out)]) == 2
    assert _one_config_error(capsys, out) == (
        f"config error: tau_estimate.from_files: {tmp_path / 'd1.csv'} not found")


def test_estimate_tau_non_numeric_y_exits_2(tmp_path, capsys):
    cfg = _estimate_from(tmp_path, GOOD_CSV, GOOD_CSV.replace("-0.5", "abc"))
    out = tmp_path / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out)]) == 2
    assert _one_config_error(capsys, out).startswith(
        f"config error: tau_estimate.from_files: {tmp_path / 'd1.csv'} has a non-numeric y")


def test_estimate_tau_zero_noise_variance_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TAU_CFG.replace("sigma2: 1.0", "sigma2: 0"))
    out = tmp_path / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out)]) == 2
    assert _one_config_error(capsys, out) == (
        "config error: baseline.sigma2: the noise variance estimate is 0; "
        "estimating tau needs it positive")


def test_estimate_tau_one_point_per_bucket_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TAU_CFG.replace("n: 400", "n: 1").replace("b_x: 10", "b_x: 1"))
    out = tmp_path / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out)]) == 2
    assert _one_config_error(capsys, out) == (
        "config error: baseline.n: not enough points per bucket to estimate the noise variance")


@pytest.mark.parametrize("h_grid, code", [
    ("[1.0e-12, 0.3]", 0), ("[9.9e-13, 0.3]", 2),
    ("{min: 1.0e-12, max: 0.3, count: 2}", 0), ("{min: 9.9e-13, max: 0.3, count: 2}", 2)])
def test_h_grid_bandwidth_floor(tmp_path, capsys, h_grid, code):
    cfg = write_cfg(tmp_path, MISE_CFG.replace("h_grid: [0.3]", f"h_grid: {h_grid}"))
    out = tmp_path / "o"
    assert main(["mise-sweep", "--config", cfg, "--out", str(out)]) == code
    if code == 2:
        assert _one_config_error(capsys, out).endswith("bandwidths must be at least 1e-12")


def test_h_grid_linear_spacing_is_an_even_grid(tmp_path):
    cfg = write_cfg(tmp_path, MISE_CFG.replace(
        "[0.3]", "{min: 0.2, max: 0.5, count: 4, spacing: linear}"))
    out = tmp_path / "o"
    assert main(["mise-sweep", "--config", cfg, "--out", str(out), "--strict"]) == 0
    hs = sorted({float(r["h"]) for r in read_rows(out / "mise_curve.csv")})
    assert hs == np.linspace(0.2, 0.5, 4).tolist()


@pytest.mark.parametrize("text, message", [
    ("seed: [1\n", "is not valid YAML: "),
    ("- seed: 1\n", "must contain a mapping at top level"),
    ("", "must contain a mapping at top level"),
], ids=["not-yaml", "top-level-list", "empty"])
def test_config_that_is_not_a_yaml_mapping_exits_2(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    assert _one_config_error(capsys, out).startswith(f"config error: config file {cfg} {message}")


HEADER = "x,y,bucket_id,realization_id\n"


@pytest.mark.parametrize("second, message", [
    (None, "{path} cannot be read: "),
    (HEADER, "{path} has no data rows"),
    (HEADER + "0.1,0.5,0,a\n", "{path} has one data row; the noise variance needs two"),
    (GOOD_CSV.replace(",y,", ",z,"), "{path} lacks a 'y' column"),
    (GOOD_CSV.replace("-0.5", "inf"), "{path} has a non-finite y"),
    (GOOD_CSV.replace("-0.5", "nan"), "{path} has a non-finite y"),
    (GOOD_CSV.replace("1.0,1,a", "1.0,-1,a"), "{path}: bucket ids must be nonnegative"),
    (GOOD_CSV.replace("1.0,1,a", f"1.0,{2 ** 63},a"), "{path} has a non-numeric y or bucket_id"),
    (GOOD_CSV + "0.9,0.3,1,a\n", "realizations have unequal sizes"),
], ids=["directory", "header-only", "one-row", "no-y-column", "inf-y", "nan-y",
        "negative-bucket-id", "bucket-id-beyond-int64", "unequal-sizes"])
def test_estimate_tau_from_unusable_files_exits_2(tmp_path, capsys, second, message):
    cfg = _estimate_from(tmp_path, GOOD_CSV, second)
    if second is None:
        (tmp_path / "d1.csv").mkdir()
    out = tmp_path / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out)]) == 2
    assert _one_config_error(capsys, out).startswith(
        "config error: tau_estimate.from_files: " + message.format(path=tmp_path / "d1.csv"))


def _tau_report_from(tmp_path, name, *csv_texts):
    (tmp_path / name).mkdir()
    cfg = _estimate_from(tmp_path / name, *csv_texts)
    out = tmp_path / name / "o"
    assert main(["estimate-tau", "--config", cfg, "--out", str(out), "--strict"]) == 0
    return (out / "tau_report.csv").read_bytes()


def test_estimate_tau_from_files_with_huge_bucket_ids_equals_ids_0_to_k(tmp_path):
    # ids only label buckets: a bincount sized by an id of 1e15 would need petabytes
    datasets = []
    for seed in (101, 102):
        cfg = write_cfg(tmp_path, SAMPLE_CFG.replace("n: 5", "n: 300"), f"s{seed}.yaml")
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / f"r{seed}"),
                     "--seed", str(seed)]) == 0
        datasets.append((tmp_path / f"r{seed}" / "dataset.csv").read_text(encoding="utf-8"))
    assert all(f",{k}," in text for text in datasets for k in range(4))  # ids 0..3

    def respell(text, new_id):
        rows = text.splitlines(keepends=True)
        return rows[0] + "".join(
            ",".join(cells[:2] + [str(new_id(int(cells[2])))] + cells[3:])
            for cells in (row.split(",") for row in rows[1:]))

    plain = _tau_report_from(tmp_path, "plain", *datasets)
    assert _tau_report_from(tmp_path, "huge", *(
        respell(text, lambda k: 10 ** 15 if k == 3 else k) for text in datasets)) == plain
    assert _tau_report_from(tmp_path, "spaced", *(
        respell(text, lambda k: 7 + 100003 * k) for text in datasets)) == plain


def test_estimate_tau_from_files_without_bucket_ids_warns_and_strict_exits_3(tmp_path, capsys):
    no_ids = GOOD_CSV.replace(",0,a", ",,a").replace(",1,a", ",,a")
    cfg = _estimate_from(tmp_path, no_ids, no_ids.replace("1.0", "2.0"))
    assert main(["estimate-tau", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    expected = [f"warning: {tmp_path / name}: no bucket ids; sigma2 from raw variance "
                "(inflated by the shift variance)" for name in ("d0.csv", "d1.csv")]
    assert capsys.readouterr().err.strip().splitlines() == expected
    row = read_rows(tmp_path / "o" / "tau_report.csv")[0]
    ys = [[0.5, -0.5, 1.0, 0.0], [0.5, -0.5, 2.0, 0.0]]
    assert float(row["sigma2_hat"]) == float(np.mean([np.var(y, ddof=1) for y in ys]))
    assert main(["estimate-tau", "--config", cfg, "--out", str(tmp_path / "s"), "--strict"]) == 3


def test_estimate_tau_of_a_sine_baseline_warns_and_strict_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TAU_CFG.replace("f: zero", "f: sine"))
    assert main(["estimate-tau", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    expected = ["warning: baseline.f is not 'zero': outcome means also vary with f; "
                "the estimate assumes centered outcomes"]
    assert capsys.readouterr().err.strip().splitlines() == expected
    assert main(["estimate-tau", "--config", cfg, "--out", str(tmp_path / "s"), "--strict"]) == 3


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_run_keeps_freed_heap_instead_of_faulting_it_back_in():
    # a fresh interpreter, so no earlier import has moved glibc's dynamic thresholds
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import resource
import numpy as np
from rupsim.cli import _keep_freed_heap
_keep_freed_heap()
def churn():  # three 320 KB temporaries alive at once, then freed
    return len([np.ones(40_000) for _ in range(3)])
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # trimmed and faulted back in after every round, they take about 12k faults
    assert int(proc.stdout) < 1000
