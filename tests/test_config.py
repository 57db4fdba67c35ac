import contextlib
import copy
import io
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rupsim.cli import main
from rupsim.config import Conf, ConfigError

MISSING = object()

# (getter, keyword arguments, value at blk.k, exact message); append new rows at the
# end, since each test id carries its row's index
GETTER_MESSAGES = [
    ("get_int", {"ge": 1}, MISSING, "blk.k: required field is missing"),
    ("get_int", {"ge": 1}, "ten", "blk.k: expected int, got 'ten'"),
    ("get_int", {"ge": 1}, True, "blk.k: expected int, got True"),
    ("get_int", {"ge": 1}, 1.5, "blk.k: expected int, got 1.5"),
    ("get_int", {"ge": 1}, 0, "blk.k: expected int >= 1, got 0"),
    ("get_float", {"ge": 0.0}, MISSING, "blk.k: required field is missing"),
    ("get_float", {"ge": 0.0}, "x", "blk.k: expected number, got 'x'"),
    ("get_float", {"ge": 0.0}, False, "blk.k: expected number, got False"),
    ("get_float", {"ge": 0.0}, -1, "blk.k: expected >= 0.0, got -1.0"),
    ("get_float", {"gt": 0.0}, 0, "blk.k: expected > 0.0, got 0.0"),
    ("get_float", {"ge": 0.0}, math.nan, "blk.k: expected a finite number, got nan"),
    ("get_float", {}, math.inf, "blk.k: expected a finite number, got inf"),
    ("get_float", {"gt": 0.0}, -math.inf, "blk.k: expected a finite number, got -inf"),
    ("get_str", {}, MISSING, "blk.k: required field is missing"),
    ("get_str", {"choices": ("b", "a")}, 3, "blk.k: expected string, got 3"),
    ("get_str", {"choices": ("b", "a")}, "c", "blk.k: expected one of ['a', 'b'], got 'c'"),
    ("get_float_list", {}, MISSING, "blk.k: required field is missing"),
    ("get_float_list", {"ge": 0.0}, 5,
     "blk.k: expected a list of at least 1 number(s), got 5"),
    ("get_float_list", {"min_len": 2}, [1.0],
     "blk.k: expected a list of at least 2 number(s), got [1.0]"),
    ("get_float_list", {"ge": 0.0}, [1.0, "x"], "blk.k[1]: expected number, got 'x'"),
    ("get_float_list", {"ge": 0.0}, [-2], "blk.k[0]: expected >= 0.0, got -2.0"),
    ("get_float_list", {}, [0.5, math.nan], "blk.k[1]: expected a finite number, got nan"),
    ("get_int_list", {"ge": 1}, MISSING, "blk.k: required field is missing"),
    ("get_int_list", {"ge": 1}, [], "blk.k: expected a list of at least 1 integer(s), got []"),
    ("get_int_list", {"ge": 1}, [1, 2.0], "blk.k[1]: expected int, got 2.0"),
    ("get_int_list", {"ge": 1}, [1, True], "blk.k[1]: expected int, got True"),
    # list items say "expected >= 1" where the scalar getter says "expected int >= 1"
    ("get_int_list", {"ge": 1}, [0], "blk.k[0]: expected >= 1, got 0"),
    ("get_str_list", {}, MISSING, "blk.k: required field is missing"),
    ("get_str_list", {"min_len": 2}, ["a"],
     "blk.k: expected a list of at least 2 string(s), got ['a']"),
    ("get_str_list", {}, "a", "blk.k: expected a list of at least 1 string(s), got 'a'"),
    ("get_str_list", {}, ["a", 1], "blk.k[1]: expected string, got 1"),
    ("get_float", {"gt": 0.0}, "1e-17", "blk.k: expected number, got '1e-17' (YAML 1.1 "
     "reads a number without a dot as a string; write 1.0e-17)"),
    ("get_float", {}, "nan", "blk.k: expected number, got 'nan'"),
    ("get_float_list", {}, [0.5, "2.5E3"], "blk.k[1]: expected number, got '2.5E3' (YAML 1.1 "
     "reads a number without a dot as a string; write 2.5E+3)"),
]


@pytest.mark.parametrize("getter, kwargs, value, message", GETTER_MESSAGES)
def test_getter_messages(getter, kwargs, value, message):
    conf = Conf({} if value is MISSING else {"k": value}, "blk")
    with pytest.raises(ConfigError) as info:
        getattr(conf, getter)("k", **kwargs)
    assert str(info.value) == message


def test_getters_return_typed_values_and_unchecked_defaults():
    conf = Conf({"i": 3, "f": 2, "s": "a", "fl": [1, 0.5], "il": [2], "sl": ["x"]})
    assert conf.get_int("i", ge=1) == 3
    assert conf.get_float("f", gt=0.0) == 2.0 and isinstance(conf.get_float("f"), float)
    assert conf.get_str("s", choices=("a",)) == "a"
    assert conf.get_float_list("fl") == [1.0, 0.5]
    assert conf.get_int_list("il", ge=1) == [2]
    assert conf.get_str_list("sl") == ["x"]
    assert conf.get_float("absent", default=math.nan) is math.nan
    assert conf.get_int_list("absent", default=None) is None


def test_block_messages_and_empty_optional_block():
    root = Conf({"b": 5})
    with pytest.raises(ConfigError, match=r"^b: expected a mapping, got int$"):
        root.block("b")
    with pytest.raises(ConfigError, match=r"^b: expected a mapping, got int$"):
        root.block("b", required=False)
    with pytest.raises(ConfigError, match=r"^c: required block is missing$"):
        root.block("c")
    empty = root.block("c", required=False)
    assert empty.get_float("x", default=1.5) == 1.5
    with pytest.raises(ConfigError, match=r"^c\.x: required field is missing$"):
        empty.get_float("x")


@pytest.mark.parametrize("text", ["1e-17", "5E3", "-2e+4", "1.5e3", ".5e3", "+12e0"])
def test_suggested_spelling_is_read_by_yaml_as_the_same_float(text):
    assert isinstance(yaml.safe_load(f"k: {text}")["k"], str)
    with pytest.raises(ConfigError) as info:
        Conf({"k": text}).get_float("k")
    suggested = str(info.value).rsplit("write ", 1)[1].rstrip(")")
    assert yaml.safe_load(f"k: {suggested}")["k"] == float(text)


def test_unread_lists_keys_no_getter_read_in_file_order():
    root = Conf({"seed": 1, "rup": {"model": "x", "detla2": 9.0, "w": {"kind": "exp"}},
                 "extra": {"a": 1}, "lpe": {"order": 1}})
    root.get_int("seed")
    rup = root.block("rup")
    rup.get_str("model")
    rup.block("w", required=False)
    root.block("absent", required=False).get_int("k", default=0)
    assert root.unread() == ["rup.detla2", "rup.w.kind", "extra", "lpe"]
    root.block("lpe").get_int("order")
    rup.block("w").get_str("kind")
    assert root.unread() == ["rup.detla2", "extra"]


def test_record_holds_what_the_getters_returned_defaults_included():
    root = Conf({"seed": 3, "rup": {"b_x": 4, "w": {"kind": "exp"}}, "grid": [1, 2]})
    root.get_int("seed")
    rup = root.block("rup")
    rup.get_int("b_x")
    rup.get_float("delta2", default=0.5)
    rup.block("w").get_str("kind")
    grid = root.get_float_list("grid")
    root.block("opt", required=False).get_int("k", default=7)
    root.block("peeked", required=False)
    assert root.record == {"seed": 3, "rup": {"b_x": 4, "delta2": 0.5, "w": {"kind": "exp"}},
                           "grid": [1.0, 2.0], "opt": {"k": 7}, "peeked": {}}
    assert all(isinstance(h, float) for h in root.record["grid"])
    grid.append(3.0)  # the record keeps its own copy of a list
    assert root.record["grid"] == [1.0, 2.0]
    assert root.unread() == []


def test_misspelled_key_warns_and_strict_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("seed: 1\nbaseline: {f: sine, sigma2: 1.0, n: 5}\n"
                   "rup: {model: correlated_noise, b_x: 4, delta2: 0.25, detla2: 9.0}\n"
                   "eval: {grid_pionts: 5}\n", encoding="utf-8")
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: config key rup.detla2 was never read",
                   "warning: config key eval was never read"]
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "b"), "--strict"]) == 3


def test_seed_override_reads_the_config_seed(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("seed: 1\nbaseline: {f: sine, sigma2: 1.0, n: 5}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--out", str(out), "--seed", "4", "--strict"]) == 0
    cfg.write_text("seed: -1\nbaseline: {f: sine, sigma2: 1.0, n: 5}\n", encoding="utf-8")
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "p"), "--seed", "4"]) == 2
    assert capsys.readouterr().err.strip() == "config error: seed: expected int >= 0, got -1"


# ------------------------------------------------------------- config fuzzer

def _configs(tmp: Path) -> dict:
    """A small valid config of every subcommand; from_files reads tmp/a.csv and tmp/b.csv."""
    sweep = {"seed": 3, "output": {"dir": "out"},
             "rup": {"model": "correlated_noise", "b_x": 4, "tau_grid": [0.0, 0.01]},
             "lpe": {"order": 1, "kernel": "epanechnikov",
                     "h_grid": {"min": 0.2, "max": 0.5, "count": 2, "spacing": "log"}},
             "eval": {"window": [0.05, 0.95], "grid_points": 5}, "mc": {"reps": 2}}
    grid_sweep = copy.deepcopy(sweep)
    grid_sweep["lpe"]["h_grid"] = [0.3, 0.5]
    return {
        "sample": {"seed": 1, "baseline": {"f": "sine", "sigma2": 1.0, "n": 20},
                   "rup": {"model": "partition", "b_x": 4, "b_eps": 5,
                           "weight_law": {"kind": "lognormal", "var_over_mean_sq": 0.5}}},
        "mise-sweep": {**sweep, "baseline": {"f": "sine", "sigma2": 0.5, "n": 40}},
        "bandwidth-vs-n": {**grid_sweep, "baseline": {"f": "sine", "sigma2": 0.5,
                                                      "n_grid": [30, 60]}},
        "kl-check": {"seed": 4, "baseline": {"sigma2": 1.0},
                     "kl": {"n_grid": [20, 40], "delta2": 0.5, "beta": 1.0,
                            "holder_const": 1.0, "x0": 0.5, "bucket_rule": "fixed",
                            "b_x": 4, "reps": 3}},
        "estimate-tau": {"seed": 5, "baseline": {"f": "zero", "sigma2": 1.0, "n": 30},
                         "rup": {"model": "correlated_noise", "b_x": 3, "delta2": 0.2},
                         "mc": {"j": 3}, "bandwidth": {"beta": 2.0}},
        "estimate-tau from files": {"seed": 6, "tau_estimate": {
            "from_files": [str(tmp / "a.csv"), str(tmp / "b.csv")]}},
    }


def _paths(node, prefix=()):
    """Every key path and list index path into a config, blocks and lists included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


CASES = [(name, path) for name, cfg in _configs(Path(".")).items() for path in _paths(cfg)]
DROP = object()
# dropped, wrong type, out of range, non-finite, unknown choice
MUTATIONS = [DROP, "bogus", True, [], {"k": 1}, -1, 0, -0.5, math.nan, math.inf, -math.inf]

DATASET = "x,y,bucket_id,realization_id\n" + "".join(
    f"{i / 10},{(-1) ** i * i / 7},{i % 2},xi00000\n" for i in range(1, 9))


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), mutation=st.sampled_from(MUTATIONS))
def test_mutated_configs_end_in_a_documented_exit(case, mutation):
    name, path = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for csv_name in ("a.csv", "b.csv"):
            (tmp / csv_name).write_text(DATASET, encoding="utf-8")
        cfg = _configs(tmp)[name]
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if mutation is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(mutation)
        (tmp / "run.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        out = tmp / "new" / "o"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([name.split()[0], "--config", str(tmp / "run.yaml"), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if isinstance(mutation, float) and not math.isfinite(mutation):
            assert code == 2  # every field of these configs is read, and none may be NaN or inf
        if code in (2, 4):
            assert not (tmp / "new").exists()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("config error: " if code == 2 else "numeric dead end: ")
        else:
            assert (out / "manifest.json").exists()


@pytest.mark.parametrize("name", sorted(_configs(Path("."))))
def test_valid_configs_read_every_key(name, tmp_path):
    for csv_name in ("a.csv", "b.csv"):
        (tmp_path / csv_name).write_text(DATASET, encoding="utf-8")
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(_configs(tmp_path)[name]), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([name.split()[0], "--config", str(tmp_path / "run.yaml"),
                     "--out", str(tmp_path / "o")])
    assert code == 0
    assert "never read" not in err.getvalue()
