"""Every function the benchmark traces still exists in rupsim.

bench/spans.py reports a target it cannot resolve as missing and leaves its
metrics None; only the benchmark's trace run would then fail. This test
fails first, so deleting or renaming a traced name shows up under pytest.
It reads bench/ and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: t.name)
def test_every_traced_target_resolves(target):
    _, _, original = spans._resolve(target)
    assert callable(original), f"{target.module}.{target.attr} is not in rupsim"
