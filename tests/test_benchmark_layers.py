"""The benchmark's per-layer figures name functions that exist.

A traced benchmark run looks up every per-layer key of BENCHMARK.json and
fails on one that no traced function produced; this check fails first, in
the test suite, when a refactor drops or renames such a function.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_KEY = re.compile(r"(?P<layer>\w+)\.(?P<function>\w+)\.(s|self_s|calls)")


def function_keys() -> list[tuple[str, str]]:
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    found = [FUNCTION_KEY.fullmatch(name) for name in names]
    return [(m["layer"], m["function"]) for m in found if m]


def test_benchmark_declares_function_keys():
    assert len(function_keys()) >= 10


@pytest.mark.parametrize("layer, function", function_keys())
def test_per_layer_key_is_a_public_function(layer, function):
    module = importlib.import_module(f"gegopt.{layer}")
    assert function in module.__all__
    obj = getattr(module, function)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
