"""Every function the benchmark tracer wraps exists where it looks."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ghzcert_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    traced = _load_tracing().TRACED
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"ghzcert.{layer}")
        for name in names:
            function = getattr(module, name, None)
            assert callable(function), f"ghzcert.{layer}.{name} is missing"
            assert function.__module__ == module.__name__, \
                f"ghzcert.{layer}.{name} is defined in {function.__module__}"
