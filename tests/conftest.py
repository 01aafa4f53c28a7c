"""Helpers shared by the test modules."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _traced_peak(call):
    """Run ``call()`` under tracemalloc; return the peak bytes it traced and the call's result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


def _load_benchmark_module(name):
    """Import ``benchmarks/<name>.py`` under a private name, leaving the file and sys.modules as they were."""
    spec = importlib.util.spec_from_file_location(f"netdrift_bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def benchmark_module():
    return _load_benchmark_module
