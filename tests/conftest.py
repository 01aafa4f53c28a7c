"""Helpers shared by the test modules."""

import tracemalloc

import pytest


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
