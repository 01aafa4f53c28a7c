"""The names ``benchmarks/tracing.py`` patches must exist in the program.

``bench.py --trace 1`` wraps module attributes by name. A refactor that
drops or moves one of them would break the traced benchmark only when it
runs; this test names the missing attribute instead.
"""


def test_every_traced_attribute_exists(benchmark_module):
    targets = benchmark_module("tracing").Tracer()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
