"""In-memory span tracing around netdrift's public functions.

The tracer replaces module attributes with wrappers for the duration of a
``with tracer.patched():`` block and restores them afterwards; nothing under
``src/`` is edited. Each call becomes one span: name, layer, start, end,
parent index and an optional count (steps simulated, rows written, ...).
A layer's self time is its spans' durations minus the part covered by their
child spans. The code is single-threaded, so children nest strictly inside
their parent and the subtraction is exact.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "experiment", "problems", "topology", "algorithms", "analysis", "records")


@dataclass
class Span:
    name: str
    layer: str
    phase: str
    start: float
    parent: int
    end: float = 0.0
    count: int = 0
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def _steps(args, kwargs, result):
    # algorithms.run(algorithm, objective, wm, alpha, horizon, ...)
    return int(args[4] if len(args) > 4 else kwargs["horizon"])


def _rows_written(args, kwargs, result):
    return len(args[0])


def _rows_read(args, kwargs, result):
    return len(result)


def _csv_path(args, kwargs):
    return str(args[1])


def _algorithm(args, kwargs):
    return str(args[0] if args else kwargs.get("algorithm", ""))


class Tracer:
    """Collects spans for the calls made while its patches are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []

    def _wrap(self, name, layer, fn, count=None, label=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, self.phase, perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            if label is not None:
                span.label = label(args, kwargs)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, layer, count, label) for every wrapped callable.

        Functions are patched in the namespace of the module that calls them,
        so a call made through ``from .x import f`` is traced as well.
        """
        from netdrift import analysis, cli, experiment, problems, topology

        return [
            (cli, "main", "cli.main", "cli", None, None),
            (cli, "run_suite", "experiment.run_suite", "experiment", None, None),
            (cli, "load_config", "experiment.load_config", "experiment", None, None),
            (cli, "audit_record_file", "experiment.audit_record_file", "experiment", None, None),
            (cli, "audit_recursions", "analysis.audit_recursions", "analysis", None, None),
            (experiment, "build_objective", "experiment.build_objective", "experiment", None, None),
            (experiment, "build_network", "experiment.build_network", "experiment", None, None),
            (experiment, "tune_stepsize", "experiment.tune_stepsize", "experiment", None, None),
            (experiment, "run_single", "experiment.run_single", "experiment", None, None),
            (experiment, "init_state", "algorithms.init_state", "algorithms", None, None),
            (experiment, "run", "algorithms.run", "algorithms", _steps, _algorithm),
            (experiment, "steady_state_bound", "analysis.steady_state_bound", "analysis", None, None),
            (experiment, "write_record", "records.write_record", "records", _rows_written,
             _csv_path),
            (experiment, "read_record", "records.read_record", "records", _rows_read, None),
            (experiment, "least_squares_stream", "problems.least_squares_stream", "problems", None, None),
            (experiment, "shifting_consensus", "problems.shifting_consensus", "problems", None, None),
            (experiment, "drift_profile", "problems.drift_profile", "problems", None, None),
            (problems, "drift_profile", "problems.drift_profile", "problems", None, None),
            (problems.LeastSquaresStream, "gradient_stack", "problems.gradient_stack", "problems", None, None),
            (problems.ShiftingConsensus, "gradient_stack", "problems.gradient_stack", "problems", None, None),
            (experiment, "calibrate_beta", "topology.calibrate_beta", "topology", None, None),
            (experiment, "build_random", "topology.build_random", "topology", None, None),
            (experiment, "build_cycle", "topology.build_cycle", "topology", None, None),
            (experiment, "build_line", "topology.build_line", "topology", None, None),
            (experiment, "build_grid", "topology.build_grid", "topology", None, None),
            (experiment, "build_complete", "topology.build_complete", "topology", None, None),
            (experiment, "metropolis_weights", "topology.metropolis_weights", "topology", None, None),
            (experiment, "uniform_neighbor_weights", "topology.uniform_neighbor_weights", "topology",
             None, None),
            (topology, "build_random", "topology.build_random", "topology", None, None),
            (topology, "metropolis_weights", "topology.metropolis_weights", "topology", None, None),
            (topology, "spectral_gap", "topology.spectral_gap", "topology", None, None),
            (analysis, "max_stepsize", "analysis.max_stepsize", "analysis", None, None),
        ]

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, layer, count, label in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, layer, original, count, label))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def written_bytes(self) -> int:
        """Size of every record written under tracing: CSV plus JSON sidecar."""
        from netdrift.records import sidecar_path

        paths = [Path(s.label) for s in self.spans if s.name == "records.write_record"]
        return sum(p.stat().st_size + sidecar_path(p).stat().st_size for p in paths)
