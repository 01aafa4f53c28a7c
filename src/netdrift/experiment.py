"""Config-driven experiment harness.

A text config (``key = value`` lines) selects a scenario, a topology, a
step-size grid, and the methods to compare. ``run_suite`` builds the network
and the drifting objective, tunes each method's step size by tail error in
one multi-lane pass over the whole grid, and persists the winning lane's
record, one CSV per method, plus a summary table. Everything is seeded, so
identical configs produce byte-identical output trees.

Scenarios:

- ``I``: streaming least squares with the optimum moving on the unit circle.
- ``II``: shifting consensus, targets reassigned by p+1 positions per step,
  so per-agent gradients jump violently while their average stays fixed.
- ``III``: the same construction with a unit shift per step.
- ``static``: shift 0, i.e. a fixed consensus problem with zero drift.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, init_state, run
from .analysis import ANALYSED_METHODS, RegimeError, steady_state_bound
from .problems import DriftProfile, drift_profile, least_squares_stream, shifting_consensus
from .records import TrajectoryRecord, read_record, sidecar_path, write_record
from .topology import (
    ConstructionError,
    Graph,
    WeightMatrix,
    WeightRuleError,
    build_complete,
    build_cycle,
    build_grid,
    build_line,
    build_random,
    calibrate_beta,
    metropolis_weights,
    uniform_neighbor_weights,
)

OUTPUT_ROOT_ENV = "NETDRIFT_OUTPUT"

SCENARIOS = ("I", "II", "III", "static")
TOPOLOGIES = ("cycle", "line", "grid", "complete", "random")
WEIGHT_RULES = ("uniform", "metropolis")
INITS = ("zeros", "optimum")
# The keys whose value is one of a fixed set of names, and those names.
_CHOICES = {"scenario": SCENARIOS, "topology": TOPOLOGIES, "weight_rule": WEIGHT_RULES, "init": INITS}
# Keys that only one topology reads, and that topology.
_TOPOLOGY_KEYS = {"edge_probability": "random", "target_beta": "random", "rows": "grid", "cols": "grid"}
# Keys that only some scenarios read, and those scenarios.
_SCENARIO_KEYS = {"n": "I", "p": "II/III/static", "shift": "II/III/static"}
# Counts that size an array axis, each with the (a, b) of its axis length a * value + b:
# p sizes 2p + 1 agents, horizon the horizon + 1 recorded rows.
_AXIS_COUNTS = {"n": (1, 0), "p": (2, 1), "horizon": (1, 1), "grid_points": (1, 0), "rows": (1, 0),
                "cols": (1, 0)}


# Each ExperimentConfig annotation: how to read a value (for a tuple, each of its
# items), the value's types, its items' types for a tuple or list, and how to name
# them. A bool is no number, though Python counts it an int; numpy's integers and
# floats are numbers, stored as the Python int or float the reader gives.
_INTEGER, _NUMBER, _SEQUENCE = (int, np.integer), (int, float, np.integer, np.floating), (tuple, list)
_FIELD_TYPES = {
    "str": (str, (str,), None, "a string"),
    "str | None": (str, (str, type(None)), None, "a string or None"),
    "int": (int, _INTEGER, None, "an integer"),
    "int | None": (int, (*_INTEGER, type(None)), None, "an integer or None"),
    "float | None": (float, (*_NUMBER, type(None)), None, "a number or None"),
    "tuple[float, ...] | None": (float, (*_SEQUENCE, type(None)), _NUMBER, "a tuple of numbers or None"),
    "tuple[str, ...]": (str, _SEQUENCE, (str,), "a tuple of strings"),
}


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class DivergenceError(RuntimeError):
    """A run produced non-finite tracking error."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite tracking error first appears at iteration {iteration}")
        self.iteration = iteration


class TuningError(RuntimeError):
    """Every step size on the tuning grid diverged."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    ``n`` sizes the network for scenario I; scenarios II/III/static derive
    n = 2p+1 from ``p``. ``stepsizes`` overrides the default tuning grid of
    ``grid_points`` log-spaced values spanning [1e-4, 1] * 2/(mu+L).
    ``shift`` defaults to p+1 for scenario II, 1 for III, and 0 for static.
    Scenario I gives each agent one least-squares row per step, and the
    consensus targets are 1, ..., n; neither is a key. Nor is the tail
    window: a run scores its mean tracking error over the final
    ceil(tail_fraction * horizon) steps, with ``tail_fraction`` fixed at 0.2.
    Construction checks every key; what depends on the graph, build_network checks.
    Each value is checked against its field's type and then stored as that
    Python type (a numpy number as an ``int`` or ``float``, a list as a
    tuple), through the same ``_FIELD_TYPES`` reader that ``parse_config``
    applies to text.
    """

    scenario: str
    topology: str = "cycle"
    n: int | None = None
    rows: int | None = None
    cols: int | None = None
    edge_probability: float | None = None
    target_beta: float | None = None
    weight_rule: str = "metropolis"
    horizon: int = 1000
    stepsizes: tuple[float, ...] | None = None
    grid_points: int = 30
    algorithms: tuple[str, ...] = ("diffusion", "dgt")
    seed: int = 0
    output_dir: str | None = None
    p: int | None = None
    shift: int | None = None
    init: str = "zeros"
    tail_fraction = 0.2  # a class constant, not a field

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            read, types, items, kind = _FIELD_TYPES[f.type]
            if not _is(value, types) or (items and value is not None and not all(_is(v, items) for v in value)):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if value is None:
                continue
            try:  # float() overflows on an int beyond the float range
                object.__setattr__(self, f.name, tuple(map(read, value)) if items else read(value))
            except OverflowError:
                raise ConfigError(f"{f.name} must be {kind} in the float range, got {value!r}") from None
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}; expected one of {choices}")
        if self.horizon < 10:
            raise ConfigError(f"horizon must be at least 10, got {self.horizon}")
        if self.seed < 0:  # numpy's seed sequences take nonnegative integers only
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.stepsizes is not None:
            if not self.stepsizes:
                raise ConfigError("stepsizes must be nonempty when given")
            if not all(a > 0 for a in self.stepsizes):  # also rejects nan
                raise ConfigError(f"stepsizes must be positive, got {list(self.stepsizes)}")
            if not all(map(math.isfinite, self.stepsizes)):
                raise ConfigError(f"stepsizes must be finite, got {list(self.stepsizes)}")
            if any(b <= a for a, b in zip(self.stepsizes, self.stepsizes[1:])):
                raise ConfigError("stepsizes must be strictly increasing")
        if self.grid_points < 1:
            raise ConfigError("grid_points must be positive")
        if not self.algorithms:
            raise ConfigError("algorithms must be nonempty")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigError(f"unknown algorithms {unknown}; expected among {ALGORITHMS}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError(f"algorithms must not repeat a method, got {list(self.algorithms)}")
        if self.edge_probability is not None and not 0 < self.edge_probability <= 1:
            raise ConfigError(f"edge_probability must lie in (0, 1], got {self.edge_probability}")
        if self.target_beta is not None and not 0 < self.target_beta < 1:
            raise ConfigError(f"target_beta must lie in (0, 1), got {self.target_beta}")
        if self.edge_probability is not None and self.target_beta is not None:
            raise ConfigError("edge_probability and target_beta are both set; give one of them")
        for key, topology in _TOPOLOGY_KEYS.items():
            if getattr(self, key) is not None and self.topology != topology:
                raise ConfigError(f"{key} applies to a {topology} topology only, not to {self.topology}")
        for key, (a, b) in _AXIS_COUNTS.items():  # numpy indexes an axis with np.intp
            value, limit = getattr(self, key), (np.iinfo(np.intp).max - b) // a
            if value is not None and value > limit:
                raise ConfigError(f"{key} must be at most {limit}, got {value}")
        for key, readers in _SCENARIO_KEYS.items():
            if self.scenario not in readers.split("/") and getattr(self, key) is not None:
                raise ConfigError(f"{key} applies to scenario {readers} only, not to {self.scenario}")
        if self.scenario == "I":
            if self.n is None:
                raise ConfigError("scenario I needs n, the number of agents")
            minimum = 3 if self.topology == "cycle" else 2
            if self.n < minimum:
                raise ConfigError(
                    f"n must be at least {minimum} for a {self.topology} topology, got {self.n}"
                )
        else:
            if self.p is None or self.p < 1:
                raise ConfigError("scenarios II/III/static need p >= 1")
            if self.scenario == "static" and self.shift not in (None, 0):
                raise ConfigError("the static scenario has shift 0 by definition")
            if self.shift is not None and self.shift < 0:
                raise ConfigError(f"shift must be nonnegative, got {self.shift}")
        # What each topology needs; calibrate_beta builds Metropolis weights only.
        if self.topology == "random" and self.edge_probability is None and self.target_beta is None:
            raise ConfigError("random topology needs edge_probability or target_beta")
        if self.target_beta is not None and self.weight_rule != "metropolis":
            raise ConfigError(f"target_beta needs weight_rule = metropolis, got {self.weight_rule!r}")
        if self.topology == "grid":
            if self.rows is None or self.cols is None:
                raise ConfigError("grid topology needs rows and cols")
            size = self.network_size
            if min(self.rows, self.cols) < 1 or self.rows * self.cols != size:
                raise ConfigError(f"grid rows x cols = {self.rows}x{self.cols} does not hold {size} agents")

    @property
    def network_size(self) -> int:
        return self.n if self.scenario == "I" else 2 * self.p + 1

    @property
    def resolved_shift(self) -> int:
        if self.shift is not None:
            return self.shift
        if self.scenario == "II":
            return self.p + 1
        return 1 if self.scenario == "III" else 0


def parse_config(text: str) -> ExperimentConfig:
    """Parse the ``key = value`` config format (# comments, blank lines ok)."""
    known = {f.name: _FIELD_TYPES[f.type] for f in fields(ExperimentConfig)}
    kwargs: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: config key {key!r} repeats the one on line {first_line[key]}"
            )
        first_line[key] = lineno
        read, _, items, _ = known[key]
        try:
            kwargs[key] = tuple(read(tok.strip()) for tok in value.split(",")) if items else read(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse {key} = {value!r}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Path | str) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def build_network(config: ExperimentConfig) -> tuple[Graph, WeightMatrix]:
    """Materialize the topology and its mixing matrix for the config.

    The config has checked its keys; the graph built can still fail to
    connect, miss its calibration or refuse the weight rule, each raised as
    a ``ConfigError`` naming that key.
    """
    size = config.network_size
    if config.topology == "random":
        if config.target_beta is not None:
            try:
                _, graph, wm = calibrate_beta(size, config.target_beta, config.seed)
            except ValueError as exc:
                message = f"target_beta {config.target_beta} is out of reach for {size} agents: {exc}"
                raise ConfigError(message) from exc
            return graph, wm
        try:
            graph = build_random(size, config.edge_probability, config.seed)
        except ConstructionError as exc:
            message = f"edge_probability {config.edge_probability} is too small for {size} agents: {exc}"
            raise ConfigError(message) from exc
    elif config.topology == "cycle":
        graph = build_cycle(size)
    elif config.topology == "line":
        graph = build_line(size)
    elif config.topology == "complete":
        graph = build_complete(size)
    else:
        graph = build_grid(config.rows, config.cols)
    rule = uniform_neighbor_weights if config.weight_rule == "uniform" else metropolis_weights
    try:
        return graph, rule(graph)
    except WeightRuleError as exc:
        message = f"weight_rule {config.weight_rule!r} does not apply to a {config.topology} network: {exc}"
        raise ConfigError(message) from exc


def build_objective(config: ExperimentConfig):
    if config.scenario == "I":
        return least_squares_stream(n=config.n, horizon=config.horizon, seed=config.seed)
    return shifting_consensus(p=config.p, shift=config.resolved_shift, horizon=config.horizon)


def _tail(record: TrajectoryRecord, tail_fraction: float) -> np.ndarray:
    """The normalized tracking error over the final ceil(tail_fraction*M) steps."""
    window = math.ceil(tail_fraction * (len(record) - 1))
    if window < 1:
        raise ValueError("tail window is empty; record too short for this tail_fraction")
    return record.tracking_error[-window:]


def steady_state_error(record: TrajectoryRecord, tail_fraction: float) -> float:
    """Mean normalized tracking error over the tail window."""
    finite = np.isfinite(record.tracking_error)
    if not finite.all():
        raise DivergenceError(int(np.argmin(finite)))
    return float(_tail(record, tail_fraction).mean())


def default_grid(config: ExperimentConfig, mu: float, lipschitz: float) -> tuple[float, ...]:
    top = 2 / (mu + lipschitz)
    return tuple(top * np.logspace(-4.0, 0.0, config.grid_points))


def run_single(config, objective, wm, algorithm, alpha):
    """One configured run of a method on a prebuilt objective and network.

    Like ``algorithms.run``, a sequence of step sizes runs them all in one
    pass and returns one record per step size.
    """
    initial = None
    if config.init == "optimum":
        x0 = np.tile(objective.optimum(0), (objective.n, 1))
        initial = init_state(algorithm, objective, wm, x0)
    return run(
        algorithm,
        objective,
        wm,
        alpha,
        config.horizon,
        initial_state=initial,
        seed=config.seed,
        scenario=config.scenario,
    )


def tune_stepsize(
    config: ExperimentConfig, algorithm: str, objective, wm: WeightMatrix
) -> tuple[float, TrajectoryRecord]:
    """Sweep the grid in one multi-lane run on a prebuilt objective and network.

    Each step size scores its ``steady_state_error``, the mean tracking error
    over the final ceil(0.2 * horizon) steps, or inf if its tracking error is
    ever non-finite. Returns the lowest-scoring step, the larger one on a
    tie, and its record.
    """
    grid = config.stepsizes or default_grid(config, objective.mu, objective.lipschitz)
    records = run_single(config, objective, wm, algorithm, grid)
    scores = [
        float(_tail(r, config.tail_fraction).mean()) if np.isfinite(r.tracking_error).all() else math.inf
        for r in records
    ]
    best = min(range(len(grid)), key=lambda i: (scores[i], -i))
    if scores[best] == math.inf:
        key = "stepsizes" if config.stepsizes else "grid_points"
        raise TuningError(f"every step size diverged: {[float(a) for a in grid]}; the grid comes from {key}")
    return float(grid[best]), records[best]


@dataclass(frozen=True)
class SummaryRow:
    """One method's line of the suite table; its fields are the table's columns, in order."""

    algorithm: str
    alpha: float
    beta: float
    n: int
    steady_state_error: float
    theory_bound: float | None


@dataclass(frozen=True)
class SuiteResult:
    directory: Path
    rows: tuple[SummaryRow, ...]


def resolve_output_dir(config: ExperimentConfig) -> Path:
    sub = Path(config.output_dir) if config.output_dir else Path(f"suite_{config.scenario}")
    if sub.is_absolute():
        return sub
    return Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / sub


def run_suite(config: ExperimentConfig) -> SuiteResult:
    """Build the problem and network, tune each method, then persist every tuned record and the summary.

    Every method is tuned, bounded and stamped with the drift constants
    before the output directory is created, so a ``TuningError`` (or any
    other failure before the writes) leaves no directory and no file.
    The summary's theory_bound column holds the steady-state bound divided by
    the problem's normalization constant, so it compares directly against the
    steady_state_error column; it is left empty for a method outside
    ``ANALYSED_METHODS`` and when the tuned step size falls outside the
    regime where the bound applies.
    """
    objective = build_objective(config)
    _, wm = build_network(config)
    drift = drift_profile(objective)
    records, rows = [], []
    for algorithm in config.algorithms:
        alpha, record = tune_stepsize(config, algorithm, objective, wm)
        bound = None
        if algorithm in ANALYSED_METHODS:
            with contextlib.suppress(RegimeError):
                bound = steady_state_bound(
                    algorithm, alpha, objective.mu, objective.lipschitz, wm.beta, drift
                ) / record.metadata.normalization
        tail = _tail(record, config.tail_fraction)
        meta = replace(record.metadata, **asdict(drift), extra={"steady_state_tail_max": float(tail.max())})
        records.append(replace(record, metadata=meta))
        rows.append(SummaryRow(algorithm, alpha, float(wm.beta), objective.n, float(tail.mean()), bound))

    directory = resolve_output_dir(config)
    directory.mkdir(parents=True, exist_ok=True)
    for record in records:
        write_record(record, directory / f"{record.metadata.algorithm}.csv")
    _write_summary(rows, directory / "summary.csv")
    return SuiteResult(directory=directory, rows=tuple(rows))


def _write_summary(rows, path: Path) -> None:
    """One CSV line per SummaryRow under its field names; floats round-trip, None is empty."""

    def cell(value) -> str:
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    lines = [",".join(f.name for f in fields(SummaryRow))]
    lines += [",".join(map(cell, astuple(row))) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def audit_record_file(csv_path: Path | str):
    """Load a persisted record plus its drift constants, ready for auditing."""
    csv_path = Path(csv_path)
    record = read_record(csv_path)
    constants = {f.name: getattr(record.metadata, f.name) for f in fields(DriftProfile)}
    if None in constants.values():
        raise ValueError(
            "record sidecar carries no drift constants; audit a record written by netdrift run"
        )
    try:
        drift = DriftProfile(**constants)
    except ValueError as exc:
        raise ValueError(f"record sidecar {sidecar_path(csv_path)}: {exc}") from exc
    return record, drift
