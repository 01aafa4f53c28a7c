"""Tests for the config-driven experiment harness and the CLI.

Oracles: the tail estimator is checked against a hand-built harmonic series,
tuning against closed-form contraction comparisons on static consensus, and
the suite output against independent re-reads of the persisted CSVs.
"""

import csv
import math
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netdrift
from netdrift import cli, experiment, records
from netdrift.algorithms import ALGORITHMS
from netdrift.analysis import ANALYSED_METHODS, RegimeError, max_stepsize
from netdrift.experiment import (
    INITS,
    SCENARIOS,
    TOPOLOGIES,
    WEIGHT_RULES,
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    SummaryRow,
    TuningError,
    build_network,
    build_objective,
    load_config,
    parse_config,
    run_suite,
    steady_state_error,
    tune_stepsize,
)
from netdrift.problems import LeastSquaresStream, ShiftingConsensus
from netdrift.records import (
    CSV_HEADER,
    RunMetadata,
    TrajectoryRecord,
    read_record,
    write_record,
)
from netdrift.topology import (
    ConstructionError,
    WeightRuleError,
    build_complete,
    build_grid,
    metropolis_weights,
    uniform_neighbor_weights,
)


def uniform_cycle_beta_5() -> float:
    return max(abs(1 + 2 * math.cos(2 * math.pi * j / 5)) / 3 for j in range(1, 5))

# ---------------------------------------------------------------------------
# config parsing


FULL_CONFIG = """
# demo configuration
scenario = II
topology = random
target_beta = 0.89
weight_rule = metropolis
horizon = 120
stepsizes = 0.001, 0.01, 0.1
algorithms = diffusion, dgt, extra
seed = 7
output_dir = demo_out
p = 10
shift = 11
init = optimum
"""


def test_parse_config_reads_every_field():
    config = parse_config(FULL_CONFIG)
    assert config.scenario == "II"
    assert config.topology == "random"
    assert config.target_beta == 0.89
    assert config.weight_rule == "metropolis"
    assert config.horizon == 120
    assert config.stepsizes == (0.001, 0.01, 0.1)
    assert config.algorithms == ("diffusion", "dgt", "extra")
    assert config.seed == 7
    assert config.output_dir == "demo_out"
    assert config.p == 10
    assert config.shift == 11
    assert config.init == "optimum"
    assert_python_values(config)


def test_parse_config_applies_defaults():
    config = parse_config("scenario = static\np = 1\n")
    assert config.topology == "cycle"
    assert config.horizon == 1000
    assert config.tail_fraction == 0.2
    assert config.algorithms == ("diffusion", "dgt")
    assert config.stepsizes is None
    assert config.init == "zeros"


@pytest.mark.parametrize(
    "text, default, given",
    [
        ("scenario = I\nn = 5\n", 0, None),  # shift applies to consensus only
        ("scenario = II\np = 10\n", 11, 4),
        ("scenario = III\np = 10\n", 1, 4),
        ("scenario = static\np = 10\n", 0, 0),  # static allows shift 0 only
    ],
)
def test_resolved_shift_defaults_per_scenario_and_keeps_a_given_shift(text, default, given):
    assert parse_config(text).resolved_shift == default
    if given is not None:
        assert parse_config(f"{text}shift = {given}\n").resolved_shift == given


INTP_MAX =int(np.iinfo(np.intp).max)  # the longest array axis numpy can index

# (config text or ExperimentConfig keywords, pinned message or None)
REJECTED_CONFIGS = [
    ("scenario = static\np = 1\nwidget = 3\n", None),
    ("scenario = IV\np = 1\n", None),
    # The tail window is fixed at 0.2: no value of it is a key.
    ("scenario = static\np = 1\ntail_fraction = 0.7\n", "line 3: unknown config key 'tail_fraction'"),
    ("scenario = static\np = 1\ntail_fraction = 0\n", "line 3: unknown config key 'tail_fraction'"),
    ("scenario = static\np = 1\nhorizon = 9\n", None),
    ("scenario = static\np = 1\nstepsizes = 0.1, 0.01\n", None),
    ("scenario = static\np = 1\nstepsizes = -0.1, 0.01\n", "stepsizes must be positive, got [-0.1, 0.01]"),
    ("scenario = static\np = 1\nstepsizes = 0.01, nan\n", "stepsizes must be positive, got [0.01, nan]"),
    ("scenario = static\np = 1\nstepsizes = nan\n", "stepsizes must be positive, got [nan]"),
    ("scenario = static\np = 1\nstepsizes = inf\n", "stepsizes must be finite, got [inf]"),
    ("scenario = static\np = 1\nstepsizes = 0.1, inf\n", "stepsizes must be finite, got [0.1, inf]"),
    ("scenario = static\np = 1\nhorizon = 20\n\nhorizon = 30\n",
     "line 5: config key 'horizon' repeats the one on line 3"),
    ("scenario = static\np = 1\nalgorithms = sneaky\n", None),
    ("scenario = II\np = 3\nalgorithms = extra, extra\n",
     "algorithms must not repeat a method, got ['extra', 'extra']"),
    ("scenario = static\np = 1\ninit = warm\n", None),
    ("scenario = I\nhorizon = 50\n", None),
    ("scenario = I\nn = 2\n", "n must be at least 3 for a cycle topology, got 2"),
    ("scenario = I\nn = 1\ntopology = line\n", "n must be at least 2 for a line topology, got 1"),
    ("scenario = I\nn = 1\ntopology = random\nedge_probability = 0.5\n",
     "n must be at least 2 for a random topology, got 1"),
    ("scenario = I\nn = 5\nseed = -1\n", "seed must be nonnegative, got -1"),
    ("scenario = II\np = 1\ntopology = random\nedge_probability = 1.5\n",
     "edge_probability must lie in (0, 1], got 1.5"),
    ("scenario = II\np = 1\ntopology = random\nedge_probability = 0\n",
     "edge_probability must lie in (0, 1], got 0.0"),
    ("scenario = II\np = 1\ntopology = random\ntarget_beta = 1\n",
     "target_beta must lie in (0, 1), got 1.0"),
    ("scenario = II\np = 1\ntopology = random\ntarget_beta = -0.2\n",
     "target_beta must lie in (0, 1), got -0.2"),
    ("scenario = II\np = 1\ntopology = random\nedge_probability = 0.5\ntarget_beta = 0.5\n",
     "edge_probability and target_beta are both set; give one of them"),
    ("scenario = II\np = 1\nedge_probability = 0.5\n",
     "edge_probability applies to a random topology only, not to cycle"),
    ("scenario = I\nn = 6\ntopology = complete\ntarget_beta = 0.5\n",
     "target_beta applies to a random topology only, not to complete"),
    ("scenario = I\nn = 6\ntopology = random\nedge_probability = 0.5\nrows = 2\n",
     "rows applies to a grid topology only, not to random"),
    ("scenario = II\np = 1\ntopology = line\ncols = 3\n",
     "cols applies to a grid topology only, not to line"),
    ("scenario = III\np = 3\nshift = -1\n", "shift must be nonnegative, got -1"),
    # The consensus targets are 1, ..., n and scenario I gives each agent one
    # row: neither is a key, whatever its value, the old default included.
    ("scenario = II\np = 3\nspacing_m = 2\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = II\np = 3\nspacing_m = 0\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = III\np = 3\nspacing_m = -2\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = static\np = 3\nspacing_m = nan\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = II\np = 3\nspacing_m = inf\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = I\nn = 5\nspacing_m = 2.5\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = I\nn = 5\nspacing_m = 1.0\n", "line 3: unknown config key 'spacing_m'"),
    ("scenario = I\nn = 5\nrows_per_agent = 2\n", "line 3: unknown config key 'rows_per_agent'"),
    ("scenario = I\nn = 5\nrows_per_agent = 0\n", "line 3: unknown config key 'rows_per_agent'"),
    ("scenario = static\np = 1\nrows_per_agent = -2\n", "line 3: unknown config key 'rows_per_agent'"),
    ("scenario = static\np = 2\nrows_per_agent = 3\n", "line 3: unknown config key 'rows_per_agent'"),
    ("scenario = II\np = 2\nrows_per_agent = 1\n", "line 3: unknown config key 'rows_per_agent'"),
    ("scenario = II\np = 2\nn = 50\n", "n applies to scenario I only, not to II"),
    ("scenario = I\nn = 5\np = 2\n", "p applies to scenario II/III/static only, not to I"),
    ("scenario = I\nn = 5\nshift = 3\n", "shift applies to scenario II/III/static only, not to I"),
    ("scenario = static\np = 1\ntopology = star\n",
     "unknown topology 'star'; expected one of ('cycle', 'line', 'grid', 'complete', 'random')"),
    ("scenario = static\np = 1\nweight_rule = foo\n",
     "unknown weight_rule 'foo'; expected one of ('uniform', 'metropolis')"),
    ("scenario = II\np = 1\ntopology = random\n", "random topology needs edge_probability or target_beta"),
    ("scenario = I\nn = 6\ntopology = grid\n", "grid topology needs rows and cols"),
    ("scenario = I\nn = 6\ntopology = grid\ncols = 3\n", "grid topology needs rows and cols"),
    ("scenario = I\nn = 5\ntopology = grid\nrows = -1\ncols = -5\nweight_rule = metropolis\n",
     "grid rows x cols = -1x-5 does not hold 5 agents"),
    ("scenario = II\np = 1\ntopology = random\ntarget_beta = 0.5\nweight_rule = uniform\n",
     "target_beta needs weight_rule = metropolis, got 'uniform'"),
    # Mistyped Python values, given to ExperimentConfig directly: each used to
    # fail inside the run, or to run with a truncated value.
    ({"scenario": "II", "p": 2.5}, "p must be an integer or None, got 2.5"),
    ({"scenario": "I", "n": 5.5}, "n must be an integer or None, got 5.5"),
    ({"scenario": "static", "p": 2, "horizon": 20.5}, "horizon must be an integer, got 20.5"),
    ({"scenario": "static", "p": 2, "grid_points": 2.5}, "grid_points must be an integer, got 2.5"),
    ({"scenario": "III", "p": 2, "shift": 1.5}, "shift must be an integer or None, got 1.5"),
    ({"scenario": "I", "n": 4, "topology": "grid", "rows": 2.0, "cols": 2.0},
     "rows must be an integer or None, got 2.0"),
    ({"scenario": "I", "n": 5, "seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"scenario": "II", "p": 2, "seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"scenario": "static", "p": 2, "stepsizes": "0.1"},
     "stepsizes must be a tuple of numbers or None, got '0.1'"),
    ({"scenario": "II", "p": 2, "topology": "random", "edge_probability": "0.2"},
     "edge_probability must be a number or None, got '0.2'"),
    # A bool is no number, though Python counts it an int.
    ({"scenario": "static", "p": True}, "p must be an integer or None, got True"),
    ({"scenario": "static", "p": 2, "stepsizes": (0.1, True)},
     "stepsizes must be a tuple of numbers or None, got (0.1, True)"),
    # A numpy array is no tuple; a 0-d one used to raise a TypeError.
    ({"scenario": "static", "p": 2, "stepsizes": np.array(0.1)},
     "stepsizes must be a tuple of numbers or None, got array(0.1)"),
    ({"scenario": "static", "p": 2, "algorithms": "dgt"}, "algorithms must be a tuple of strings, got 'dgt'"),
    # Counts whose array axis numpy cannot index: each used to end in an
    # OverflowError, an error naming another key, or a numpy error naming no key.
    (f"scenario = II\np = {10**400}\n", f"p must be at most {(INTP_MAX - 1) // 2}, got {10**400}"),
    (f"scenario = II\np = {10**200}\n", f"p must be at most {(INTP_MAX - 1) // 2}, got {10**200}"),
    (f"scenario = I\nn = {10**20}\n", f"n must be at most {INTP_MAX}, got {10**20}"),
    (f"scenario = I\nn = 5\nhorizon = {10**20}\n", f"horizon must be at most {INTP_MAX - 1}, got {10**20}"),
]


@pytest.mark.parametrize("config, message", REJECTED_CONFIGS, ids=[str(config) for config, _ in REJECTED_CONFIGS])
def test_parse_config_rejects_invalid(config, message):
    # A config is a text for parse_config or the keywords of ExperimentConfig.
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config) if isinstance(config, str) else ExperimentConfig(**config)
    if message is not None:
        assert str(excinfo.value) == message


def test_config_accepts_numpy_numbers():
    numpy_values = ExperimentConfig(
        scenario="II", p=np.int64(3), horizon=np.int32(50), seed=np.uint8(4), topology="random",
        stepsizes=[np.float64(0.1), 0.2], edge_probability=np.float32(0.25),
    )
    python_values = ExperimentConfig(
        scenario="II", p=3, horizon=50, seed=4, topology="random", stepsizes=(0.1, 0.2), edge_probability=0.25
    )
    assert numpy_values == python_values


def assert_python_values(config):
    """Every field holds None or exactly a Python type its annotation names, as does every tuple item."""
    for f in fields(config):
        value = getattr(config, f.name)
        for item in (value if isinstance(value, tuple) else (value,)):
            assert ("None" if item is None else type(item).__name__) in f.type, (f.name, value)


def test_numpy_p_sizes_the_network_as_a_python_int():
    # 2p + 1 wrapped to -55 in int8.
    config = ExperimentConfig(scenario="II", p=np.int8(100))
    assert config.network_size == 201
    assert_python_values(config)


def test_numpy_sizes_run_as_their_python_values(tmp_path):
    # n * horizon used to overflow int8 inside the least-squares stream.
    numpy_sizes = ExperimentConfig(scenario="I", n=np.int8(100), horizon=np.int8(100),
                                   output_dir=str(tmp_path / "a"))
    python_sizes = replace(numpy_sizes, n=100, horizon=100, output_dir=str(tmp_path / "b"))
    assert run_suite(numpy_sizes).rows == run_suite(python_sizes).rows
    for name in ("diffusion.csv", "diffusion.meta.json", "dgt.csv", "dgt.meta.json", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("key, value", [("target_beta", 10**400), ("stepsizes", (0.1, 10**400))],
                         ids=["target_beta", "stepsizes"])
def test_an_int_beyond_the_float_range_names_its_key(key, value):
    kind = "a number or None" if key == "target_beta" else "a tuple of numbers or None"
    with pytest.raises(ConfigError, match=rf"^{key} must be {kind} in the float range, got "):
        ExperimentConfig(scenario="static", p=2, **{key: value})


def test_type_tables_hold_exactly_the_annotations_in_use():
    # A field of a new type fails here, not at the first config or sidecar that
    # sets it; a row that no field reads any more fails here too.
    assert set(experiment._FIELD_TYPES) == {f.type for f in fields(ExperimentConfig)}
    sidecar = {f.type for f in fields(RunMetadata)} | {"float | None"}  # plus tracker_identity_max
    assert set(records._JSON_TYPES) == sidecar


def test_builders_resolve_scenarios():
    ls = build_objective(parse_config("scenario = I\nn = 5\nhorizon = 40\n"))
    assert isinstance(ls, LeastSquaresStream)
    assert ls.n == 5

    slow = build_objective(parse_config("scenario = II\np = 3\nhorizon = 40\n"))
    assert isinstance(slow, ShiftingConsensus)
    assert slow.n == 7 and slow.shift == 4

    fast = build_objective(parse_config("scenario = III\np = 3\nhorizon = 40\n"))
    assert fast.shift == 1

    still = build_objective(parse_config("scenario = static\np = 3\nhorizon = 40\n"))
    assert still.shift == 0
    assert np.array_equal(still.targets(0), still.targets(17))


def test_build_network_matches_scenario_size():
    config = parse_config("scenario = II\np = 2\nhorizon = 40\n")
    graph, wm = build_network(config)
    assert graph.n == 5 and wm.n == 5
    mismatch = "scenario = II\np = 2\nhorizon = 40\ntopology = grid\nrows = 2\ncols = 2\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(mismatch)
    assert str(excinfo.value) == "grid rows x cols = 2x2 does not hold 5 agents"


@pytest.mark.parametrize(
    "text, graph",
    [
        ("scenario = I\nn = 6\ntopology = complete\n", build_complete(6)),
        ("scenario = static\np = 4\ntopology = grid\nrows = 3\ncols = 3\nweight_rule = metropolis\n",
         build_grid(3, 3)),
    ],
    ids=["complete", "grid"],
)
def test_build_network_builds_complete_and_grid_topologies(text, graph):
    built, wm = build_network(parse_config(text + "horizon = 40\n"))
    rule = uniform_neighbor_weights if graph.kind == "complete" else metropolis_weights
    assert built.kind == graph.kind
    assert (built.adjacency != graph.adjacency).nnz == 0
    assert (wm.csr != rule(graph).csr).nnz == 0


def test_cycle_network_imports_neither_sparse_linalg_nor_csgraph():
    # A builder's graph is connected by construction, so no builder kind but
    # random searches it with scipy.sparse.csgraph. A cycle's and a complete
    # graph's beta is closed form under either weight rule, so they skip
    # scipy.sparse.linalg too; line and grid need ARPACK for beta. Each
    # import adds resident memory to a run (about 10 MB for linalg). One
    # process builds the networks in this order, so a module that an
    # earlier build imports shows in every later report.
    src = str(Path(netdrift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    cases = [
        (f"scenario = I\ntopology = {topology}\nn = {n}\nweight_rule = {rule}\n", expected)
        for topology, n, expected in (("cycle", 100, []), ("complete", 6, []))
        for rule in WEIGHT_RULES
    ] + [
        ("scenario = I\ntopology = line\nn = 50\n", ["scipy.sparse.linalg"]),
        ("scenario = I\ntopology = grid\nn = 12\nrows = 3\ncols = 4\n", ["scipy.sparse.linalg"]),
        ("scenario = I\ntopology = grid\nn = 4\nrows = 2\ncols = 2\nweight_rule = uniform\n",
         ["scipy.sparse.linalg"]),
    ]
    code = (
        "import json, sys\n"
        "from netdrift.experiment import build_network, parse_config\n"
        "reports = []\n"
        f"for text in {[text for text, _ in cases]!r}:\n"
        "    build_network(parse_config(text))\n"
        "    reports.append([m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') if m in sys.modules])\n"
        "print(json.dumps(reports))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    for (text, expected), imported in zip(cases, json.loads(result.stdout), strict=True):
        assert imported == expected, text


def test_build_network_names_weight_rule():
    config = parse_config("scenario = I\nn = 4\nhorizon = 40\ntopology = line\nweight_rule = uniform\n")
    with pytest.raises(ConfigError) as excinfo:
        build_network(config)
    assert str(excinfo.value) == (
        "weight_rule 'uniform' does not apply to a line network: uniform neighbor weights need a "
        "regular graph; use metropolis_weights for irregular graphs"
    )
    assert isinstance(excinfo.value.__cause__, WeightRuleError)


def test_build_network_names_edge_probability():
    config = parse_config("scenario = II\np = 1\ntopology = random\nedge_probability = 1e-9\n")
    with pytest.raises(ConfigError) as excinfo:
        build_network(config)
    assert str(excinfo.value) == (
        "edge_probability 1e-09 is too small for 3 agents: no connected graph with n=3, "
        "p=1e-09 in 50 attempts"
    )
    assert isinstance(excinfo.value.__cause__, ConstructionError)


def test_build_network_names_target_beta():
    # Three agents offer beta 2/3 (a line) or 0 (complete), nothing near 0.89.
    config = parse_config(
        "scenario = II\np = 1\ntopology = random\ntarget_beta = 0.89\nweight_rule = metropolis\n"
    )
    with pytest.raises(ConfigError) as excinfo:
        build_network(config)
    assert str(excinfo.value) == (
        "target_beta 0.89 is out of reach for 3 agents: calibration missed target beta 0.89 "
        "(closest 0.6667 at p=0.4394)"
    )
    assert type(excinfo.value.__cause__) is ValueError


# ---------------------------------------------------------------------------
# steady-state estimation


def _series_record(values, horizon=None):
    values = np.asarray(values, dtype=np.float64)
    length = len(values)
    meta = RunMetadata(
        algorithm="diffusion",
        alpha=0.1,
        beta=0.5,
        scenario="synthetic",
        seed=0,
        n=3,
        d=1,
        horizon=length - 1 if horizon is None else horizon,
        mu=1.0,
        lipschitz=1.0,
        normalization=1.0,
    )
    return TrajectoryRecord(
        metadata=meta,
        iterations=np.arange(length, dtype=np.int64),
        tracking_error=values,
        consensus_dev=np.zeros(length),
        avg_error=np.zeros(length),
    )


def test_steady_state_error_constant_series():
    # dyadic constant so the window mean is exact in floating point
    rec = _series_record(np.full(101, 0.25))
    assert steady_state_error(rec, 0.2) == 0.25


def test_steady_state_error_harmonic_tail():
    values = np.ones(1001)
    ks = np.arange(1, 1001)
    values[1:] = 1.0 / ks
    rec = _series_record(values)
    got = steady_state_error(rec, 0.2)
    oracle = float(np.mean(1.0 / np.arange(801, 1001)))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.1136e-3, abs=3e-6)


def test_steady_state_error_divergence_names_first_bad_index():
    values = np.full(101, 0.5)
    values[57] = np.inf
    rec = _series_record(values)
    with pytest.raises(DivergenceError, match="57"):
        steady_state_error(rec, 0.2)


def test_steady_state_error_requires_nonempty_tail():
    rec = _series_record([0.5])
    with pytest.raises(ValueError):
        steady_state_error(rec, 0.2)


# ---------------------------------------------------------------------------
# tuning


def _static_config(**overrides):
    base = dict(
        scenario="static",
        p=2,
        horizon=2000,
        stepsizes=(0.02, 0.05, 0.1),
        algorithms=("diffusion", "dgt"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _tune(config, algorithm):
    """tune_stepsize on the objective and network the config builds."""
    _, wm = build_network(config)
    return tune_stepsize(config, algorithm, build_objective(config), wm)


def test_tune_takes_the_lowest_tail_and_breaks_ties_toward_the_larger_step(monkeypatch):
    # Tails of 3, 1, 1 and a lane whose tail is 0 but whose error was once
    # infinite: the diverged lane scores inf, the tie goes to the third step.
    lanes = [np.full(11, 3.0), np.full(11, 1.0), np.full(11, 1.0), np.zeros(11)]
    lanes[3][4] = np.inf
    records = [_series_record(values) for values in lanes]
    monkeypatch.setattr(experiment, "run_single", lambda *args: records)
    config = _static_config(horizon=10, stepsizes=(0.01, 0.02, 0.05, 0.1))
    alpha, record = tune_stepsize(config, "dgt", None, None)
    assert alpha == 0.05
    assert record is records[2]


def test_tune_single_element_grid():
    config = _static_config(stepsizes=(0.05,))
    alpha, record = _tune(config, "dgt")
    assert alpha == 0.05
    assert record.metadata.alpha == 0.05


def test_tune_picks_fastest_contraction_in_transient_regime():
    # none of these step sizes reaches the convergence floor within the
    # horizon, so the tail mean decreases monotonically with the step size
    config = _static_config(stepsizes=(0.002, 0.005, 0.01))
    alpha, record = _tune(config, "dgt")
    assert alpha == 0.01
    assert steady_state_error(record, config.tail_fraction) < 1e-2


def test_tune_scores_divergent_runs_as_infinite():
    config = _static_config(stepsizes=(0.05, 5.0))
    alpha, _ = _tune(config, "diffusion")
    assert alpha == 0.05


def test_tune_raises_when_every_stepsize_diverges():
    config = _static_config(stepsizes=(5.0, 8.0))
    with pytest.raises(TuningError, match="5.0") as excinfo:
        _tune(config, "diffusion")
    assert "stepsizes" in str(excinfo.value)


# ---------------------------------------------------------------------------
# suite orchestration


def test_run_suite_persists_and_round_trips(tmp_path):
    config = _static_config(output_dir=str(tmp_path / "static_demo"))
    result = run_suite(config)
    assert [row.algorithm for row in result.rows] == ["diffusion", "dgt"]
    for row in result.rows:
        csv_path = result.directory / f"{row.algorithm}.csv"
        assert csv_path.exists()
        loaded = read_record(csv_path)
        assert steady_state_error(loaded, config.tail_fraction) == row.steady_state_error
        assert loaded.metadata.delta_x == 0.0
        assert loaded.metadata.grad_drift == 0.0
        assert loaded.metadata.grad_bound > 0.0
    summary_path = result.directory / "summary.csv"
    with open(summary_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["algorithm", "alpha", "beta", "n", "steady_state_error", "theory_bound"]
    assert len(rows) == 3
    # static consensus: tracking converges to machine precision, diffusion
    # keeps a positive plateau
    by_name = {row.algorithm: row for row in result.rows}
    assert by_name["dgt"].steady_state_error < 1e-8
    assert by_name["diffusion"].steady_state_error > 1e-8


def test_run_suite_is_deterministic(tmp_path):
    config_a = _static_config(output_dir=str(tmp_path / "a"), horizon=400)
    config_b = _static_config(output_dir=str(tmp_path / "b"), horizon=400)
    result_a = run_suite(config_a)
    result_b = run_suite(config_b)
    for name in ("diffusion.csv", "dgt.csv", "summary.csv"):
        assert (result_a.directory / name).read_bytes() == (result_b.directory / name).read_bytes()


def test_run_suite_reports_bound_for_admissible_stepsize(tmp_path):
    alpha = max_stepsize("dgt", 1.0, 1.0, uniform_cycle_beta_5())
    config = ExperimentConfig(
        scenario="II",
        p=2,
        horizon=3000,
        stepsizes=(alpha,),
        algorithms=("dgt",),
        seed=0,
        init="optimum",
        output_dir=str(tmp_path / "bounded"),
    )
    result = run_suite(config)
    row = result.rows[0]
    assert row.theory_bound is not None
    assert row.steady_state_error <= row.theory_bound
    sidecar = json.loads((result.directory / "dgt.meta.json").read_text())
    assert "steady_state_tail_max" in sidecar["metadata"]["extra"]


def test_run_suite_leaves_the_bound_empty_only_for_unanalysed_methods_and_regime_errors(tmp_path, monkeypatch):
    alpha = max_stepsize("diffusion", 1.0, 1.0, uniform_cycle_beta_5())
    config = _static_config(horizon=200, stepsizes=(alpha,), algorithms=("diffusion", "extra"))
    rows = run_suite(replace(config, output_dir=str(tmp_path / "a"))).rows
    assert [row.theory_bound is None for row in rows] == [False, True]

    def out_of_regime(*args):
        raise RegimeError("step size outside the regime")

    monkeypatch.setattr(experiment, "steady_state_bound", out_of_regime)
    rows = run_suite(replace(config, output_dir=str(tmp_path / "b"))).rows
    assert [row.theory_bound for row in rows] == [None, None]

    def broken(*args):
        raise ValueError("a fault in the bound")

    monkeypatch.setattr(experiment, "steady_state_bound", broken)
    with pytest.raises(ValueError, match="a fault in the bound"):
        run_suite(replace(config, output_dir=str(tmp_path / "c")))


def test_run_suite_honors_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NETDRIFT_OUTPUT", str(tmp_path))
    config = _static_config(horizon=200, output_dir="nested/demo")
    result = run_suite(config)
    assert result.directory == tmp_path / "nested" / "demo"
    assert (result.directory / "summary.csv").exists()


def test_run_suite_on_long_metropolis_line(tmp_path):
    # 501 agents on a line: beta is within 2e-5 of one.
    config = ExperimentConfig(
        scenario="static",
        topology="line",
        weight_rule="metropolis",
        p=250,
        horizon=10,
        seed=0,
        output_dir=str(tmp_path / "line"),
    )
    result = run_suite(config)
    assert [row.n for row in result.rows] == [501] * len(config.algorithms)
    assert all(0.99998 < row.beta < 1.0 for row in result.rows)


@pytest.mark.parametrize(
    "text",
    [
        "scenario = II\np = 1\ntopology = random\nedge_probability = 1e-9\n",
        "scenario = II\np = 1\ntopology = random\ntarget_beta = 0.89\nweight_rule = metropolis\n",
        "scenario = I\nn = 4\ntopology = line\nweight_rule = uniform\n",
    ],
    ids=["edge_probability", "target_beta", "weight_rule"],
)
def test_run_suite_writes_nothing_for_a_network_it_cannot_build(text, tmp_path):
    config = parse_config(text + f"horizon = 40\noutput_dir = {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError):
        run_suite(config)
    assert not (tmp_path / "out").exists()


def test_cli_run_writes_nothing_for_a_rejected_config(tmp_path, capsys, monkeypatch):
    # A random graph with neither of its keys fails at parse time, before
    # the default output directory suite_II is made.
    monkeypatch.setenv("NETDRIFT_OUTPUT", str(tmp_path / "root"))
    config_path = tmp_path / "random.cfg"
    config_path.write_text("scenario = II\np = 2\ntopology = random\n")
    assert cli.main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: random topology needs edge_probability or target_beta\n"
    assert not (tmp_path / "root").exists()


@st.composite
def config_draws(draw):
    """Keyword arguments for a small ExperimentConfig, valid or not."""
    scenario = draw(st.sampled_from(SCENARIOS))
    topology = draw(st.sampled_from(TOPOLOGIES))
    kwargs = {
        "scenario": scenario,
        "topology": topology,
        "weight_rule": draw(st.sampled_from(WEIGHT_RULES)),
        "horizon": draw(st.integers(min_value=10, max_value=40)),
        "seed": draw(st.sampled_from([-1, 0]) | st.integers(min_value=-2, max_value=2**16)),
        "init": draw(st.sampled_from(INITS)),
        "algorithms": tuple(
            draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4, unique=True))
        ),
    }
    if scenario == "I":
        kwargs["n"] = draw(st.integers(min_value=1, max_value=25))
    else:
        kwargs["p"] = draw(st.sampled_from(range(13)))
        kwargs["shift"] = draw(st.none() | st.integers(min_value=-1, max_value=30))
    size = kwargs["n"] if scenario == "I" else 2 * kwargs["p"] + 1
    if topology == "random":
        key = draw(st.sampled_from(["edge_probability", "target_beta", None]))
        if key == "edge_probability":
            kwargs[key] = draw(st.floats(min_value=0.01, max_value=1.0))
        elif key == "target_beta":
            kwargs[key] = draw(st.floats(min_value=0.05, max_value=0.99))
    elif topology == "grid":
        kwargs["rows"] = draw(st.integers(min_value=1, max_value=6))
        kwargs["cols"] = max(1, size // kwargs["rows"]) + draw(st.sampled_from([0, 0, 1]))
    if draw(st.booleans()):
        halves = st.integers(min_value=-8, max_value=160)  # 1e80 overflows at once
        grid = draw(st.lists(halves, min_size=1, max_size=4, unique=True))
        tail = draw(st.sampled_from([(), (), (), (math.nan,)]))
        kwargs["stepsizes"] = tuple(10.0 ** (k / 2) for k in sorted(grid)) + tail
    else:
        kwargs["grid_points"] = draw(st.integers(min_value=1, max_value=6))
    return kwargs


@settings(max_examples=100, deadline=5000)
@given(kwargs=config_draws())
def test_accepted_configs_run_or_name_their_key(kwargs):
    # Every config either runs, or fails with a ConfigError that names one of
    # its keys (as a word, not as "n=3" inside a quoted value); a grid on
    # which every step diverges names the key it came from.
    with tempfile.TemporaryDirectory() as directory:
        try:
            run_suite(ExperimentConfig(**kwargs, output_dir=directory))
        except ConfigError as exc:
            assert any(re.search(rf"\b{key}\b(?!=)", str(exc)) for key in kwargs), str(exc)
        except TuningError as exc:
            assert ("stepsizes" if "stepsizes" in kwargs else "grid_points") in str(exc)


NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
NUMPY_FLOATS = (np.float16, np.float32, np.float64)


def numpy_scalars(value):
    """``value`` as a scalar of a numpy dtype whose range holds it: an int in any, a float in a float one."""
    def holds(dtype):
        if dtype in NUMPY_FLOATS:
            return not math.isfinite(value) or abs(value) <= float(np.finfo(dtype).max)
        return isinstance(value, int) and np.iinfo(dtype).min <= value <= np.iinfo(dtype).max

    return st.sampled_from([dtype for dtype in (*NUMPY_INTEGERS, *NUMPY_FLOATS) if holds(dtype)]).map(
        lambda dtype: dtype(value)
    )


def as_python(value):
    if isinstance(value, np.integer):
        return int(value)
    return float(value) if isinstance(value, np.floating) else value


@settings(max_examples=200, deadline=None)
@given(kwargs=config_draws(), data=st.data())
def test_numpy_numbers_are_stored_as_the_python_numbers(kwargs, data):
    # Each number of a config, stepsizes' items too, wrapped in a numpy dtype
    # that holds it: the config is the one built from the Python numbers
    # those scalars convert to, or both fail with a ConfigError naming a key.
    def wrap(value):
        return value if isinstance(value, str) or value is None else data.draw(numpy_scalars(value))

    wrapped = {key: tuple(map(wrap, v)) if key == "stepsizes" else wrap(v) for key, v in kwargs.items()
               if key != "algorithms"}
    converted = {key: tuple(map(as_python, v)) if key == "stepsizes" else as_python(v)
                 for key, v in wrapped.items()}
    try:
        expected = ExperimentConfig(**converted)
    except ConfigError:
        expected = None
    try:
        config = ExperimentConfig(**wrapped)
    except ConfigError as exc:
        assert expected is None
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in kwargs), str(exc)
        return
    assert config == expected
    assert_python_values(config)


def test_a_suite_whose_tuning_fails_writes_nothing(tmp_path, capsys):
    # extra diverges at the one step size after diffusion and dgt have tuned;
    # no record of theirs is left without a summary.
    config_path = tmp_path / "diverges.cfg"
    config_path.write_text(
        "scenario = II\np = 5\nhorizon = 400\nstepsizes = 3.0\n"
        f"algorithms = diffusion, dgt, extra, exact_diffusion\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", "--config", str(config_path)]) == 2
    message = "every step size diverged: [3.0]; the grid comes from stepsizes"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_run(path, tmp_path):
    config = replace(load_config(path), horizon=20, output_dir=str(tmp_path / path.stem))
    graph, wm = build_network(config)
    assert graph.n == wm.n == config.network_size
    result = run_suite(config)
    assert [row.algorithm for row in result.rows] == list(config.algorithms)
    assert (result.directory / "summary.csv").exists()


# ---------------------------------------------------------------------------
# CLI


def test_cli_bounds_prints_reference_arithmetic(capsys):
    code = cli.main(
        [
            "bounds",
            "--mu", "1", "--L", "1", "--beta", "0.5",
            "--alpha", "0.05", "--dx", "1e-3", "--D", "1", "--dg", "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0.384" in out
    assert "rho" in out


def test_cli_bounds_prints_every_analysed_method(capsys):
    assert ANALYSED_METHODS == ("diffusion", "dgt")
    code = cli.main(
        [
            "bounds",
            "--mu", "1", "--L", "1", "--beta", "0.5",
            "--alpha", "0.05", "--dx", "1e-3", "--D", "1", "--dg", "0",
        ]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(":")[0] for line in lines] == list(ANALYSED_METHODS)


def test_cli_bounds_reports_out_of_regime(capsys):
    code = cli.main(
        [
            "bounds",
            "--mu", "1", "--L", "1", "--beta", "0.5",
            "--alpha", "0.05", "--dx", "1e-3", "--D", "1", "--dg", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "out of regime" in out


def test_cli_bounds_reports_nan_stepsize_out_of_regime(capsys):
    code = cli.main(
        [
            "bounds",
            "--mu", "1", "--L", "1", "--beta", "0.5",
            "--alpha", "nan", "--dx", "1e-3", "--D", "1", "--dg", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        f"{algorithm}: out of regime for the contraction model (step size must be positive, got nan)"
        for algorithm in ("diffusion", "dgt")
    ]


def test_cli_bounds_rejects_an_infinite_drift_constant(capsys):
    # An infinite gradient bound makes every bound infinite; it is an input
    # error, not a bound.
    code = cli.main(
        [
            "bounds",
            "--mu", "1", "--L", "1", "--beta", "0.5",
            "--alpha", "0.05", "--dx", "1e-3", "--D", "inf", "--dg", "0",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: drift constant grad_bound must be finite and nonnegative, got inf\n"


def test_run_table_and_summary_csv_spell_the_summary_row_fields(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"scenario = static\np = 2\nhorizon = 50\nalgorithms = diffusion\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    header, row, _ = capsys.readouterr().out.splitlines()
    with open(tmp_path / "out" / "summary.csv", newline="") as handle:
        csv_header, csv_row = list(csv.reader(handle))
    names = [f.name for f in fields(SummaryRow)]
    assert header.split() == csv_header == names
    assert names == ["algorithm", "alpha", "beta", "n", "steady_state_error", "theory_bound"]
    # The tuned step lies outside the bound's regime: no bound to report.
    assert row.split()[-1] == "-"
    assert csv_row[-1] == ""


def test_cli_run_and_audit_round_trip(tmp_path, capsys):
    alpha = max_stepsize("dgt", 1.0, 1.0, uniform_cycle_beta_5())
    config_text = "\n".join(
        [
            "scenario = II",
            "p = 2",
            "horizon = 500",
            f"stepsizes = {alpha!r}",
            "algorithms = dgt",
            "seed = 0",
            "init = optimum",
            f"output_dir = {tmp_path / 'cli_out'}",
        ]
    )
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config_text + "\n")
    code = cli.main(["run", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dgt" in out and "summary" in out

    record_path = tmp_path / "cli_out" / "dgt.csv"
    code = cli.main(["audit", "--record", str(record_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tracker_step" in out


def test_cli_run_and_audit_are_clean_in_dev_mode(tmp_path):
    # Dev mode reports unclosed files and resource warnings, which -W error
    # turns into failures; in-process, pytest's warning filter misses them.
    # A random graph imports and uses csgraph's search and ARPACK.
    config_path = tmp_path / "random.cfg"
    config_path.write_text(
        "scenario = III\np = 5\ntopology = random\nedge_probability = 0.4\nhorizon = 200\n"
        f"grid_points = 5\ninit = optimum\noutput_dir = {tmp_path / 'out'}\n"
    )
    src = str(Path(netdrift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for args in (["run", "--config", str(config_path)], ["audit", "--record", str(tmp_path / "out" / "dgt.csv")]):
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "netdrift", *args], env=env,
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, ""), args


def test_cli_audit_flags_planted_violation(tmp_path, capsys):
    meta = RunMetadata(
        algorithm="diffusion",
        alpha=0.1,
        beta=0.5,
        scenario="synthetic",
        seed=0,
        n=4,
        d=1,
        horizon=1,
        mu=1.0,
        lipschitz=1.0,
        normalization=1.0,
        delta_x=0.0,
        grad_bound=0.0,
        grad_drift=0.0,
    )
    rec = TrajectoryRecord(
        metadata=meta,
        iterations=np.arange(2, dtype=np.int64),
        tracking_error=np.zeros(2),
        consensus_dev=np.zeros(2),
        avg_error=np.array([0.0, 1.0]),
    )
    path = tmp_path / "bad.csv"
    write_record(rec, path)
    code = cli.main(["audit", "--record", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "violated" in err


def test_cli_audit_rejects_record_without_drift_constants(tmp_path, capsys):
    meta = RunMetadata(
        algorithm="diffusion", alpha=0.1, beta=0.5, scenario="synthetic", seed=0,
        n=4, d=1, horizon=1, mu=1.0, lipschitz=1.0, normalization=1.0,
    )
    rec = TrajectoryRecord(
        metadata=meta,
        iterations=np.arange(2, dtype=np.int64),
        tracking_error=np.zeros(2),
        consensus_dev=np.zeros(2),
        avg_error=np.zeros(2),
    )
    path = tmp_path / "bare.csv"
    write_record(rec, path)
    code = cli.main(["audit", "--record", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: record sidecar carries no drift constants; audit a record written by netdrift run\n"
    )


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda payload: payload["metadata"].update(widget=3), "unexpected keyword argument 'widget'"),
        (lambda payload: payload["metadata"].pop("alpha"), "missing 1 required positional argument"),
        (lambda payload: payload.pop("metadata"), "holds no metadata object"),
        (None, "has a header but no rows"),
        (lambda payload: payload["metadata"].update(alpha="0.1"), "alpha must be a number, got '0.1'"),
        (lambda payload: payload["metadata"].update(beta=None), "beta must be a number, got None"),
        (lambda payload: payload["metadata"].update(delta_x="0"),
         "delta_x must be a number or null, got '0'"),
        (lambda payload: payload["metadata"].update(n="21"), "n must be an integer, got '21'"),
        (lambda payload: payload.update(tracker_identity_max="x"),
         "tracker_identity_max must be a number or null, got 'x'"),
        # A tuple is the k column the CSV's two rows are given instead of 0, 1.
        ((0, 2), "data row 2 has k = 2, expected 1"),
        ((1, 2), "data row 1 has k = 1, expected 0"),
        ((0, 0), "data row 2 has k = 0, expected 1"),
        # json writes an infinite float as Infinity, which it also reads back.
        (lambda payload: payload["metadata"].update(grad_bound=math.inf),
         "drift constant grad_bound must be finite and nonnegative, got inf"),
        (lambda payload: payload["metadata"].update(delta_x=math.inf),
         "drift constant delta_x must be finite and nonnegative, got inf"),
    ],
    ids=["unknown_key", "missing_key", "no_metadata", "header_only_csv",
         "alpha_string", "beta_null", "delta_x_string", "n_string", "tracker_identity_max_string",
         "k_gap", "k_first_not_zero", "k_repeated", "grad_bound_infinity", "delta_x_infinity"],
)
def test_cli_audit_rejects_malformed_record(tmp_path, capsys, spoil, message):
    # Input the audit cannot process exits 2 with a one-line error naming the
    # file, and raises no warning on the way.
    meta = RunMetadata(
        algorithm="diffusion", alpha=0.1, beta=0.5, scenario="synthetic", seed=0,
        n=4, d=1, horizon=1, mu=1.0, lipschitz=1.0, normalization=1.0,
        delta_x=0.0, grad_bound=0.0, grad_drift=0.0,
    )
    path = tmp_path / "spoiled.csv"
    write_record(
        TrajectoryRecord(
            metadata=meta,
            iterations=np.arange(2, dtype=np.int64),
            tracking_error=np.zeros(2),
            consensus_dev=np.zeros(2),
            avg_error=np.zeros(2),
        ),
        path,
    )
    if spoil is None:
        path.write_text(",".join(CSV_HEADER) + "\n")
    elif isinstance(spoil, tuple):
        header, *rows = path.read_text().splitlines()
        rows = [f"{k},{row.partition(',')[2]}" for k, row in zip(spoil, rows)]
        path.write_text("\r\n".join([header, *rows, ""]))
    else:
        sidecar = tmp_path / "spoiled.meta.json"
        payload = json.loads(sidecar.read_text())
        spoil(payload)
        sidecar.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["audit", "--record", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "spoiled." in err and message in err


def test_cli_audit_rejects_a_record_cut_at_a_line_end(tmp_path, capsys):
    # The first 50 of a dgt record's 201 rows still number 0, 1, ..., 49.
    alpha = max_stepsize("dgt", 1.0, 1.0, uniform_cycle_beta_5())
    config = ExperimentConfig(scenario="II", p=2, horizon=200, stepsizes=(alpha,), algorithms=("dgt",),
                              init="optimum", output_dir=str(tmp_path / "out"))
    path = run_suite(config).directory / "dgt.csv"
    assert cli.main(["audit", "--record", str(path)]) == 0
    capsys.readouterr()
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:51]))
    assert cli.main(["audit", "--record", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: record {path} has 50 rows, but its sidecar's horizon 200 needs 201\n"
    )


@pytest.mark.parametrize("marker", [b"", b"\r\n1,"], ids=["first_byte", "second_data_row"])
def test_cli_audit_names_an_undecodable_csv(tmp_path, capsys, marker):
    # A byte that is not UTF-8, before the header or after the k of the
    # second data row, exits 2 with a one-line error naming the CSV.
    path = tmp_path / "spoiled.csv"
    write_record(
        TrajectoryRecord(
            metadata=RunMetadata(
                algorithm="diffusion", alpha=0.1, beta=0.5, scenario="synthetic", seed=0,
                n=4, d=1, horizon=2, mu=1.0, lipschitz=1.0, normalization=1.0,
                delta_x=0.0, grad_bound=0.0, grad_drift=0.0,
            ),
            iterations=np.arange(3, dtype=np.int64),
            tracking_error=np.zeros(3),
            consensus_dev=np.zeros(3),
            avg_error=np.zeros(3),
        ),
        path,
    )
    data = path.read_bytes()
    offset = data.index(marker) + len(marker)
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    code = cli.main(["audit", "--record", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: record {path}: ") and err.count("\n") == 1
    assert f"can't decode byte 0xff in position {offset}" in err


def test_cli_audit_reports_an_out_of_regime_record(tmp_path, capsys):
    # circle_n5.cfg tunes dgt to a step far above the audit's regime
    # alpha <= (1 - beta)/(2L) = 0.00886: the audit declines and exits 2.
    config = replace(load_config(CONFIG_DIR / "circle_n5.cfg"), output_dir=str(tmp_path / "circle"))
    assert run_suite(config).rows[1].alpha == pytest.approx(0.0769, abs=1e-4)
    capsys.readouterr()
    code = cli.main(["audit", "--record", str(tmp_path / "circle" / "dgt.csv")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("audit not applicable to this record: ")
    assert captured.err.count("\n") == 1


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["paint"])


def _cli_outcome(argv, capsys):
    """Exit code (or SystemExit code), stdout and stderr of one ``cli.main`` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parser_is_stateless_across_calls(tmp_path, capsys, monkeypatch):
    # cli.main builds its parser once per process. Every call must answer as
    # if the parser were new, whichever calls came before it.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    monkeypatch.setenv("NETDRIFT_OUTPUT", str(tmp_path))
    alpha = max_stepsize("dgt", 1.0, 1.0, uniform_cycle_beta_5())
    audited = tmp_path / "audited.cfg"
    audited.write_text(f"scenario = II\np = 2\nhorizon = 200\nstepsizes = {alpha!r}\n"
                       "algorithms = dgt\ninit = optimum\noutput_dir = audited\n")
    assert cli.main(["run", "--config", str(audited)]) == 0
    meta = RunMetadata(
        algorithm="diffusion", alpha=0.1, beta=0.5, scenario="synthetic", seed=0,
        n=4, d=1, horizon=1, mu=1.0, lipschitz=1.0, normalization=1.0,
        delta_x=0.0, grad_bound=0.0, grad_drift=0.0,
    )
    planted = tmp_path / "planted.csv"
    write_record(TrajectoryRecord(metadata=meta, iterations=np.arange(2, dtype=np.int64),
                                  tracking_error=np.zeros(2), consensus_dev=np.zeros(2),
                                  avg_error=np.array([0.0, 1.0])), planted)
    suite = tmp_path / "suite.cfg"
    suite.write_text("scenario = static\np = 2\nhorizon = 50\nalgorithms = diffusion\noutput_dir = suite\n")
    calls = {
        "help": (["--help"], ("SystemExit", 0)),
        "unknown_command": (["paint"], ("SystemExit", 2)),
        "audit_without_record": (["audit"], ("SystemExit", 2)),
        "bounds": (["bounds", "--mu", "1", "--L", "1", "--beta", "0.5", "--alpha", "0.05",
                    "--dx", "1e-3", "--D", "1", "--dg", "0"], 0),
        "clean_audit": (["audit", "--record", str(tmp_path / "audited" / "dgt.csv")], 0),
        "planted_violation": (["audit", "--record", str(planted)], 2),
        "run": (["run", "--config", str(suite)], 0),
    }
    capsys.readouterr()
    cli._parser.cache_clear()  # the first order builds the parser, the second reuses it
    outcomes = [
        {name: _cli_outcome(calls[name][0], capsys) for name in order}
        for order in (list(calls), list(reversed(calls)))
    ]
    assert outcomes[0] == outcomes[1]
    assert {name: outcome[0] for name, outcome in outcomes[0].items()} == {
        name: code for name, (_, code) in calls.items()
    }
    src = str(Path(netdrift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    shell = subprocess.run(
        [sys.executable, "-m", "netdrift", "--help"], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert outcomes[0]["help"][1:] == (shell.stdout, shell.stderr)
