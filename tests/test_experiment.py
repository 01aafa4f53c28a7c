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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netdrift
from netdrift import cli
from netdrift.algorithms import ALGORITHMS
from netdrift.analysis import max_stepsize
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
    select_best,
    steady_state_error,
    tune_stepsize,
)
from netdrift.problems import LeastSquaresStream, ShiftingConsensus
from netdrift.records import RunMetadata, TrajectoryRecord, read_record, write_record
from netdrift.topology import ConstructionError, WeightRuleError


def uniform_cycle_beta_5() -> float:
    return max(abs(1 + 2 * math.cos(2 * math.pi * j / 5)) / 3 for j in range(1, 5))

# ---------------------------------------------------------------------------
# config parsing


FULL_CONFIG = """
# demo configuration
scenario = II
topology = random
target_beta = 0.89
horizon = 120
stepsizes = 0.001, 0.01, 0.1
algorithms = diffusion, dgt, extra
seed = 7
tail_fraction = 0.25
output_dir = demo_out
p = 10
spacing_m = 0.5
shift = 11
init = optimum
"""


def test_parse_config_reads_every_field():
    config = parse_config(FULL_CONFIG)
    assert config.scenario == "II"
    assert config.topology == "random"
    assert config.target_beta == 0.89
    assert config.horizon == 120
    assert config.stepsizes == (0.001, 0.01, 0.1)
    assert config.algorithms == ("diffusion", "dgt", "extra")
    assert config.seed == 7
    assert config.tail_fraction == 0.25
    assert config.output_dir == "demo_out"
    assert config.p == 10
    assert config.spacing_m == 0.5
    assert config.shift == 11
    assert config.init == "optimum"


def test_parse_config_applies_defaults():
    config = parse_config("scenario = static\np = 1\n")
    assert config.topology == "cycle"
    assert config.horizon == 1000
    assert config.tail_fraction == 0.2
    assert config.algorithms == ("diffusion", "dgt")
    assert config.stepsizes is None
    assert config.init == "zeros"


# (config text, pinned message or None)
REJECTED_CONFIGS = [
    ("scenario = static\np = 1\nwidget = 3\n", None),
    ("scenario = IV\np = 1\n", None),
    ("scenario = static\np = 1\ntail_fraction = 0.7\n", None),
    ("scenario = static\np = 1\ntail_fraction = 0\n", None),
    ("scenario = static\np = 1\nhorizon = 9\n", None),
    ("scenario = static\np = 1\nstepsizes = 0.1, 0.01\n", None),
    ("scenario = static\np = 1\nstepsizes = -0.1, 0.01\n", "stepsizes must be positive, got [-0.1, 0.01]"),
    ("scenario = static\np = 1\nstepsizes = 0.01, nan\n", "stepsizes must be positive, got [0.01, nan]"),
    ("scenario = static\np = 1\nstepsizes = nan\n", "stepsizes must be positive, got [nan]"),
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
    ("scenario = I\nn = 5\nrows_per_agent = 0\n", "rows_per_agent must be at least 1, got 0"),
    ("scenario = static\np = 1\nrows_per_agent = -2\n", "rows_per_agent must be at least 1, got -2"),
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
    ("scenario = II\np = 3\nspacing_m = 0\n", "spacing_m must be positive and finite, got 0.0"),
    ("scenario = III\np = 3\nspacing_m = -2\n", "spacing_m must be positive and finite, got -2.0"),
    ("scenario = static\np = 3\nspacing_m = nan\n", "spacing_m must be positive and finite, got nan"),
    ("scenario = II\np = 3\nspacing_m = inf\n", "spacing_m must be positive and finite, got inf"),
    ("scenario = II\np = 2\nn = 50\n", "n applies to scenario I only, not to II"),
    ("scenario = static\np = 2\nrows_per_agent = 3\n",
     "rows_per_agent applies to scenario I only, not to static"),
    ("scenario = I\nn = 5\np = 2\n", "p applies to scenario II/III/static only, not to I"),
    ("scenario = I\nn = 5\nshift = 3\n", "shift applies to scenario II/III/static only, not to I"),
    ("scenario = I\nn = 5\nspacing_m = 2.5\n",
     "spacing_m applies to scenario II/III/static only, not to I"),
]


@pytest.mark.parametrize("text, message", REJECTED_CONFIGS, ids=[text for text, _ in REJECTED_CONFIGS])
def test_parse_config_rejects_invalid(text, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    if message is not None:
        assert str(excinfo.value) == message


def test_scenario_keys_at_their_default_are_accepted():
    # A key only another scenario reads may still be written at its default.
    assert parse_config("scenario = I\nn = 5\nspacing_m = 1.0\n").spacing_m == 1.0
    assert parse_config("scenario = II\np = 2\nrows_per_agent = 1\n").rows_per_agent == 1


@pytest.mark.parametrize("spacing", ["1e154", "1e-160", "1e-200"])
def test_spacing_outside_the_float_range_names_spacing_m(spacing):
    # Unchecked at p = 2, these overflow a drift norm, tune dgt on a tail
    # error that underflowed to 0, and underflow the normalization to 0.
    with pytest.raises(ConfigError) as excinfo:
        parse_config(f"scenario = static\np = 2\nhorizon = 50\nspacing_m = {spacing}\n")
    assert str(excinfo.value) == (
        f"spacing_m must lie in [4.97e-155, 1.2e+153] at p = 2, got {float(spacing)}"
    )


def test_spacing_at_the_float_range_edges_scales_the_tail_error(tmp_path):
    # tracking_error divides an RMS distance by the squared optimum, so the
    # tuned tail error scales as 1/spacing_m.
    scaled = {}
    for spacing in (1e153, 1e-150):
        config = parse_config(
            f"scenario = static\np = 2\nhorizon = 50\nspacing_m = {spacing!r}\n"
            f"output_dir = {tmp_path / repr(spacing)}\n"
        )
        rows = run_suite(config).rows
        scaled[spacing] = [(row.alpha, row.steady_state_error * spacing) for row in rows]
    assert [alpha for alpha, _ in scaled[1e153]] == [alpha for alpha, _ in scaled[1e-150]]
    for (_, high), (_, low) in zip(scaled[1e153], scaled[1e-150]):
        assert high == pytest.approx(low, rel=1e-9)


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
    mismatch = parse_config("scenario = II\np = 2\nhorizon = 40\ntopology = grid\nrows = 2\ncols = 2\n")
    with pytest.raises(ConfigError):
        build_network(mismatch)


def test_cycle_network_imports_neither_sparse_linalg_nor_csgraph():
    # A cycle's beta is closed form. Importing scipy.sparse.linalg or
    # scipy.sparse.csgraph adds about 10 MB of resident memory to a run.
    code = (
        "import sys\n"
        "from netdrift.experiment import build_network, parse_config\n"
        "build_network(parse_config('scenario = I\\ntopology = cycle\\nn = 100\\n'))\n"
        "print([m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') if m in sys.modules])\n"
    )
    src = str(Path(netdrift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_build_network_names_weight_rule():
    config = parse_config("scenario = I\nn = 4\nhorizon = 40\ntopology = line\n")
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
    config = parse_config("scenario = II\np = 1\ntopology = random\ntarget_beta = 0.89\n")
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


def test_select_best_tie_breaks_toward_larger_stepsize():
    assert select_best((0.1, 0.5, 1.0), (3.0, 1.0, 1.0)) == 1.0
    assert select_best((0.1, 0.5, 1.0), (1.0, 2.0, math.inf)) == 0.1
    with pytest.raises(TuningError, match="0.5"):
        select_best((0.1, 0.5), (math.inf, math.inf))


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
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "init": draw(st.sampled_from(INITS)),
        "tail_fraction": draw(st.sampled_from([0.1, 0.2, 0.5])),
        "algorithms": tuple(
            draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4, unique=True))
        ),
    }
    if scenario == "I":
        kwargs["n"] = draw(st.integers(min_value=1, max_value=25))
        kwargs["rows_per_agent"] = draw(st.integers(min_value=1, max_value=3))
    else:
        kwargs["p"] = draw(st.sampled_from(range(13)))
        kwargs["shift"] = draw(st.none() | st.integers(min_value=-1, max_value=30))
        spacings = [1.0, 0.5, 3.0, 1.0, 1.0, 1.0, 0.0, -1.0, math.inf, math.nan, 1e200, 1e-200]
        kwargs["spacing_m"] = draw(st.sampled_from(spacings))
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


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["paint"])
