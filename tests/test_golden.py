"""Regression tests against pinned outputs, all written by scripts/pin_golden.py.

tests/data/golden.npz holds every method's recorded series on four small
problems, on least squares with n=2100 and on scenario III with p=1000, at a
fixed step size and seed. The n=2100 case holds 4,200 stack values a step,
more than one block of ``run``'s budget, so by default it reduces one-step
blocks that read the stacks in place, and in blocks of 2 and 7 steps it
files them.
The series must reproduce bitwise, except avg_error, which may differ by
1e-12 relative: it is a norm taken through OpenBLAS's ddot, and the OpenBLAS
bundled with the numpy wheel picks that kernel per CPU at start-up, so its
rounding is up to the CPU rather than to netdrift.

tests/data/config_digests.json holds the config text and the sha256 of
every file that ``netdrift run`` writes for scripts/configs/circle_n5.cfg,
static_cycle.cfg, inplace_n100.cfg and inplace_p100.cfg, so those trees
must come out byte-identical. The first two must pin their files' text. The
last two are suites with the default 30-point grid: all four methods on a
100-agent least-squares cycle (d = 2, 6,000 stack values a step), and
diffusion and dgt in scenario III on a 201-agent cycle (d = 1, 6,030
values). Each step is more than half a block, so their sweeps reduce
one-step blocks, and tune_stepsize scores each dgt sweep from its tracking
error alone, read in place, before it reruns the winner.
The records print avg_error in full, so a CPU whose kernel rounds that norm
differently fails here too: the digests were pinned under the SkylakeX
kernel, and under OPENBLAS_CORETYPE=Haswell the same wheel fails those of
circle_n5.cfg and inplace_n100.cfg. The two rotation configs are compared
by hand, because their beta comes from ARPACK.

tests/data/setup_constants.json holds the repr of mu, L, delta_x, the
gradient bound and the gradient drift of the benchmark's problem shapes and
of every scripts/configs file, and beta where the graph is not random. Each
must come out bitwise, so a set-up reduction that sums in a new order fails
here and not only in the benchmark's reference check. The config text pinned
for each benchmark shape must set up what benchmarks/workloads.py runs at
seed 0.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from netdrift import algorithms, cli, experiment
from netdrift.algorithms import ALGORITHMS
from netdrift.experiment import (
    OUTPUT_ROOT_ENV,
    build_network,
    build_objective,
    load_config,
    parse_config,
    run_single,
)
from netdrift.problems import drift_profile

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
with np.load(DATA / "golden.npz") as _pinned:
    GOLDEN = dict(_pinned)
DIGESTS = json.loads((DATA / "config_digests.json").read_text())
# The pinned suites whose sweeps reduce one-step blocks: the dimension d of
# their problem and the methods they run.
INPLACE_SUITES = {"inplace_n100.cfg": (2, ALGORITHMS), "inplace_p100.cfg": (1, ("diffusion", "dgt"))}
CONSTANTS = json.loads((DATA / "setup_constants.json").read_text())
CASES = sorted({key.split("/")[0] for key in GOLDEN})
SERIES = ("tracking_error", "consensus_dev", "avg_error", "y_dev")
# The benchmark's problem shapes in setup_constants.json: a workload, or a workload/problem.
BENCHMARK_SHAPES = ("lsq_tune", "rotation_p1000", "audit_replay/lsq_n5", "audit_replay/rotation_p10")
# What build_objective and build_network read of a config (shift through its scenario and p).
SETUP_FIELDS = ("scenario", "topology", "n", "p", "shift", "horizon", "seed", "rows", "cols",
                "edge_probability", "target_beta", "weight_rule")


def _check_case(case, monkeypatch=None, steps=None):
    # steps: the length of run's blocks of recorded steps; by default the 31
    # steps of a case fit in one block.
    config = parse_config(str(GOLDEN[f"{case}/config"]))
    alpha = float(GOLDEN[f"{case}/alpha"])
    objective = build_objective(config)
    _, wm = build_network(config)
    if steps is not None:
        monkeypatch.setattr(algorithms, "_BLOCK_VALUES", steps * objective.n * objective.d)
    for algorithm in ALGORITHMS:
        record = run_single(config, objective, wm, algorithm, alpha)
        pinned = dict(zip(SERIES, GOLDEN[f"{case}/{algorithm}"]))
        assert (record.y_dev is not None) == ("y_dev" in pinned), algorithm
        for name, expected in pinned.items():
            got = getattr(record, name)
            if name == "avg_error":
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=algorithm)
            else:
                assert np.array_equal(got, expected), f"{case}/{algorithm}/{name}"


@pytest.mark.parametrize("case", CASES)
def test_series_match_golden_traces(case):
    _check_case(case)


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("case", CASES)
def test_series_match_golden_traces_in_blocks_of_steps(monkeypatch, case, steps):
    _check_case(case, monkeypatch, steps)


def _tree_digests(config_path, root, monkeypatch):
    """{path under root: sha256} of every file ``netdrift run`` writes for a config file."""
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    assert cli.main(["run", "--config", str(config_path)]) == 0
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_config_trees_match_pinned_digests(name, tmp_path, monkeypatch):
    # In the in-place suites the dgt sweep, and only it, records the tracking
    # error alone: the run that tune_stepsize asks for with tracking_only.
    pinned = DIGESTS[name]
    if name in INPLACE_SUITES:
        config = parse_config(pinned["config"])
        objective = build_objective(config)
        assert config.stepsizes is None and (objective.d, config.algorithms) == INPLACE_SUITES[name]
        assert algorithms.one_step_blocks(objective.n, objective.d, config.grid_points)
    else:
        assert (CONFIGS / name).read_text() == pinned["config"]
    tracking_only = []

    def run(algorithm, *args, **kwargs):
        if kwargs.get("tracking_only"):
            tracking_only.append(algorithm)
        return algorithms.run(algorithm, *args, **kwargs)

    monkeypatch.setattr(experiment, "run", run)
    config_path = tmp_path / name
    config_path.write_text(pinned["config"])
    assert _tree_digests(config_path, tmp_path / "out", monkeypatch) == pinned["digests"]
    assert tracking_only == (["dgt"] if name in INPLACE_SUITES else [])


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_setup_constants_match_pinned_reprs(name):
    pinned = dict(CONSTANTS[name])
    config = parse_config(pinned.pop("config"))
    objective = build_objective(config)
    drift = drift_profile(objective)
    got = {"mu": objective.mu, "lipschitz": objective.lipschitz, "delta_x": drift.delta_x,
           "grad_bound": drift.grad_bound, "grad_drift": drift.grad_drift}
    if "beta" in pinned:
        got["beta"] = build_network(config)[1].beta
    assert {key: repr(value) for key, value in got.items()} == pinned


def test_setup_constants_cover_every_script_config():
    assert set(CONSTANTS) >= {path.name for path in CONFIGS.glob("*.cfg")}


@pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
def test_pinned_benchmark_shapes_are_the_workload_keys(shape, tmp_path, benchmark_module):
    # The workload's keys at seed 0, written as the benchmark writes them.
    workloads = benchmark_module("workloads")
    name, _, problem = shape.partition("/")
    keys = workloads.WORKLOADS[name].keys()
    keys = {**(keys[problem] if problem else keys), "seed": 0}
    benchmark = load_config(workloads.write_config(tmp_path / "shape.cfg", keys))
    pinned = parse_config(CONSTANTS[shape]["config"])
    assert {f: getattr(pinned, f) for f in SETUP_FIELDS} == {f: getattr(benchmark, f) for f in SETUP_FIELDS}
