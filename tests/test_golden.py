"""Regression tests against pinned outputs, both written by scripts/pin_golden.py.

tests/data/golden.npz holds every method's recorded series on four small
problems and on scenario III with p=1000, at a fixed step size and seed.
The series must reproduce bitwise, except avg_error, which may differ by
1e-12 relative: it is a norm taken through the BLAS dot kernel, whose
rounding is up to the BLAS build rather than to netdrift.

tests/data/config_digests.json holds the sha256 of every file that
``netdrift run`` writes for scripts/configs/circle_n5.cfg and
static_cycle.cfg, so those two trees must come out byte-identical. The
records print avg_error in full, so a BLAS build that rounds that norm
differently fails here too; the two rotation configs are compared by hand,
because their beta comes from ARPACK.

tests/data/setup_constants.json holds the repr of mu, L, delta_x, the
gradient bound and the gradient drift of the benchmark's problem shapes and
of every scripts/configs file, and beta where the graph is not random. Each
must come out bitwise, so a set-up reduction that sums in a new order fails
here and not only in the benchmark's reference check.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from netdrift import algorithms, cli
from netdrift.algorithms import ALGORITHMS
from netdrift.experiment import OUTPUT_ROOT_ENV, build_network, build_objective, parse_config, run_single
from netdrift.problems import drift_profile

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
with np.load(DATA / "golden.npz") as _pinned:
    GOLDEN = dict(_pinned)
DIGESTS = json.loads((DATA / "config_digests.json").read_text())
CONSTANTS = json.loads((DATA / "setup_constants.json").read_text())
CASES = sorted({key.split("/")[0] for key in GOLDEN})
SERIES = ("tracking_error", "consensus_dev", "avg_error", "y_dev")


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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_config_trees_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["run", "--config", str(CONFIGS / name)]) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert written == DIGESTS[name]


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
