"""Regression test against pinned traces (tests/data/golden.npz).

The file holds every method's recorded series on four small problems at a
fixed step size and seed, written by scripts/pin_golden.py. The series must
reproduce bitwise, except avg_error, which may differ by 1e-12 relative: it
is a norm taken through the BLAS dot kernel, whose rounding is up to the
BLAS build rather than to netdrift.
"""

from pathlib import Path

import numpy as np
import pytest

from netdrift import algorithms
from netdrift.algorithms import ALGORITHMS
from netdrift.experiment import build_network, build_objective, parse_config, run_single

with np.load(Path(__file__).parent / "data" / "golden.npz") as _pinned:
    GOLDEN = dict(_pinned)
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
