#!/usr/bin/env python3
"""Pin the golden traces that tests/test_golden.py compares against.

Runs every method once on six problems (least squares on a 5-agent, a
20-agent and a 2,100-agent cycle, scenario II with p=10 on a cycle, the
static problem, and scenario III with p=1000 on the benchmark's 2,001-agent
random network) at a fixed step size and seed, and stores the recorded
series in tests/data/golden.npz together with the config text and step size
of each case, so the test can rebuild the cases from the file alone. The
20-agent case is there because numpy sums fewer than 8 values in plain
order, so only a network of 8 or more agents tells a pairwise sum over
agents from a sequential one. The 2,100-agent case holds 4,200 stack values
a step, more than one of ``run``'s blocks, so a one-lane run of it reduces
one-step blocks that read the stacks in place. The full-scale case pins
one-column products and gradients at the size the benchmark runs; its
series do not read beta, so ARPACK's last bits do not enter them.

It also runs ``netdrift run`` on scripts/configs/circle_n5.cfg,
static_cycle.cfg and one more suite, scenario I on a 100-agent cycle with
all four methods and the default 30-point grid, whose sweeps are wide
enough to read their stacks in place. Each config's text and the sha256 of
every file its run writes go to tests/data/config_digests.json, which
tests/test_golden.py checks. The two rotation configs are left out: their
beta comes from ARPACK, whose last bits depend on the LAPACK build.

Last, it writes tests/data/setup_constants.json: the repr of mu, L, delta_x,
the gradient bound and the gradient drift, with the config text they come
from, for the benchmark's problem shapes at config seed 0 (lsq_tune,
rotation_p1000 and audit_replay's two problems) and for every
scripts/configs file. beta is pinned too where the graph is not random;
on a random graph it comes from ARPACK. A set-up reduction that sums in a
new order then fails tests/test_golden.py.

Rerun it only when the recorded outputs are meant to change:

    PYTHONPATH=src python3 scripts/pin_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from netdrift import cli
from netdrift.algorithms import ALGORITHMS
from netdrift.experiment import OUTPUT_ROOT_ENV, build_network, build_objective, parse_config, run_single
from netdrift.problems import drift_profile

# Row order of each stored (series, iteration) array; y_dev only for dgt.
SERIES = ("tracking_error", "consensus_dev", "avg_error", "y_dev")

# name -> (config text, step size)
CASES = {
    "lsq_n5": ("scenario = I\ntopology = cycle\nn = 5\nhorizon = 30\nseed = 0\n", 0.01),
    "lsq_n20": ("scenario = I\ntopology = cycle\nn = 20\nhorizon = 30\nseed = 0\n", 0.01),
    "lsq_n2100": ("scenario = I\ntopology = cycle\nn = 2100\nhorizon = 30\nseed = 0\n", 0.01),
    "rotation_p10": ("scenario = II\ntopology = cycle\np = 10\nhorizon = 30\nseed = 0\n", 0.1),
    "static_p2": ("scenario = static\ntopology = cycle\np = 2\nhorizon = 30\nseed = 0\n", 0.2),
    "rotation_p1000": (
        "scenario = III\ntopology = random\nedge_probability = 0.0055\n"
        "weight_rule = metropolis\np = 1000\nhorizon = 30\nseed = 0\n",
        0.02,
    ),
}

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO / "tests" / "data" / "golden.npz"
# The scripts/configs files whose whole output tree is pinned by digest, next to golden.npz.
DIGEST_CONFIGS = ("circle_n5.cfg", "static_cycle.cfg")
DIGESTS_NAME = "config_digests.json"
# A suite whose sweeps read their stacks in place (30 lanes x 100 agents x d = 2
# values a step, more than half a block), pinned under this name next to them.
INPLACE_NAME = "inplace_n100.cfg"
INPLACE_SUITE = (
    "scenario = I\ntopology = cycle\nn = 100\nhorizon = 100\n"
    "algorithms = diffusion, dgt, extra, exact_diffusion\nseed = 0\noutput_dir = inplace_n100\n"
)
CONSTANTS_NAME = "setup_constants.json"
# The problem keys of benchmarks/workloads.py, at config seed 0, by workload.
BENCHMARK_SHAPES = {
    "lsq_tune": "scenario = I\ntopology = cycle\nn = 100\nhorizon = 1000\nseed = 0\n",
    "rotation_p1000": (
        "scenario = III\ntopology = random\nedge_probability = 0.0055\n"
        "weight_rule = metropolis\np = 1000\nhorizon = 600\nseed = 0\n"
    ),
    "audit_replay/lsq_n5": "scenario = I\ntopology = cycle\nn = 5\nhorizon = 2000\nseed = 0\n",
    "audit_replay/rotation_p10": "scenario = II\ntopology = cycle\np = 10\nhorizon = 2000\nseed = 0\n",
}


def golden_arrays() -> dict:
    arrays = {}
    for name, (text, alpha) in CASES.items():
        config = parse_config(text)
        objective = build_objective(config)
        _, wm = build_network(config)
        arrays[f"{name}/config"] = np.array(text)
        arrays[f"{name}/alpha"] = np.array(alpha)
        for algorithm in ALGORITHMS:
            record = run_single(config, objective, wm, algorithm, alpha)
            rows = [getattr(record, series) for series in SERIES]
            arrays[f"{name}/{algorithm}"] = np.array([row for row in rows if row is not None])
    return arrays


def config_digests() -> dict:
    """{config name: {"config": its text, "digests": {path under the output root: sha256}}}.

    One entry per ``netdrift run``: each of DIGEST_CONFIGS and the in-place suite.
    """
    texts = {name: (REPO / "scripts" / "configs" / name).read_text() for name in DIGEST_CONFIGS}
    texts[INPLACE_NAME] = INPLACE_SUITE
    pinned = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in texts.items():
            config, root = Path(scratch, name), Path(scratch, "trees", name)
            config.write_text(text)
            with mock.patch.dict(os.environ, {OUTPUT_ROOT_ENV: str(root)}), \
                    contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["run", "--config", str(config)]) != 0:
                    raise SystemExit(f"netdrift run failed on {name}")
            digests = {
                path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()
            }
            pinned[name] = {"config": text, "digests": digests}
    return pinned


def setup_constants() -> dict:
    """{shape: {"config": its text, constant: repr}} for the benchmark shapes and scripts/configs."""
    texts = dict(BENCHMARK_SHAPES)
    for path in sorted((REPO / "scripts" / "configs").glob("*.cfg")):
        texts[path.name] = path.read_text()
    pinned = {}
    for name, text in texts.items():
        config = parse_config(text)
        objective = build_objective(config)
        drift = drift_profile(objective)
        values = {"mu": objective.mu, "lipschitz": objective.lipschitz, "delta_x": drift.delta_x,
                  "grad_bound": drift.grad_bound, "grad_drift": drift.grad_drift}
        if config.topology != "random":
            values["beta"] = build_network(config)[1].beta
        pinned[name] = {"config": text, **{key: repr(value) for key, value in values.items()}}
    return pinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(args.output, **golden_arrays())
    print(f"wrote {args.output} ({args.output.stat().st_size} bytes)")
    digests = args.output.with_name(DIGESTS_NAME)
    digests.write_text(json.dumps(config_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {digests}")
    constants = args.output.with_name(CONSTANTS_NAME)
    constants.write_text(json.dumps(setup_constants(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {constants}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
