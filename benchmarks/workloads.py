"""The three netdrift benchmark workloads and their correctness checks.

Every workload is a sequence of rounds. Round ``i`` of a run with benchmark
seed ``s`` uses config seed ``s * 1000 + i``, so the same seed always gives
the same inputs, and every round draws fresh ones. A round sets up (the
builders), runs the suite through ``netdrift run``, checks what the suite
wrote, and replays ``netdrift audit`` over the written records.

The program is driven only through its public entry points:
``netdrift.cli.main`` and the builders ``experiment.build_objective``,
``experiment.build_network`` and ``problems.drift_profile``. The checks read
the outputs back with ``records.read_record`` and ``analysis.audit_recursions``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from netdrift import analysis, cli, experiment, problems
from netdrift.records import read_record

# Methods that have an audited recursion; the others have none to replay.
AUDITED = ("diffusion", "dgt")
# ROADMAP aim 2: a refactor must stay within 1e-12 relative of the pinned outputs.
RTOL = 1e-12


@dataclass
class Op:
    """One call of ``netdrift.cli.main`` with its exit code and timings."""

    argv: list
    rc: int | None
    wall: float
    cpu: float
    stdout: str
    stderr: str
    key: str = ""


def call_cli(argv: list) -> Op:
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a raise is a failed operation, never a crash of the benchmark
        rc = None
        err.write(f"raised {type(exc).__name__}: {exc}")
    return Op(argv, rc, perf_counter() - wall0, process_time() - cpu0, out.getvalue(), err.getvalue())


def write_config(path: Path, keys: dict) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return path


def read_summary(directory: Path) -> list[dict]:
    with open(directory / "summary.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def audit_verdict(csv_path: Path) -> tuple[str, float | None]:
    """The verdict ``netdrift audit`` should reach, from the library, with the worst excess."""
    record, drift = experiment.audit_record_file(csv_path)
    try:
        report = analysis.audit_recursions(record, drift, strict=False)
    except analysis.RegimeError:
        return "not_applicable", None
    worst = max(e.max_violation for e in report.entries if e.enforced)
    return ("clean" if report.clean() else "violated"), worst


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@dataclass
class Suite:
    """One ``netdrift run`` config of a round, with the objects its setup built."""

    label: str
    config_path: Path
    config: experiment.ExperimentConfig
    objective: object = None
    wm: object = None
    run_op: Op | None = None

    def output_dir(self, root: Path) -> Path:
        return root / self.config.output_dir


@dataclass
class Round:
    """Inputs and outputs of one round; timings are appended by the phases."""

    index: int
    config_seed: int
    workdir: Path
    suites: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    suite_s: list = field(default_factory=list)
    suite_cpu_s: list = field(default_factory=list)
    audit_s: list = field(default_factory=list)
    compared: bool = False

    def fail(self, op: Op | None, message: str) -> None:
        """Mark ``op`` failed; a miss found by a check fails the run that produced it."""
        self.failures.append((op, message))

    def guard(self, phase: str, fn, *args) -> bool:
        """Run one phase; an exception is a failed operation of the round, not a crash."""
        try:
            fn(*args)
            return True
        except Exception as exc:
            op = Op([phase], None, 0.0, 0.0, "", f"raised {type(exc).__name__}: {exc}")
            self.ops.append(op)
            self.fail(op, f"{phase} of round {self.index} {op.stderr}")
            return False

    def release(self) -> None:
        """Drop the built objects, so that a round's memory does not outlive it."""
        for suite in self.suites:
            suite.objective = suite.wm = None

    def failed_ops(self) -> int:
        return len({id(op) for op, _ in self.failures})

    def run(self, suite: Suite, out_root: Path) -> Op:
        """``netdrift run`` on one suite config, writing under ``out_root``."""
        with _output_root(out_root):
            op = call_cli(["run", "--config", str(suite.config_path)])
        self.ops.append(op)
        suite.run_op = op
        if op.rc != 0:
            self.fail(op, f"netdrift run {suite.label} exited {op.rc}: {op.stderr.strip()}")
        return op

    def audit_pass(self, out_root: Path) -> float:
        """``netdrift audit`` over every audited record the round's suites wrote."""
        wall = 0.0
        for suite in self.suites:
            for algorithm in suite.config.algorithms:
                if algorithm not in AUDITED:
                    continue
                path = suite.output_dir(out_root) / f"{algorithm}.csv"
                op = call_cli(["audit", "--record", str(path)])
                op.key = f"{suite.label}/{algorithm}"
                self.ops.append(op)
                wall += op.wall
                if op.rc not in (0, 2) or op.stderr.startswith("error:"):
                    self.fail(op, f"netdrift audit {path.name} exited {op.rc}: {op.stderr.strip()}")
        return wall


@contextlib.contextmanager
def _output_root(path: Path):
    previous = os.environ.get(experiment.OUTPUT_ROOT_ENV)
    os.environ[experiment.OUTPUT_ROOT_ENV] = str(path)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[experiment.OUTPUT_ROOT_ENV]
        else:
            os.environ[experiment.OUTPUT_ROOT_ENV] = previous


class Workload:
    """Shared round driver; subclasses say how a round is set up and run."""

    name = ""
    why = ""
    # Passes of ``netdrift audit`` over the round's records, one audit_s sample each.
    audit_reps = 50
    audit_must_be_clean = False
    # Set-ups per round; setup_s is the time of one.
    setup_reps = 1
    # Whether the suite's runs are part of set-up: they write the records the audit reads.
    records_in_setup = False

    def keys(self) -> dict:
        """The config keys of the workload, for BENCHMARK.json and the log."""
        raise NotImplementedError

    def new_round(self, index: int, seed: int, workdir: Path) -> Round:
        config_seed = seed * 1000 + index
        rnd = Round(index, config_seed, workdir / f"round{index}")
        rnd.workdir.mkdir(parents=True)
        return rnd

    def setup(self, rnd: Round) -> None:
        raise NotImplementedError

    def suite(self, rnd: Round, out_root: Path) -> None:
        raise NotImplementedError

    # -- checks -----------------------------------------------------------

    def check(self, rnd: Round, out_root: Path, round_trip: bool) -> dict:
        """Check the suites' outputs; return the outcome that the reference pins."""
        outcome = {"alpha": {}, "error": {}, "audit": {}}
        for suite in rnd.suites:
            config, objective = suite.config, suite.objective
            directory = suite.output_dir(out_root)
            try:
                rows = read_summary(directory)
            except OSError as exc:
                rnd.fail(suite.run_op, f"{suite.label}: no summary: {exc}")
                continue
            algorithms = tuple(row["algorithm"] for row in rows)
            if algorithms != config.algorithms:
                rnd.fail(suite.run_op, f"{suite.label}: tuned {algorithms}, configured {config.algorithms}")
            grid = {float(a) for a in (config.stepsizes
                                       or experiment.default_grid(config, objective.mu,
                                                                  objective.lipschitz))}
            for row in rows:
                key = f"{suite.label}/{row['algorithm']}"
                alpha, error = float(row["alpha"]), float(row["steady_state_error"])
                outcome["alpha"][key] = row["alpha"]
                outcome["error"][key] = error
                if not math.isfinite(error):
                    rnd.fail(suite.run_op, f"{key}: tail error {error} is not finite")
                if alpha not in grid:
                    rnd.fail(suite.run_op, f"{key}: tuned alpha {alpha!r} is not on the grid")
                path = directory / f"{row['algorithm']}.csv"
                record = read_record(path)
                if experiment.steady_state_error(record, config.tail_fraction) != error:
                    rnd.fail(suite.run_op, f"{key}: record read back disagrees with summary.csv")
                if round_trip:
                    self._check_round_trip(rnd, suite, row["algorithm"], alpha, record, key)
                if row["algorithm"] in AUDITED:
                    verdict, worst = audit_verdict(path)
                    outcome["audit"][key] = [verdict, worst]
                    if self.audit_must_be_clean and verdict != "clean":
                        rnd.fail(suite.run_op, f"{key}: audit verdict {verdict}, expected clean")
        return outcome

    @staticmethod
    def _check_round_trip(rnd, suite, algorithm, alpha, record, key) -> None:
        fresh = experiment.run_single(suite.config, suite.objective, suite.wm, algorithm, alpha)
        for name in ("iterations", "tracking_error", "consensus_dev", "avg_error", "y_dev"):
            a, b = getattr(fresh, name), getattr(record, name)
            same = (a is None and b is None) or (
                a is not None and b is not None and np.array_equal(a, b)
            )
            if not same:
                rnd.fail(suite.run_op, f"{key}: {name} read back differs from the run that wrote it")

    @staticmethod
    def check_audit_ops(rnd: Round, outcome: dict) -> None:
        """Each ``netdrift audit`` exit code must agree with the library's verdict."""
        for op in rnd.ops:
            verdict = outcome["audit"].get(op.key, [None])[0]
            if verdict is not None and op.rc is not None and (op.rc == 0) != (verdict == "clean"):
                rnd.fail(op, f"netdrift audit {op.key} exited {op.rc} but the verdict is {verdict}")

    @staticmethod
    def compare(rnd: Round, outcome: dict, reference: dict) -> None:
        """Compare a round's outcome with the one pinned for the default seed."""
        op = rnd.suites[0].run_op
        for key, alpha in reference["alpha"].items():
            if outcome["alpha"].get(key) != alpha:
                rnd.fail(op, f"{key}: tuned alpha {outcome['alpha'].get(key)}, pinned {alpha}")
        for key, error in reference["error"].items():
            got = outcome["error"].get(key)
            if got is None or not close(got, error):
                rnd.fail(op, f"{key}: tail error {got!r}, pinned {error!r}")
        for key, (verdict, worst) in reference["audit"].items():
            got = outcome["audit"].get(key, [None, None])
            same_worst = (worst is None and got[1] is None) or (
                worst is not None and got[1] is not None and close(got[1], worst)
            )
            if got[0] != verdict or not same_worst:
                rnd.fail(op, f"{key}: audit {got}, pinned {[verdict, worst]}")


class TuningSuite(Workload):
    """One tuning suite per round; the audit replays its diffusion and dgt records."""

    # Its two records are short, so more passes give each round's audit_s enough time.
    audit_reps = 150

    def __init__(self, name: str, why: str, keys: dict, setup_reps: int):
        self.name, self.why, self._keys = name, why, keys
        self.setup_reps = setup_reps

    def keys(self) -> dict:
        return dict(self._keys)

    def new_round(self, index, seed, workdir) -> Round:
        rnd = super().new_round(index, seed, workdir)
        keys = {**self._keys, "seed": rnd.config_seed, "output_dir": f"{self.name}_{rnd.config_seed}"}
        path = write_config(rnd.workdir / f"{self.name}.cfg", keys)
        rnd.suites.append(Suite(self.name, path, experiment.load_config(path)))
        return rnd

    def setup(self, rnd: Round) -> None:
        suite = rnd.suites[0]
        for _ in range(self.setup_reps):
            t0 = perf_counter()
            objective = experiment.build_objective(suite.config)
            _, wm = experiment.build_network(suite.config)
            problems.drift_profile(objective)
            rnd.setup_s.append(perf_counter() - t0)
        suite.objective, suite.wm = objective, wm

    def suite(self, rnd: Round, out_root: Path) -> None:
        op = rnd.run(rnd.suites[0], out_root)
        rnd.suite_s.append(op.wall)
        rnd.suite_cpu_s.append(op.cpu)


class AuditReplay(Workload):
    """Long in-regime records written by ``netdrift run``, then replayed by ``netdrift audit``.

    Setup produces the records: for each problem it builds the objective and
    network, takes the certified step ``analysis.max_stepsize`` of each
    method, and runs a one-point-grid suite at that step. These are the
    combinations the acceptance gate audits clean, so every audit must be
    clean at any seed.
    """

    audit_must_be_clean = True
    records_in_setup = True

    def __init__(self, name: str, why: str, problem_keys: dict):
        self.name, self.why, self._problems = name, why, problem_keys

    def keys(self) -> dict:
        return {label: dict(keys) for label, keys in self._problems.items()}

    def new_round(self, index, seed, workdir) -> Round:
        rnd = super().new_round(index, seed, workdir)
        for label, keys in self._problems.items():
            path = write_config(rnd.workdir / f"{label}.cfg", {**keys, "seed": rnd.config_seed})
            rnd.suites.append(Suite(label, path, experiment.load_config(path)))
        return rnd

    def setup(self, rnd: Round) -> None:
        """Build each problem and write one config per method at its certified step."""
        t0 = perf_counter()
        problems_built, rnd.suites = rnd.suites, []
        for base in problems_built:
            objective = experiment.build_objective(base.config)
            _, wm = experiment.build_network(base.config)
            for algorithm in AUDITED:
                alpha = analysis.max_stepsize(algorithm, objective.mu, objective.lipschitz, wm.beta)
                label = f"{base.label}_{algorithm}"
                keys = {
                    **self._problems[base.label],
                    "seed": rnd.config_seed,
                    "algorithms": algorithm,
                    "stepsizes": repr(float(alpha)),
                    "output_dir": f"{label}_{rnd.config_seed}",
                }
                path = write_config(rnd.workdir / f"{label}.cfg", keys)
                rnd.suites.append(Suite(label, path, experiment.load_config(path), objective, wm))
        rnd.setup_s.append(perf_counter() - t0)

    def suite(self, rnd: Round, out_root: Path) -> None:
        wall = cpu = 0.0
        for suite in rnd.suites:
            op = rnd.run(suite, out_root)
            wall, cpu = wall + op.wall, cpu + op.cpu
        rnd.suite_s.append(wall)
        rnd.suite_cpu_s.append(cpu)
        # Producing the records is this workload's set-up: builders plus the runs.
        rnd.setup_s[-1] += wall


WORKLOADS = {
    w.name: w
    for w in (
        TuningSuite(
            "lsq_tune",
            "scenario I on a 100-agent cycle, default 30-point grid: ~60 short runs bound by "
            "per-step numpy overhead, closed-form beta, so algorithms does the work",
            {
                "scenario": "I",
                "topology": "cycle",
                "n": 100,
                "horizon": 1000,
                "init": "optimum",
                "algorithms": "diffusion, dgt",
            },
            setup_reps=10,
        ),
        TuningSuite(
            "rotation_p1000",
            "scenario III at full scale, p=1000 (2001 agents), four methods, on a random graph "
            "with beta near 0.89: dense 2001x2001 Metropolis weights and the power iteration",
            {
                "scenario": "III",
                "topology": "random",
                # The edge probability calibrate_beta finds for beta 0.89 at seed 0.
                # calibrate_beta itself fails on about one graph seed in four at
                # this size, so the workload does not calibrate per seed.
                "edge_probability": 0.0055,
                "weight_rule": "metropolis",
                "p": 1000,
                "horizon": 600,
                "grid_points": 8,
                "algorithms": "diffusion, dgt, extra, exact_diffusion",
            },
            setup_reps=1,
        ),
        AuditReplay(
            "audit_replay",
            "long in-regime diffusion and dgt records replayed by netdrift audit: records reads "
            "CSV and analysis audits, no step is simulated",
            {
                "lsq_n5": {
                    "scenario": "I",
                    "topology": "cycle",
                    "n": 5,
                    "horizon": 2000,
                    "init": "optimum",
                },
                "rotation_p10": {
                    "scenario": "II",
                    "topology": "cycle",
                    "p": 10,
                    "horizon": 2000,
                    "init": "optimum",
                },
            },
        ),
    )
}
