"""The netdrift benchmark: one workload, one run, one JSON line of metrics.

    python3 benchmarks/bench.py --workload lsq_tune --seed 0 --seconds 30 --trace 0

Run it from a checkout: it imports ``netdrift`` from ``src/`` next to this
directory, and exits with code 1, printing no result, when that is missing.

With ``--trace 0`` the run repeats rounds of the workload (set-up, one
``netdrift run``, checks, audit replays) until ``--seconds`` is used up and
reports the end-to-end metrics, each the median over the run's rounds. Every
timed phase runs with the reference task of ``hostspeed.py`` interleaved and
is reported at that task's reference speed, which cancels the load of other
tenants of a shared host. With ``--trace 1`` it makes one round with every
public function of the seven layers wrapped in spans, plus one untraced
suite for comparison, and reports the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the machine and list every metric with its unit.

Every round's outputs are checked (see ``workloads.py``); at the default
seed they are also compared with ``reference.json``, which ``pin.py``
writes. BLAS and OpenMP are pinned to one thread, and all outputs go to a
temporary directory under ``.bench_tmp/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import cProfile
import filecmp
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# A round is repeated at least this often, so every median has two samples.
MIN_ROUNDS = 2
# The slowest order statistic reported as the tail has this many samples above it.
TAIL_SAMPLES = 10


def import_program():
    """Put the checkout's ``src/`` first on the path and import netdrift from it."""
    package = ROOT / "src" / "netdrift"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no netdrift sources at {package}")
    sys.path.insert(0, str(package.parent))
    import netdrift

    if Path(netdrift.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported netdrift from {netdrift.__file__}, not {package}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(values: list) -> tuple[float, float]:
    """Value and percentile of the order statistic with TAIL_SAMPLES samples above it.

    With too few samples for that, it is the median.
    """
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_SAMPLES - 1, (len(ordered) - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# -- end-to-end run -----------------------------------------------------------


def verify(workload, rnd, out_root: Path, reference: list | None, round_trip: bool) -> dict:
    """Run every check of a round; a check that raises counts as a miss."""
    try:
        outcome = workload.check(rnd, out_root, round_trip)
    except Exception as exc:
        rnd.fail(rnd.suites[0].run_op, f"check raised {type(exc).__name__}: {exc}")
        return {"alpha": {}, "error": {}, "audit": {}}
    if reference is not None and rnd.index < len(reference):
        workload.compare(rnd, outcome, reference[rnd.index])
        rnd.compared = True
    return outcome


def replay(workload, rnd, out_root: Path) -> None:
    for _ in range(workload.audit_reps):
        rnd.audit_s.append(rnd.audit_pass(out_root))


def measure(workload, seed: int, seconds: float, workdir: Path, reference) -> tuple[list, dict, list]:
    from hostspeed import REFERENCE_UNIT_S, HostSpeed

    speed = HostSpeed()
    deadline = perf_counter() + seconds
    rounds = []
    # Per round: each phase's own time and, under "ref", scaled to the reference speed.
    own, ref, unit_s = defaultdict(list), defaultdict(list), []
    while True:
        started = perf_counter()
        rnd = workload.new_round(len(rounds), seed, workdir)
        out_root = rnd.workdir / "out"
        with speed.timed() as setup:
            ok = rnd.guard("setup", workload.setup, rnd)
        if ok:
            with speed.timed() as suite:
                ok = rnd.guard("suite", workload.suite, rnd, out_root)
        if ok:
            outcome = verify(workload, rnd, out_root, reference, round_trip=not rounds)
            with speed.timed() as audit:
                replay(workload, rnd, out_root)
            workload.check_audit_ops(rnd, outcome)
            phases = {
                "setup_s": (setup.wall / workload.setup_reps, setup.ref_wall / workload.setup_reps),
                "suite_s": (suite.wall, suite.ref_wall),
                "suite_cpu_s": (suite.cpu, suite.ref_cpu),
                "audit_s": (audit.wall / workload.audit_reps, audit.ref_wall / workload.audit_reps),
            }
            if workload.records_in_setup:
                setup_own, setup_ref = phases["setup_s"]
                phases["setup_s"] = (setup_own + suite.wall, setup_ref + suite.ref_wall)
            for name, (own_s, ref_s) in phases.items():
                own[name].append(own_s)
                ref[name].append(ref_s)
            unit_s += [setup.unit_s, suite.unit_s, audit.unit_s]
        rnd.release()
        rounds.append(rnd)
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS and now + (now - started) > deadline:
            break

    notes = [f"reference unit: median {statistics.median(unit_s or [math.nan]) * 1e6:.1f} us, "
             f"range {min(unit_s or [math.nan]) * 1e6:.1f}-{max(unit_s or [math.nan]) * 1e6:.1f} us "
             f"over {len(unit_s)} phases; reference speed {REFERENCE_UNIT_S * 1e6:.0f} us"]
    metrics = {}
    for name in ("setup_s", "suite_s", "suite_cpu_s", "audit_s"):
        values = ref[name] or [math.nan]
        slow, pct = tail(values)
        notes.append(f"{name}: median {statistics.median(values):.6g}, p{pct:.0f} {slow:.6g}, "
                     f"min {min(values):.6g} over {len(ref[name])} rounds at reference speed; "
                     f"as run: median {statistics.median(own[name] or [math.nan]):.6g}")
        metrics[name] = metric(statistics.median(values), "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return rounds, metrics, notes


# -- traced run ---------------------------------------------------------------


def same_outputs(plain_root: Path, traced_root: Path, rnd) -> list[str]:
    """Files of the suites' output directories that differ between the two runs."""
    differ = []
    for suite in rnd.suites:
        a, b = plain_root / suite.config.output_dir, traced_root / suite.config.output_dir
        names = sorted(p.name for p in a.iterdir())
        if names != sorted(p.name for p in b.iterdir()):
            differ.append(f"{suite.label}: file lists differ")
            continue
        _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        differ += [f"{suite.label}/{name}" for name in mismatch + errors]
    return differ


def micro_step_split(suite) -> dict:
    """Per-call cost of the two kernels of a step at the suite's real (n, d)."""
    import numpy as np

    objective, wm = suite.objective, suite.wm
    n, d = objective.n, objective.d
    x = np.tile(objective.optimum(0), (n, 1)) + 0.01 * np.random.default_rng(0).standard_normal((n, d))
    csr = wm.csr

    def per_call_us(fn, calls=200, batches=15):
        times = []
        for _ in range(batches):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            times.append((perf_counter() - t0) / calls * 1e6)
        return statistics.median(times)

    item = csr.data.itemsize + csr.indices.itemsize
    return {
        "problems.gradient_us": metric(per_call_us(lambda: objective.gradient_stack(1, x)), "us"),
        "algorithms.mix_us": metric(per_call_us(lambda: csr @ x), "us"),
        "algorithms.mix_flops": metric(2 * csr.nnz * d, "flop"),
        "algorithms.mix_bytes": metric(
            csr.nnz * item + (n + 1) * csr.indptr.itemsize + 2 * n * d * x.itemsize, "bytes"
        ),
    }


def profile_one_run(suite, alpha: float) -> tuple[dict, float]:
    """cProfile shares of gradient evaluation and sparse mixing in one run."""
    from netdrift import experiment

    algorithm = suite.config.algorithms[0]
    profiler = cProfile.Profile()
    profiler.runcall(experiment.run_single, suite.config, suite.objective, suite.wm, algorithm, alpha)
    stats = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in stats.values())
    gradient = sum(e[3] for (file, _, fn), e in stats.items() if fn == "gradient_stack")
    mixing = sum(e[3] for (file, _, fn), e in stats.items() if fn == "__matmul__" and "sparse" in file)
    return {
        "problems.gradient_share_cprofile": metric(gradient / total, "fraction"),
        "algorithms.mix_share_cprofile": metric(mixing / total, "fraction"),
    }, total


def layer_metrics(tracer, walls: dict) -> tuple[dict, dict]:
    from tracing import LAYERS

    spans = tracer.spans
    own = tracer.self_times()
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def total(*names):
        return sum(spans[i].duration for name in names for i in by_name[name])

    def calls(*names):
        return sum(len(by_name[name]) for name in names)

    def counted(name):
        return sum(spans[i].count for i in by_name[name])

    layer_self = dict.fromkeys(LAYERS, 0.0)
    phase_self = {phase: dict.fromkeys(LAYERS, 0.0) for phase in ("setup", "suite", "audit")}
    for index, span in enumerate(spans):
        layer_self[span.layer] += own[index]
        phase_self[span.phase][span.layer] += own[index]

    runs = by_name["algorithms.run"]
    steps = counted("algorithms.run")
    run_ms = [spans[i].duration * 1e3 for i in runs]
    reruns = {i for i in by_name["experiment.run_single"]
              if spans[i].parent >= 0 and spans[spans[i].parent].name == "experiment.run_suite"}
    rerun_steps = sum(spans[i].count for i in runs if spans[i].parent in reruns)
    run_tail, tail_pct = tail(run_ms) if run_ms else (0.0, 0.0)
    run_set = set(runs)
    step_gradients = sum(spans[i].duration for i in by_name["problems.gradient_stack"]
                         if spans[i].parent in run_set)
    graph_builders = ("topology.build_random", "topology.build_cycle", "topology.build_line",
                      "topology.build_grid", "topology.build_complete")

    m = {
        "algorithms.run_calls": metric(len(runs), "count"),
        "algorithms.steps": metric(steps, "count"),
        "algorithms.run_s": metric(total("algorithms.run"), "s"),
        "algorithms.self_s": metric(layer_self["algorithms"], "s"),
        "algorithms.us_per_step": metric(total("algorithms.run") / max(steps, 1) * 1e6, "us"),
        "algorithms.run_ms_p50": metric(statistics.median(run_ms) if run_ms else 0.0, "ms"),
        "algorithms.run_ms_tail": metric(run_tail, "ms"),
        "algorithms.run_tail_pct": metric(tail_pct, "%"),
        "experiment.tune_s": metric(total("experiment.tune_stepsize"), "s"),
        "experiment.rerun_s": metric(sum(spans[i].duration for i in reruns), "s"),
        "experiment.self_s": metric(layer_self["experiment"], "s"),
        "experiment.rerun_share": metric(rerun_steps / max(steps, 1), "fraction"),
        "problems.objective_s": metric(
            total("problems.least_squares_stream", "problems.shifting_consensus"), "s"),
        "problems.drift_profile_s": metric(total("problems.drift_profile"), "s"),
        "problems.gradient_s": metric(total("problems.gradient_stack"), "s"),
        "problems.gradient_calls": metric(calls("problems.gradient_stack"), "count"),
        "problems.self_s": metric(layer_self["problems"], "s"),
        "problems.gradient_share_traced": metric(
            step_gradients / max(total("algorithms.run"), 1e-12), "fraction"),
        "topology.network_s": metric(total("experiment.build_network"), "s"),
        "topology.build_random_s": metric(total("topology.build_random"), "s"),
        "topology.graphs_built": metric(calls(*graph_builders), "count"),
        "topology.weights_s": metric(
            total("topology.metropolis_weights", "topology.uniform_neighbor_weights"), "s"),
        "topology.spectral_gap_s": metric(total("topology.spectral_gap"), "s"),
        "topology.spectral_gap_calls": metric(calls("topology.spectral_gap"), "count"),
        "topology.self_s": metric(layer_self["topology"], "s"),
        "records.write_s": metric(total("records.write_record"), "s"),
        "records.write_rows": metric(counted("records.write_record"), "count"),
        "records.write_bytes": metric(tracer.written_bytes(), "bytes"),
        "records.read_s": metric(total("records.read_record"), "s"),
        "records.read_rows": metric(counted("records.read_record"), "count"),
        "records.self_s": metric(layer_self["records"], "s"),
        "analysis.bound_s": metric(total("analysis.steady_state_bound"), "s"),
        "analysis.audit_s": metric(total("analysis.audit_recursions"), "s"),
        "analysis.audit_calls": metric(calls("analysis.audit_recursions"), "count"),
        "analysis.self_s": metric(layer_self["analysis"], "s"),
        "cli.self_s": metric(layer_self["cli"], "s"),
        "trace.setup_s": metric(walls["setup"], "s"),
        "trace.suite_s": metric(walls["suite"], "s"),
        "trace.audit_s": metric(walls["audit"], "s"),
        "trace.attributed_fraction": metric(sum(own) / sum(walls.values()), "fraction"),
    }
    for phase in ("suite", "audit"):
        for layer in LAYERS:
            m[f"{layer}.{phase}_share"] = metric(phase_self[phase][layer] / walls[phase], "fraction")

    per_method = defaultdict(lambda: [0.0, 0])
    for i in runs:
        per_method[spans[i].label][0] += spans[i].duration
        per_method[spans[i].label][1] += spans[i].count
    us_per_step = {alg: t / max(n, 1) * 1e6 for alg, (t, n) in per_method.items()}
    return m, us_per_step


def trace(workload, seed: int, workdir: Path, reference) -> tuple[list, dict, list]:
    """One untraced and one traced round on the same inputs; per-layer metrics."""
    from tracing import Tracer
    from workloads import read_summary

    plain = workload.new_round(0, seed, workdir / "plain")
    plain_out = plain.workdir / "out"
    rounds = [plain]
    if not (plain.guard("setup", workload.setup, plain)
            and plain.guard("suite", workload.suite, plain, plain_out)):
        return rounds, {}, []

    tracer = Tracer()
    rnd = workload.new_round(0, seed, workdir / "traced")
    out_root = rnd.workdir / "out"
    rounds.append(rnd)

    phases = {
        "setup": (workload.setup, rnd),
        "suite": (workload.suite, rnd, out_root),
        "audit": (replay, workload, rnd, out_root),
    }
    walls = {}
    with tracer.patched():
        for phase, (fn, *args) in phases.items():
            t0 = perf_counter()
            with tracer.in_phase(phase):
                ok = rnd.guard(phase, fn, *args)
            walls[phase] = perf_counter() - t0
            if not ok:
                return rounds, {}, []

    outcome = verify(workload, rnd, out_root, reference, round_trip=True)
    workload.check_audit_ops(rnd, outcome)
    for name in same_outputs(plain_out, out_root, rnd):
        rnd.fail(rnd.suites[0].run_op, f"traced run wrote different bytes: {name}")

    metrics, us_per_step = layer_metrics(tracer, walls)
    metrics["trace.overhead_s"] = metric(sum(rnd.suite_s) - sum(plain.suite_s), "s")
    first = plain.suites[0]
    metrics.update(micro_step_split(first))
    alpha = float(read_summary(first.output_dir(plain_out))[0]["alpha"])
    profiled, profiled_s = profile_one_run(first, alpha)
    metrics.update(profiled)
    notes = [
        "us/step under tracing, per method: "
        + ", ".join(f"{alg} {us:.1f}" for alg, us in sorted(us_per_step.items())),
        f"cProfile of one {first.config.algorithms[0]} run at alpha={alpha!r}: "
        f"{profiled_s:.3f} s profiled",
    ]
    return rounds, metrics, notes


# -- entry point ----------------------------------------------------------------


def describe_machine() -> str:
    import numpy
    import scipy

    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"machine: {platform.machine()} {platform.system()} {platform.release()}; "
        f"nproc={len(os.sched_getaffinity(0))}; python={platform.python_version()}; "
        f"numpy={numpy.__version__}; scipy={scipy.__version__}; threads: {threads}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload.name]

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        if args.trace:
            rounds, metrics, notes = trace(workload, args.seed, workdir, reference)
        else:
            rounds, metrics, notes = measure(workload, args.seed, args.seconds, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    attempted = sum(len(rnd.ops) for rnd in rounds)
    failed = sum(rnd.failed_ops() for rnd in rounds)
    failures = [message for rnd in rounds for _, message in rnd.failures]
    print(f"netdrift benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(describe_machine())
    print(f"config: {json.dumps(workload.keys())}")
    compared = sum(rnd.compared for rnd in rounds)
    print(f"rounds: {len(rounds)} (config seeds {rounds[0].config_seed}..{rounds[-1].config_seed}); "
          f"compared with reference.json: {compared}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for note in notes:
        print(note)
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    for message in failures:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
