"""End-to-end acceptance gate for the tracking study.

Each test pins one headline property of the harness on fully seeded runs:
spectral constants of the standard topologies, tuned-method orderings per
scenario, static exactness, stepwise inequality audits, certificate and
majorant checks, closed-form drift constants, and the tracker identity.

Expensive run collections are shared through session fixtures, and every
test prints a one-line PASS/FAIL summary with the measured quantities so
the whole gate can be read off a verbose log.

Tuning protocol used throughout: each method's step size minimizes the
tail-mean tracking error over the default log-spaced grid truncated to the
steps its contraction model accepts (2/(mu+L) for diffusion and the two
history baselines; additionally (1-beta)/(2L) for gradient tracking). Ties
resolve toward the larger step.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from netdrift.analysis import (
    admissible_stepsize,
    audit_recursions,
    contraction_model,
    max_stepsize,
    resolvent_majorant,
    steady_state_bound,
)
from netdrift.experiment import (
    ExperimentConfig,
    build_network,
    build_objective,
    default_grid,
    run_single,
    steady_state_error,
    tune_stepsize,
)
from netdrift.problems import DriftProfile, drift_profile, least_squares_stream, shifting_consensus
from netdrift.topology import build_cycle, uniform_neighbor_weights

REFERENCE_GRID = [
    (mu, L, beta)
    for mu in (0.5, 1.0)
    for L in (1.0, 2.0)
    for beta in (0.0, 0.3, 0.6, 0.9, 0.99)
]


def _line(tag: str, ok: bool, detail: str) -> bool:
    print(f"acceptance[{tag}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _tuned(config, objective, wm, algorithm):
    """Best (error, alpha, record) over the admissible-range tuning grid."""
    cap = admissible_stepsize(algorithm, objective.mu, objective.lipschitz, wm.beta)
    grid = tuple(
        float(a)
        for a in default_grid(config, objective.mu, objective.lipschitz)
        if a <= cap * (1 + 1e-12)
    )
    capped = replace(config, stepsizes=grid)
    alpha, record = tune_stepsize(capped, algorithm, objective, wm)
    return steady_state_error(record, config.tail_fraction), alpha, record


@pytest.fixture(scope="session")
def drifting_lsq_comparison():
    """Tuned diffusion vs tracking on drifting least squares, cycle sizes 5/50/100."""
    t0 = time.perf_counter()
    results = {}
    for n in (5, 50, 100):
        config = ExperimentConfig(
            scenario="I", topology="cycle", n=n, horizon=5000, seed=0, init="optimum"
        )
        objective = build_objective(config)
        _, wm = build_network(config)
        per = {}
        for algorithm in ("diffusion", "dgt"):
            err, alpha, record = _tuned(config, objective, wm, algorithm)
            per[algorithm] = {"error": err, "alpha": alpha, "record": record}
        results[n] = per
    return {"results": results, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def rotation_comparisons():
    """Tuned errors of all four methods on the two rotation speeds, p=100."""
    out = {}
    for scenario in ("II", "III"):
        t0 = time.perf_counter()
        config = ExperimentConfig(
            scenario=scenario,
            topology="random",
            target_beta=0.89,
            weight_rule="metropolis",
            p=100,
            horizon=600,
            seed=0,
        )
        objective = build_objective(config)
        _, wm = build_network(config)
        errors = {}
        records = {}
        for algorithm in ("diffusion", "dgt", "extra", "exact_diffusion"):
            err, _, record = _tuned(config, objective, wm, algorithm)
            errors[algorithm] = err
            records[algorithm] = record
        out[scenario] = {
            "errors": errors,
            "records": records,
            "beta": wm.beta,
            "elapsed": time.perf_counter() - t0,
        }
    return out


@pytest.fixture(scope="session")
def inregime_runs():
    """Runs at the bound-regime step cap, feeding audits and dominance checks."""
    t0 = time.perf_counter()
    combos = [
        ("lsq-n5", ExperimentConfig(scenario="I", topology="cycle", n=5, horizon=400,
                                    seed=0, init="optimum")),
        ("rotation-p10", ExperimentConfig(scenario="II", topology="cycle", p=10, horizon=400,
                                          seed=0, init="optimum")),
    ]
    entries = []
    for label, config in combos:
        objective = build_objective(config)
        _, wm = build_network(config)
        drift = drift_profile(objective)
        for algorithm in ("diffusion", "dgt"):
            alpha = max_stepsize(algorithm, objective.mu, objective.lipschitz, wm.beta)
            record = run_single(config, objective, wm, algorithm, alpha)
            entries.append(
                {
                    "label": f"{label}/{algorithm}",
                    "algorithm": algorithm,
                    "record": record,
                    "drift": drift,
                    "mu": objective.mu,
                    "lipschitz": objective.lipschitz,
                    "beta": wm.beta,
                    "alpha": alpha,
                    "tail": config.tail_fraction,
                }
            )
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


def test_uniform_cycle_mixing_betas_match_references():
    t0 = time.perf_counter()
    beta = {n: uniform_neighbor_weights(build_cycle(n)).beta for n in (5, 50, 100)}
    elapsed = time.perf_counter() - t0
    ok = (
        abs(beta[5] - 0.539) <= 0.005
        and abs(beta[50] - 0.9947) <= 0.0005
        and abs(beta[100] - 0.9987) <= 0.0005
        and elapsed < 1.0
    )
    detail = (
        f"beta5={beta[5]:.4f} beta50={beta[50]:.5f} beta100={beta[100]:.5f} "
        f"elapsed={elapsed:.2f}s"
    )
    assert _line("cycle-beta", ok, detail), detail


def test_network_size_escalates_tracking_disadvantage(drifting_lsq_comparison):
    res = drifting_lsq_comparison["results"]
    elapsed = drifting_lsq_comparison["elapsed"]
    ratios = {n: res[n]["dgt"]["error"] / res[n]["diffusion"]["error"] for n in res}
    small_ordered = res[5]["diffusion"]["error"] <= res[5]["dgt"]["error"]
    escalates = ratios[5] < ratios[50] < ratios[100]
    ok = small_ordered and escalates and elapsed < 120.0
    detail = (
        f"ratio5={ratios[5]:.2f} ratio50={ratios[50]:.2f} ratio100={ratios[100]:.2f} "
        f"elapsed={elapsed:.1f}s"
    )
    assert _line("size-escalation", ok, detail), detail


def test_fast_rotation_ranks_diffusion_first(rotation_comparisons):
    data = rotation_comparisons["II"]
    errs = data["errors"]
    diffusion = errs["diffusion"]
    ordered = all(
        diffusion < errs[other] for other in ("dgt", "extra", "exact_diffusion")
    )
    ok = ordered and data["elapsed"] < 120.0
    detail = (
        f"diffusion={diffusion:.3e} dgt={errs['dgt']:.3e} extra={errs['extra']:.3e} "
        f"exact_diffusion={errs['exact_diffusion']:.3e} beta={data['beta']:.3f} "
        f"elapsed={data['elapsed']:.1f}s"
    )
    assert _line("fast-rotation", ok, detail), detail


def test_slow_rotation_ranks_tracking_first(rotation_comparisons):
    data = rotation_comparisons["III"]
    errs = data["errors"]
    ok = errs["dgt"] < errs["diffusion"] and data["elapsed"] < 120.0
    detail = (
        f"dgt={errs['dgt']:.3e} diffusion={errs['diffusion']:.3e} "
        f"beta={data['beta']:.3f} elapsed={data['elapsed']:.1f}s"
    )
    assert _line("slow-rotation", ok, detail), detail


def test_static_consensus_exactness_and_plateau_scaling():
    t0 = time.perf_counter()
    config = ExperimentConfig(scenario="static", topology="cycle", p=2, horizon=10000, seed=0)
    objective = build_objective(config)
    _, wm = build_network(config)
    alpha = 0.2
    assert alpha <= admissible_stepsize("dgt", objective.mu, objective.lipschitz, wm.beta)

    floors = {}
    for algorithm in ("dgt", "extra", "exact_diffusion"):
        record = run_single(config, objective, wm, algorithm, alpha)
        floors[algorithm] = float(record.tracking_error.min())
    exact = all(v < 1e-8 for v in floors.values())

    plateaus = []
    for a in (alpha, alpha / 2, alpha / 4):
        record = run_single(config, objective, wm, "diffusion", a)
        plateaus.append(steady_state_error(record, config.tail_fraction))
    positive = plateaus[0] > 1e-8
    ratios = (plateaus[0] / plateaus[1], plateaus[1] / plateaus[2])
    linear = all(1.6 <= r <= 2.4 for r in ratios)

    elapsed = time.perf_counter() - t0
    ok = exact and positive and linear and elapsed < 30.0
    detail = (
        f"floors={floors['dgt']:.1e}/{floors['extra']:.1e}/{floors['exact_diffusion']:.1e} "
        f"plateau={plateaus[0]:.3e} halving_ratios={ratios[0]:.2f},{ratios[1]:.2f} "
        f"elapsed={elapsed:.1f}s"
    )
    assert _line("static-exactness", ok, detail), detail


def test_stepwise_recursion_audits_are_clean(inregime_runs):
    worst = -math.inf
    worst_label = ""
    clean = True
    for entry in inregime_runs["entries"]:
        report = audit_recursions(entry["record"], entry["drift"], strict=False)
        for item in report.entries:
            if item.max_violation > worst:
                worst = item.max_violation
                worst_label = f"{entry['label']}:{item.name}"
        clean = clean and report.clean()
    elapsed = inregime_runs["elapsed"]
    ok = clean and elapsed < 30.0
    detail = f"worst_excess={worst:.3e} at {worst_label} elapsed={elapsed:.1f}s"
    assert _line("recursion-audits", ok, detail), detail


def test_contraction_certificates_and_majorant_on_grid():
    t0 = time.perf_counter()
    cert_margin = math.inf
    major_ok = True
    no_drift = DriftProfile(0.0, 0.0, 0.0)
    for mu, L, beta in REFERENCE_GRID:
        alpha_d = max_stepsize("diffusion", mu, L, beta)
        rho_d = contraction_model("diffusion", alpha_d, mu, L, beta, no_drift).rho
        cert_margin = min(cert_margin, (1 - 3 * mu * alpha_d / 8) - rho_d)
        alpha_t = max_stepsize("dgt", mu, L, beta)
        model = contraction_model("dgt", alpha_t, mu, L, beta, no_drift)
        cert_margin = min(cert_margin, (1 - mu * alpha_t / 4) - model.rho)
        inverse = np.linalg.inv(np.eye(3) - model.A)
        majorant = resolvent_majorant(alpha_t, mu, L, beta)
        major_ok = major_ok and bool(
            (inverse <= majorant * (1 + 1e-6) + 1e-15).all()
        )
    elapsed = time.perf_counter() - t0
    ok = cert_margin >= -1e-12 and major_ok and elapsed < 1.0
    detail = (
        f"min_certificate_margin={cert_margin:.3e} majorant_ok={major_ok} "
        f"points={len(REFERENCE_GRID)} elapsed={elapsed:.2f}s"
    )
    assert _line("spectral-certificates", ok, detail), detail


def test_steady_state_bounds_dominate_in_regime_runs(inregime_runs):
    slack = -math.inf
    slack_label = ""
    dominated = True
    for entry in inregime_runs["entries"]:
        record = entry["record"]
        err = steady_state_error(record, entry["tail"])
        bound = steady_state_bound(
            entry["algorithm"], entry["alpha"], entry["mu"],
            entry["lipschitz"], entry["beta"], entry["drift"],
        ) / record.metadata.normalization
        dominated = dominated and err <= bound
        if err / bound > slack:
            slack = err / bound
            slack_label = entry["label"]
    ok = dominated
    detail = f"max error/bound={slack:.3e} at {slack_label}"
    assert _line("bound-dominance", ok, detail), detail


def test_drift_constants_match_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (10, 100):
        n = 2 * p + 1
        root = math.sqrt(n)
        cases = (
            (p + 1, 2.0 * p * (p + 1) / root),
            (1, 4.0 * p / root),
        )
        for shift, drift_formula in cases:
            profile = drift_profile(shifting_consensus(p=p, shift=shift, horizon=40))
            dispersion_formula = p * (p + 1) / root
            worst = max(
                worst,
                abs(profile.grad_bound - dispersion_formula) / dispersion_formula,
                abs(profile.grad_drift - drift_formula) / drift_formula,
            )
    stream_profile = drift_profile(least_squares_stream(n=5, horizon=200, seed=0))
    stream_zero = stream_profile.grad_bound == 0.0 and stream_profile.grad_drift == 0.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and stream_zero and elapsed < 5.0
    detail = (
        f"max_rel_err={worst:.2e} lsq_D={stream_profile.grad_bound} "
        f"lsq_dg={stream_profile.grad_drift} elapsed={elapsed:.1f}s"
    )
    assert _line("drift-closed-forms", ok, detail), detail


def test_tracker_identity_holds_along_every_run(
    drifting_lsq_comparison, rotation_comparisons, inregime_runs
):
    records = [res["dgt"]["record"] for res in drifting_lsq_comparison["results"].values()]
    records += [rotation_comparisons[s]["records"]["dgt"] for s in ("II", "III")]
    records += [
        e["record"] for e in inregime_runs["entries"] if e["algorithm"] == "dgt"
    ]
    gaps = [r.tracker_identity_max for r in records]
    worst = max(gaps)
    ok = all(g is not None for g in gaps) and worst <= 1e-10
    detail = f"max_identity_gap={worst:.3e} over {len(records)} runs"
    assert _line("tracker-identity", ok, detail), detail
