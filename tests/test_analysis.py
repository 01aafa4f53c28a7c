"""Tests for contraction models, steady-state bounds, and trajectory audits.

Oracles: spectral radii are cross-checked against the characteristic polynomial,
bound values against hand arithmetic, and the audit logic against synthetic
records with a planted violation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdrift.analysis import (
    AuditEntry,
    AuditReport,
    AuditViolation,
    RegimeError,
    audit_recursions,
    contraction_model,
    max_stepsize,
    resolvent_majorant,
    steady_state_bound,
)
from netdrift.algorithms import run
from netdrift.problems import DriftProfile, drift_profile, least_squares_stream, shifting_consensus
from netdrift.records import RunMetadata, TrajectoryRecord
from netdrift.topology import build_cycle, uniform_neighbor_weights

GRID = [
    (mu, L, beta)
    for mu in (0.5, 1.0)
    for L in (1.0, 2.0)
    for beta in (0.0, 0.3, 0.6, 0.9, 0.99)
]

NO_DRIFT = DriftProfile(0.0, 0.0, 0.0)


def rho_oracle(matrix) -> float:
    """Perron root of a nonnegative 2x2 or 3x3 matrix, found without an eigensolver.

    2x2: the larger root of l^2 - tr*l + det, in closed form. 3x3: the largest
    real root of the characteristic cubic l^3 - tr*l^2 + m*l - det, where m is
    the sum of the principal 2x2 minors, by Newton's method from the largest
    row sum. That sum bounds rho from above, and by Perron-Frobenius rho is at
    least the real part of every eigenvalue, so rho >= tr/3. The cubic is thus
    convex and increasing right of rho, and Newton descends monotonically onto it.
    """
    a = [[float(x) for x in row] for row in matrix]
    if len(a) == 2:
        (a11, a12), (a21, a22) = a
        tr, det = a11 + a22, a11 * a22 - a12 * a21
        return (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    tr = a11 + a22 + a33
    m = (a11 * a22 - a12 * a21) + (a11 * a33 - a13 * a31) + (a22 * a33 - a23 * a32)
    det = a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31) + a13 * (a21 * a32 - a22 * a31)
    lam = max(map(sum, a))
    for _ in range(500):
        value = ((lam - tr) * lam + m) * lam - det
        slope = (3.0 * lam - 2.0 * tr) * lam + m
        if not (value > 0.0 and slope > 0.0):  # on the root, up to rounding
            break
        lam -= value / slope
    return lam


# ---------------------------------------------------------------------------
# contraction matrices


def test_diffusion_matrix_and_offset_entries():
    alpha, mu, L, beta = 0.02, 0.5, 2.0, 0.7
    drift = DriftProfile(delta_x=2e-3, grad_bound=0.5, grad_drift=0.2)
    model = contraction_model("diffusion", alpha, mu, L, beta, drift)
    expected_A = np.array([[1 - alpha * mu / 2, alpha * L], [alpha * beta * L, beta]])
    assert np.array_equal(model.A, expected_A)
    expected_b = np.array(
        [
            (1 - alpha * mu / 2) * 2e-3,
            alpha * beta * L * 2e-3 + alpha * beta * 0.5,
        ]
    )
    assert np.allclose(model.b, expected_b, rtol=0, atol=0)


def test_dgt_matrix_and_offset_entries():
    alpha, mu, L, beta = 0.001, 0.5, 2.0, 0.6
    drift = DriftProfile(delta_x=1e-3, grad_bound=0.5, grad_drift=0.2)
    model = contraction_model("dgt", alpha, mu, L, beta, drift)
    expected_A = np.array(
        [
            [(1 + beta) / 2, 5 * L, 3 * L],
            [alpha * beta, beta, 0.0],
            [0.0, alpha * L, 1 - alpha * mu / 2],
        ]
    )
    assert np.array_equal(model.A, expected_A)
    expected_b = np.array([L * 1e-3 + 0.2, 0.0, 1e-3])
    assert np.allclose(model.b, expected_b, rtol=0, atol=0)


@pytest.mark.parametrize("mu,L,beta", GRID)
def test_diffusion_rho_matches_eigensolver(mu, L, beta):
    alpha = max_stepsize("diffusion", mu, L, beta)
    model = contraction_model("diffusion", alpha, mu, L, beta, NO_DRIFT)
    assert abs(model.rho - rho_oracle(model.A)) <= 1e-10


@pytest.mark.parametrize("mu,L,beta", GRID)
def test_dgt_rho_matches_eigensolver(mu, L, beta):
    alpha = max_stepsize("dgt", mu, L, beta)
    model = contraction_model("dgt", alpha, mu, L, beta, NO_DRIFT)
    assert abs(model.rho - rho_oracle(model.A)) <= 1e-10


def test_diffusion_rho_is_triangular_case_without_coupling():
    model = contraction_model("diffusion", 0.4, 1.0, 1.0, 0.0, NO_DRIFT)
    assert model.rho == pytest.approx(1 - 0.4 / 2, abs=1e-12)


def test_rho_approaches_one_for_vanishing_stepsize():
    diff = contraction_model("diffusion", 1e-12, 1.0, 1.0, 0.5, NO_DRIFT)
    dgt = contraction_model("dgt", 1e-12, 1.0, 1.0, 0.0, NO_DRIFT)
    for rho in (diff.rho, dgt.rho):
        assert 1 - 1e-9 <= rho <= 1 + 1e-12


def test_contraction_preconditions_name_the_bound():
    with pytest.raises(RegimeError, match="2/\\(mu \\+ L\\)"):
        contraction_model("diffusion", 1.5, 1.0, 1.0, 0.5, NO_DRIFT)
    with pytest.raises(RegimeError, match="mu <= L"):
        contraction_model("diffusion", 0.1, 2.0, 1.0, 0.5, NO_DRIFT)
    with pytest.raises(RegimeError, match="beta"):
        contraction_model("diffusion", 0.1, 1.0, 1.0, 1.0, NO_DRIFT)
    with pytest.raises(RegimeError, match="positive"):
        contraction_model("diffusion", 0.0, 1.0, 1.0, 0.5, NO_DRIFT)
    with pytest.raises(RegimeError, match="\\(1 - beta\\)/\\(2L\\)"):
        contraction_model("dgt", 0.3, 1.0, 1.0, 0.5, NO_DRIFT)


@pytest.mark.parametrize("algorithm", ["diffusion", "dgt"])
@pytest.mark.parametrize("check", [contraction_model, steady_state_bound], ids=lambda f: f.__name__)
def test_nan_stepsize_is_out_of_regime(check, algorithm):
    # a nan step compares false against every limit, so it must fail the
    # regime test instead of slipping through to a nan bound or eigvals
    with pytest.raises(RegimeError, match="step size must be positive, got nan"):
        check(algorithm, math.nan, 1.0, 1.0, 0.5, DriftProfile(1e-3, 1.0, 1.0))


@given(
    mu=st.floats(0.1, 1.0),
    ratio=st.floats(1.0, 4.0),
    beta=st.floats(0.0, 0.95),
    scale=st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_diffusion_rate_certificate_below_max_stepsize(mu, ratio, beta, scale):
    L = mu * ratio
    alpha = scale * max_stepsize("diffusion", mu, L, beta)
    model = contraction_model("diffusion", alpha, mu, L, beta, NO_DRIFT)
    assert model.rho <= 1 - 3 * mu * alpha / 8 + 1e-11


@given(
    mu=st.floats(0.1, 1.0),
    ratio=st.floats(1.0, 4.0),
    beta=st.floats(0.0, 0.95),
    scale=st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_dgt_rate_certificate_below_max_stepsize(mu, ratio, beta, scale):
    L = mu * ratio
    alpha = scale * max_stepsize("dgt", mu, L, beta)
    model = contraction_model("dgt", alpha, mu, L, beta, NO_DRIFT)
    assert model.rho <= 1 - mu * alpha / 4 + 1e-11


@pytest.mark.parametrize("mu,L,beta", GRID)
def test_rate_certificates_on_reference_grid(mu, L, beta):
    alpha_d = max_stepsize("diffusion", mu, L, beta)
    rho_d = contraction_model("diffusion", alpha_d, mu, L, beta, NO_DRIFT).rho
    assert rho_d <= 1 - 3 * mu * alpha_d / 8 + 1e-12
    alpha_t = max_stepsize("dgt", mu, L, beta)
    assert contraction_model("dgt", alpha_t, mu, L, beta, NO_DRIFT).rho <= 1 - mu * alpha_t / 4 + 1e-12


@pytest.mark.parametrize("mu,L,beta", GRID)
def test_resolvent_majorant_dominates_inverse(mu, L, beta):
    alpha = max_stepsize("dgt", mu, L, beta)
    model = contraction_model("dgt", alpha, mu, L, beta, NO_DRIFT)
    inverse = np.linalg.inv(np.eye(3) - model.A)
    majorant = resolvent_majorant(alpha, mu, L, beta)
    assert (inverse >= -1e-12).all()
    assert (inverse <= majorant * (1 + 1e-6) + 1e-15).all()


@pytest.mark.parametrize(
    "alpha,mu,L,beta,message",
    [
        (0.1, 1.0, 1.0, 1.0, "beta must lie in \\[0, 1\\)"),
        (0.0, 1.0, 1.0, 0.5, "step size must be positive"),
        (-1.0, 1.0, 1.0, 0.5, "step size must be positive"),
        (math.nan, 1.0, 1.0, 0.5, "step size must be positive"),
        # at 47x the cap the majorant no longer dominates the inverse
        (47 * max_stepsize("dgt", 0.5, 1.0, 0.6), 0.5, 1.0, 0.6, "\\(1 - beta\\)\\^2 mu/\\(768 L\\^2\\)"),
    ],
    ids=["beta-one", "zero-step", "negative-step", "nan-step", "beyond-cap"],
)
def test_resolvent_majorant_rejects_out_of_regime(alpha, mu, L, beta, message):
    with pytest.raises(RegimeError, match=message):
        resolvent_majorant(alpha, mu, L, beta)


# ---------------------------------------------------------------------------
# step-size regimes and steady-state bounds


def test_max_stepsize_reference_values():
    assert max_stepsize("diffusion", 1.0, 1.0, 0.0) == pytest.approx(0.1, rel=1e-15)
    assert max_stepsize("dgt", 1.0, 1.0, 0.0) == pytest.approx(1.0 / 768.0, rel=1e-15)
    assert max_stepsize("diffusion", 1.0, 1.0, 1 - 1e-12) < 1e-11
    assert max_stepsize("dgt", 1.0, 1.0, 1 - 1e-6) < 1e-11
    with pytest.raises(ValueError):
        max_stepsize("extra", 1.0, 1.0, 0.5)


@pytest.mark.parametrize("mu,L,beta", GRID)
def test_dgt_max_stepsize_is_the_curvature_term(mu, L, beta):
    # 3(1-beta)^2/(80L) and (1-beta)/(2mu), the other two terms of the paper's
    # minimum, exceed this one whenever 0 < mu <= L
    assert max_stepsize("dgt", mu, L, beta) == (1 - beta) ** 2 * mu / (768 * L**2)


def test_diffusion_bound_hand_arithmetic():
    drift = DriftProfile(delta_x=1e-3, grad_bound=1.0, grad_drift=0.5)
    value = steady_state_bound("diffusion", 0.05, 1.0, 1.0, 0.5, drift)
    assert value == pytest.approx(0.384, rel=1e-12)


def test_diffusion_bound_degenerate_cases():
    only_gradients = DriftProfile(delta_x=0.0, grad_bound=1.0, grad_drift=0.0)
    assert steady_state_bound("diffusion", 0.05, 1.0, 1.0, 0.0, only_gradients) == 0.0
    lo = steady_state_bound("diffusion", 0.01, 1.0, 1.0, 0.5, only_gradients)
    hi = steady_state_bound("diffusion", 0.02, 1.0, 1.0, 0.5, only_gradients)
    assert hi == pytest.approx(2 * lo, rel=1e-12)


def test_dgt_bound_hand_arithmetic():
    alpha = 0.25 / 768
    drift = DriftProfile(delta_x=0.0, grad_bound=0.5, grad_drift=1.0)
    value = steady_state_bound("dgt", alpha, 1.0, 1.0, 0.5, drift)
    assert value == pytest.approx(32 * alpha, rel=1e-12)
    assert value == pytest.approx(0.0104166666, rel=1e-6)


def test_dgt_bound_degenerate_cases():
    alpha = 1.0 / 768
    assert steady_state_bound("dgt", alpha, 1.0, 1.0, 0.0, NO_DRIFT) == 0.0
    drift = DriftProfile(delta_x=0.3, grad_bound=0.0, grad_drift=9.9)
    only_drift = steady_state_bound("dgt", alpha, 1.0, 1.0, 0.0, drift)
    assert only_drift == pytest.approx(4 * 0.3 / alpha, rel=1e-12)


def test_bounds_reject_out_of_regime_stepsizes():
    with pytest.raises(RegimeError):
        steady_state_bound("diffusion", 0.2, 1.0, 1.0, 0.5, DriftProfile(1e-3, 1.0, 1.0))
    with pytest.raises(RegimeError):
        steady_state_bound("dgt", 0.01, 1.0, 1.0, 0.5, DriftProfile(1e-3, 1.0, 1.0))


@given(
    beta_a=st.floats(0.0, 0.99),
    beta_b=st.floats(0.0, 0.99),
)
@settings(max_examples=60, deadline=None)
def test_bounds_nondecreasing_in_network_penalty(beta_a, beta_b):
    lo, hi = sorted((beta_a, beta_b))
    alpha = 0.9 * max_stepsize("dgt", 1.0, 1.0, 0.99)
    drift = DriftProfile(delta_x=1e-3, grad_bound=1.0, grad_drift=1.0)
    d_lo = steady_state_bound("diffusion", alpha, 1.0, 1.0, lo, drift)
    d_hi = steady_state_bound("diffusion", alpha, 1.0, 1.0, hi, drift)
    assert d_lo <= d_hi * (1 + 1e-12)
    t_lo = steady_state_bound("dgt", alpha, 1.0, 1.0, lo, drift)
    t_hi = steady_state_bound("dgt", alpha, 1.0, 1.0, hi, drift)
    assert t_lo <= t_hi * (1 + 1e-12)


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
def test_drift_coefficient_ratio_scales_with_connectivity(beta):
    # beyond the shared 4/(alpha*mu) term, the drift coefficients of the two
    # bounds differ by exactly 10/(1-beta)
    alpha = 0.5 * max_stepsize("dgt", 1.0, 1.0, beta)
    base = 4 / alpha
    only_optimum = DriftProfile(delta_x=1.0, grad_bound=0.0, grad_drift=0.0)
    diff_coeff = steady_state_bound("diffusion", alpha, 1.0, 1.0, beta, only_optimum) - base
    dgt_coeff = steady_state_bound("dgt", alpha, 1.0, 1.0, beta, only_optimum) - base
    assert dgt_coeff / diff_coeff == pytest.approx(10 / (1 - beta), rel=1e-9)


def test_steady_state_bound_dispatch():
    alpha = 0.5 * max_stepsize("dgt", 1.0, 1.0, 0.5)
    drift = DriftProfile(delta_x=1e-3, grad_bound=1.0, grad_drift=0.5)
    with pytest.raises(ValueError, match="no steady-state bound for algorithm 'extra'"):
        steady_state_bound("extra", alpha, 1.0, 1.0, 0.5, drift)


def test_contraction_model_dispatch():
    alpha = 0.5 * max_stepsize("dgt", 1.0, 1.0, 0.5)
    drift = DriftProfile(delta_x=1e-3, grad_bound=1.0, grad_drift=0.5)
    with pytest.raises(ValueError, match="no contraction model for algorithm 'extra'"):
        contraction_model("extra", alpha, 1.0, 1.0, 0.5, drift)


# ---------------------------------------------------------------------------
# trajectory audits


def _constant_weights(n):
    return uniform_neighbor_weights(build_cycle(n))


def test_audit_clean_on_moving_least_squares_run():
    stream = least_squares_stream(n=5, horizon=400, seed=0)
    wm = _constant_weights(5)
    alpha = max_stepsize("diffusion", stream.mu, stream.lipschitz, wm.beta)
    rec = run("diffusion", stream, wm, alpha=alpha, horizon=400)
    report = audit_recursions(rec, drift_profile(stream))
    assert report.algorithm == "diffusion"
    names = [entry.name for entry in report.entries]
    assert names == ["avg_error_step", "consensus_step"]
    for entry in report.entries:
        assert entry.max_violation <= 0


def test_audit_clean_on_shifting_tracking_run():
    sc = shifting_consensus(p=2, shift=3, horizon=300)
    wm = _constant_weights(5)
    alpha = max_stepsize("dgt", sc.mu, sc.lipschitz, wm.beta)
    rec = run("dgt", sc, wm, alpha=alpha, horizon=300)
    report = audit_recursions(rec, drift_profile(sc))
    entries = {e.name: e for e in report.entries}
    assert set(entries) == {"tracker_step", "consensus_step", "avg_error_step"}
    assert all(e.max_violation <= 0 for e in entries.values())
    text = report.to_text()
    assert "tracker_step" in text and "max_violation" in text


def _synthetic_record(avg, cons, alpha=0.1, beta=0.5, algorithm="diffusion"):
    meta = RunMetadata(
        algorithm=algorithm,
        alpha=alpha,
        beta=beta,
        scenario="synthetic",
        seed=0,
        n=4,
        d=1,
        horizon=len(avg) - 1,
        mu=1.0,
        lipschitz=1.0,
        normalization=1.0,
    )
    length = len(avg)
    return TrajectoryRecord(
        metadata=meta,
        iterations=np.arange(length, dtype=np.int64),
        tracking_error=np.zeros(length),
        consensus_dev=np.asarray(cons, dtype=np.float64),
        avg_error=np.asarray(avg, dtype=np.float64),
    )


def test_audit_flags_planted_jump():
    rec = _synthetic_record(avg=[0.0, 1.0], cons=[0.0, 0.0])
    still = DriftProfile(delta_x=0.0, grad_bound=0.0, grad_drift=0.0)
    with pytest.raises(AuditViolation, match="avg_error_step.*iteration 1"):
        audit_recursions(rec, still)
    report = audit_recursions(rec, still, strict=False)
    flagged = {e.name: e for e in report.entries}["avg_error_step"]
    assert flagged.max_violation > 0
    assert flagged.worst_iteration == 1


def test_audit_report_worst_is_the_largest_excess():
    entries = (
        AuditEntry("small", 0.5, 3),
        AuditEntry("large", 2.0, 7),
        AuditEntry("holds", -1.0, 2),
    )
    report = AuditReport("diffusion", entries)
    assert report.worst() is entries[1]
    assert not report.clean()
    holding = AuditReport("diffusion", entries[2:])
    assert holding.worst() is None
    assert holding.clean()
    undecided = AuditReport("diffusion", (AuditEntry("nan", math.nan, 1),) + entries[2:])
    assert undecided.worst() is undecided.entries[0]
    assert not undecided.clean()


def test_audit_accepts_drift_slack():
    # the same jump is admissible once the optimum is allowed to move
    rec = _synthetic_record(avg=[0.0, 1.0], cons=[0.0, 0.0])
    moving = DriftProfile(delta_x=1.2, grad_bound=0.0, grad_drift=0.0)
    report = audit_recursions(rec, moving)
    assert all(e.max_violation <= 0 for e in report.entries)


def test_audit_requires_tracker_series_for_dgt():
    rec = _synthetic_record(avg=[0.0, 0.0], cons=[0.0, 0.0], alpha=1e-3, algorithm="dgt")
    still = DriftProfile(delta_x=0.0, grad_bound=0.0, grad_drift=0.0)
    with pytest.raises(ValueError, match="tracker"):
        audit_recursions(rec, still)


def test_audit_rejects_unaudited_algorithm():
    rec = _synthetic_record(avg=[0.0, 0.0], cons=[0.0, 0.0], algorithm="extra")
    still = DriftProfile(delta_x=0.0, grad_bound=0.0, grad_drift=0.0)
    with pytest.raises(ValueError, match="no audited recursion for algorithm 'extra'"):
        audit_recursions(rec, still)


def test_audit_rejects_nonfinite_series():
    rec = _synthetic_record(avg=[0.0, np.inf], cons=[0.0, 0.0])
    still = DriftProfile(delta_x=0.0, grad_bound=0.0, grad_drift=0.0)
    with pytest.raises(ValueError, match="finite"):
        audit_recursions(rec, still)


def test_audit_enforces_stepsize_regime():
    rec = _synthetic_record(avg=[0.0, 0.0], cons=[0.0, 0.0], alpha=1.5)
    still = DriftProfile(delta_x=0.0, grad_bound=0.0, grad_drift=0.0)
    with pytest.raises(RegimeError):
        audit_recursions(rec, still)
