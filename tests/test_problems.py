import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netdrift import problems
from netdrift.problems import (
    DriftProfile,
    DynamicObjective,
    LeastSquaresStream,
    _predict,
    drift_profile,
    least_squares_stream,
    ls_trajectory,
    shifting_consensus,
)


def brute_force_targets(p: int, m: float, T: int, k: int) -> list[float]:
    # Independent oracle: apply the 1-based circular shift definition k times.
    n = 2 * p + 1
    y = [i * m for i in range(1, n + 1)]
    for _ in range(k):
        new = []
        for i in range(1, n + 1):
            idx = (i - T) % n
            if idx == 0:
                idx = n
            new.append(y[idx - 1])
        y = new
    return y


def per_step_drift_profile(objective) -> DriftProfile:
    # Independent oracle: the one-step-at-a-time scan drift_profile replaced,
    # evaluating gradient_stack at the optimum of every step in turn.
    n = objective.n
    scale = 1.0 / math.sqrt(n)
    grad_bound = 0.0
    grad_drift = 0.0
    prev = None
    for k in range(objective.horizon + 1):
        x_stack = np.broadcast_to(objective.optimum(k), (n, objective.d))
        grads = objective.gradient_stack(k, x_stack)
        norms = np.linalg.norm(grads, axis=1)
        grad_bound = max(grad_bound, scale * float(norms.sum()))
        if prev is not None:
            step_norms = np.linalg.norm(grads - prev, axis=1)
            grad_drift = max(grad_drift, scale * float(step_norms.sum()))
        prev = grads
    return DriftProfile(
        delta_x=objective.delta_x,
        grad_bound=grad_bound,
        grad_drift=grad_drift,
        analytic_delta_x=getattr(objective, "analytic_delta_x", None),
        analytic_grad_bound=getattr(objective, "analytic_grad_bound", None),
        analytic_grad_drift=getattr(objective, "analytic_grad_drift", None),
    )


# ---------------------------------------------------------------- trajectory


def test_ls_trajectory_starts_at_unit_x():
    points, _ = ls_trajectory(100)
    np.testing.assert_array_equal(points[0], np.array([1.0, 0.0]))


def test_ls_trajectory_points_on_unit_circle():
    points, _ = ls_trajectory(257)
    norms = np.linalg.norm(points, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("M", [2, 10, 5000])
def test_ls_trajectory_step_is_chord_length(M):
    points, delta_x = ls_trajectory(M)
    chord = 2.0 * math.sin(3.0 * math.pi / (4.0 * M))
    assert abs(delta_x - chord) <= 1e-12
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    assert abs(delta_x - steps.max()) <= 1e-15


def test_ls_trajectory_value_at_5000():
    assert abs(ls_trajectory(5000)[1] - 9.4248e-4) <= 1e-7


def test_ls_trajectory_rejects_short_horizon():
    with pytest.raises(ValueError):
        ls_trajectory(1)


# ---------------------------------------------------------------- least squares


def test_ls_gradient_hand_case():
    stream = LeastSquaresStream(
        n=1,
        d=2,
        horizon=1,
        rows_per_agent=1,
        seed=0,
        coefficients=np.array([[[[1.0, 0.0]]], [[[1.0, 0.0]]]]),
        measurements=np.zeros((2, 1, 1)),
        points=np.zeros((2, 2)),
        delta_x=0.0,
        mu=1.0,
        lipschitz=1.0,
    )
    grad = stream.gradient_stack(0, np.array([[2.0, 5.0]]))
    np.testing.assert_array_equal(grad, np.array([[2.0, 0.0]]))


def _min_hessian_eigs(stream) -> np.ndarray:
    coeff = stream.coefficients
    return np.linalg.eigvalsh(np.einsum("knrd,knre->kde", coeff, coeff))[:, 0]


def test_ls_stream_redraws_steps_below_pd_floor(monkeypatch):
    # Below the floor a step's aggregate Hessian is redrawn under a derived
    # seed; at n = 2 a floor of 0.05 catches 12 of these 61 steps.
    floor = 0.05
    plain = least_squares_stream(n=2, horizon=60, seed=4)
    low = _min_hessian_eigs(plain) <= floor
    assert low.any() and not low.all()

    monkeypatch.setattr(problems, "_PD_FLOOR", floor)
    stream = least_squares_stream(n=2, horizon=60, seed=4)
    assert (_min_hessian_eigs(stream) > floor).all()
    changed = (stream.coefficients != plain.coefficients).any(axis=(1, 2, 3))
    np.testing.assert_array_equal(changed, low)
    again = least_squares_stream(n=2, horizon=60, seed=4)
    np.testing.assert_array_equal(again.coefficients, stream.coefficients)
    np.testing.assert_array_equal(again.measurements, stream.measurements)

    monkeypatch.setattr(problems, "_PD_FLOOR", 1e6)
    with pytest.raises(RuntimeError, match="could not draw a positive definite step at k=0"):
        least_squares_stream(n=2, horizon=60, seed=4)


def test_ls_gradient_zero_at_optimum():
    stream = least_squares_stream(n=6, horizon=40, seed=3)
    for k in (0, 17, 40):
        x_star = np.tile(stream.points[k], (stream.n, 1))
        assert np.all(stream.gradient_stack(k, x_star) == 0.0)


@pytest.mark.parametrize("lanes", [1, 3, 30])
@pytest.mark.parametrize("rows_per_agent", [1, 2, 3])
def test_ls_gradient_lanes_are_coordinate_major(rows_per_agent, lanes):
    # A G-lane stack keeps coordinate j of lane g in column j*G + g. Each
    # lane's gradients sit in the same columns, bitwise those of a one-lane
    # call, and every lane's gradient vanishes exactly at the optimum.
    stream = least_squares_stream(n=6, horizon=20, seed=7, rows_per_agent=rows_per_agent)
    n, d = stream.n, stream.d
    per_lane = np.random.default_rng(lanes).standard_normal((lanes, n, d)) * 3.0
    stack = np.empty((n, d * lanes))
    for g in range(lanes):
        for j in range(d):
            stack[:, j * lanes + g] = per_lane[g, :, j]
    for k in (0, 9, 20):
        grads = stream.gradient_stack(k, stack)
        assert grads.shape == stack.shape
        for g in range(lanes):
            one_lane = stream.gradient_stack(k, per_lane[g])
            for j in range(d):
                assert np.array_equal(grads[:, j * lanes + g], one_lane[:, j]), (k, g, j)
        at_optimum = np.repeat(np.tile(stream.points[k], (n, 1)), lanes, axis=1)
        assert np.all(stream.gradient_stack(k, at_optimum) == 0.0), k


def test_ls_gradient_matches_finite_differences():
    stream = least_squares_stream(n=5, horizon=30, seed=11)
    rng = np.random.default_rng(0)
    h = 1e-6

    def objective_value(i, k, x):
        C = stream.coefficients[k, i - 1]
        r = stream.measurements[k, i - 1]
        return 0.5 * float(np.sum((C @ x - r) ** 2))

    for _ in range(20):
        k = int(rng.integers(0, 31))
        x_stack = rng.standard_normal((5, 2)) * 3.0
        grads = stream.gradient_stack(k, x_stack)
        for i, x in enumerate(x_stack, start=1):
            fd = np.array(
                [
                    (objective_value(i, k, x + h * e) - objective_value(i, k, x - h * e)) / (2 * h)
                    for e in np.eye(2)
                ]
            )
            np.testing.assert_allclose(grads[i - 1], fd, rtol=1e-6, atol=1e-6)


def test_least_squares_constants_match_direct_eigen_scan():
    stream = least_squares_stream(n=4, horizon=6, seed=21)
    C = stream.coefficients
    avg_hessians = np.einsum("knrd,knre->kde", C, C) / stream.n
    mu_expected = float(np.linalg.eigvalsh(avg_hessians)[:, 0].min())
    lip_expected = float((C**2).sum(axis=(2, 3)).max())
    assert abs(stream.mu - mu_expected) <= 1e-14
    assert abs(stream.lipschitz - lip_expected) <= 1e-14
    assert 0.0 < stream.mu <= stream.lipschitz


def test_least_squares_aggregate_hessians_positive_definite():
    stream = least_squares_stream(n=5, horizon=200, seed=2)
    C = stream.coefficients
    hessians = np.einsum("knrd,knre->kde", C, C)
    assert np.linalg.eigvalsh(hessians)[:, 0].min() > 0.0


def test_least_squares_deterministic():
    a = least_squares_stream(n=5, horizon=50, seed=9)
    b = least_squares_stream(n=5, horizon=50, seed=9)
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.measurements.tobytes() == b.measurements.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    horizon=st.integers(min_value=2, max_value=60),
    rows_per_agent=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_measurements_match_per_step_prediction(n, horizon, rows_per_agent, seed):
    assume(n * rows_per_agent >= 2)
    stream = least_squares_stream(n=n, horizon=horizon, seed=seed, rows_per_agent=rows_per_agent)
    for k in range(horizon + 1):
        x_stack = np.broadcast_to(stream.points[k], (n, 2))
        expected = _predict(stream.coefficients[k], x_stack)
        assert stream.measurements[k].tobytes() == expected.tobytes()


def test_least_squares_stream_is_two_dimensional():
    stream = least_squares_stream(n=2, horizon=5, seed=0)
    assert stream.d == 2
    assert stream.coefficients.shape == (6, 2, 1, 2)
    with pytest.raises(ValueError, match="underdetermined"):
        least_squares_stream(n=1, horizon=5, seed=0)


def test_least_squares_normalization_is_one():
    stream = least_squares_stream(n=3, horizon=20, seed=4)
    assert stream.normalization == 1.0


# ---------------------------------------------------------------- shifting consensus


def test_consensus_gradient_zero_at_target():
    sc = shifting_consensus(p=2, spacing_m=1.0, shift=3, horizon=10)
    # Agent 2's target at k = 0 is 2.0.
    assert sc.gradient_stack(0, np.full((sc.n, 1), 2.0))[1, 0] == 0.0


def test_consensus_gradient_hand_case():
    sc = shifting_consensus(p=1, spacing_m=1.0, shift=2, horizon=5)
    assert sc.gradient_stack(0, np.full((sc.n, 1), 5.0))[1, 0] == 3.0


def test_consensus_network_average_gradient_zero_at_optimum():
    sc = shifting_consensus(p=4, spacing_m=1.0, shift=5, horizon=20)
    x_opt = float(sc.optimum(0)[0])
    for k in (0, 7, 20):
        assert sc.gradient_stack(k, np.full((sc.n, 1), x_opt)).sum() == 0.0


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    T=st.integers(min_value=0, max_value=30),
    k=st.integers(min_value=0, max_value=25),
)
def test_targets_match_brute_force_shift(p, T, k):
    sc = shifting_consensus(p=p, spacing_m=1.0, shift=T, horizon=30)
    expected = brute_force_targets(p, 1.0, T, k)
    np.testing.assert_array_equal(sc.targets(k), np.array(expected))


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    T=st.integers(min_value=0, max_value=30),
    k=st.integers(min_value=0, max_value=25),
)
def test_targets_remain_a_permutation(p, T, k):
    sc = shifting_consensus(p=p, spacing_m=0.5, shift=T, horizon=30)
    np.testing.assert_array_equal(np.sort(sc.targets(k)), sc.targets(0))


def test_targets_are_read_only():
    sc = shifting_consensus(p=3, spacing_m=1.0, shift=4, horizon=10)
    targets = sc.targets(5)
    with pytest.raises(ValueError):
        targets[0] = 0.0
    np.testing.assert_array_equal(sc.targets(5), np.array(brute_force_targets(3, 1.0, 4, 5)))


def test_consensus_optimum_constant():
    sc = shifting_consensus(p=3, spacing_m=2.0, shift=4, horizon=15)
    for k in range(16):
        np.testing.assert_array_equal(sc.optimum(k), np.array([8.0]))
    assert sc.normalization == 64.0


# ---------------------------------------------------------------- drift profiles


@pytest.mark.parametrize("p", [10, 100])
def test_drift_grad_bound_closed_form(p):
    n = 2 * p + 1
    sc = shifting_consensus(p=p, spacing_m=1.0, shift=p + 1, horizon=3 * n)
    profile = drift_profile(sc)
    expected = p * (p + 1) * 1.0 / math.sqrt(n)
    assert abs(profile.grad_bound - expected) <= 1e-9 * expected
    assert profile.delta_x == 0.0


@pytest.mark.parametrize("p", [10, 100])
def test_drift_grad_drift_slow_shift_closed_form(p):
    n = 2 * p + 1
    sc = shifting_consensus(p=p, spacing_m=1.0, shift=p + 1, horizon=3 * n)
    profile = drift_profile(sc)
    expected = 2.0 * p * (p + 1) * 1.0 / math.sqrt(n)
    assert abs(profile.grad_drift - expected) <= 1e-9 * expected
    assert abs(profile.grad_drift - 2.0 * profile.grad_bound) <= 1e-9 * profile.grad_drift


@pytest.mark.parametrize("p", [10, 100])
def test_drift_grad_drift_unit_shift_closed_form(p):
    n = 2 * p + 1
    sc = shifting_consensus(p=p, spacing_m=1.0, shift=1, horizon=3 * n)
    profile = drift_profile(sc)
    expected = 4.0 * p * 1.0 / math.sqrt(n)
    assert abs(profile.grad_drift - expected) <= 1e-9 * expected


def test_drift_orderings_between_shift_choices():
    # Slow block shift drifts gradients harder than the bound; unit shift is milder.
    for p in (4, 10):
        slow = drift_profile(shifting_consensus(p=p, spacing_m=1.0, shift=p + 1, horizon=50))
        unit = drift_profile(shifting_consensus(p=p, spacing_m=1.0, shift=1, horizon=50))
        assert slow.grad_drift > slow.grad_bound
        assert unit.grad_drift < unit.grad_bound


def test_drift_profile_least_squares_exactly_zero():
    stream = least_squares_stream(n=5, horizon=300, seed=7)
    profile = drift_profile(stream)
    assert profile.grad_bound == 0.0
    assert profile.grad_drift == 0.0
    assert abs(profile.delta_x - 2.0 * math.sin(3.0 * math.pi / (4.0 * 300))) <= 1e-12


def test_drift_profile_static_shift_zero():
    sc = shifting_consensus(p=5, spacing_m=1.0, shift=0, horizon=40)
    profile = drift_profile(sc)
    assert profile.grad_drift == 0.0
    assert profile.delta_x == 0.0
    assert profile.grad_bound > 0.0


def test_drift_profile_attaches_analytic_values():
    sc = shifting_consensus(p=10, spacing_m=1.0, shift=11, horizon=60)
    profile = drift_profile(sc)
    assert profile.analytic_grad_bound is not None
    assert abs(profile.grad_bound - profile.analytic_grad_bound) <= 1e-9 * profile.analytic_grad_bound
    assert abs(profile.grad_drift - profile.analytic_grad_drift) <= 1e-9 * profile.analytic_grad_drift


def assert_same_profile(got: DriftProfile, expected: DriftProfile) -> None:
    for field in ("delta_x", "grad_bound", "grad_drift", "analytic_delta_x", "analytic_grad_bound",
                  "analytic_grad_drift"):
        a, b = getattr(got, field), getattr(expected, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), (field, a, b)


@pytest.mark.parametrize("shift", [1, 1001])
def test_drift_profile_matches_per_step_scan_full_scale_consensus(shift):
    # 2001 agents: blocks of 32 steps, so the horizon spans 19 blocks.
    sc = shifting_consensus(p=1000, spacing_m=1.0, shift=shift, horizon=600)
    assert_same_profile(drift_profile(sc), per_step_drift_profile(sc))


@pytest.mark.parametrize("block_entries", [1, 50, None])
@pytest.mark.parametrize("p", [1, 4, 10])
def test_drift_profile_matches_per_step_scan_consensus(monkeypatch, block_entries, p):
    # Small networks fit a long horizon into one default block, so smaller
    # blocks (down to the two-step minimum) put many block edges in view.
    if block_entries is not None:
        monkeypatch.setattr(problems, "_BLOCK_ENTRIES", block_entries)
    for shift in (0, 1, p + 1, 2 * p):
        for horizon in (1, 2, 57, 300):
            sc = shifting_consensus(p=p, spacing_m=0.7, shift=shift, horizon=horizon)
            assert_same_profile(drift_profile(sc), per_step_drift_profile(sc))


@pytest.mark.parametrize("rows_per_agent", [1, 3])
def test_drift_profile_matches_per_step_scan_least_squares(rows_per_agent):
    stream = least_squares_stream(n=100, horizon=1000, seed=5, rows_per_agent=rows_per_agent)
    assert_same_profile(drift_profile(stream), per_step_drift_profile(stream))


def test_objectives_have_every_declared_member():
    declared = set(DynamicObjective.__annotations__) | {
        name for name, value in vars(DynamicObjective).items()
        if callable(value) and not name.startswith("_")
    }
    engine_reads = {"normalization", "optimal_gradients", "analytic_delta_x",
                    "analytic_grad_bound", "analytic_grad_drift", "gradient_stack", "optimum"}
    assert engine_reads <= declared
    built = (least_squares_stream(n=4, horizon=10, seed=0),
             shifting_consensus(p=2, spacing_m=1.0, shift=3, horizon=10))
    for objective in built:
        missing = [name for name in sorted(declared) if not hasattr(objective, name)]
        assert missing == [], type(objective).__name__


def test_optimal_gradients_blocks_match_gradient_stack():
    sc = shifting_consensus(p=6, spacing_m=1.5, shift=8, horizon=40)
    stream = least_squares_stream(n=7, horizon=40, seed=2, rows_per_agent=2)
    for objective in (sc, stream):
        block = objective.optimal_gradients(3, 29)
        assert block.shape == (26, objective.n, objective.d)
        for offset, k in enumerate(range(3, 29)):
            x_stack = np.broadcast_to(objective.optimum(k), (objective.n, objective.d))
            assert block[offset].tobytes() == objective.gradient_stack(k, x_stack).tobytes()
