import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdrift import problems
from netdrift.experiment import build_objective, parse_config
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


def brute_force_targets(p: int, T: int, k: int) -> list[float]:
    # Independent oracle: apply the 1-based circular shift definition k times.
    n = 2 * p + 1
    y = [float(i) for i in range(1, n + 1)]
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
    return DriftProfile(delta_x=objective.delta_x, grad_bound=grad_bound, grad_drift=grad_drift)


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
    assert delta_x == steps.max()


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
        coefficients=np.array([[[1.0, 0.0]], [[1.0, 0.0]]]),
        measurements=np.zeros((2, 1)),
        points=np.zeros((2, 2)),
        delta_x=0.0,
        mu=1.0,
        lipschitz=1.0,
    )
    grad = stream.gradient_stack(0, np.array([[2.0, 5.0]]))
    np.testing.assert_array_equal(grad, np.array([[2.0, 0.0]]))


def _min_hessian_eigs(stream) -> np.ndarray:
    coeff = stream.coefficients
    return np.linalg.eigvalsh(np.einsum("knd,kne->kde", coeff, coeff))[:, 0]


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
    changed = (stream.coefficients != plain.coefficients).any(axis=(1, 2))
    np.testing.assert_array_equal(changed, low)
    again = least_squares_stream(n=2, horizon=60, seed=4)
    np.testing.assert_array_equal(again.coefficients, stream.coefficients)
    np.testing.assert_array_equal(again.measurements, stream.measurements)
    # The constants are those of the redrawn coefficients, bitwise as a second
    # pass over the final coefficients gives them.
    C = stream.coefficients
    avg_hessians = np.einsum("knd,kne->kde", C, C) / stream.n
    assert stream.mu == float(np.linalg.eigvalsh(avg_hessians)[:, 0].min())
    assert stream.lipschitz == float((C**2).sum(axis=2).max())
    assert stream.mu != plain.mu

    monkeypatch.setattr(problems, "_PD_FLOOR", 1e6)
    with pytest.raises(RuntimeError, match="could not draw a positive definite step at k=0"):
        least_squares_stream(n=2, horizon=60, seed=4)


def test_ls_gradient_zero_at_optimum():
    stream = least_squares_stream(n=6, horizon=40, seed=3)
    for k in (0, 17, 40):
        x_star = np.tile(stream.points[k], (stream.n, 1))
        assert np.all(stream.gradient_stack(k, x_star) == 0.0)


@pytest.mark.parametrize("lanes", [1, 3, 30])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ls_gradient_lanes_are_coordinate_major(seed, lanes):
    # A G-lane stack keeps coordinate j of lane g in column j*G + g. Each
    # lane's gradients sit in the same columns, bitwise those of a one-lane
    # call, and every lane's gradient vanishes exactly at the optimum.
    stream = least_squares_stream(n=6, horizon=20, seed=seed)
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


@pytest.mark.parametrize("lanes", [1, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ls_gradient_stack_at_the_optimum_is_exactly_zero(seed, lanes):
    # Least squares states both gradient constants as 0: its measurements are
    # exact, so every step's residual at the optimum vanishes, in every lane
    # and for every coefficient draw.
    stream = least_squares_stream(n=7, horizon=60, seed=seed)
    assert stream.grad_bound == stream.grad_drift == 0.0
    for k in range(stream.horizon + 1):
        at_optimum = np.repeat(np.tile(stream.optimum(k), (stream.n, 1)), lanes, axis=1)
        grads = stream.gradient_stack(k, at_optimum)
        assert grads.shape == (stream.n, 2 * lanes)
        assert np.array_equal(grads, np.zeros_like(grads)), k


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
    # Bitwise the direct reductions. At n = 100 an in-order sum over agents
    # differs from a pairwise one, so mu pins the order of the Hessian sums.
    cases = [(4, 6, 21)] + [(100, 1000, seed) for seed in (0, 1, 2)]
    for n, horizon, seed in cases:
        stream = least_squares_stream(n=n, horizon=horizon, seed=seed)
        C = stream.coefficients
        avg_hessians = np.einsum("knd,kne->kde", C, C) / stream.n
        assert stream.mu == float(np.linalg.eigvalsh(avg_hessians)[:, 0].min())
        assert stream.lipschitz == float((C**2).sum(axis=2).max())
        assert 0.0 < stream.mu <= stream.lipschitz


def test_least_squares_aggregate_hessians_positive_definite():
    stream = least_squares_stream(n=5, horizon=200, seed=2)
    C = stream.coefficients
    hessians = np.einsum("knd,kne->kde", C, C)
    assert np.linalg.eigvalsh(hessians)[:, 0].min() > 0.0


def test_least_squares_deterministic():
    a = least_squares_stream(n=5, horizon=50, seed=9)
    b = least_squares_stream(n=5, horizon=50, seed=9)
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.measurements.tobytes() == b.measurements.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    horizon=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_measurements_match_per_step_prediction(n, horizon, seed):
    stream = least_squares_stream(n=n, horizon=horizon, seed=seed)
    for k in range(horizon + 1):
        x_stack = np.broadcast_to(stream.points[k], (n, 2))
        expected = _predict(stream.coefficients[k], x_stack)
        assert stream.measurements[k].tobytes() == expected.tobytes()


def test_least_squares_stream_is_two_dimensional():
    stream = least_squares_stream(n=2, horizon=5, seed=0)
    assert stream.d == 2
    assert stream.coefficients.shape == (6, 2, 2)
    assert stream.measurements.shape == (6, 2)
    with pytest.raises(ValueError, match="underdetermined"):
        least_squares_stream(n=1, horizon=5, seed=0)


@pytest.mark.parametrize("n, horizon", [(0, 5), (-1, 5), (3, 1)])
def test_least_squares_rejects_a_degenerate_configuration(n, horizon):
    with pytest.raises(ValueError, match="degenerate least-squares configuration"):
        least_squares_stream(n=n, horizon=horizon, seed=0)


def test_least_squares_normalization_is_one():
    stream = least_squares_stream(n=3, horizon=20, seed=4)
    assert stream.normalization == 1.0


# ---------------------------------------------------------------- shifting consensus


@pytest.mark.parametrize("kwargs, message", [
    ({"p": 0}, "p must be a positive integer, got 0"),
    ({"p": -2}, "p must be a positive integer, got -2"),
    ({"shift": -1}, "shift must be nonnegative, got -1"),
    ({"horizon": 0}, "horizon must be positive, got 0"),
    ({"horizon": -3}, "horizon must be positive, got -3"),
], ids=["p=0", "p=-2", "shift=-1", "horizon=0", "horizon=-3"])
def test_consensus_rejects_an_invalid_argument(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        shifting_consensus(**{"p": 3, "shift": 4, "horizon": 10, **kwargs})
    assert str(excinfo.value) == message


def test_consensus_gradient_zero_at_target():
    sc = shifting_consensus(p=2, shift=3, horizon=10)
    # Agent 2's target at k = 0 is 2.0.
    assert sc.gradient_stack(0, np.full((sc.n, 1), 2.0))[1, 0] == 0.0


def test_consensus_gradient_hand_case():
    sc = shifting_consensus(p=1, shift=2, horizon=5)
    assert sc.gradient_stack(0, np.full((sc.n, 1), 5.0))[1, 0] == 3.0


def test_consensus_network_average_gradient_zero_at_optimum():
    sc = shifting_consensus(p=4, shift=5, horizon=20)
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
    sc = shifting_consensus(p=p, shift=T, horizon=30)
    expected = brute_force_targets(p, T, k)
    np.testing.assert_array_equal(sc.targets(k), np.array(expected))


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    T=st.integers(min_value=0, max_value=30),
    k=st.integers(min_value=0, max_value=25),
)
def test_targets_remain_a_permutation(p, T, k):
    sc = shifting_consensus(p=p, shift=T, horizon=30)
    np.testing.assert_array_equal(np.sort(sc.targets(k)), sc.targets(0))


def test_targets_are_read_only():
    sc = shifting_consensus(p=3, shift=4, horizon=10)
    targets = sc.targets(5)
    with pytest.raises(ValueError):
        targets[0] = 0.0
    np.testing.assert_array_equal(sc.targets(5), np.array(brute_force_targets(3, 4, 5)))


def test_consensus_optimum_constant():
    sc = shifting_consensus(p=3, shift=4, horizon=15)
    for k in range(16):
        np.testing.assert_array_equal(sc.optimum(k), np.array([4.0]))
    assert sc.normalization == 16.0


def test_consensus_optimum_is_one_read_only_array():
    sc = shifting_consensus(p=3, shift=4, horizon=15)
    assert sc.optimum(0) is sc.optimum(15)
    with pytest.raises(ValueError):
        sc.optimum(3)[0] = 0.0


def _consensus_stacks(n, lanes, seed):
    # A C-ordered stack, its F-ordered copy, and a column slice of a wider one.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, lanes))
    return x, np.asfortranarray(x), rng.standard_normal((n, 2 * lanes + 1))[:, 1::2]


@pytest.mark.parametrize("p, shift", [(1, 0), (3, 4), (10, 11), (50, 7)])
@pytest.mark.parametrize("lanes", [1, 3, 8])
def test_consensus_gradient_stack_is_bitwise_the_target_difference(p, shift, lanes):
    sc = shifting_consensus(p=p, shift=shift, horizon=40)
    for x in _consensus_stacks(sc.n, lanes, p):
        for k in range(41):
            expected = x - np.array(brute_force_targets(p, shift, k))[:, None]
            assert np.array_equal(sc.gradient_stack(k, x), expected)


def test_consensus_gradient_tiles_are_cached_read_only_per_column_count():
    # gradient_stack keeps one target tile per column count; switching the
    # count back and forth on one objective must reuse, never mix them up.
    sc = shifting_consensus(p=10, shift=3, horizon=12)
    tiles = {}
    for lanes in (1, 8, 1, 3):
        for x in _consensus_stacks(sc.n, lanes, lanes):
            for k in range(13):
                expected = x - np.array(brute_force_targets(10, 3, k))[:, None]
                assert np.array_equal(sc.gradient_stack(k, x), expected)
        tiles.setdefault(lanes, sc._target_tiles[lanes])
        assert sc._target_tiles[lanes] is tiles[lanes]
    assert sorted(sc._target_tiles) == [1, 3, 8]
    for lanes, tile in sc._target_tiles.items():
        assert tile.shape == (2 * sc.n, lanes)
        with pytest.raises(ValueError):
            tile[0, 0] = 0.0


# ---------------------------------------------------------------- drift profiles


@pytest.mark.parametrize("p", [10, 100])
def test_drift_grad_bound_closed_form(p):
    n = 2 * p + 1
    sc = shifting_consensus(p=p, shift=p + 1, horizon=3 * n)
    profile = drift_profile(sc)
    expected = p * (p + 1) * 1.0 / math.sqrt(n)
    assert abs(profile.grad_bound - expected) <= 1e-9 * expected
    assert profile.delta_x == 0.0


@pytest.mark.parametrize("p", [10, 100])
def test_drift_grad_drift_slow_shift_closed_form(p):
    n = 2 * p + 1
    sc = shifting_consensus(p=p, shift=p + 1, horizon=3 * n)
    profile = drift_profile(sc)
    expected = 2.0 * p * (p + 1) * 1.0 / math.sqrt(n)
    assert abs(profile.grad_drift - expected) <= 1e-9 * expected
    assert abs(profile.grad_drift - 2.0 * profile.grad_bound) <= 1e-9 * profile.grad_drift


@pytest.mark.parametrize("p", [10, 100])
def test_drift_grad_drift_unit_shift_closed_form(p):
    n = 2 * p + 1
    sc = shifting_consensus(p=p, shift=1, horizon=3 * n)
    profile = drift_profile(sc)
    expected = 4.0 * p * 1.0 / math.sqrt(n)
    assert abs(profile.grad_drift - expected) <= 1e-9 * expected


def test_drift_orderings_between_shift_choices():
    # Slow block shift drifts gradients harder than the bound; unit shift is milder.
    for p in (4, 10):
        slow = drift_profile(shifting_consensus(p=p, shift=p + 1, horizon=50))
        unit = drift_profile(shifting_consensus(p=p, shift=1, horizon=50))
        assert slow.grad_drift > slow.grad_bound
        assert unit.grad_drift < unit.grad_bound


def test_drift_profile_least_squares_exactly_zero():
    stream = least_squares_stream(n=5, horizon=300, seed=7)
    profile = drift_profile(stream)
    assert profile.grad_bound == 0.0
    assert profile.grad_drift == 0.0
    assert abs(profile.delta_x - 2.0 * math.sin(3.0 * math.pi / (4.0 * 300))) <= 1e-12


def test_drift_profile_static_shift_zero():
    sc = shifting_consensus(p=5, shift=0, horizon=40)
    profile = drift_profile(sc)
    assert profile.grad_drift == 0.0
    assert profile.delta_x == 0.0
    assert profile.grad_bound > 0.0


def test_drift_profile_meets_the_analytic_values():
    sc = shifting_consensus(p=10, shift=11, horizon=60)
    profile = drift_profile(sc)
    assert abs(profile.grad_bound - sc.analytic_grad_bound) <= 1e-9 * sc.analytic_grad_bound
    assert abs(profile.grad_drift - sc.analytic_grad_drift) <= 1e-9 * sc.analytic_grad_drift


@pytest.mark.parametrize("cap", ["analytic_delta_x", "analytic_grad_bound", "analytic_grad_drift"])
def test_drift_profile_rejects_a_constant_above_its_analytic_cap(cap):
    # A stub objective: the shifting-consensus gradient constants with a
    # moving optimum, whose caps are those constants but for one below them.
    sc = shifting_consensus(p=3, shift=4, horizon=20)
    measured = drift_profile(sc)
    caps = {"analytic_delta_x": 0.5, "analytic_grad_bound": measured.grad_bound,
            "analytic_grad_drift": measured.grad_drift}
    stub = SimpleNamespace(delta_x=0.5, grad_bound=sc.grad_bound, grad_drift=sc.grad_drift, **caps)
    assert drift_profile(stub) == replace(measured, delta_x=0.5)
    setattr(stub, cap, 0.9 * caps[cap])
    with pytest.raises(ValueError, match="exceeds the analytic value"):
        drift_profile(stub)


def assert_same_profile(got: DriftProfile, expected: DriftProfile) -> None:
    for field in ("delta_x", "grad_bound", "grad_drift"):
        a, b = getattr(got, field), getattr(expected, field)
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (field, a, b)


@pytest.mark.parametrize("shift", [0, 1, 7, 1000, 1001, 2000, 2001, 3005])
def test_drift_profile_matches_per_step_scan_full_scale_consensus(shift):
    # 2001 agents over 600 steps: up to 601 distinct windows of 2001 magnitudes.
    sc = shifting_consensus(p=1000, shift=shift, horizon=600)
    assert_same_profile(drift_profile(sc), per_step_drift_profile(sc))


@pytest.mark.parametrize("horizon", [1, 2, 50, None])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 10])
def test_drift_profile_matches_per_step_scan_consensus(p, horizon):
    # Shifts that freeze, step by one, wrap to a block, go past n, and do
    # not divide n; horizons shorter and longer than every shift's period
    # (at most n <= 21 steps). None runs n * n + 1 steps, so every window
    # recurs at least n times.
    n = 2 * p + 1
    horizon = n * n + 1 if horizon is None else horizon
    for shift in sorted({0, 1, p, p + 1, 2 * p, n, 7, 3 * p + 5}):
        sc = shifting_consensus(p=p, shift=shift, horizon=horizon)
        assert_same_profile(drift_profile(sc), per_step_drift_profile(sc))


@pytest.mark.parametrize("seed", [1, 3])
def test_drift_profile_matches_per_step_scan_least_squares(seed):
    stream = least_squares_stream(n=100, horizon=1000, seed=seed)
    assert_same_profile(drift_profile(stream), per_step_drift_profile(stream))


@pytest.mark.parametrize("scenario", ["II", "III", "static"])
@pytest.mark.parametrize("p", [1, 10, 1000])
def test_parsed_consensus_config_has_unit_targets_and_matches_per_step_scan(p, scenario):
    # Through parse_config and build_objective: the targets are 1, ..., n,
    # the optimum is p + 1, the normalization (p + 1)^2, and the drift
    # constants are bitwise those of the per-step scan.
    sc = build_objective(parse_config(f"scenario = {scenario}\np = {p}\nhorizon = 40\n"))
    n = 2 * p + 1
    np.testing.assert_array_equal(sc.targets(0), np.arange(1.0, n + 1.0))
    np.testing.assert_array_equal(sc.optimum(40), np.array([p + 1.0]))
    assert sc.normalization == float((p + 1) ** 2)
    assert_same_profile(drift_profile(sc), per_step_drift_profile(sc))


def test_objectives_have_every_declared_member():
    declared = set(DynamicObjective.__annotations__) | {
        name for name, value in vars(DynamicObjective).items()
        if callable(value) and not name.startswith("_")
    }
    engine_reads = {"normalization", "delta_x", "grad_bound", "grad_drift", "analytic_delta_x",
                    "analytic_grad_bound", "analytic_grad_drift", "gradient_stack", "optimum"}
    assert engine_reads <= declared
    built = (least_squares_stream(n=4, horizon=10, seed=0),
             shifting_consensus(p=2, shift=3, horizon=10))
    for objective in built:
        missing = [name for name in sorted(declared) if not hasattr(objective, name)]
        assert missing == [], type(objective).__name__
