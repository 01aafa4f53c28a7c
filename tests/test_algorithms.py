"""Tests for the iteration kernels and the run harness.

Oracles: single-agent cases collapse every method to plain gradient descent
(or a hand recursion), two-agent static cases have closed-form network
optima via a least-squares solve, and the average-iterate / tracker-average
identities are checked against independently recomputed gradients.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from netdrift import algorithms
from netdrift.algorithms import (
    ALGORITHMS,
    AlgorithmState,
    ShapeMismatchError,
    StepError,
    init_state,
    run,
    step,
)
from netdrift.experiment import (
    INITS,
    DivergenceError,
    ExperimentConfig,
    TuningError,
    build_network,
    build_objective,
    default_grid,
    run_single,
    steady_state_error,
    tune_stepsize,
)
from netdrift.problems import least_squares_stream, shifting_consensus
from netdrift.records import TrajectoryRecord, read_record, write_record
from netdrift.topology import WeightMatrix, build_random, metropolis_weights


class Quadratic:
    """Static per-agent quadratics 0.5*||x - t_i||^2; optimum is the target mean."""

    def __init__(self, targets):
        self.targets = np.asarray(targets, dtype=np.float64)
        self.n, self.d = self.targets.shape
        self.horizon = 10**9
        self.mu = 1.0
        self.lipschitz = 1.0
        self.normalization = 1.0

    def optimum(self, k):
        return self.targets.mean(axis=0)

    def gradient_stack(self, k, x_stack):
        return x_stack - self.targets


def single_node_weights() -> WeightMatrix:
    return WeightMatrix(csr=sparse.csr_matrix(np.ones((1, 1))), beta=0.0)


def pair_weights() -> WeightMatrix:
    return WeightMatrix(csr=sparse.csr_matrix(np.full((2, 2), 0.5)), beta=0.0)


# ---------------------------------------------------------------------------
# diffusion


def test_diffusion_single_agent_is_gradient_descent():
    obj = Quadratic([[1.0]])
    state = init_state("diffusion", obj, single_node_weights())
    out = step("diffusion", state, obj, single_node_weights(), alpha=0.5, k=0)
    # x+ = x - 0.5 * (x - 1) with x = 0
    assert out.x_stack[0, 0] == 0.5


def test_diffusion_two_agents_opposing_gradients_average_to_zero():
    obj = Quadratic([[1.0], [-1.0]])
    state = init_state("diffusion", obj, pair_weights())
    out = step("diffusion", state, obj, pair_weights(), alpha=0.1, k=0)
    assert np.array_equal(out.x_stack, np.zeros((2, 1)))


def test_diffusion_fixed_point_at_shared_optimum():
    obj = Quadratic([[2.0, -1.0], [2.0, -1.0], [2.0, -1.0]])
    wm = WeightMatrix(csr=sparse.csr_matrix(np.full((3, 3), 1.0 / 3.0)), beta=0.0)
    x0 = np.tile(obj.optimum(0), (3, 1))
    state = AlgorithmState(x_stack=x0)
    out = step("diffusion", state, obj, wm, alpha=0.3, k=0)
    assert np.allclose(out.x_stack, x0, atol=1e-15)


def test_diffusion_average_iterate_recursion():
    # The network average must follow plain gradient descent on the running
    # average of the local gradients, independent of the mixing matrix.
    stream = least_squares_stream(n=5, horizon=60, seed=3)
    graph = build_random(5, 0.8, seed=11)
    wm = metropolis_weights(graph)
    alpha = 0.05
    state = init_state("diffusion", stream, wm)
    rng = np.random.default_rng(0)
    state = AlgorithmState(x_stack=rng.normal(size=(5, 2)))
    for k in range(60):
        grads = stream.gradient_stack(k + 1, state.x_stack)
        expected = state.x_stack.mean(axis=0) - alpha * grads.mean(axis=0)
        state = step("diffusion", state, stream, wm, alpha=alpha, k=k)
        assert np.linalg.norm(state.x_stack.mean(axis=0) - expected) <= 1e-12


def test_diffusion_update_is_local():
    graph = build_random(10, 0.3, seed=5)
    wm = metropolis_weights(graph)
    targets = np.arange(10, dtype=np.float64).reshape(10, 1)
    obj = Quadratic(targets)
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(10, 1))
    agent = 0
    outside = [j for j in range(10) if j not in graph.adjacency[agent].indices]
    assert outside, "graph too dense for the locality check"
    x_perturbed = x0.copy()
    x_perturbed[outside[0]] += 7.5
    base = step("diffusion", AlgorithmState(x_stack=x0), obj, wm, 0.1, 0)
    pert = step("diffusion", AlgorithmState(x_stack=x_perturbed), obj, wm, 0.1, 0)
    assert np.array_equal(base.x_stack[agent], pert.x_stack[agent])


# ---------------------------------------------------------------------------
# gradient tracking


def test_dgt_init_tracker_holds_first_gradients():
    obj = Quadratic([[1.0], [-3.0]])
    state = init_state("dgt", obj, pair_weights())
    assert np.array_equal(state.y_stack, obj.gradient_stack(0, state.x_stack))
    assert np.array_equal(state.prev_grad_stack, state.y_stack)


def test_dgt_fixed_point_at_shared_optimum():
    obj = Quadratic([[4.0], [4.0]])
    x0 = np.full((2, 1), 4.0)
    state = AlgorithmState(
        x_stack=x0,
        y_stack=np.zeros((2, 1)),
        prev_grad_stack=np.zeros((2, 1)),
    )
    out = step("dgt", state, obj, pair_weights(), alpha=0.2, k=0)
    assert np.allclose(out.x_stack, x0, atol=1e-15)
    assert np.allclose(out.y_stack, 0.0, atol=1e-15)


def test_dgt_requires_tracker_state():
    obj = Quadratic([[1.0]])
    bare = AlgorithmState(x_stack=np.zeros((1, 1)))
    with pytest.raises(StepError):
        run("dgt", obj, single_node_weights(), alpha=0.1, horizon=1, initial_state=bare)


def test_dgt_tracker_average_equals_gradient_average():
    # Along any tracking run the network average of y must equal the network
    # average of the current local gradients, to numerical precision.
    sc = shifting_consensus(p=2, shift=1, horizon=80)
    graph = build_random(5, 0.7, seed=2)
    wm = metropolis_weights(graph)
    state = init_state("dgt", sc, wm)
    for k in range(80):
        grads = sc.gradient_stack(k, state.x_stack)
        gap = np.linalg.norm(state.y_stack.mean(axis=0) - grads.mean(axis=0))
        assert gap <= 1e-10
        state = step("dgt", state, sc, wm, alpha=0.1, k=k)


def test_dgt_static_pair_converges_to_least_squares_solution():
    targets = np.array([[1.0], [-1.0]])
    obj = Quadratic(targets)
    # centralized oracle: minimize sum of the quadratics
    design = np.ones((2, 1))
    oracle = np.linalg.lstsq(design, targets, rcond=None)[0].ravel()
    state = init_state("dgt", obj, pair_weights())
    for k in range(500):
        state = step("dgt", state, obj, pair_weights(), alpha=0.1, k=k)
    assert np.abs(state.x_stack - oracle).max() < 1e-10


# ---------------------------------------------------------------------------
# history-correction baselines


def test_extra_single_agent_hand_recursion():
    obj = Quadratic([[2.0]])
    wm = single_node_weights()
    alpha = 0.3
    state = init_state("extra", obj, wm)
    state = step("extra", state, obj, wm, alpha, 0)
    # by hand: x0 = 0, g(x) = x - 2
    x_prev, x_cur = 0.0, 0.0 - alpha * (0.0 - 2.0)
    assert state.x_stack[0, 0] == pytest.approx(x_cur, abs=1e-15)
    for k in range(1, 8):
        state = step("extra", state, obj, wm, alpha, k)
        x_next = 2 * x_cur - x_prev - alpha * ((x_cur - 2.0) - (x_prev - 2.0))
        x_prev, x_cur = x_cur, x_next
        assert state.x_stack[0, 0] == pytest.approx(x_cur, abs=1e-13)


def test_exact_diffusion_single_agent_is_gradient_descent():
    # With a trivial network the correction terms telescope away and the
    # iterates coincide with plain gradient descent.
    obj = Quadratic([[2.0]])
    wm = single_node_weights()
    alpha = 0.25
    state = init_state("exact_diffusion", obj, wm)
    state = step("exact_diffusion", state, obj, wm, alpha, 0)
    x_gd = 0.0 - alpha * (0.0 - 2.0)
    assert state.x_stack[0, 0] == pytest.approx(x_gd, abs=1e-15)
    for k in range(1, 10):
        state = step("exact_diffusion", state, obj, wm, alpha, k)
        x_gd = x_gd - alpha * (x_gd - 2.0)
        assert state.x_stack[0, 0] == pytest.approx(x_gd, abs=1e-12)


@pytest.mark.parametrize("algorithm", ["extra", "exact_diffusion"])
def test_history_methods_static_pair_exact(algorithm):
    targets = np.array([[1.0], [-1.0]])
    obj = Quadratic(targets)
    design = np.ones((2, 1))
    oracle = np.linalg.lstsq(design, targets, rcond=None)[0].ravel()
    wm = pair_weights()
    state = init_state(algorithm, obj, wm)
    for k in range(500):
        state = step(algorithm, state, obj, wm, 0.1, k)
    assert np.abs(state.x_stack - oracle).max() < 1e-10


@pytest.mark.parametrize("algorithm", ["extra", "exact_diffusion"])
def test_history_methods_fixed_point(algorithm):
    obj = Quadratic([[3.0], [3.0]])
    x_star = np.full((2, 1), 3.0)
    state = AlgorithmState(
        x_stack=x_star,
        prev_x_stack=x_star,
        prev_grad_stack=np.zeros((2, 1)),
    )
    out = step(algorithm, state, obj, pair_weights(), alpha=0.2, k=1)
    assert np.allclose(out.x_stack, x_star, atol=1e-15)


@pytest.mark.parametrize("case", ["least_squares_3_lanes", "consensus_d1"])
def test_extra_cached_product_is_bitwise_the_recomputation(case):
    # EXTRA reuses last step's W x as this step's W x_prev; dropping the
    # cache makes the step recompute it, and every stack must agree bitwise.
    if case == "least_squares_3_lanes":
        objective = least_squares_stream(n=7, horizon=60, seed=3)
        alphas = np.array([0.01, 0.05, 0.1])
    else:
        objective = shifting_consensus(p=4, shift=3, horizon=60)
        alphas = np.array([0.2])
    wm = metropolis_weights(build_random(objective.n, 0.5, seed=5))
    x0 = np.random.default_rng(1).standard_normal((objective.n, objective.d))
    # Coordinate-major lanes: column j*G + g holds coordinate j of lane g.
    state = AlgorithmState(x_stack=np.repeat(x0, alphas.size, axis=1))
    alpha_row = np.tile(alphas, objective.d)
    for k in range(50):
        out = step("extra", state, objective, wm, alpha_row, k)
        recomputed = step("extra", state._replace(prev_mix_stack=None), objective, wm, alpha_row, k)
        for name, stack in out._asdict().items():
            other = getattr(recomputed, name)
            assert (stack is None) == (other is None), (name, k)
            assert stack is None or np.array_equal(stack, other), (name, k)
        if k >= 1:
            assert np.array_equal(out.prev_mix_stack, wm.csr @ out.prev_x_stack)
        state = out


class OperatorFreeCSR(sparse.csr_matrix):
    """A CSR matrix whose ``@`` fails, so a product that bypasses ``WeightMatrix.mix`` shows."""

    def __matmul__(self, other):
        raise AssertionError("sparse product through @ instead of WeightMatrix.mix")


@pytest.mark.parametrize(
    "algorithm, per_step, more",
    [("diffusion", 1, 0), ("dgt", 2, 0), ("extra", 1, 1), ("exact_diffusion", 1, 0)],
)
def test_run_sparse_product_budget(monkeypatch, algorithm, per_step, more):
    # A run of horizon H makes per_step * H + more products, all through
    # WeightMatrix.mix. EXTRA makes one for its diffusion bootstrap, two on
    # the step after it (nothing is cached yet), then one per step.
    horizon = 25
    objective = shifting_consensus(p=3, shift=1, horizon=horizon)
    wm = metropolis_weights(build_random(objective.n, 0.6, seed=2))
    expected = run(algorithm, objective, wm, 0.1, horizon)
    calls, mix = [], WeightMatrix.mix

    def counting_mix(self, stack):
        calls.append(stack.shape)
        return mix(self, stack)

    monkeypatch.setattr(WeightMatrix, "mix", counting_mix)
    operator_free = WeightMatrix(csr=OperatorFreeCSR(wm.csr), beta=wm.beta)
    record = run(algorithm, objective, operator_free, 0.1, horizon)
    assert len(calls) == per_step * horizon + more
    assert _same_record(record, expected)


# ---------------------------------------------------------------------------
# run harness


def test_run_records_initial_row_for_zero_horizon():
    obj = Quadratic([[1.0], [-1.0]])
    rec = run("diffusion", obj, pair_weights(), alpha=0.1, horizon=0)
    assert len(rec) == 1
    assert rec.iterations[0] == 0
    # agents start at zero, optimum is zero
    assert rec.tracking_error[0] == 0.0
    assert rec.y_dev is None


def test_run_series_match_manual_stepping():
    sc = shifting_consensus(p=2, shift=3, horizon=40)
    graph = build_random(5, 0.7, seed=4)
    wm = metropolis_weights(graph)
    rec = run("dgt", sc, wm, alpha=0.15, horizon=40)
    state = init_state("dgt", sc, wm)
    for k in range(41):
        x = state.x_stack
        opt = sc.optimum(k)
        tracking = np.sqrt(np.mean(np.sum((x - opt) ** 2, axis=1))) / sc.normalization
        assert rec.tracking_error[k] == tracking
        x_bar = x.mean(axis=0)
        assert rec.consensus_dev[k] == np.sqrt(np.mean(np.sum((x - x_bar) ** 2, axis=1)))
        assert rec.avg_error[k] == np.linalg.norm(x_bar - opt)
        y_bar = state.y_stack.mean(axis=0)
        assert rec.y_dev[k] == np.sqrt(
            np.mean(np.sum((state.y_stack - y_bar) ** 2, axis=1))
        )
        if k < 40:
            state = step("dgt", state, sc, wm, alpha=0.15, k=k)
    assert rec.tracker_identity_max is not None
    assert rec.tracker_identity_max <= 1e-10


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("problem", ["least_squares", "consensus"])  # d = 2 and d = 1
def test_run_lanes_match_a_loop_of_public_steps(algorithm, problem):
    # run advances its stacks through a private update; each lane of a
    # three-lane run must record, bitwise, what public step calls from
    # init_state at that lane's step size give. On 5 agents every sum over
    # agents runs in order, so the plain numpy formulas below are the oracle.
    if problem == "least_squares":
        objective = least_squares_stream(n=5, horizon=30, seed=4)
    else:
        objective = shifting_consensus(p=2, shift=3, horizon=30)
    wm = metropolis_weights(build_random(5, 0.6, seed=4))
    alphas = (0.02, 0.08, 0.15)
    records = run(algorithm, objective, wm, alphas, 30)
    for alpha, record in zip(alphas, records):
        state = init_state(algorithm, objective, wm)
        for k in range(31):
            x, opt, x_bar = state.x_stack, objective.optimum(k), state.x_stack.mean(axis=0)
            tracking = np.sqrt(np.mean(np.sum((x - opt) ** 2, axis=1))) / objective.normalization
            assert record.tracking_error[k] == tracking, (alpha, k)
            assert record.consensus_dev[k] == np.sqrt(np.mean(np.sum((x - x_bar) ** 2, axis=1)))
            assert record.avg_error[k] == np.linalg.norm(x_bar - opt), (alpha, k)
            if algorithm == "dgt":
                y, y_bar = state.y_stack, state.y_stack.mean(axis=0)
                assert record.y_dev[k] == np.sqrt(np.mean(np.sum((y - y_bar) ** 2, axis=1)))
            if k < 30:
                state = step(algorithm, state, objective, wm, alpha, k)
        assert (record.y_dev is None) == (algorithm != "dgt")


def test_run_is_deterministic():
    stream = least_squares_stream(n=5, horizon=50, seed=9)
    graph = build_random(5, 0.6, seed=9)
    wm = metropolis_weights(graph)
    rec_a = run("diffusion", stream, wm, alpha=0.02, horizon=50)
    rec_b = run("diffusion", stream, wm, alpha=0.02, horizon=50)
    assert rec_a.tracking_error.tobytes() == rec_b.tracking_error.tobytes()
    assert rec_a.consensus_dev.tobytes() == rec_b.consensus_dev.tobytes()


def test_run_bootstraps_history_methods():
    obj = Quadratic([[1.0], [-1.0]])
    rec = run("extra", obj, pair_weights(), alpha=0.1, horizon=300)
    assert rec.tracking_error[-1] < 1e-8


def test_run_rejects_network_size_mismatch():
    obj = Quadratic([[1.0], [-1.0]])
    graph = build_random(3, 0.9, seed=0)
    wm = metropolis_weights(graph)
    with pytest.raises(ShapeMismatchError):
        run("diffusion", obj, wm, alpha=0.1, horizon=5)


def test_run_rejects_horizon_beyond_objective():
    sc = shifting_consensus(p=1, shift=1, horizon=10)
    wm = WeightMatrix(csr=sparse.csr_matrix(np.full((3, 3), 1.0 / 3.0)), beta=0.0)
    with pytest.raises(ValueError):
        run("dgt", sc, wm, alpha=0.1, horizon=11)


def test_run_rejects_unknown_algorithm():
    obj = Quadratic([[1.0]])
    with pytest.raises(ValueError):
        run("mystery", obj, single_node_weights(), alpha=0.1, horizon=1)


def test_run_records_divergence_without_crashing():
    # single agent so the overshoot compounds instead of averaging out
    obj = Quadratic([[1.0]])
    rec = run("diffusion", obj, single_node_weights(), alpha=1e6, horizon=200)
    assert len(rec) == 201
    assert not np.isfinite(rec.tracking_error).all()


def test_run_accepts_custom_initial_state():
    obj = Quadratic([[1.0], [-1.0]])
    x0 = np.full((2, 1), 10.0)
    state = init_state("diffusion", obj, pair_weights(), x0=x0)
    rec = run("diffusion", obj, pair_weights(), alpha=0.1, horizon=0, initial_state=state)
    assert rec.tracking_error[0] == 10.0


def test_record_round_trip(tmp_path):
    sc = shifting_consensus(p=2, shift=1, horizon=30)
    graph = build_random(5, 0.8, seed=7)
    wm = metropolis_weights(graph)
    rec = run("dgt", sc, wm, alpha=0.1, horizon=30)
    path = tmp_path / "run.csv"
    write_record(rec, path)
    loaded = read_record(path)
    assert np.array_equal(loaded.iterations, rec.iterations)
    assert np.array_equal(loaded.tracking_error, rec.tracking_error)
    assert np.array_equal(loaded.y_dev, rec.y_dev)
    assert loaded.metadata == rec.metadata
    assert loaded.tracker_identity_max == rec.tracker_identity_max


def test_record_round_trip_without_tracker(tmp_path):
    obj = Quadratic([[1.0], [-1.0]])
    rec = run("diffusion", obj, pair_weights(), alpha=0.1, horizon=20)
    path = tmp_path / "run.csv"
    write_record(rec, path)
    loaded = read_record(path)
    assert loaded.y_dev is None
    assert np.array_equal(loaded.avg_error, rec.avg_error)


# ---------------------------------------------------------------------------
# step-size lanes


def test_run_returns_one_record_per_lane():
    obj = Quadratic([[1.0], [-1.0]])
    single = run("diffusion", obj, pair_weights(), alpha=0.1, horizon=5)
    lanes = run("diffusion", obj, pair_weights(), alpha=[0.1, 0.2], horizon=5)
    assert isinstance(single, TrajectoryRecord)
    assert isinstance(lanes, tuple) and len(lanes) == 2
    assert [rec.metadata.alpha for rec in lanes] == [0.1, 0.2]
    assert len(run("diffusion", obj, pair_weights(), alpha=(0.1,), horizon=5)) == 1


@pytest.mark.parametrize("alpha", [[], [[0.1, 0.2]], [0.1, 0.0], [0.1, -1.0]])
def test_run_rejects_malformed_step_sizes(alpha):
    obj = Quadratic([[1.0], [-1.0]])
    with pytest.raises(ValueError):
        run("diffusion", obj, pair_weights(), alpha=alpha, horizon=5)


def _same_record(a, b) -> bool:
    fields = ("iterations", "tracking_error", "consensus_dev", "avg_error", "y_dev",
              "tracker_identity_max")
    for name in fields:
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y, equal_nan=True)):
            return False
    return a.metadata == b.metadata


# Overflows within a few steps on every problem below, for every method.
DIVERGENT_ALPHA = 1e60


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=12, deadline=None)
@given(
    scenario=st.sampled_from(["I", "II", "III", "static"]),
    size=st.integers(min_value=1, max_value=5),
    horizon=st.integers(min_value=10, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
    init=st.sampled_from(["zeros", "optimum"]),
    grid=st.lists(st.floats(min_value=1e-3, max_value=0.5), min_size=1, max_size=5, unique=True),
)
def test_lanes_match_one_lane_runs(algorithm, scenario, size, horizon, seed, init, grid):
    # Lane k of a sweep is bitwise a one-lane run at that step size, also
    # when the grid's top lane diverges, and tuning never picks that lane.
    # Scenario I reaches n = 17: from 8 agents up numpy's pairwise sum
    # differs from a sequential one, so a lane summed over agents in another
    # order than a one-lane run would show.
    grid = tuple(sorted(grid))
    config = ExperimentConfig(
        scenario=scenario,
        topology="random",
        edge_probability=0.6,
        weight_rule="metropolis",
        n=3 * size + 2 if scenario == "I" else None,
        p=None if scenario == "I" else size,
        horizon=horizon,
        seed=seed,
        init=init,
        stepsizes=grid + (DIVERGENT_ALPHA,),
    )
    objective = build_objective(config)
    _, wm = build_network(config)
    records = run_single(config, objective, wm, algorithm, config.stepsizes)
    assert len(records) == len(config.stepsizes)
    for alpha, record in zip(config.stepsizes, records):
        assert _same_record(record, run_single(config, objective, wm, algorithm, alpha)), alpha
    with pytest.raises(DivergenceError):
        steady_state_error(records[-1], config.tail_fraction)

    trimmed = replace(config, stepsizes=grid)
    try:
        expected = tune_stepsize(trimmed, algorithm, objective, wm)
    except TuningError:  # every lane of the grid diverged as well
        with pytest.raises(TuningError):
            tune_stepsize(config, algorithm, objective, wm)
        return
    alpha, record = tune_stepsize(config, algorithm, objective, wm)
    assert alpha == expected[0] and alpha != DIVERGENT_ALPHA
    assert _same_record(record, expected[1])


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(scenario="III", topology="random", edge_probability=0.0055,
                         weight_rule="metropolis", p=1000, horizon=20, seed=0, grid_points=8),
        ExperimentConfig(scenario="I", topology="cycle", n=100, horizon=20, seed=0),
    ],
    ids=["rotation_p1000_8_lanes", "lsq_n100_60_columns"],
)
def test_full_scale_lanes_match_one_lane_runs(config):
    # At the benchmark's sizes a sweep mixes 8 or 60 columns through
    # csr_matvecs and a one-lane run mixes through csr_matvec (d = 1) or
    # csr_matvecs (d = 2); every lane must still be bitwise its one-lane run.
    objective = build_objective(config)
    _, wm = build_network(config)
    grid = default_grid(config, objective.mu, objective.lipschitz)
    assert len(grid) * objective.d == (8 if config.scenario == "III" else 60)
    for algorithm in ALGORITHMS:
        records = run_single(config, objective, wm, algorithm, grid)
        for alpha, record in zip(grid, records):
            expected = run_single(config, objective, wm, algorithm, alpha)
            assert _same_record(record, expected), (algorithm, alpha)


def test_in_place_sweep_blocks_match_filed_one_lane_runs():
    # At the lsq_tune shape (n = 100, d = 2, the default 30-point grid plus a
    # divergent top lane) a step holds 6,200 stack values, more than one
    # block's budget, so the sweep reduces one-step blocks that read the
    # stacks in place, while each one-lane run files 20-step blocks (two
    # full ones and a partial one over 41 steps). Every lane must still be
    # bitwise its one-lane run, the divergent one included.
    config = ExperimentConfig(scenario="I", topology="cycle", n=100, horizon=40, seed=0)
    objective = build_objective(config)
    _, wm = build_network(config)
    grid = default_grid(config, objective.mu, objective.lipschitz) + (DIVERGENT_ALPHA,)
    values = objective.n * objective.d
    assert algorithms._BLOCK_VALUES // (values * len(grid)) == 0
    assert algorithms._BLOCK_VALUES // values == 20
    for algorithm in ALGORITHMS:
        records = run(algorithm, objective, wm, grid, config.horizon)
        assert not np.isfinite(records[-1].tracking_error[-1]), algorithm
        for alpha, record in zip(grid, records):
            expected = run(algorithm, objective, wm, alpha, config.horizon)
            assert _same_record(record, expected), (algorithm, alpha)


# Sweeps at three shapes, each with a divergent top lane: d = 1 and d = 2 on
# 17 agents file blocks of steps; d = 2 on 100 agents with the default grid
# holds 6,200 stack values a step and reads one-step blocks in place.
SWEEP_SHAPES = {
    "d1_filed": ExperimentConfig(scenario="II", topology="cycle", p=8, horizon=30, seed=3,
                                 stepsizes=(0.01, 0.1, DIVERGENT_ALPHA)),
    "d2_filed": ExperimentConfig(scenario="I", topology="random", edge_probability=0.6, n=17,
                                 horizon=30, seed=3, stepsizes=(0.01, 0.1, DIVERGENT_ALPHA)),
    "d2_in_place": ExperimentConfig(scenario="I", topology="cycle", n=100, horizon=30, seed=0),
}


def _sweep(shape, init="zeros"):
    """The shape's config, its grid set (by default the default grid and a divergent lane), objective, network."""
    config = replace(SWEEP_SHAPES[shape], init=init)
    objective = build_objective(config)
    _, wm = build_network(config)
    if config.stepsizes is None:
        grid = default_grid(config, objective.mu, objective.lipschitz) + (DIVERGENT_ALPHA,)
        config = replace(config, stepsizes=grid)
    in_place = algorithms.reads_in_place(objective.n, objective.d, len(config.stepsizes))
    assert in_place == (shape == "d2_in_place")
    return config, objective, wm


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("shape", sorted(SWEEP_SHAPES))
def test_tracking_only_sweep_is_the_recorded_tracking_error(algorithm, shape):
    # Column g of a tracking-only sweep is bitwise lane g's tracking_error,
    # the divergent lane's non-finite values included.
    config, objective, wm = _sweep(shape)
    records = run(algorithm, objective, wm, config.stepsizes, config.horizon)
    errors = run(algorithm, objective, wm, config.stepsizes, config.horizon, tracking_only=True)
    assert errors.shape == (config.horizon + 1, len(config.stepsizes))
    assert not np.isfinite(errors[-1, -1])
    for lane, record in enumerate(records):
        assert errors[:, lane].tobytes() == record.tracking_error.tobytes(), lane


def _full_sweep_winner(config, algorithm, objective, wm):
    """The step size and record the recorded sweep picks: the lowest tail, the larger step on a tie."""
    records = run_single(config, objective, wm, algorithm, config.stepsizes)
    scores = []
    for record in records:
        try:
            scores.append(steady_state_error(record, config.tail_fraction))
        except DivergenceError:
            scores.append(np.inf)
    best = min(range(len(records)), key=lambda i: (scores[i], -i))
    return (config.stepsizes[best], records[best]) if scores[best] < np.inf else None


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("init", INITS)
def test_tune_reruns_the_winner_of_a_tracking_only_sweep(algorithm, init):
    # At the in-place shape tune_stepsize scores a dgt sweep's lanes from a
    # tracking-only sweep and reruns the winner, and records every lane of
    # the other methods' sweeps: either way the same step size and record,
    # every field and tracker_identity_max included, as the recorded sweep's
    # winning lane.
    config, objective, wm = _sweep("d2_in_place", init)
    alpha, record = tune_stepsize(config, algorithm, objective, wm)
    expected_alpha, expected = _full_sweep_winner(config, algorithm, objective, wm)
    assert alpha == expected_alpha != DIVERGENT_ALPHA
    assert _same_record(record, expected)
    assert (record.tracker_identity_max is not None) == (algorithm == "dgt")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tune_raises_when_every_lane_of_a_tracking_only_sweep_diverges(algorithm):
    # dgt scores a tracking-only sweep, the other methods a recorded one.
    config, objective, wm = _sweep("d2_in_place")
    config = replace(config, stepsizes=tuple(np.geomspace(1e50, DIVERGENT_ALPHA, 11)))
    assert algorithms.reads_in_place(objective.n, objective.d, len(config.stepsizes))
    assert _full_sweep_winner(config, algorithm, objective, wm) is None
    with pytest.raises(TuningError, match="every step size diverged"):
        tune_stepsize(config, algorithm, objective, wm)


# ---------------------------------------------------------------------------
# blocks of recorded steps


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scenario", ["I", "II"])  # d = 2 and d = 1
def test_records_do_not_depend_on_block_length(monkeypatch, algorithm, scenario):
    # run reduces its metrics a block of steps at a time. Blocks of 1, 2 and
    # 7 steps (31 steps leave a partial last block) and one block for the
    # whole horizon record the same series bitwise, on 17 agents (pairwise
    # and sequential sums differ from 8 agents up) and on a grid whose top
    # lane diverges. A tracking-only sweep, which keeps no norm buffer,
    # returns the block-1 records' tracking errors at every block length.
    config = ExperimentConfig(
        scenario=scenario,
        topology="random",
        edge_probability=0.6,
        weight_rule="metropolis",
        n=17 if scenario == "I" else None,
        p=None if scenario == "I" else 8,
        horizon=30,
        seed=3,
        stepsizes=(0.01, 0.1, DIVERGENT_ALPHA),
    )
    objective = build_objective(config)
    _, wm = build_network(config)
    values = objective.n * objective.d * len(config.stepsizes)
    for horizon in (0, config.horizon):
        by_length, tracking = {}, {}
        for steps in (1, 2, 7, 10**6):
            monkeypatch.setattr(algorithms, "_BLOCK_VALUES", steps * values)
            by_length[steps] = run(algorithm, objective, wm, config.stepsizes, horizon)
            tracking[steps] = run(algorithm, objective, wm, config.stepsizes, horizon, tracking_only=True)
        expected = np.stack([record.tracking_error for record in by_length[1]], axis=1)
        for steps, records in by_length.items():
            assert all(_same_record(a, b) for a, b in zip(records, by_length[1])), steps
            assert tracking[steps].tobytes() == expected.tobytes(), steps
    assert not np.isfinite(by_length[1][-1].tracking_error[-1])


def test_in_place_blocks_sum_an_f_ordered_initial_state_as_a_filed_block(monkeypatch):
    # A one-step block with d >= 2 reads the stacks in place. An F-ordered
    # stack would then be summed over its 17 agents pairwise per column, not
    # agent by agent as in a filed block, so run makes the state C-ordered.
    # The starting iterates average to the optimum up to rounding, so the
    # last bit of their average shows in avg_error.
    rng = np.random.default_rng(4)
    objective = Quadratic(rng.standard_normal((17, 3)))
    wm = metropolis_weights(build_random(objective.n, 0.5, seed=5))
    spread = 1e3 * rng.standard_normal((17, 3))
    x0 = np.asfortranarray(objective.optimum(0) + spread - spread.mean(axis=0))
    for algorithm in ALGORITHMS:
        state = init_state(algorithm, objective, wm, x0=x0)
        assert state.x_stack.flags.f_contiguous and not state.x_stack.flags.c_contiguous
        filed = run(algorithm, objective, wm, 0.1, 3, initial_state=state)
        monkeypatch.setattr(algorithms, "_BLOCK_VALUES", 1)  # one-step blocks
        in_place = run(algorithm, objective, wm, 0.1, 3, initial_state=state)
        monkeypatch.undo()
        assert _same_record(in_place, filed), algorithm


def test_run_memory_grows_with_the_recorded_series_only(traced_peak):
    # Blocks are sized by a value budget, not by the horizon, so ten times
    # the steps adds the longer series to the peak and no block buffer:
    # about the records' own bytes, plus the few horizon-long arrays that
    # run builds them from, whose roots it takes in place. dgt files the
    # most stacks per step. The one-lane n = 5 run files 409-step blocks;
    # the 30-lane n = 100 sweep reads one-step blocks in place and buffers
    # the per-lane norms' inputs for up to 68 steps, at both horizons. The
    # same sweep with tracking_only adds one (horizon + 1, 30) series.
    sweep = tuple(np.geomspace(1e-3, 1e-2, 30))
    shapes = ((5, (0.01,), (2_000, 20_000), False),
              (100, sweep, (100, 1_000), False),
              (100, sweep, (100, 1_000), True))
    for n, alphas, horizons, tracking_only in shapes:
        config = ExperimentConfig(scenario="I", topology="cycle", n=n, horizon=horizons[1], seed=0)
        objective = build_objective(config)
        _, wm = build_network(config)
        peaks, series = [], []
        for horizon in horizons:
            peak, result = traced_peak(
                lambda: run("dgt", objective, wm, alphas, horizon, tracking_only=tracking_only)
            )
            peaks.append(peak)
            if tracking_only:
                assert result.shape == (horizon + 1, len(alphas))
                series.append(result.nbytes)
                continue
            series.append(sum(
                a.nbytes
                for record in result
                for a in (record.iterations, record.tracking_error, record.consensus_dev,
                          record.avg_error, record.y_dev)
            ))
        assert peaks[1] - peaks[0] < 2.5 * (series[1] - series[0]), (n, tracking_only)
