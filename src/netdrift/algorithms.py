"""Decentralized first-order iterations for drifting objectives.

Four methods share one state container, one step function and one run
harness:

- ``diffusion``: adapt-then-combine; each agent takes a local gradient step
  against the newly revealed objective and averages with its neighbors.
- ``dgt``: diffusion on top of a gradient-tracking recursion; an auxiliary
  stack ``y`` follows the network-average gradient, so the method removes
  the steady-state consensus bias that plain diffusion keeps paying for.
- ``extra`` and ``exact_diffusion``: history-correction baselines that
  difference consecutive gradients. EXTRA's first step, taken before it has
  a history, is a diffusion step. ``init_state`` seeds exact diffusion's
  history with the starting iterates and zero gradients, so its first step
  is ``(I+W)/2 (x - alpha g)``, with no separate bootstrap.

``step`` is pure: it takes a state and returns a new one, never mutating
arrays in place. It makes one gradient call and one update per method, in
that method's own order of operations. ``AlgorithmState`` is a named tuple
of the stacks, and the update itself is a private function on a tuple of
them: ``step`` hands it the state and names the plain tuple it returns,
while ``run`` advances plain tuples, so both take one path through the
arithmetic and the loop builds no state object per step.
Mixing goes through ``WeightMatrix.mix``. EXTRA keeps its product ``W x``
in the state and reads it back as ``W x_prev`` on its next step, so every
method makes one sparse product per step, except dgt, which makes two.

Step-size lanes: ``run`` can advance one method at several step sizes in a
single pass, one lane per step size. A stack holds the G lanes
coordinate-major in its (n, G*d) columns: column j*G + g is coordinate j of
lane g, so the lanes are the innermost, contiguous axis of every operand,
and the (n, G*d) array of step sizes that every product with ``alpha``
reads has the same shape. Mixing is one sparse product over all lanes, and
the gradients of all lanes come from one call. Every operation acts on each
lane separately, and each recorded series reduces over agents within one
lane in a one-lane run's order (below), so lane g of a sweep is bitwise a
one-lane run at its step size.

Blocks of recorded steps: the metrics cost about fifteen small numpy calls,
which dominate a step on small networks, so ``run`` reduces a whole block of
steps at once, along a leading block axis. A block holds about
``_BLOCK_VALUES`` stack values, and at least one step. A block of several
steps is filed: each step's stacks are copied into it. When the budget holds
fewer than two steps (``one_step_blocks``), each one-step block reads the
live stacks in place, as a leading axis of length one, with no copy: the
(n, G*d) stacks when d >= 2, and x's (G, n) transposed view in a
tracking-only run with d = 1, whose deviations from the optimum are written
into contiguous rows. A recorded run with d = 1 files its one-step blocks
too, because its network average sums each lane pairwise only over a
contiguous row (below).

The norm buffer: the per-lane norms of the average iterate's error and of
the tracker gap are taken over many steps in one call, so that a sweep of
one-step blocks does not pay a call per step. Each step's differences go
into one buffer of whole blocks, with one row per norm of up to
``_BLOCK_VALUES`` values (lanes x d per step), whose norms are taken when
it fills.

Summation order: numpy sums a one-lane (n, d) stack over its agents one
agent after the other when d >= 2, and pairwise when d = 1. ``run`` keeps
both orders, in blocks of any length. For d >= 2 it reduces (m, n, G*d)
blocks over the agent axis, which also goes agent by agent; for d = 1 it
sums each lane's column as one contiguous row of a lane-major (m, G, n)
block, pairwise. Both need C order: in an F-ordered block (``np.stack`` of
transposed stacks gives one) the agents of a lane lie innermost for d >= 2
and strided for d = 1, numpy sums them in the other order, and the last bit
changes. So filed blocks are C-ordered, and the stacks that blocks read in
place start as C-ordered copies of the initial state, also of an F-ordered
one (``_widen``). The squared deviations of one lane are summed over d
coordinate by coordinate, the order numpy uses on a row shorter than 8, and
then over agents pairwise, per lane and step.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .problems import DynamicObjective
from .records import RunMetadata, TrajectoryRecord
from .topology import WeightMatrix

ALGORITHMS = ("diffusion", "dgt", "extra", "exact_diffusion")
_BLOCK_VALUES = 2**12  # stack values per block of steps (module docstring)
# The fewest lanes of a tracking-only dgt sweep; experiment.tune_stepsize states the rule.
_TRACKING_ONLY_LANES = 6


class StepError(RuntimeError):
    """A single iteration could not be executed."""


class ShapeMismatchError(ValueError):
    """Objective, weight matrix, and state disagree on network size or dimension."""


class AlgorithmState(NamedTuple):
    """Iterate stacks for one method at one time index, in the order ``_update`` takes them.

    ``x_stack`` holds one row per agent, and the lanes of a multi-step-size
    run side by side in its columns. The optional stacks are only
    populated by the methods that need them: ``y_stack`` is the tracker,
    ``prev_grad_stack`` holds the gradients evaluated at the previous
    objective/iterate pair, ``prev_x_stack`` the previous iterates, and
    ``prev_mix_stack`` (EXTRA only) the product ``W @ prev_x_stack`` that
    EXTRA's last step computed, which its next step reuses.
    """

    x_stack: NDArray[np.float64]
    y_stack: NDArray[np.float64] | None = None
    prev_grad_stack: NDArray[np.float64] | None = None
    prev_x_stack: NDArray[np.float64] | None = None
    prev_mix_stack: NDArray[np.float64] | None = None


def _check_compatible(objective: DynamicObjective, wm: WeightMatrix, x_stack) -> None:
    if wm.n != objective.n:
        raise ShapeMismatchError(
            f"weight matrix is {wm.n}x{wm.n} but the objective couples {objective.n} agents"
        )
    if x_stack.shape != (objective.n, objective.d):
        raise ShapeMismatchError(
            f"state shape {x_stack.shape} does not match ({objective.n}, {objective.d})"
        )


def init_state(
    algorithm: str,
    objective: DynamicObjective,
    wm: WeightMatrix,
    x0: NDArray[np.float64] | None = None,
) -> AlgorithmState:
    """Build the starting state for ``algorithm`` (all-zeros iterates by default)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if x0 is None:
        x0 = np.zeros((objective.n, objective.d))
    else:
        x0 = np.array(x0, dtype=np.float64)
    _check_compatible(objective, wm, x0)
    if algorithm == "dgt":
        g0 = objective.gradient_stack(0, x0)
        return AlgorithmState(x_stack=x0, y_stack=g0, prev_grad_stack=g0.copy())
    if algorithm == "exact_diffusion":
        # 2*x0 - x0 == x0 and g - 0 == g exactly: the first step is (I+W)/2 (x0 - alpha g).
        return AlgorithmState(x_stack=x0, prev_grad_stack=np.zeros_like(x0), prev_x_stack=x0)
    return AlgorithmState(x_stack=x0)


def step(
    algorithm: str,
    state: AlgorithmState,
    objective: DynamicObjective,
    wm: WeightMatrix,
    alpha: float | NDArray[np.float64],
    k: int,
) -> AlgorithmState:
    """One iteration of ``algorithm`` against the objective revealed at k+1.

    dgt descends along its tracker, combines, and then refreshes the tracker
    with the gradient innovation at the new iterate, which keeps the network
    average of ``y`` equal to that of the current local gradients. The other
    methods take their gradient at the current iterate: diffusion (and
    EXTRA before it has a history) combines ``x - alpha g``; EXTRA mixes the
    current and half-mixes the previous iterates, taking ``W x_prev`` from
    the state when its last step left it there and computing it otherwise;
    exact diffusion half-mixes ``2x - x_prev`` less the step along the
    gradient difference. ``alpha`` is one step size or any array that
    broadcasts against the (n, G*d) stacks of the lane layout (module
    docstring).
    """
    return AlgorithmState(*_update(algorithm, state, objective, wm, alpha, k))


def _update(algorithm, stacks, objective, wm, alpha, k) -> tuple:
    """``step`` on a tuple of stacks in ``AlgorithmState``'s field order."""
    x, y, g_prev, x_prev, prev_mix = stacks
    mix = wm.mix
    if algorithm == "dgt":
        x_new = mix(x - alpha * y)
        g_new = objective.gradient_stack(k + 1, x_new)
        return x_new, mix(y) + g_new - g_prev, g_new, None, None
    grads = objective.gradient_stack(k + 1, x)
    if algorithm == "diffusion" or (algorithm == "extra" and x_prev is None):
        x_new = mix(x - alpha * grads)
    elif algorithm == "extra":
        mixed = mix(x)
        prev_mix = prev_mix if prev_mix is not None else mix(x_prev)
        x_new = x + mixed - 0.5 * (x_prev + prev_mix) - alpha * (grads - g_prev)
        return x_new, None, grads, x, mixed
    elif algorithm == "exact_diffusion":
        corrected = 2.0 * x - x_prev - alpha * (grads - g_prev)
        x_new = 0.5 * (corrected + mix(corrected))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm == "diffusion":
        return x_new, None, None, None, None
    return x_new, None, grads, x, None


def _widen(state: AlgorithmState, lanes: int) -> tuple:
    """C-ordered copies of a one-lane state's stacks, each column replicated as ``lanes`` columns."""
    return tuple(stack if stack is None else np.repeat(stack, lanes, axis=1) for stack in state)


def one_step_blocks(n: int, d: int, lanes: int) -> bool:
    """Whether ``run``'s blocks of (n, lanes*d) stacks are one step long, a budget under 2 steps.

    ``experiment.tune_stepsize`` states how its sweep depends on it.
    """
    return _BLOCK_VALUES // (n * lanes * d) < 2


def _squared_norms(values: NDArray[np.float64], out: NDArray[np.float64]) -> None:
    # Squared norm of each lane's d-vector in coordinate-major ``values``, into
    # the C-ordered (..., lanes) ``out``: the vectors copied into contiguous
    # rows, then one dot product per row, the kernel np.linalg.norm uses on a
    # vector. Each row's product is independent of its neighbours.
    lanes = out.shape[-1]
    rows = values.reshape(out.size // lanes, -1, lanes).swapaxes(1, 2).reshape(out.size, -1)
    np.matmul(rows[:, None, :], rows[:, :, None], out=out.reshape(-1, 1, 1))


def _identity_max(gaps: NDArray[np.float64]) -> float:
    """Largest tracker-identity gap of a run; the last non-finite one if any."""
    bad = np.flatnonzero(~np.isfinite(gaps))
    return float(gaps[bad[-1]] if bad.size else gaps.max())


def run(
    algorithm: str,
    objective: DynamicObjective,
    wm: WeightMatrix,
    alpha: float | Sequence[float],
    horizon: int,
    initial_state: AlgorithmState | None = None,
    seed: int = 0,
    scenario: str | None = None,
    *,
    tracking_only: bool = False,
) -> TrajectoryRecord | tuple[TrajectoryRecord, ...] | NDArray[np.float64]:
    """Run ``horizon`` steps and record the error series at every iterate.

    ``alpha`` is one step size, which returns one record, or a 1-D sequence
    of step sizes, which runs them all in one pass, one lane per step size,
    and returns a tuple with one record per lane in the same order. Lane g
    is bitwise identical to a one-lane run at ``alpha[g]``, and a lane that
    diverges leaves the others unchanged. ``initial_state`` is a one-lane
    state from which every lane starts.

    The recorded series are, per iteration k: the root mean square distance
    of the agent iterates to the current optimum divided by the problem's
    normalization constant, the root mean square consensus deviation, the
    distance of the average iterate to the optimum, and (tracking only) the
    root mean square tracker deviation. All deviation series are stacked
    norms divided by sqrt(n), which lets the one-step inequalities of the
    analysis module apply to the recorded series without size factors.
    Overflow during divergent runs is recorded as non-finite values rather
    than raised.

    ``tracking_only=True`` returns the (horizon + 1, G) matrix of the lanes'
    tracking errors instead of records, column g bitwise lane g's
    ``tracking_error``, for tuning sweeps (``experiment.tune_stepsize``).

    The steps are reduced in blocks (module docstring), and a record does
    not depend on the block length.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alpha must be a step size or a nonempty 1-D sequence of them")
    if not (alphas > 0).all():
        raise ValueError("step size must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > objective.horizon:
        raise ValueError(
            f"requested horizon {horizon} exceeds the objective's {objective.horizon}"
        )
    state = initial_state if initial_state is not None else init_state(algorithm, objective, wm)
    _check_compatible(objective, wm, state.x_stack)

    n, d, lanes = objective.n, objective.d, alphas.size
    stacks = _widen(state, lanes)
    alpha_stack = np.tile(alphas, (n, d))  # the step size of every stack entry
    if algorithm == "dgt" and stacks[1] is None:
        raise StepError("a dgt run needs a tracker state; build it with init_state")
    normalization = float(objective.normalization)
    length = horizon + 1
    # What the run records, as counts per mode: the squared-deviation series
    # (tracking, consensus, tracker), the stacks filed (x, y, g_prev) and the
    # per-lane norms (x-bar - x*, y-bar - g-bar). A tracking-only run reduces
    # x alone: no network average, no norm and no record.
    series, recorded, norms = (1, 1, 0) if tracking_only else (3, 3, 2) if algorithm == "dgt" else (2, 1, 1)
    # Steps per block and per norm buffer, and the block layout by d (module docstring).
    block = max(1, min(length, _BLOCK_VALUES // (n * lanes * d)))
    span = block * max(1, min(length, _BLOCK_VALUES // (lanes * d)) // block)
    if d > 1:
        axis, shape, bar_shape = -2, (n, lanes * d), (1, lanes * d)
    else:
        axis, shape, bar_shape = -1, (lanes, n), (lanes, 1)
    in_place = one_step_blocks(n, d, lanes) and (d > 1 or tracking_only)
    filed = [] if in_place else [np.empty((block, *shape)) for _ in range(recorded)]
    # Each step's optimum: once per lane when d >= 2, coordinate-major as in
    # a stack's columns; once for all lanes when d = 1, a single value that
    # numpy subtracts from a lane-major block about 3x faster than a column
    # of one value per lane (8 lanes of 2,001 agents).
    optima = np.empty((block, d, lanes if d > 1 else 1))
    lane_optima = optima.swapaxes(1, 2)  # filed by broadcast
    deviations = np.empty((block, series, *shape))
    per_lane = deviations if d == 1 else np.empty((block, series, lanes, n))
    sums = np.empty((length, series, lanes))
    bar_dev = np.empty((span, norms, *bar_shape))  # shaped as a step's network average
    bar_sq = np.empty((length, norms, lanes))

    def cut(m):
        """The optima and the views written through for a block's first m steps."""
        dev, lane_sums = deviations[:m], per_lane[:m]
        # Coordinate j of the lanes, transposed to match ``lane_sums``'s rows.
        columns = [dev[..., j * lanes : (j + 1) * lanes].swapaxes(2, 3) for j in range(d)]
        return (optima[:m].reshape(m, 1, -1), dev, [dev[:, s] for s in range(series)],
                lane_sums, columns if d > 1 else [])

    def reduce_block(k0, stacks, opt, dev, dev_rows, lane_sums, columns):
        k1 = k0 + len(opt)
        held = bar_dev[k0 % span : k0 % span + len(opt)]  # the block's rows of the norm buffer
        x = stacks[0]
        np.subtract(x, opt, out=dev_rows[0])
        if series > 1:
            x_bar = np.add.reduce(x, axis=axis, keepdims=True) / n
            np.subtract(x, x_bar, out=dev_rows[1])
            np.subtract(x_bar, opt, out=held[:, 0])
        if series > 2:
            y_bar = np.add.reduce(stacks[1], axis=axis, keepdims=True) / n
            np.subtract(stacks[1], y_bar, out=dev_rows[2])
            g_bar = np.add.reduce(stacks[2], axis=axis, keepdims=True) / n
            np.subtract(y_bar, g_bar, out=held[:, 1])
        np.square(dev, out=dev)
        if d > 1:  # over d into the lane-major rows of ``lane_sums`` (summation order: module docstring)
            np.add(columns[0], columns[1], out=lane_sums)
            for column in columns[2:]:
                np.add(lane_sums, column, out=lane_sums)
        np.add.reduce(lane_sums, axis=3, out=sums[k0:k1])

    full = cut(block)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(length):
            b = k % block
            lane_optima[b] = objective.optimum(k)
            if not in_place:
                for buffer, stack in zip(filed, stacks):  # x, then for dgt y and g_prev
                    buffer[b] = stack if d > 1 else stack.T
            if b == block - 1:
                blocks = [(s if d > 1 else s.T)[None] for s in stacks[:recorded]] if in_place else filed
                reduce_block(k - b, blocks, *full)
            elif k == horizon:
                reduce_block(k - b, [buffer[: b + 1] for buffer in filed], *cut(b + 1))
            if norms and (k % span == span - 1 or k == horizon):
                k0 = k - k % span  # the norm buffer holds steps k0..k
                _squared_norms(bar_dev[: k + 1 - k0], out=bar_sq[k0 : k + 1])
            if k == horizon:
                break
            try:
                stacks = _update(algorithm, stacks, objective, wm, alpha_stack, k)
            except Exception as exc:
                raise StepError(f"{algorithm} step failed at iteration {k}") from exc
        # Roots and scaling in place: a horizon-long temporary per series would
        # add to the run's peak memory, which should grow with its records only.
        rms = np.sqrt(np.divide(sums, n, out=sums), out=sums)
        np.divide(rms[:, 0], normalization, out=rms[:, 0])  # the tracking error
    if not norms:
        return rms[:, 0]
    bar_norms = np.sqrt(bar_sq, out=bar_sq)
    records = []
    for lane, lane_alpha in enumerate(alphas):
        meta = RunMetadata(
            algorithm=algorithm,
            alpha=float(lane_alpha),
            beta=float(wm.beta),
            scenario=scenario if scenario is not None else type(objective).__name__,
            seed=int(seed),
            n=int(n),
            d=int(d),
            horizon=int(horizon),
            mu=float(objective.mu),
            lipschitz=float(objective.lipschitz),
            normalization=normalization,
        )
        records.append(
            TrajectoryRecord(
                metadata=meta,
                iterations=np.arange(length, dtype=np.int64),
                tracking_error=rms[:, 0, lane].copy(),
                consensus_dev=rms[:, 1, lane].copy(),
                avg_error=bar_norms[:, 0, lane].copy(),
                y_dev=rms[:, 2, lane].copy() if series > 2 else None,
                tracker_identity_max=_identity_max(bar_norms[:, 1, lane]) if norms > 1 else None,
            )
        )
    return records[0] if np.ndim(alpha) == 0 else tuple(records)
