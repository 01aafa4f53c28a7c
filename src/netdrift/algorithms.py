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
Mixing goes through ``WeightMatrix.mix``, which applies the sparse view of
the weight matrix with scipy's compiled kernels and none of its operator
dispatch, so each update touches neighbor values only: the one-column
kernel for a one-lane run of a one-dimensional problem, the multi-column
kernel for every wider stack, both with 64-bit indices. EXTRA keeps its
product ``W x`` in the state and reads it back as ``W x_prev`` on its next
step, so every method makes one sparse product per step, except dgt, which
makes two.

Step-size lanes: ``run`` can advance one method at several step sizes in a
single pass. Each step size is a lane, and a stack holds the G lanes
coordinate-major in its (n, G*d) columns: column j*G + g is coordinate j of
lane g, so the lanes are the innermost, contiguous axis of every operand.
``run`` builds the step sizes once as a contiguous (n, G*d) array, entry
(i, j*G + g) holding lane g's, so every product with ``alpha`` is a
same-shape loop; mixing is one sparse product over all lanes, and the
gradients of all lanes come from one call: least squares broadcasts its
coefficients over the lanes, and the consensus family subtracts a target
tile as wide as the stack. Every operation acts on each lane separately,
and each recorded metric reduces over agents within one lane in the same
order as a one-lane run, so lane g of a sweep is bitwise identical to a
one-lane run at that step size. A lane that diverges fills with non-finite
values without touching the others.

Blocks of recorded steps: the metrics cost about fifteen small numpy calls,
which dominate a step on small networks. So ``run`` reduces a whole block
of steps at once, along a leading block axis. A block holds about
``_BLOCK_VALUES`` stack values, and at least one step: a small network
records hundreds of steps per block, a large one a single step. A block of
several steps, and every block when d = 1, is filed: each step's stacks are
copied into it. When d >= 2 and the budget holds fewer than two steps, each
one-step block reads the live stacks in place, as a leading axis of length
one, with no copy. The per-lane norms of the average iterate's error and
of the tracker gap are taken over many steps at once: each step's
differences go into one buffer of whole blocks, with a series axis of one
row per norm and up to ``_BLOCK_VALUES`` values (lanes x d per step) per
row, whose norms are taken in one call once it fills, so a sweep of
one-step blocks takes them once per many steps. What a run records comes
from one row of counts per mode: the squared deviation series, the stacks
filed and the norms. A tracking-only run, which tuning asks for when a dgt
sweep of several step sizes reads its stacks in place, files and reduces x
alone: it sums the squared deviations from the optimum as above and takes
no network average and no norm.

Summation order of the recorded series: numpy sums a one-lane (n, d) stack
over its agents one agent after the other when d >= 2, and pairwise when
d = 1. ``run`` keeps both orders, in blocks of any length. For d >= 2 it
reduces (m, n, G*d) blocks of the stacks over the agent axis, which also
goes agent by agent; for d = 1 it sums each lane's column as one contiguous
row of a lane-major (m, G, n) copy, pairwise. That copy must be C-ordered:
in an F-ordered one (``np.stack`` of transposed stacks gives one) the rows
are strided, numpy sums them agent by agent, and the last bit changes.
Either way the squared deviations of one lane are summed over d coordinate
by coordinate and then over agents pairwise, per lane and step.
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
# ``run`` records up to about this many stack values (agents x columns) per
# block of steps, and always at least one step.
_BLOCK_VALUES = 2**12


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
    gradient difference. Each method makes one sparse product per step,
    except dgt, which makes two, and each goes through ``wm.mix``. ``alpha``
    is one step size or any array that broadcasts against the (n, G*d)
    stacks, such as a row of G*d whose entry j*G + g is lane g's step size,
    or ``run``'s full (n, G*d) array of them.
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
    """The stacks of a one-lane state, C-ordered, each column replicated as ``lanes`` columns.

    C order keeps the agent sums of a block read in place in a filed block's
    order (module docstring), also for an F-ordered initial state.
    """
    return tuple(
        stack if stack is None else np.ascontiguousarray(stack) if lanes == 1
        else np.repeat(stack, lanes, axis=1)
        for stack in state
    )


def reads_in_place(n: int, d: int, lanes: int) -> bool:
    """Whether ``run`` reads (n, lanes*d) stacks in place: d >= 2, a block budget under 2 steps.

    ``experiment.tune_stepsize`` reads the same rule to choose its sweep.
    """
    return d > 1 and _BLOCK_VALUES // (n * lanes * d) < 2


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
    state; every lane starts from it, in coordinate-major (n, G*d) stacks
    (column j*G + g is coordinate j of lane g; module docstring).

    The recorded series are, per iteration k: the root mean square distance
    of the agent iterates to the current optimum divided by the problem's
    normalization constant, the root mean square consensus deviation, the
    distance of the average iterate to the optimum, and (tracking only) the
    root mean square tracker deviation. All deviation series are stacked
    norms divided by sqrt(n), which lets the one-step inequalities of the
    analysis module apply to the recorded series without size factors.
    Overflow during divergent runs is recorded as non-finite values rather
    than raised.

    ``tracking_only=True`` is for tuning sweeps, which score each lane by
    its tracking error alone (``experiment.tune_stepsize``), not an output
    format: it returns the (horizon + 1, G) matrix of the lanes' tracking
    errors instead of records, column g bitwise lane g's
    ``tracking_error``. Such a run files and reduces x alone: it takes no
    network average and no norm, and builds no record.

    The series are reduced in blocks of steps that hold about
    ``_BLOCK_VALUES`` stack values each, and a record does not depend on the
    block length. A block of several steps, and every block when d = 1, is
    filed with copies of the stacks; when d >= 2 and the budget holds fewer
    than two steps, each one-step block reads them in place. The norms of
    the average iterate's error and of the tracker gap share one buffer of
    whole blocks, a row per norm of up to ``_BLOCK_VALUES`` values of lanes
    x d per step, and run in one call each time it fills.
    The network averages sum over agents in the order of a one-lane run:
    agent by agent (agents-leading) when the objective's dimension d >= 2,
    and pairwise per lane over the C-ordered rows of a lane-major copy when
    d = 1. Each squared deviation is summed over d column by column and then
    pairwise over agents.
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
    # per-lane norms (x-bar - x*, y-bar - g-bar).
    series, recorded, norms = (1, 1, 0) if tracking_only else (3, 3, 2) if algorithm == "dgt" else (2, 1, 1)
    # Each step files its recorded stacks and its optimum into a block of
    # steps, or hands a one-step block with d >= 2 its stacks in place; each
    # full block, and the last, partial one, is reduced at once along a
    # leading block axis, summing the squared deviations per step, series
    # and lane into ``sums`` in a one-lane run's order (module docstring).
    # The differences whose norms are recorded go into ``bar_dev``, a buffer
    # of ``span`` steps, whole blocks, whose norms are taken when it fills.
    block = max(1, min(length, _BLOCK_VALUES // (n * lanes * d)))
    span = block * max(1, min(length, _BLOCK_VALUES // (lanes * d)) // block)
    if d > 1:
        # Agents-leading (m, n, G*d) blocks: reducing over the agent axis
        # goes agent by agent, with one inner loop of G*d per agent. A
        # one-step block is the (n, G*d) stacks themselves, read in place.
        axis, shape, opt_shape = -2, (n, lanes * d), (1, lanes * d)
    else:
        # Lane-major (m, G, n) blocks, C-ordered: each lane's column becomes
        # one contiguous row, which numpy sums pairwise.
        axis, shape, opt_shape = -1, (lanes, n), (lanes, 1)
    in_place = reads_in_place(n, d, lanes)
    filed = [] if in_place else [np.empty((block, *shape)) for _ in range(recorded)]
    optima = np.empty((block, d, lanes))  # each step's optimum, once per lane
    lane_optima = optima.swapaxes(1, 2)  # (block, G, d): filed by broadcast
    deviations = np.empty((block, series, *shape))
    per_lane = deviations if d == 1 else np.empty((block, series, lanes, n))
    sums = np.empty((length, series, lanes))
    bar_dev = np.empty((span, norms, *opt_shape))
    bar_sq = np.empty((length, norms, lanes))

    def cut(m):
        """The optima and the views written through for a block's first m steps."""
        dev, lane_sums = deviations[:m], per_lane[:m]
        # Coordinate j of the lanes, transposed to match ``lane_sums``'s rows.
        columns = [dev[..., j * lanes : (j + 1) * lanes].swapaxes(2, 3) for j in range(d)]
        return (optima[:m].reshape(m, *opt_shape), dev, [dev[:, s] for s in range(series)],
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
        if d > 1:
            # Sum over d column by column, in the order numpy sums a row
            # shorter than 8, into the lane-major rows of ``lane_sums``.
            np.add(columns[0], columns[1], out=lane_sums)
            for column in columns[2:]:
                np.add(lane_sums, column, out=lane_sums)
        # Each lane's row of n agents sums pairwise, as in a one-lane run.
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
                blocks = [stack[None] for stack in stacks[:recorded]] if in_place else filed
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
