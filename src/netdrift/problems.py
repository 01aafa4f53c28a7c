"""Time-varying objective families with closed-form optimal trajectories.

Two constructions are provided. A least-squares stream whose optimum rides
the unit circle (the optimum drifts but its gradients vanish there), and a
shifting-consensus family whose optimum never moves while the per-agent
target assignment is permuted every step (the optimal gradients are large
and drift at a controllable rate).

Drift is summarized by three constants: delta_x, the largest per-step move
of the optimum; grad_bound, the largest scaled sum of gradient norms at the
optimum; and grad_drift, the largest per-step change of those gradients.
Each family states its own, once, as values: least squares has exact
measurements, so its gradients at the optimum vanish and both gradient
constants are 0; shifting consensus rolls one fixed gradient vector and one
fixed jump vector from step to step, so every step's sums are the same
integers, p(p + 1) and 2t(n - t) with t = shift mod n, each over sqrt(n).
``drift_profile`` reads the three.

Set-up reductions run with the long axis innermost. A numpy reduction over a
trailing axis of a few cells costs far more than its arithmetic, so the
Hessians are summed over agents with the steps as the inner loop, and the
optimum's step lengths and squared row lengths add their d = 2 cells one at
a time across all agents and steps. Each sum keeps the order numpy uses on the short
axis (in order below 8 cells), so every constant is bitwise what the direct
reduction gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Protocol

import numpy as np
from numpy.typing import NDArray

_PD_FLOOR = 1e-12
_RESAMPLE_BUDGET = 100
# _hessians forms about this many products per block of steps.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class DriftProfile:
    """Drift constants (delta_x, grad_bound, grad_drift), all finite and nonnegative.

    ``drift_profile`` reads them off an objective; ``netdrift bounds`` and a
    record's sidecar build one by hand, so the check guards their input. An
    infinite constant is rejected, because every bound and audit slack it
    enters would be infinite too.
    """

    delta_x: float
    grad_bound: float
    grad_drift: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"drift constant {f.name} must be finite and nonnegative, got {value!r}")


class DynamicObjective(Protocol):
    """Everything ``run`` and ``drift_profile`` read of an objective family.

    ``delta_x`` is the optimum's largest per-step move; ``grad_bound`` and
    ``grad_drift`` are the largest sum over agents of the gradient norms at the
    optimum, and of their change from one step to the next, both over sqrt(n)
    and over the whole horizon. ``normalization`` divides the tracking error.
    """

    n: int
    d: int
    horizon: int
    mu: float
    lipschitz: float
    delta_x: float
    grad_bound: float
    grad_drift: float
    normalization: float

    def optimum(self, k: int) -> NDArray[np.float64]: ...

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-agent gradients at time k of an (n, d) stack.

        A multi-step-size run passes an (n, G*d) stack of G lanes,
        coordinate-major (column j*G + g holds coordinate j of lane g), and
        expects the gradients in the same layout.
        """


def _predict(coeff_k: NDArray[np.float64], x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
    # Per-step evaluation of an (n, d) x_stack into (n,), or of lanes
    # (n, d, G) into (n, G). With d = 2 its sums are bitwise those that
    # generate the measurements, so the residual at the optimum is bitwise zero.
    return np.einsum("nd,nd...->n...", coeff_k, x_stack)


@dataclass(frozen=True)
class LeastSquaresStream:
    """One row c_i^k per agent with exact measurements r_i^k = c_i^k . x*_k.

    Each agent i holds f_i^k(x) = 0.5 (c_i^k . x - r_i^k)^2. The constants
    are measured over the generated horizon: mu is the smallest eigenvalue
    of the average Hessian (1/n) sum_i c_i^k (c_i^k)^T across time, and
    lipschitz is the largest per-agent Hessian spectral norm ||c_i^k||^2.
    ``coefficients`` is (horizon + 1, n, d), ``measurements`` is
    (horizon + 1, n), ``points`` holds the optimum x*_k of every step and
    ``delta_x`` its largest step. The optimum starts at exactly (1, 0), so
    ``normalization``, its squared norm, is the constant 1.
    """

    n: int
    d: int
    horizon: int
    coefficients: NDArray[np.float64]
    measurements: NDArray[np.float64]
    points: NDArray[np.float64]
    delta_x: float
    mu: float
    lipschitz: float
    # Exact measurements: the gradients at the optimum vanish.
    grad_bound = grad_drift = 0.0
    normalization = 1.0

    def optimum(self, k: int) -> NDArray[np.float64]:
        return self.points[k]

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Gradients at k of an (n, d) stack, or of a coordinate-major (n, G*d) stack of G lanes."""
        lanes = x_stack.reshape(self.n, self.d, -1)
        residual = _predict(self.coefficients[k], lanes) - self.measurements[k][:, None]
        grads = np.einsum("nd,ng->ndg", self.coefficients[k], residual)
        return grads.reshape(x_stack.shape)


def _cell_sums(values: NDArray[np.float64]) -> NDArray[np.float64]:
    # Sums over the last axis, one cell at a time across every other axis:
    # the order numpy's reduction uses on fewer than 8 cells.
    total = values[..., 0]
    for j in range(1, values.shape[-1]):
        total = total + values[..., j]
    return total


def _hessians(coeff: NDArray[np.float64]) -> NDArray[np.float64]:
    # sum_i c_i^k (c_i^k)^T of every step k, as a (steps, d, d) view: bitwise
    # einsum("knd,kne->kde"), which adds the agents' products in order.
    # Products are laid out (agent, d, e, step) so the in-order sum over
    # axis 0 runs with the steps innermost, in blocks of steps.
    steps, n, d = coeff.shape
    block = max(1, _BLOCK_ENTRIES // (n * d * d))
    out = np.empty((d, d, steps))
    for start in range(0, steps, block):
        by_agent = np.ascontiguousarray(coeff[start : start + block].transpose(1, 2, 0))
        out[:, :, start : start + block] = np.add.reduce(by_agent[:, :, None] * by_agent[:, None], axis=0)
    return out.transpose(2, 0, 1)


def ls_trajectory(horizon: int) -> tuple[NDArray[np.float64], float]:
    """Unit-circle optimum over three quarter turns: (points, the largest step between them)."""
    if horizon < 2:
        raise ValueError(f"trajectory horizon must be at least 2, got {horizon}")
    angles = 3.0 * math.pi * np.arange(horizon + 1) / (2.0 * horizon)
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    chords = np.diff(points, axis=0)
    steps = np.sqrt(_cell_sums(chords * chords))  # bitwise np.linalg.norm(chords, axis=1)
    return points, float(steps.max())


def least_squares_stream(n: int, horizon: int, seed: int) -> LeastSquaresStream:
    """Generate the drifting least-squares family over a full horizon.

    The optimum rides the unit circle, so the dimension is d = 2. Each agent
    holds one coefficient row per step, standard normal under the given
    seed. Any time step whose aggregate Hessian fails positive definiteness
    is redrawn under a derived seed (a probability-zero event, but guarded).
    """
    d = 2
    if n < 1 or horizon < 2:
        raise ValueError("degenerate least-squares configuration")
    if n < d:
        raise ValueError("aggregate system is underdetermined: need n >= 2")
    points, delta_x = ls_trajectory(horizon)
    master = np.random.SeedSequence(seed)
    bulk, respawn = master.spawn(2)
    rng = np.random.default_rng(bulk)
    coeff = rng.standard_normal((horizon + 1, n, d))

    hessians = _hessians(coeff)
    low = np.nonzero(np.linalg.eigvalsh(hessians)[:, 0] <= _PD_FLOOR)[0]
    for k in low:
        for attempt in range(_RESAMPLE_BUDGET):
            redraw = np.random.default_rng(respawn.spawn(1)[0])
            coeff[k] = redraw.standard_normal((n, d))
            if np.linalg.eigvalsh(_hessians(coeff[k : k + 1])[0])[0] > _PD_FLOOR:
                break
        else:
            raise RuntimeError(f"could not draw a positive definite step at k={k}")
    if low.size:  # all steps in one pass again, so mu sums as it does with no redraw
        hessians = _hessians(coeff)

    measurements = np.einsum("knd,kd->kn", coeff, points)
    mu = float(np.linalg.eigvalsh(hessians / n)[:, 0].min())
    lipschitz = float(_cell_sums(coeff**2).max())

    return LeastSquaresStream(
        n=n,
        d=d,
        horizon=horizon,
        coefficients=coeff,
        measurements=measurements,
        points=points,
        delta_x=delta_x,
        mu=mu,
        lipschitz=lipschitz,
    )


@dataclass(frozen=True)
class ShiftingConsensus:
    """Quadratic consensus targets permuted by a circular shift each step.

    Agent i starts with target y_i = i (agents are 1-based in this
    numbering) and f_i^k(x) = 0.5 (x - y_i^k)^2, so mu = L = 1. Each step
    rotates the target assignment by `shift` positions; shift=0 freezes the
    targets (the static case). The optimum is the mean p+1 at every time, so
    the optimum itself never drifts: delta_x is 0.
    """

    p: int
    shift: int
    horizon: int
    d = 1
    mu = lipschitz = 1.0
    delta_x = 0.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @cached_property
    def n(self) -> int:
        return 2 * self.p + 1

    @property
    def normalization(self) -> float:
        return float((self.p + 1) ** 2)

    # Each sum over agents is one exact integer at every step, so these are
    # bitwise a per-step scan's sum of gradient norms times 1/sqrt(n).
    @property
    def grad_bound(self) -> float:
        # The gradients at the optimum are p + 1 - y_i: 1, ..., p on either side.
        return (1.0 / math.sqrt(self.n)) * (self.p * (self.p + 1))

    @property
    def grad_drift(self) -> float:
        # A shift by t moves n-t targets down by t and t targets up by n-t,
        # so the absolute changes total 2 t (n-t).
        t = self.shift % self.n
        return (1.0 / math.sqrt(self.n)) * (2 * t * (self.n - t))

    @cached_property
    def _doubled_targets(self) -> NDArray[np.float64]:
        # The initial targets twice over, read-only: every shifted target
        # vector is a window of n consecutive entries.
        base = np.arange(1, self.n + 1, dtype=np.float64)
        doubled = np.concatenate([base, base])
        doubled.setflags(write=False)
        return doubled

    @cached_property
    def _target_tiles(self) -> dict[int, NDArray[np.float64]]:
        # Column count c -> the doubled targets repeated across c columns, a
        # read-only C-ordered (2n, c) array, built on first use by gradient_stack.
        return {}

    @cached_property
    def _optimum(self) -> NDArray[np.float64]:
        optimum = np.array([float(self.p + 1)])
        optimum.setflags(write=False)
        return optimum

    def _window_start(self, k):
        # Rolling the targets by s puts y^k at entries n-s .. 2n-s-1.
        return self.n - (k * (self.shift % self.n)) % self.n

    def targets(self, k: int) -> NDArray[np.float64]:
        """Target vector y^k, a read-only view; entry j holds agent (j+1)'s current target."""
        start = self._window_start(k)
        return self._doubled_targets[start : start + self.n]

    def optimum(self, k: int) -> NDArray[np.float64]:
        """The optimum p+1, the same read-only array at every step."""
        return self._optimum

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """x - y^k for an (n, c) stack of c lanes, bitwise the broadcast target column.

        The targets come as a window of a cached (2n, c) tile rather than an
        (n, 1) column: broadcasting a column runs one short inner loop per
        agent, while a same-shape subtract runs as one contiguous loop, in
        under half the time on an 8-lane stack of 2,001 agents, on the same
        values.
        """
        columns = x_stack.shape[1]
        tile = self._target_tiles.get(columns)
        if tile is None:
            tile = np.repeat(self._doubled_targets[:, None], columns, axis=1)
            tile.setflags(write=False)
            self._target_tiles[columns] = tile
        start = self._window_start(k)
        return x_stack - tile[start : start + self.n]


def shifting_consensus(p: int, shift: int, horizon: int) -> ShiftingConsensus:
    """Build the shifting-consensus family; shift=0 gives the static case."""
    return ShiftingConsensus(p=p, shift=shift, horizon=horizon)


def drift_profile(objective: DynamicObjective) -> DriftProfile:
    """The objective's (delta_x, grad_bound, grad_drift), as its family states them."""
    return DriftProfile(objective.delta_x, objective.grad_bound, objective.grad_drift)
