"""Time-varying objective families with closed-form optimal trajectories.

Two constructions are provided. A least-squares stream whose optimum rides
the unit circle (the optimum drifts but its gradients vanish there), and a
shifting-consensus family whose optimum never moves while the per-agent
target assignment is permuted every step (the optimal gradients are large
and drift at a controllable rate).

Drift is summarized by three constants: delta_x, the largest per-step move
of the optimum; grad_bound, the largest scaled sum of gradient norms at the
optimum; and grad_drift, the largest per-step change of those gradients.
Both families hand out their gradients at the optimum for a block of steps
at once (`optimal_gradients`), and `drift_profile` reduces them block by
block, in the same per-step order as a one-step-at-a-time scan, so the
constants are bitwise those of such a scan. Blocks of about 2^16 gradient
entries, rather than the whole horizon at once, keep the peak memory of a
large network where the simulation itself puts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np
from numpy.typing import NDArray

_PD_FLOOR = 1e-12
_RESAMPLE_BUDGET = 100
# drift_profile evaluates about this many gradient entries per block of steps.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class DriftProfile:
    """Measured drift constants, with analytic values attached when known."""

    delta_x: float
    grad_bound: float
    grad_drift: float
    analytic_delta_x: float | None = None
    analytic_grad_bound: float | None = None
    analytic_grad_drift: float | None = None

    def __post_init__(self):
        for value in (self.delta_x, self.grad_bound, self.grad_drift):
            if not value >= 0.0:
                raise ValueError("drift constants must be nonnegative")
        pairs = [
            (self.delta_x, self.analytic_delta_x),
            (self.grad_bound, self.analytic_grad_bound),
            (self.grad_drift, self.analytic_grad_drift),
        ]
        for measured, analytic in pairs:
            if analytic is not None and measured > analytic + 1e-9 * (1.0 + analytic):
                raise ValueError(f"measured drift {measured} exceeds the analytic value {analytic}")


class DynamicObjective(Protocol):
    """Everything ``run`` and ``drift_profile`` read of an objective family.

    ``delta_x`` is the optimum's largest per-step move, ``normalization`` divides
    the tracking error, and the ``analytic_*`` constants cap the measured drift.
    """

    n: int
    d: int
    horizon: int
    mu: float
    lipschitz: float
    delta_x: float
    normalization: float
    analytic_delta_x: float
    analytic_grad_bound: float
    analytic_grad_drift: float

    def optimum(self, k: int) -> NDArray[np.float64]: ...

    def optimal_gradients(self, start: int, stop: int) -> NDArray[np.float64]:
        """(stop-start, n, d) gradients at the optimum of steps start..stop-1."""

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-agent gradients at time k of an (n, d) stack.

        A multi-step-size run passes an (n, G*d) stack of G lanes,
        coordinate-major (column j*G + g holds coordinate j of lane g), and
        expects the gradients in the same layout.
        """


def _predict(coeff_k: NDArray[np.float64], x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
    # Per-step evaluation of an (n, d) x_stack, or of lanes (n, d, G) into
    # (n, r, G). With d = 2 its sums are bitwise those of _predict_steps.
    return np.einsum("nrd,nd...->nr...", coeff_k, x_stack)


def _predict_steps(coeff: NDArray[np.float64], points: NDArray[np.float64]) -> NDArray[np.float64]:
    # Predictions of a block of steps, each at its own point. Shared by
    # generation and optimal_gradients, so the residual at the optimum is
    # bitwise zero.
    return np.einsum("knrd,kd->knr", coeff, points)


@dataclass(frozen=True)
class LeastSquaresStream:
    """Per-agent rows C_i^k with exact measurements r_i^k = C_i^k x*_k.

    Each agent i holds f_i^k(x) = 0.5 ||C_i^k x - r_i^k||^2. The constants
    are measured over the generated horizon: mu is the smallest eigenvalue
    of the average Hessian (1/n) sum_i (C_i^k)^T C_i^k across time, and
    lipschitz is the largest per-agent Hessian spectral norm. ``points`` holds
    the optimum x*_k of every step and ``delta_x`` its largest step.
    """

    n: int
    d: int
    horizon: int
    rows_per_agent: int
    seed: int
    coefficients: NDArray[np.float64]
    measurements: NDArray[np.float64]
    points: NDArray[np.float64]
    delta_x: float
    mu: float
    lipschitz: float
    # Exact measurements: the gradients at the optimum vanish.
    analytic_grad_bound = analytic_grad_drift = 0.0

    @property
    def normalization(self) -> float:
        """Squared norm of the (time-invariant) optimum, used to scale errors."""
        return float(np.sum(self.points[0] ** 2))

    @property
    def analytic_delta_x(self) -> float:
        return 2.0 * math.sin(3.0 * math.pi / (4.0 * self.horizon))

    def optimum(self, k: int) -> NDArray[np.float64]:
        return self.points[k]

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Gradients at k of an (n, d) stack, or of a coordinate-major (n, G*d) stack of G lanes."""
        lanes = x_stack.reshape(self.n, self.d, -1)
        residual = _predict(self.coefficients[k], lanes) - self.measurements[k][:, :, None]
        grads = np.einsum("nrd,nrg->ndg", self.coefficients[k], residual)
        return grads.reshape(x_stack.shape)

    def optimal_gradients(self, start: int, stop: int) -> NDArray[np.float64]:
        """(stop-start, n, d) gradients at the optimum of steps start..stop-1."""
        coeff = self.coefficients[start:stop]
        residual = _predict_steps(coeff, self.points[start:stop]) - self.measurements[start:stop]
        return np.einsum("knrd,knr->knd", coeff, residual)


def ls_trajectory(horizon: int) -> tuple[NDArray[np.float64], float]:
    """Unit-circle optimum over three quarter turns: (points, delta_x, their largest step)."""
    if horizon < 2:
        raise ValueError(f"trajectory horizon must be at least 2, got {horizon}")
    angles = 3.0 * math.pi * np.arange(horizon + 1) / (2.0 * horizon)
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return points, float(steps.max())


def least_squares_stream(
    n: int,
    horizon: int,
    seed: int,
    rows_per_agent: int = 1,
) -> LeastSquaresStream:
    """Generate the drifting least-squares family over a full horizon.

    The optimum rides the unit circle, so the dimension is d = 2. Coefficient
    rows are standard normal under the given seed. Any time step whose
    aggregate Hessian fails positive definiteness is redrawn under a derived
    seed (a probability-zero event, but guarded).
    """
    d = 2
    if n < 1 or horizon < 2 or rows_per_agent < 1:
        raise ValueError("degenerate least-squares configuration")
    if n * rows_per_agent < d:
        raise ValueError("aggregate system is underdetermined: need n * rows_per_agent >= 2")
    points, delta_x = ls_trajectory(horizon)
    master = np.random.SeedSequence(seed)
    bulk, respawn = master.spawn(2)
    rng = np.random.default_rng(bulk)
    coeff = rng.standard_normal((horizon + 1, n, rows_per_agent, d))

    def min_eig(c_k: NDArray[np.float64]) -> float:
        hessian = np.einsum("nrd,nre->de", c_k, c_k)
        return float(np.linalg.eigvalsh(hessian)[0])

    eigs = np.linalg.eigvalsh(np.einsum("knrd,knre->kde", coeff, coeff))
    for k in np.nonzero(eigs[:, 0] <= _PD_FLOOR)[0]:
        for attempt in range(_RESAMPLE_BUDGET):
            redraw = np.random.default_rng(respawn.spawn(1)[0])
            coeff[k] = redraw.standard_normal((n, rows_per_agent, d))
            if min_eig(coeff[k]) > _PD_FLOOR:
                break
        else:
            raise RuntimeError(f"could not draw a positive definite step at k={k}")

    measurements = _predict_steps(coeff, points)
    avg_hessians = np.einsum("knrd,knre->kde", coeff, coeff) / n
    mu = float(np.linalg.eigvalsh(avg_hessians)[:, 0].min())
    if rows_per_agent == 1:
        lipschitz = float((coeff**2).sum(axis=(2, 3)).max())
    else:
        singular = np.linalg.svd(coeff.reshape(-1, rows_per_agent, d), compute_uv=False)
        lipschitz = float((singular[:, 0] ** 2).max())

    return LeastSquaresStream(
        n=n,
        d=d,
        horizon=horizon,
        rows_per_agent=rows_per_agent,
        seed=seed,
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

    Agent i starts with target y_i = i * spacing_m (agents are 1-based in
    this numbering) and f_i^k(x) = 0.5 (x - y_i^k)^2, so mu = L = 1. Each
    step rotates the target assignment by `shift` positions; shift=0 freezes
    the targets (the static case). The optimum is the mean (p+1)*spacing_m
    at every time, so the optimum itself never drifts: delta_x is 0.
    """

    p: int
    spacing_m: float
    shift: int
    horizon: int
    d = 1
    mu = lipschitz = 1.0
    delta_x = analytic_delta_x = 0.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if self.spacing_m <= 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing_m}")
        if self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def n(self) -> int:
        return 2 * self.p + 1

    @property
    def normalization(self) -> float:
        return ((self.p + 1) * self.spacing_m) ** 2

    @property
    def analytic_grad_bound(self) -> float:
        return self.p * (self.p + 1) * self.spacing_m / math.sqrt(self.n)

    @property
    def analytic_grad_drift(self) -> float:
        # A shift by t moves n-t targets down by t*spacing and t targets up
        # by (n-t)*spacing, so the absolute changes total 2 t (n-t) spacing.
        t = self.shift % self.n
        return 2.0 * t * (self.n - t) * self.spacing_m / math.sqrt(self.n)

    @cached_property
    def _doubled_targets(self) -> NDArray[np.float64]:
        # The initial targets twice over, read-only: every shifted target
        # vector is a window of n consecutive entries.
        base = np.arange(1, self.n + 1, dtype=np.float64) * self.spacing_m
        doubled = np.concatenate([base, base])
        doubled.setflags(write=False)
        return doubled

    def _window_start(self, k):
        # Rolling the targets by s puts y^k at entries n-s .. 2n-s-1.
        return self.n - (k * (self.shift % self.n)) % self.n

    def targets(self, k: int) -> NDArray[np.float64]:
        """Target vector y^k, a read-only view; entry j holds agent (j+1)'s current target."""
        start = self._window_start(k)
        return self._doubled_targets[start : start + self.n]

    def optimum(self, k: int) -> NDArray[np.float64]:
        return np.array([(self.p + 1) * self.spacing_m])

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        return x_stack - self.targets(k)[:, None]

    def optimal_gradients(self, start: int, stop: int) -> NDArray[np.float64]:
        """(stop-start, n, 1) gradients at the optimum of steps start..stop-1."""
        windows = np.lib.stride_tricks.sliding_window_view(self._doubled_targets, self.n)
        targets = windows[self._window_start(np.arange(start, stop))]
        return ((self.p + 1) * self.spacing_m - targets)[:, :, None]


def shifting_consensus(p: int, spacing_m: float, shift: int, horizon: int) -> ShiftingConsensus:
    """Build the shifting-consensus family; shift=0 gives the static case."""
    return ShiftingConsensus(p=p, spacing_m=spacing_m, shift=shift, horizon=horizon)


def _largest_scaled_sum(stacks: NDArray[np.float64], scale: float) -> float:
    # Per-agent norms of (steps, n, d) stacks, summed over agents: each
    # contiguous row of n norms sums pairwise, as a 1-D sum of one step does.
    sums = np.add.reduce(np.linalg.norm(stacks, axis=2), axis=1)
    return float((scale * sums).max(initial=0.0))


def drift_profile(objective: DynamicObjective) -> DriftProfile:
    """Measure (delta_x, grad_bound, grad_drift) by direct evaluation.

    Scans the full horizon, evaluating every agent's gradient at the exact
    optimum. The steps are taken in blocks of about 2^16 gradient entries,
    each block after the first starting at the previous block's last step,
    so every step difference is formed. Every step is reduced in the order
    a one-step scan uses (norms over d, then a pairwise sum over agents), so
    the constants are bitwise those of such a scan; blocks rather than the
    whole horizon keep the peak memory of large networks down. The
    objective's analytic values are attached; measured values may never
    exceed them.
    """
    n = objective.n
    scale = 1.0 / math.sqrt(n)
    block = max(2, _BLOCK_ENTRIES // (n * objective.d))
    steps = objective.horizon + 1
    grad_bound = 0.0
    grad_drift = 0.0
    for start in range(0, steps, block):
        first = max(start - 1, 0)
        grads = objective.optimal_gradients(first, min(start + block, steps))
        grad_bound = max(grad_bound, _largest_scaled_sum(grads, scale))
        grad_drift = max(grad_drift, _largest_scaled_sum(grads[1:] - grads[:-1], scale))
    return DriftProfile(
        delta_x=objective.delta_x,
        grad_bound=grad_bound,
        grad_drift=grad_drift,
        analytic_delta_x=objective.analytic_delta_x,
        analytic_grad_bound=objective.analytic_grad_bound,
        analytic_grad_drift=objective.analytic_grad_drift,
    )
