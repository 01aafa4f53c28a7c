"""Time-varying objective families with closed-form optimal trajectories.

Two constructions are provided. A least-squares stream whose optimum rides
the unit circle (the optimum drifts but its gradients vanish there), and a
shifting-consensus family whose optimum never moves while the per-agent
target assignment is permuted every step (the optimal gradients are large
and drift at a controllable rate).

Drift is summarized by three constants: delta_x, the largest per-step move
of the optimum; grad_bound, the largest scaled sum of gradient norms at the
optimum; and grad_drift, the largest per-step change of those gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

_PD_FLOOR = 1e-12
_RESAMPLE_BUDGET = 100


@dataclass(frozen=True)
class OptimalTrajectory:
    """Sequence of exact optima x*_k, with the largest consecutive step."""

    points: NDArray[np.float64]
    delta_x: float

    def __post_init__(self):
        steps = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        measured = float(steps.max()) if steps.size else 0.0
        if abs(measured - self.delta_x) > 1e-12:
            raise ValueError(f"delta_x {self.delta_x} does not match the trajectory (measured {measured})")


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


@runtime_checkable
class DynamicObjective(Protocol):
    """Interface shared by the objective families."""

    n: int
    d: int
    horizon: int
    mu: float
    lipschitz: float

    def optimum(self, k: int) -> NDArray[np.float64]: ...

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-agent gradients at time k of an (n, d) stack.

        A multi-step-size run passes an (n, G*d) stack holding G lanes side
        by side in its columns and expects the gradients in the same layout.
        """


def _predict(coeff_k: NDArray[np.float64], x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
    # Shared arithmetic path for generation and evaluation, so the residual
    # at the optimum is bitwise zero. x_stack is (n, d) or lanes (n, G, d).
    return np.einsum("nrd,n...d->n...r", coeff_k, x_stack)


@dataclass(frozen=True)
class LeastSquaresStream:
    """Per-agent rows C_i^k with exact measurements r_i^k = C_i^k x*_k.

    Each agent i holds f_i^k(x) = 0.5 ||C_i^k x - r_i^k||^2. The constants
    are measured over the generated horizon: mu is the smallest eigenvalue
    of the average Hessian (1/n) sum_i (C_i^k)^T C_i^k across time, and
    lipschitz is the largest per-agent Hessian spectral norm.
    """

    n: int
    d: int
    horizon: int
    rows_per_agent: int
    seed: int
    coefficients: NDArray[np.float64]
    measurements: NDArray[np.float64]
    trajectory: OptimalTrajectory
    mu: float
    lipschitz: float

    @property
    def normalization(self) -> float:
        """Squared norm of the (time-invariant) optimum, used to scale errors."""
        return float(np.sum(self.trajectory.points[0] ** 2))

    @property
    def analytic_delta_x(self) -> float:
        return 2.0 * math.sin(3.0 * math.pi / (4.0 * self.horizon))

    @property
    def analytic_grad_bound(self) -> float:
        return 0.0

    @property
    def analytic_grad_drift(self) -> float:
        return 0.0

    def optimum(self, k: int) -> NDArray[np.float64]:
        return self.trajectory.points[k]

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Gradients at k of an (n, d) stack, or of an (n, G*d) stack of G lanes."""
        lanes = x_stack.reshape(self.n, -1, self.d)
        residual = _predict(self.coefficients[k], lanes) - self.measurements[k][:, None, :]
        grads = np.einsum("nrd,ngr->ngd", self.coefficients[k], residual)
        return grads.reshape(x_stack.shape)

    def gradient(self, i: int, k: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
        _check_indices(self, i, k)
        coeff = self.coefficients[k, i - 1]
        return coeff.T @ (coeff @ np.asarray(x, dtype=np.float64) - self.measurements[k, i - 1])


def ls_trajectory(horizon: int) -> OptimalTrajectory:
    """Unit-circle optimum sweeping three quarter turns over the horizon."""
    if horizon < 2:
        raise ValueError(f"trajectory horizon must be at least 2, got {horizon}")
    angles = 3.0 * math.pi * np.arange(horizon + 1) / (2.0 * horizon)
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return OptimalTrajectory(points=points, delta_x=float(steps.max()))


def least_squares_stream(
    n: int,
    horizon: int,
    seed: int,
    rows_per_agent: int = 1,
    d: int = 2,
) -> LeastSquaresStream:
    """Generate the drifting least-squares family over a full horizon.

    Coefficient rows are standard normal under the given seed. Any time step
    whose aggregate Hessian fails positive definiteness is redrawn under a
    derived seed (a probability-zero event, but guarded).
    """
    if n < 1 or horizon < 2 or rows_per_agent < 1 or d < 1:
        raise ValueError("degenerate least-squares configuration")
    if n * rows_per_agent < d:
        raise ValueError("aggregate system is underdetermined: need n * rows_per_agent >= d")
    trajectory = ls_trajectory(horizon)
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

    measurements = np.empty((horizon + 1, n, rows_per_agent))
    for k in range(horizon + 1):
        x_stack = np.broadcast_to(trajectory.points[k], (n, d))
        measurements[k] = _predict(coeff[k], x_stack)

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
        trajectory=trajectory,
        mu=mu,
        lipschitz=lipschitz,
    )


def ls_gradient(stream: LeastSquaresStream, i: int, k: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Gradient of agent i's least-squares term at time k: C^T (C x - r)."""
    return stream.gradient(i, k, x)


@dataclass(frozen=True)
class ShiftingConsensus:
    """Quadratic consensus targets permuted by a circular shift each step.

    Agent i starts with target y_i = i * spacing_m (agents are 1-based in
    this numbering) and f_i^k(x) = 0.5 (x - y_i^k)^2, so mu = L = 1. Each
    step rotates the target assignment by `shift` positions; shift=0 freezes
    the targets (the static case). The optimum is the mean (p+1)*spacing_m
    at every time, so the optimum itself never drifts.
    """

    p: int
    spacing_m: float
    shift: int
    horizon: int

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
    def d(self) -> int:
        return 1

    @property
    def mu(self) -> float:
        return 1.0

    @property
    def lipschitz(self) -> float:
        return 1.0

    @property
    def normalization(self) -> float:
        return ((self.p + 1) * self.spacing_m) ** 2

    @property
    def trajectory(self) -> OptimalTrajectory:
        points = np.full((self.horizon + 1, 1), (self.p + 1) * self.spacing_m)
        return OptimalTrajectory(points=points, delta_x=0.0)

    @property
    def analytic_delta_x(self) -> float:
        return 0.0

    @property
    def analytic_grad_bound(self) -> float:
        return self.p * (self.p + 1) * self.spacing_m / math.sqrt(self.n)

    @property
    def analytic_grad_drift(self) -> float:
        # A shift by t moves n-t targets down by t*spacing and t targets up
        # by (n-t)*spacing, so the absolute changes total 2 t (n-t) spacing.
        t = self.shift % self.n
        return 2.0 * t * (self.n - t) * self.spacing_m / math.sqrt(self.n)

    def targets(self, k: int) -> NDArray[np.float64]:
        """Target vector y^k; entry j holds agent (j+1)'s current target."""
        base = np.arange(1, self.n + 1, dtype=np.float64) * self.spacing_m
        return np.roll(base, (k * self.shift) % self.n)

    def optimum(self, k: int) -> NDArray[np.float64]:
        return np.array([(self.p + 1) * self.spacing_m])

    def gradient_stack(self, k: int, x_stack: NDArray[np.float64]) -> NDArray[np.float64]:
        return x_stack - self.targets(k)[:, None]

    def gradient(self, i: int, k: int, x):
        _check_indices(self, i, k)
        return x - self.targets(k)[i - 1]


def shifting_consensus(p: int, spacing_m: float, shift: int, horizon: int) -> ShiftingConsensus:
    """Build the shifting-consensus family; shift=0 gives the static case."""
    return ShiftingConsensus(p=p, spacing_m=spacing_m, shift=shift, horizon=horizon)


def consensus_gradient(sc: ShiftingConsensus, i: int, k: int, x):
    """Gradient of agent i's quadratic at time k: x - y_i^k."""
    return sc.gradient(i, k, x)


def _check_indices(objective, i: int, k: int) -> None:
    if not 1 <= i <= objective.n:
        raise IndexError(f"agent index {i} outside 1..{objective.n}")
    if not 0 <= k <= objective.horizon:
        raise IndexError(f"time index {k} outside 0..{objective.horizon}")


def drift_profile(objective, trajectory: OptimalTrajectory | None = None) -> DriftProfile:
    """Measure (delta_x, grad_bound, grad_drift) by direct evaluation.

    Scans the full horizon, evaluating every agent's gradient at the exact
    optimum. Analytic values are attached when the objective declares them;
    measured values may never exceed the analytic ones.
    """
    traj = trajectory if trajectory is not None else objective.trajectory
    n = objective.n
    scale = 1.0 / math.sqrt(n)
    grad_bound = 0.0
    grad_drift = 0.0
    prev = None
    for k in range(objective.horizon + 1):
        x_stack = np.broadcast_to(traj.points[k], (n, objective.d))
        grads = objective.gradient_stack(k, x_stack)
        norms = np.linalg.norm(grads, axis=1)
        grad_bound = max(grad_bound, scale * float(norms.sum()))
        if prev is not None:
            step_norms = np.linalg.norm(grads - prev, axis=1)
            grad_drift = max(grad_drift, scale * float(step_norms.sum()))
        prev = grads
    return DriftProfile(
        delta_x=traj.delta_x,
        grad_bound=grad_bound,
        grad_drift=grad_drift,
        analytic_delta_x=getattr(objective, "analytic_delta_x", None),
        analytic_grad_bound=getattr(objective, "analytic_grad_bound", None),
        analytic_grad_drift=getattr(objective, "analytic_grad_drift", None),
    )
