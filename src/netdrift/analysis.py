"""Contraction models, step-size regimes, steady-state bounds, and audits.

The one-step behaviour of each method is summarized by a small nonnegative
matrix recursion z+ <= A z + b coupling the average-iterate error, the
consensus deviation, and (for tracking) the tracker deviation, all per-agent
norms as the records store them. The spectral radius of A certifies
geometric decay of the transient, and the resolvent (I - A)^{-1} applied to
b yields the steady-state bounds. A model computes its spectral radius only
when ``rho`` is read: an audit uses A and b alone.

``_AUDITED`` holds all that differs between the two analysed methods: the
builder, the bound, the drift constant both take besides delta_x (diffusion
pays for the size of the optimal gradients, tracking for their drift) and
the audited rows. ``contraction_model``, ``steady_state_bound`` and
``audit_recursions``, which replays the rows against a record, read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .problems import DriftProfile
from .records import TrajectoryRecord

# relative slack admitted when checking a step size against a regime boundary,
# so alpha = max_stepsize(...) itself always passes
_REGIME_RTOL = 1e-12

AUDIT_SLACK = 1e-9


class RegimeError(ValueError):
    """Constants or step size outside the range where a statement applies."""


class AuditViolation(RuntimeError):
    """A recorded trajectory broke one of the one-step inequalities."""


@dataclass(frozen=True)
class ContractionModel:
    """Nonnegative one-step recursion z+ <= A z + b.

    ``rho``, the spectral radius of A, is computed from A on each access, so
    a model built only to replay its rows never solves for eigenvalues.
    """

    A: NDArray[np.float64]
    b: NDArray[np.float64]

    def __post_init__(self):
        if (self.A < 0).any():
            raise ValueError("contraction matrix must be entrywise nonnegative")

    @property
    def rho(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A)).max())


def _validate_constants(mu: float, lipschitz: float, beta: float) -> None:
    if not 0 < mu <= lipschitz:
        raise RegimeError(f"constants must satisfy 0 < mu <= L, got mu={mu}, L={lipschitz}")
    if not 0 <= beta < 1:
        raise RegimeError(f"beta must lie in [0, 1), got {beta}")


def _validate_stepsize(alpha: float, limit: float, description: str) -> None:
    # written as negations so that a nan step size fails both
    if not alpha > 0:
        raise RegimeError(f"step size must be positive, got {alpha}")
    if not alpha <= limit * (1 + _REGIME_RTOL):
        raise RegimeError(
            f"step size {alpha} exceeds the admissible {description} = {limit}"
        )


def admissible_stepsize(algorithm: str, mu: float, lipschitz: float, beta: float) -> float:
    """Largest step size the method's contraction model accepts.

    2/(mu + L) for every method but dgt, whose tracker needs (1 - beta)/(2L);
    that is always the smaller, since (1 - beta)/(2L) < 1/L <= 2/(mu + L).
    """
    if algorithm == "dgt":
        return (1 - beta) / (2 * lipschitz)
    return 2 / (mu + lipschitz)


def diffusion_contraction(
    alpha: float,
    mu: float,
    lipschitz: float,
    beta: float,
    delta_x: float = 0.0,
    grad_bound: float = 0.0,
) -> ContractionModel:
    """2x2 recursion for diffusion over [avg_error, consensus_dev] per-agent norms."""
    _validate_constants(mu, lipschitz, beta)
    _validate_stepsize(alpha, admissible_stepsize("diffusion", mu, lipschitz, beta), "2/(mu + L)")
    contraction = 1 - alpha * mu / 2
    A = np.array(
        [
            [contraction, alpha * lipschitz],
            [alpha * beta * lipschitz, beta],
        ]
    )
    b = np.array(
        [
            contraction * delta_x,
            alpha * beta * lipschitz * delta_x + alpha * beta * grad_bound,
        ]
    )
    return ContractionModel(A=A, b=b)


def dgt_contraction(
    alpha: float,
    mu: float,
    lipschitz: float,
    beta: float,
    delta_x: float = 0.0,
    grad_drift: float = 0.0,
) -> ContractionModel:
    """3x3 recursion for tracking over [y_dev, consensus_dev, avg_error] per-agent norms."""
    _validate_constants(mu, lipschitz, beta)
    _validate_stepsize(alpha, admissible_stepsize("dgt", mu, lipschitz, beta), "(1 - beta)/(2L)")
    A = np.array(
        [
            [(1 + beta) / 2, 5 * lipschitz, 3 * lipschitz],
            [alpha * beta, beta, 0.0],
            [0.0, alpha * lipschitz, 1 - alpha * mu / 2],
        ]
    )
    b = np.array([lipschitz * delta_x + grad_drift, 0.0, delta_x])
    return ContractionModel(A=A, b=b)


def max_stepsize(algorithm: str, mu: float, lipschitz: float, beta: float) -> float:
    """Largest step size with a certified contraction rate for the method."""
    _validate_constants(mu, lipschitz, beta)
    gap = 1 - beta
    if algorithm == "diffusion":
        return mu * gap / (10 * lipschitz**2)
    if algorithm == "dgt":
        return gap**2 * mu / (768 * lipschitz**2)
    raise ValueError(f"no step-size certificate for algorithm {algorithm!r}")


def resolvent_majorant(
    alpha: float, mu: float, lipschitz: float, beta: float
) -> NDArray[np.float64]:
    """Entrywise upper bound on (I - A)^{-1} for the tracking recursion."""
    L = lipschitz
    gap = 1 - beta
    prefactor = 8 / (gap**2 * alpha * mu)
    return prefactor * np.array(
        [
            [alpha * mu * gap / 2, 6 * alpha * L**2, 3 * L * gap],
            [alpha**2 * beta * mu / 2, alpha * mu * gap / 4, 3 * alpha * beta * L],
            [alpha**2 * beta * L, alpha * L * gap / 2, gap**2 / 2],
        ]
    )


def diffusion_bound(
    alpha: float,
    mu: float,
    lipschitz: float,
    beta: float,
    delta_x: float,
    grad_bound: float,
) -> float:
    """Steady-state tracking-error bound for diffusion, per-agent scale."""
    _validate_stepsize(
        alpha, max_stepsize("diffusion", mu, lipschitz, beta), "mu(1 - beta)/(10 L^2)"
    )
    gap = 1 - beta
    return (4 / (alpha * mu) + 4 * beta * lipschitz / (mu * gap)) * delta_x + (
        6 * alpha * beta * lipschitz * grad_bound / (mu * gap)
    )


def dgt_bound(
    alpha: float,
    mu: float,
    lipschitz: float,
    beta: float,
    delta_x: float,
    grad_drift: float,
) -> float:
    """Steady-state tracking-error bound for gradient tracking, per-agent scale."""
    _validate_stepsize(
        alpha, max_stepsize("dgt", mu, lipschitz, beta), "(1 - beta)^2 mu/(768 L^2)"
    )
    gap = 1 - beta
    return (4 / (alpha * mu) + 40 * beta * lipschitz / (gap**2 * mu)) * delta_x + (
        16 * alpha * beta * lipschitz / (gap**2 * mu)
    ) * grad_drift


class _Audited(NamedTuple):
    contraction: Callable[..., ContractionModel]
    bound: Callable[..., float]
    drift: str  # the DriftProfile field both take after delta_x
    rows: tuple[tuple[str, str], ...]  # (audit row, record series) in state order


_AUDITED = {
    "diffusion": _Audited(diffusion_contraction, diffusion_bound, "grad_bound",
                          (("avg_error_step", "avg_error"), ("consensus_step", "consensus_dev"))),
    "dgt": _Audited(dgt_contraction, dgt_bound, "grad_drift",
                    (("tracker_step", "y_dev"), ("consensus_step", "consensus_dev"),
                     ("avg_error_step", "avg_error"))),
}


def _audited(algorithm: str, what: str) -> _Audited:
    if algorithm not in _AUDITED:
        raise ValueError(f"no {what} for algorithm {algorithm!r}")
    return _AUDITED[algorithm]


def contraction_model(
    algorithm: str,
    alpha: float,
    mu: float,
    lipschitz: float,
    beta: float,
    drift: DriftProfile,
) -> ContractionModel:
    """The method's one-step recursion with the measured drift."""
    entry = _audited(algorithm, "contraction model")
    return entry.contraction(alpha, mu, lipschitz, beta, drift.delta_x, getattr(drift, entry.drift))


def steady_state_bound(
    algorithm: str,
    alpha: float,
    mu: float,
    lipschitz: float,
    beta: float,
    drift: DriftProfile,
) -> float:
    """The method's steady-state bound with the measured drift."""
    entry = _audited(algorithm, "steady-state bound")
    return entry.bound(alpha, mu, lipschitz, beta, drift.delta_x, getattr(drift, entry.drift))


@dataclass(frozen=True)
class AuditEntry:
    """Result of replaying one inequality: the worst slack-adjusted excess."""

    name: str
    max_violation: float
    worst_iteration: int
    enforced: bool = True


@dataclass(frozen=True)
class AuditReport:
    algorithm: str
    entries: tuple[AuditEntry, ...]

    def worst(self) -> AuditEntry | None:
        """The enforced entry with the largest positive excess, or None if all hold; nan counts as positive."""
        offenders = [e for e in self.entries if e.enforced and not e.max_violation <= 0]
        return max(offenders, key=lambda e: e.max_violation, default=None)

    def clean(self) -> bool:
        return self.worst() is None

    def to_text(self) -> str:
        lines = [
            f"{e.name}: max_violation={e.max_violation:.6e} "
            f"worst_iteration={e.worst_iteration} enforced={e.enforced}"
            for e in self.entries
        ]
        return "\n".join(lines)


def _violation_entry(name, lhs, rhs) -> AuditEntry:
    excess = lhs - rhs - AUDIT_SLACK * (1 + rhs)
    worst = int(np.argmax(excess))
    return AuditEntry(
        name=name,
        max_violation=float(excess[worst]),
        worst_iteration=worst + 1,
    )


def audit_recursions(
    record: TrajectoryRecord, drift: DriftProfile, strict: bool = True
) -> AuditReport:
    """Replay the per-step inequalities of the record's method on its series.

    The recorded series are per-agent norms, the scale the contraction
    models are written in, so the inequalities apply to them verbatim.
    """
    meta = record.metadata
    entry = _audited(meta.algorithm, "audited recursion")
    if len(record) < 2:
        raise ValueError("record too short to audit: need at least one step")
    rows = [getattr(record, series) for _, series in entry.rows]
    if any(row is None for row in rows):
        raise ValueError("tracker series missing: record was not produced by dgt")
    model = contraction_model(meta.algorithm, meta.alpha, meta.mu, meta.lipschitz, meta.beta, drift)
    series = np.vstack(rows)
    if not np.isfinite(series).all():
        raise ValueError("record contains non-finite values; audit requires finite series")

    lhs = series[:, 1:]
    rhs = model.A @ series[:, :-1] + model.b[:, None]
    entries = tuple(
        _violation_entry(name, lhs[i], rhs[i]) for i, (name, _) in enumerate(entry.rows)
    )
    report = AuditReport(algorithm=meta.algorithm, entries=entries)
    worst = report.worst()
    if strict and worst is not None:
        raise AuditViolation(
            f"{worst.name} inequality violated at iteration "
            f"{worst.worst_iteration} by {worst.max_violation:.3e}"
        )
    return report
