"""Network graphs, doubly stochastic mixing matrices, and their spectral gaps.

Agents sit on the nodes of an undirected connected graph and exchange
information only with neighbors. Mixing is done with a doubly stochastic
weight matrix W whose second-largest eigenvalue magnitude beta measures how
well connected the network is (beta near 1 means slow information flow).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from numpy.typing import NDArray
from scipy import sparse

STOCHASTICITY_TOL = 1e-12

_POWER_TOL = 1e-10
_POWER_MAX_ITER = 100_000


class InvalidSizeError(ValueError):
    """A topology builder received a degenerate size."""


class ConstructionError(RuntimeError):
    """A random graph could not be made connected within the retry budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class WeightRuleError(ValueError):
    """The requested weight rule does not apply to the given graph."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class Graph:
    """Undirected agent network; every neighbor set contains the agent itself."""

    n: int
    edges: frozenset[tuple[int, int]]
    neighbor_sets: tuple[tuple[int, ...], ...]
    kind: str = field(default="custom", compare=False)

    def __post_init__(self):
        for i, j in self.edges:
            if not 0 <= i < j < self.n:
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        for i, nbrs in enumerate(self.neighbor_sets):
            if i not in nbrs:
                raise ValueError(f"agent {i} missing from its own neighbor set")

    def degree(self, i: int) -> int:
        """Neighbor count of agent i, excluding the self-loop."""
        return len(self.neighbor_sets[i]) - 1


@dataclass(eq=False)
class WeightMatrix:
    """Doubly stochastic mixing matrix with its spectral gap beta = |lambda_2|."""

    entries: NDArray[np.float64]
    beta: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        self.entries.setflags(write=False)
        self._csr = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def csr(self) -> sparse.csr_matrix:
        """Sparse view used for neighbor-local matrix application."""
        if self._csr is None:
            self._csr = sparse.csr_matrix(self.entries)
        return self._csr


def _graph_from_edges(n: int, edges: set[tuple[int, int]], kind: str) -> Graph:
    neighbors: list[set[int]] = [{i} for i in range(n)]
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    return Graph(
        n=n,
        edges=frozenset(edges),
        neighbor_sets=tuple(tuple(sorted(s)) for s in neighbors),
        kind=kind,
    )


def is_connected(g: Graph) -> bool:
    """Breadth-first check that the graph has a single component."""
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in g.neighbor_sets[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == g.n


def build_cycle(n: int) -> Graph:
    """Ring of n agents; every neighbor set has exactly 3 members."""
    if n < 3:
        raise InvalidSizeError(f"a cycle needs at least 3 agents, got {n}")
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return _graph_from_edges(n, edges, kind="cycle")


def build_line(n: int) -> Graph:
    """Path of n agents; endpoints have neighbor sets of size 2."""
    if n < 2:
        raise InvalidSizeError(f"a line needs at least 2 agents, got {n}")
    edges = {(i, i + 1) for i in range(n - 1)}
    return _graph_from_edges(n, edges, kind="line")


def build_grid(rows: int, cols: int) -> Graph:
    """rows x cols lattice with 4-neighbor connectivity."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidSizeError(f"degenerate grid shape ({rows}, {cols})")
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.add((i, i + 1))
            if r + 1 < rows:
                edges.add((i, i + cols))
    return _graph_from_edges(rows * cols, edges, kind="grid")


def build_complete(n: int) -> Graph:
    """All agent pairs connected."""
    if n < 2:
        raise InvalidSizeError(f"a complete graph needs at least 2 agents, got {n}")
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    return _graph_from_edges(n, edges, kind="complete")


def build_random(n: int, edge_probability: float, seed: int, max_retries: int = 50) -> Graph:
    """Erdos-Renyi style graph, retried under derived seeds until connected."""
    if n < 2:
        raise InvalidSizeError(f"a random graph needs at least 2 agents, got {n}")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_probability}")
    rows, cols = np.triu_indices(n, 1)
    for child in np.random.SeedSequence(seed).spawn(max_retries):
        rng = np.random.default_rng(child)
        mask = rng.random(rows.size) < edge_probability
        edges = set(zip(rows[mask].tolist(), cols[mask].tolist()))
        g = _graph_from_edges(n, edges, kind="random")
        if is_connected(g):
            return g
    raise ConstructionError(
        f"no connected graph with n={n}, p={edge_probability} in {max_retries} attempts",
        attempts=max_retries,
    )


def _validate_doubly_stochastic(entries: NDArray[np.float64], g: Graph) -> None:
    if np.any(entries < 0.0):
        raise ValueError("weight matrix has negative entries")
    row_err = np.max(np.abs(entries.sum(axis=1) - 1.0))
    col_err = np.max(np.abs(entries.sum(axis=0) - 1.0))
    if max(row_err, col_err) > STOCHASTICITY_TOL:
        raise ValueError(f"weight matrix is not doubly stochastic (error {max(row_err, col_err):.3e})")
    # A row has weights outside its neighbor set exactly when it has more
    # nonzeros than its neighbor pattern holds; only such rows are examined.
    rows = np.repeat(np.arange(g.n), [len(nbrs) for nbrs in g.neighbor_sets])
    cols = np.fromiter(chain.from_iterable(g.neighbor_sets), dtype=np.intp, count=rows.size)
    on_pattern = np.bincount(rows[entries[rows, cols] != 0.0], minlength=g.n)
    for i in np.flatnonzero(np.count_nonzero(entries, axis=1) != on_pattern):
        outside = set(np.flatnonzero(entries[i]).tolist()) - set(g.neighbor_sets[i])
        if outside:
            raise ValueError(f"agent {i} has weights outside its neighbor set: {sorted(outside)}")


def _cycle_beta(n: int) -> float:
    # Circulant eigenvalues of (I + S + S^T)/3.
    j = np.arange(1, n)
    return float(np.max(np.abs((1.0 + 2.0 * np.cos(2.0 * np.pi * j / n)) / 3.0)))


def uniform_neighbor_weights(g: Graph) -> WeightMatrix:
    """W_ij = 1/|N_i| over neighbor sets; valid only on regular graphs.

    On irregular graphs the row rule breaks column stochasticity, so those
    are rejected; use :func:`metropolis_weights` instead.
    """
    if not is_connected(g):
        raise ValueError("weight matrices require a connected graph")
    sizes = {len(nbrs) for nbrs in g.neighbor_sets}
    if len(sizes) != 1:
        raise WeightRuleError(
            "uniform neighbor weights need a regular graph; use metropolis_weights for irregular graphs"
        )
    entries = np.zeros((g.n, g.n))
    for i, nbrs in enumerate(g.neighbor_sets):
        entries[i, list(nbrs)] = 1.0 / len(nbrs)
    _validate_doubly_stochastic(entries, g)
    if g.kind == "cycle":
        beta = _cycle_beta(g.n)
    elif g.kind == "complete":
        beta = 0.0
    else:
        beta = spectral_gap(entries)
    return WeightMatrix(entries=entries, beta=beta)


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Symmetric doubly stochastic rule W_ij = 1/(1 + max(deg_i, deg_j))."""
    if not is_connected(g):
        raise ValueError("weight matrices require a connected graph")
    entries = np.zeros((g.n, g.n))
    for i, j in g.edges:
        entries[i, j] = entries[j, i] = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
    # Diagonal absorbs the slack, keeping every row sum at exactly one.
    np.fill_diagonal(entries, 1.0 - entries.sum(axis=1))
    _validate_doubly_stochastic(entries, g)
    return WeightMatrix(entries=entries, beta=spectral_gap(entries))


def spectral_gap(w: WeightMatrix | NDArray[np.float64]) -> float:
    """Magnitude of the second-largest eigenvalue of W.

    Runs power iteration on the deflated matrix W - (1/n) 11^T, whose
    spectral radius equals |lambda_2(W)| for doubly stochastic W. Stops when
    a geometric tail estimate of the remaining error falls below 1e-10.
    """
    entries = w.entries if isinstance(w, WeightMatrix) else np.asarray(w, dtype=np.float64)
    n = entries.shape[0]
    mat = sparse.csr_matrix(entries)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v -= v.mean()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.zeros(n)
        v[0], v[-1] = 1.0, -1.0
        norm = np.linalg.norm(v)
    v /= norm
    est_prev = math.inf
    diff_prev = math.inf
    settled = 0
    for iteration in range(1, _POWER_MAX_ITER + 1):
        bv = mat.dot(v)
        bv -= bv.mean()
        est = float(np.linalg.norm(bv))
        if est == 0.0:
            return 0.0
        v = bv / est
        diff = abs(est - est_prev)
        # Geometric tail bound: remaining error ~ diff * q / (1 - q).
        q = diff / diff_prev if diff_prev > 0.0 else 0.0
        tail = diff * q / (1.0 - q) if 0.0 < q < 1.0 else diff
        tol = _POWER_TOL * max(1.0, est)
        if diff <= tol and tail <= tol:
            settled += 1
            if settled >= 3:
                return est
        else:
            settled = 0
        est_prev, diff_prev = est, diff
    raise NumericError(
        f"power iteration did not converge within {_POWER_MAX_ITER} iterations",
        iterations=_POWER_MAX_ITER,
    )


def calibrate_beta(
    n: int,
    target_beta: float,
    seed: int,
    tol: float = 0.02,
    max_iter: int = 40,
) -> tuple[float, Graph, WeightMatrix]:
    """Find an edge probability whose Metropolis weights hit the target beta.

    Bisects on the edge probability, measuring beta empirically on the graph
    drawn under the given seed. Denser graphs mix faster, so beta decreases
    as the probability grows. Returns (edge_probability, graph, weights).
    """
    if not 0.0 < target_beta < 1.0:
        raise ValueError(f"target beta must lie in (0, 1), got {target_beta}")

    cache: dict[float, tuple[Graph, WeightMatrix]] = {}

    def measure(p: float) -> tuple[Graph, WeightMatrix]:
        if p not in cache:
            g = build_random(n, p, seed=seed)
            cache[p] = (g, metropolis_weights(g))
        return cache[p]

    # Find the sparsest probability that still yields a connected graph.
    p_min = min(0.9, 1.2 * math.log(max(n, 3)) / n)
    for _ in range(10):
        try:
            measure(p_min)
            break
        except ConstructionError:
            p_min = min(1.0, 2.0 * p_min)

    # Coarse geometric sweep. Beta shrinks as the graph densifies, but near
    # the connectivity threshold sampling noise breaks strict monotonicity,
    # so keep the best candidate seen anywhere.
    grid_size = 16
    ratio = (1.0 / p_min) ** (1.0 / (grid_size - 1))
    probes = [min(1.0, p_min * ratio**k) for k in range(grid_size)]
    best: tuple[float, float, Graph, WeightMatrix] | None = None
    evaluated: list[tuple[float, float]] = []
    for p in probes:
        g, wm = measure(p)
        evaluated.append((p, wm.beta))
        gap = abs(wm.beta - target_beta)
        if best is None or gap < best[0]:
            best = (gap, p, g, wm)
        if wm.beta < target_beta - tol and len(evaluated) >= 2:
            break

    # Refine by bisection inside the bracketing interval, if one exists.
    bracket = None
    for (p_a, beta_a), (p_b, beta_b) in zip(evaluated, evaluated[1:]):
        if (beta_a - target_beta) * (beta_b - target_beta) <= 0.0:
            bracket = (p_a, p_b)
            break
    if bracket is not None:
        lo, hi = bracket
        for _ in range(max_iter):
            if best[0] <= tol:
                break
            mid = 0.5 * (lo + hi)
            g, wm = measure(mid)
            gap = abs(wm.beta - target_beta)
            if gap < best[0]:
                best = (gap, mid, g, wm)
            if wm.beta > target_beta:
                lo = mid
            else:
                hi = mid
    gap, prob, g, wm = best
    if gap > tol:
        raise ValueError(f"calibration missed target beta {target_beta} (closest {wm.beta:.4f} at p={prob:.4f})")
    return prob, g, wm

