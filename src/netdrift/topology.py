"""Network graphs, doubly stochastic mixing matrices, and their spectral gaps.

Agents sit on the nodes of an undirected connected graph and exchange
information only with neighbors. Mixing is done with a symmetric doubly
stochastic weight matrix W, held in CSR form and built straight from the
neighbor sets, so no dense n x n array is ever formed. Its second-largest
eigenvalue magnitude beta measures how well connected the network is (beta
near 1 means slow information flow); it comes in closed form for cycles and
complete graphs and otherwise from ARPACK's Lanczos method
(``scipy.sparse.linalg.eigsh``).
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

# Rows per dense block when the Metropolis diagonal is summed.
_ROW_BLOCK = 64


class InvalidSizeError(ValueError):
    """A topology builder received a degenerate size."""


class ConstructionError(RuntimeError):
    """A random graph could not be made connected within the retry budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class WeightRuleError(ValueError):
    """The requested weight rule does not apply to the given graph."""


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


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Doubly stochastic mixing matrix in CSR form with its spectral gap beta = |lambda_2|."""

    csr: sparse.csr_matrix
    beta: float

    @property
    def n(self) -> int:
        return self.csr.shape[0]


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


def _pattern(g: Graph) -> tuple[NDArray[np.intp], ...]:
    """Neighbor-set sizes and the CSR pattern (rows, columns, row pointer) of the neighbor sets."""
    sizes = np.fromiter(map(len, g.neighbor_sets), dtype=np.intp, count=g.n)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = np.fromiter(chain.from_iterable(g.neighbor_sets), dtype=np.intp, count=indptr[-1])
    return sizes, np.repeat(np.arange(g.n), sizes), indices, indptr


def _find(sorted_keys: NDArray[np.intp], keys: NDArray[np.intp]) -> tuple[NDArray, NDArray[np.bool_]]:
    """Position of each key in a sorted key array, and whether it is there."""
    pos = np.searchsorted(sorted_keys, keys).clip(max=sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


def _validate_doubly_stochastic(w: sparse.csr_matrix, g: Graph) -> None:
    # In place and value-preserving: sorted indices and no stored zeros, so
    # the keys i*n + j of the nonzeros (i, j) below are sorted.
    w.sum_duplicates()
    w.eliminate_zeros()
    if (w.data < 0.0).any():
        raise ValueError("weight matrix has negative entries")
    rows, cols = np.repeat(np.arange(g.n), np.diff(w.indptr)), w.indices.astype(np.intp)
    err = max(np.abs(np.bincount(axis, w.data, g.n) - 1.0).max() for axis in (rows, cols))
    if err > STOCHASTICITY_TOL:
        raise ValueError(f"weight matrix is not doubly stochastic (error {err:.3e})")
    keys = rows * g.n + cols
    mirror, found = _find(keys, cols * g.n + rows)
    if not (found.all() and np.array_equal(w.data[mirror], w.data)):
        raise ValueError("weight matrix is not symmetric")
    _, pattern_rows, pattern_cols, _ = _pattern(g)
    _, inside = _find(pattern_rows * g.n + pattern_cols, keys)
    if not inside.all():
        i = rows[~inside][0]
        outside = cols[~inside & (rows == i)].tolist()
        raise ValueError(f"agent {i} has weights outside its neighbor set: {outside}")


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
    sizes, rows, indices, indptr = _pattern(g)
    if (sizes != sizes[0]).any():
        raise WeightRuleError(
            "uniform neighbor weights need a regular graph; use metropolis_weights for irregular graphs"
        )
    w = sparse.csr_matrix((1.0 / sizes[rows], indices, indptr), shape=(g.n, g.n))
    _validate_doubly_stochastic(w, g)
    if g.kind == "cycle":
        beta = _cycle_beta(g.n)
    elif g.kind == "complete":
        beta = 0.0
    else:
        beta = spectral_gap(w)
    return WeightMatrix(csr=w, beta=beta)


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Symmetric doubly stochastic rule W_ij = 1/(1 + max(deg_i, deg_j))."""
    if not is_connected(g):
        raise ValueError("weight matrices require a connected graph")
    sizes, rows, indices, indptr = _pattern(g)
    diagonal = rows == indices
    # deg excludes the self-loop, so 1 + max(deg_i, deg_j) = max(|N_i|, |N_j|).
    data = np.where(diagonal, 0.0, 1.0 / np.maximum(sizes[rows], sizes[indices]))
    w = sparse.csr_matrix((data, indices, indptr), shape=(g.n, g.n))
    # The diagonal absorbs the slack, keeping every row sum at exactly one.
    # Rows are summed as dense blocks, in numpy's pairwise order over all n
    # columns, so W is bitwise the matrix a dense construction gives.
    row_sums = [w[s : s + _ROW_BLOCK].toarray().sum(axis=1) for s in range(0, g.n, _ROW_BLOCK)]
    w.data[diagonal] = 1.0 - np.concatenate(row_sums)
    _validate_doubly_stochastic(w, g)
    return WeightMatrix(csr=w, beta=spectral_gap(w))


def spectral_gap(w: sparse.spmatrix | NDArray[np.float64]) -> float:
    """Magnitude of the second-largest eigenvalue of a symmetric doubly stochastic W.

    The deflated operator v -> Wv - mean(v), that is W - (1/n) 11^T, has
    spectral radius |lambda_2(W)|. One ARPACK Lanczos call (``eigsh``, k=1,
    largest magnitude) finds it to machine precision. The start vector is
    drawn from a fixed seed, so beta does not depend on earlier calls.
    """
    # Imported on first use: it adds about 10 MB that cycle-only runs never need.
    from scipy.sparse.linalg import LinearOperator, eigsh

    mat = sparse.csr_matrix(w)
    n = mat.shape[0]
    deflated = LinearOperator((n, n), matvec=lambda v: mat @ v - v.mean(), dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    # ARPACK cannot start from a vector the operator annihilates; that
    # happens for the averaging matrix, whose beta is zero.
    if not deflated.matvec(v0).any():
        return 0.0
    (lam,) = eigsh(deflated, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(abs(lam))


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

