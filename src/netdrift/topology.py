"""Network graphs, doubly stochastic mixing matrices, and their spectral gaps.

A graph is its symmetric CSR adjacency pattern: row i is agent i's neighbor
set, agent i included, and agents exchange information only along it. The
mixing matrix W is symmetric, doubly stochastic and built on that pattern, so
no dense n x n array is ever formed. One construction builds it: Metropolis
weights, which on a regular graph are the uniform weights 1/|N_i|, so the
uniform rule is that construction restricted to regular graphs. Its
second-largest eigenvalue magnitude beta (near 1 means slow mixing) is 0
when every neighbor set holds every agent (a complete graph by any name: the
3-cycle, the 2-agent line), is closed form on longer cycles, and otherwise
comes from ARPACK's Lanczos method (``scipy.sparse.linalg.eigsh``).

Metropolis weights are symmetric, nonnegative and doubly stochastic by
construction on a square, duplicate-free, zero-free, symmetric and connected
pattern, so W is not checked once built. A builder's graph is all of these by
construction (``build_random`` keeps the first draw that scipy's breadth-first
search finds connected); a hand-made one is checked for each, in that order,
before any weight is computed. The pair draws, the diagonal sums of an
irregular W and ARPACK's products with W run scipy's compiled CSR kernels on
reused blocks, skip its per-call dispatch, and give bitwise its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy import sparse
from scipy.sparse import _sparsetools

_RANDOM_ATTEMPTS = 50  # seeds build_random tries before ConstructionError
_PAIR_BLOCK = 2**16  # pair uniforms build_random draws at a time
_CALIBRATION_TOL = 0.02  # largest |beta - target| calibrate_beta accepts
_CALIBRATION_STEPS = 40  # most bisection steps calibrate_beta takes
_BUILDER_KINDS = frozenset({"cycle", "line", "grid", "complete", "random"})  # valid by construction


class InvalidSizeError(ValueError):
    """A topology builder received a degenerate size."""


class ConstructionError(RuntimeError):
    """A random graph could not be made connected within the retry budget."""


class WeightRuleError(ValueError):
    """The requested weight rule does not apply to the given graph."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected network as a symmetric CSR adjacency; row i is agent i's neighbor set, i included.

    Only a builder sets ``kind``, which vouches that the pattern is square,
    free of duplicate and zero entries, symmetric and connected (a ``"cycle"``
    also that it is a ring). A hand-made graph is ``"custom"``; the weights
    check it for each of these, in that order, before building W.
    """

    adjacency: sparse.csr_matrix
    kind: str = field(default="custom", init=False)

    def __post_init__(self):
        missing = np.flatnonzero(self.adjacency.diagonal() == 0)
        if missing.size:
            raise ValueError(f"agent {missing[0]} missing from its own neighbor set")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Doubly stochastic mixing matrix in CSR form with its spectral gap beta = |lambda_2|.

    ``csr`` has one set of ``np.intp`` index arrays, read by ``mix``, ``csr @ x`` and ARPACK alike.
    """

    csr: sparse.csr_matrix
    beta: float

    @cached_property
    def n(self) -> int:
        return self.csr.shape[0]

    def mix(self, stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """W applied to an (n, c) float stack: bitwise ``csr @ stack``, without its dispatch.

        ``csr @ stack`` spends most of a small product in scipy's Python
        dispatch before it reaches the compiled kernel; a 5-agent one-column
        product costs about three times its arithmetic. This calls scipy's
        kernels directly: ``csr_matvec`` for one column and ``csr_matvecs``
        for more, the ones ``csr @ stack`` picks. Both sum a row's entries in
        stored order into a fresh zero output, so the product is bitwise
        that of ``csr @ stack``. They read W's one set of index arrays,
        64-bit as the weights build them, so ``csr @ stack`` runs the same
        int64 loop. ``stack.ravel()`` copies a non-C-contiguous stack, as
        scipy does.
        """
        n, w = self.n, self.csr
        rows, columns = stack.shape
        if rows != n:  # the kernel would read past the stack's end
            raise ValueError(f"cannot mix a stack of {rows} rows with a {n}x{n} weight matrix")
        out = np.zeros((n, columns))
        if columns == 1:
            _sparsetools.csr_matvec(n, n, w.indptr, w.indices, w.data, stack.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(n, n, columns, w.indptr, w.indices, w.data, stack.ravel(), out.ravel())
        return out


def _graph(n: int, heads: NDArray[np.intp], tails: NDArray[np.intp], kind: str) -> Graph:
    """Graph on the edges (heads[k], tails[k]), stored in both directions, plus every self-loop."""
    loops = np.arange(n)
    rows, cols = np.concatenate((heads, tails, loops)), np.concatenate((tails, heads, loops))
    # COO to CSR sorts every row's column indices.
    adjacency = sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
    g = Graph(adjacency)
    object.__setattr__(g, "kind", kind)  # frozen, and not a constructor argument
    return g


def is_connected(g: Graph) -> bool:
    """True if scipy's breadth-first search from agent 0 reaches every agent; imported on first use."""
    from scipy.sparse.csgraph import breadth_first_order

    return breadth_first_order(g.adjacency, 0, return_predecessors=False).size == g.n


def build_cycle(n: int) -> Graph:
    """Ring of n agents; every neighbor set has exactly 3 members."""
    if n < 3:
        raise InvalidSizeError(f"a cycle needs at least 3 agents, got {n}")
    return _graph(n, np.arange(n), np.arange(1, n + 1) % n, kind="cycle")


def build_line(n: int) -> Graph:
    """Path of n agents; endpoints have neighbor sets of size 2."""
    if n < 2:
        raise InvalidSizeError(f"a line needs at least 2 agents, got {n}")
    return _graph(n, np.arange(n - 1), np.arange(1, n), kind="line")


def build_grid(rows: int, cols: int) -> Graph:
    """rows x cols lattice with 4-neighbor connectivity."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidSizeError(f"degenerate grid shape ({rows}, {cols})")
    ids = np.arange(rows * cols).reshape(rows, cols)
    heads = np.concatenate((ids[:, :-1].ravel(), ids[:-1, :].ravel()))
    tails = np.concatenate((ids[:, 1:].ravel(), ids[1:, :].ravel()))
    return _graph(rows * cols, heads, tails, kind="grid")


def build_complete(n: int) -> Graph:
    """All agent pairs connected."""
    if n < 2:
        raise InvalidSizeError(f"a complete graph needs at least 2 agents, got {n}")
    return _graph(n, *np.triu_indices(n, 1), kind="complete")


def build_random(n: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi style graph, retried under derived seeds until connected.

    Each attempt draws one uniform per pair (i, j), i < j, in row-major order
    and keeps the pairs whose uniform is below ``edge_probability``. The
    stream is drawn in blocks of ``_PAIR_BLOCK`` uniforms. numpy's generator
    fills float64 values one 64-bit draw at a time, so the blocks hold the
    same values as one draw of all n(n-1)/2 pairs, and the graphs are the
    same. Memory therefore grows with the kept edges, not with the pairs;
    drawing time still grows as n^2/2, because the whole stream is consumed.
    """
    if n < 2:
        raise InvalidSizeError(f"a random graph needs at least 2 agents, got {n}")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_probability}")
    # Pair q is the q-th (i, j), i < j, in row-major order; row i starts at
    # pair i(2n-i-1)/2. Only the kept pairs are mapped back to (i, j).
    i = np.arange(n)
    starts = i * (2 * n - i - 1) // 2
    pairs = n * (n - 1) // 2
    for child in np.random.SeedSequence(seed).spawn(_RANDOM_ATTEMPTS):
        kept = _kept_pairs(np.random.default_rng(child), pairs, edge_probability)
        heads = np.searchsorted(starts, kept, side="right") - 1
        g = _graph(n, heads, kept - starts[heads] + heads + 1, kind="random")
        if is_connected(g):
            return g
    message = f"no connected graph with n={n}, p={edge_probability} in {_RANDOM_ATTEMPTS} attempts"
    raise ConstructionError(message)


def _kept_pairs(rng: np.random.Generator, pairs: int, edge_probability: float) -> NDArray[np.intp]:
    """Indices of the pairs whose uniform is below ``edge_probability``, in stream order.

    Every block of ``_PAIR_BLOCK`` uniforms is drawn into one buffer and
    compared into one mask, both reused across the blocks and released
    before the caller builds and searches the graph.
    """
    uniforms = np.empty(min(_PAIR_BLOCK, pairs))
    below = np.empty(uniforms.size, dtype=bool)
    blocks = []
    for q in range(0, pairs, _PAIR_BLOCK):
        size = min(_PAIR_BLOCK, pairs - q)
        np.less(rng.random(out=uniforms[:size]), edge_probability, out=below[:size])
        blocks.append(np.flatnonzero(below[:size]) + q)
    return np.concatenate(blocks)


def uniform_neighbor_weights(g: Graph) -> WeightMatrix:
    """W_ij = 1/|N_i| over neighbor sets: :func:`metropolis_weights`, restricted to regular graphs.

    On an irregular graph the row rule breaks column stochasticity, so those are rejected.
    """
    return _metropolis(g, regular_only=True)


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Symmetric doubly stochastic W_ij = 1/(1 + max(deg_i, deg_j)); on a regular graph, 1/|N_i| exactly."""
    return _metropolis(g, regular_only=False)


def _metropolis(g: Graph, regular_only: bool) -> WeightMatrix:
    """The one weight construction, on a checked pattern, with beta: 0 on complete graphs, closed form on cycles."""
    adj = g.adjacency
    if g.kind not in _BUILDER_KINDS:
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        adj = adj.sorted_indices()  # a copy: W's rows are sorted, the graph's are left as they are
        if not adj.has_canonical_format:
            raise ValueError("adjacency stores duplicate entries; sum_duplicates() merges them")
        if not adj.data.all():
            raise ValueError("adjacency stores explicit zeros; eliminate_zeros() drops them")
        i, j = (adj.astype(bool) > adj.T.astype(bool)).nonzero()
        if i.size:
            raise ValueError(f"adjacency is not symmetric: agent {i[0]} lists agent {j[0]}, not the reverse")
        if not is_connected(g):
            raise ValueError("weight matrices require a connected graph")
    sizes = np.diff(adj.indptr)
    rows = np.repeat(np.arange(g.n), sizes)
    regular = (sizes == sizes[0]).all()
    if regular_only and not regular:
        raise WeightRuleError(
            "uniform neighbor weights need a regular graph; use metropolis_weights for irregular graphs"
        )
    # deg excludes the self-loop, so 1 + max(deg_i, deg_j) = max(|N_i|, |N_j|),
    # and the diagonal holds 1/|N_i|: exact on a regular graph. W's own np.intp
    # index copies are set after the constructor, which narrows them to 32 bits;
    # an in-place scipy call on W (eliminate_zeros, say) must not edit the graph.
    data = 1.0 / np.maximum(sizes[rows], sizes[adj.indices])
    w = sparse.csr_matrix((data, adj.indices, adj.indptr), shape=adj.shape)
    w.indices, w.indptr = adj.indices.astype(np.intp), adj.indptr.astype(np.intp)
    if not regular:
        # The diagonal absorbs the slack, keeping every row sum at exactly one.
        # Rows are summed as dense blocks of 64, in numpy's pairwise order over
        # all n columns, so W is bitwise the matrix a dense construction gives.
        # One (64, n) block is zeroed and refilled by scipy's ``toarray``
        # kernel for each row range.
        diagonal = rows == adj.indices
        w.data[diagonal] = 0.0
        block = np.empty((min(64, g.n), g.n))
        row_sums = np.empty(g.n)
        for s in range(0, g.n, 64):
            dense = block[: min(64, g.n - s)]
            dense.fill(0.0)
            _sparsetools.csr_todense(len(dense), g.n, w.indptr[s : s + 65], w.indices, w.data, dense)
            np.add.reduce(dense, axis=1, out=row_sums[s : s + 64])
        w.data[diagonal] = 1.0 - row_sums
    if (sizes == g.n).all():  # every neighbor set holds every agent: W is the averaging matrix
        return WeightMatrix(csr=w, beta=0.0)
    if g.kind == "cycle":  # circulant eigenvalues of (I + S + S^T)/3
        eigenvalues = (1.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(1, g.n) / g.n)) / 3.0
        return WeightMatrix(csr=w, beta=float(np.abs(eigenvalues).max()))
    return WeightMatrix(csr=w, beta=spectral_gap(w))


def spectral_gap(w: sparse.csr_matrix) -> float:
    """Magnitude of the second-largest eigenvalue of a symmetric doubly stochastic CSR matrix W.

    The deflated operator v -> Wv - mean(v), that is W - (1/n) 11^T, has
    spectral radius |lambda_2(W)|. One ARPACK Lanczos call (``eigsh``, k=1,
    largest magnitude) finds it to machine precision. The operator calls
    scipy's ``csr_matvec`` kernel, the one ``w @ v`` reaches for a vector,
    directly, so each Lanczos product skips the operator dispatch and Wv is
    bitwise ``w @ v``. The start vector is drawn from a fixed seed, so beta
    does not depend on earlier calls.
    """
    # Imported on first use: it adds about 10 MB that cycle-only runs never need.
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = w.shape[0]

    def deflated_product(v: NDArray[np.float64]) -> NDArray[np.float64]:
        wv = np.zeros(n)
        _sparsetools.csr_matvec(n, n, w.indptr, w.indices, w.data, v, wv)
        return wv - v.mean()

    deflated = LinearOperator((n, n), matvec=deflated_product, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    # W equal to the averaging matrix up to rounding has beta zero. ARPACK
    # would return process-dependent noise there, or fail if Wv0 = mean(v0).
    if np.linalg.norm(deflated.matvec(v0)) <= n * np.finfo(float).eps * np.linalg.norm(v0):
        return 0.0
    (lam,) = eigsh(deflated, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(abs(lam))


def calibrate_beta(n: int, target_beta: float, seed: int) -> tuple[float, Graph, WeightMatrix]:
    """Find an edge probability whose Metropolis weights hit the target beta.

    Bisects on the edge probability, measuring beta empirically on the graph
    drawn under the given seed. Denser graphs mix faster, so beta decreases
    as the probability grows. Returns (edge_probability, graph, weights) of
    the first probe closest to the target. The weights are always
    Metropolis weights; no other weight rule is calibrated.
    """
    if not 0.0 < target_beta < 1.0:
        raise ValueError(f"target beta must lie in (0, 1), got {target_beta}")

    # Every probed probability's (graph, weights), in probe order.
    probed: dict[float, tuple[Graph, WeightMatrix]] = {}

    def beta_at(p: float) -> float:
        if p not in probed:
            g = build_random(n, p, seed=seed)
            probed[p] = (g, metropolis_weights(g))
        return probed[p][1].beta

    def miss(p: float) -> float:
        return abs(probed[p][1].beta - target_beta)

    # Find the sparsest probability that still yields a connected graph.
    p_min = min(0.9, 1.2 * math.log(max(n, 3)) / n)
    for _ in range(10):
        try:
            beta_at(p_min)
            break
        except ConstructionError:
            p_min = min(1.0, 2.0 * p_min)

    # Coarse geometric sweep from p_min, stopping once beta is clearly below
    # the target. Near the connectivity threshold sampling noise breaks the
    # monotone decrease, so the winner is the closest probe seen anywhere.
    grid_size = 16
    ratio = (1.0 / p_min) ** (1.0 / (grid_size - 1))
    for k in range(grid_size):
        if beta_at(min(1.0, p_min * ratio**k)) < target_beta - _CALIBRATION_TOL and k >= 1:
            break

    # Refine by bisection inside the first bracketing pair of the sweep, if any.
    sweep = list(probed)
    for lo, hi in zip(sweep, sweep[1:]):
        if (beta_at(lo) - target_beta) * (beta_at(hi) - target_beta) <= 0.0:
            for _ in range(_CALIBRATION_STEPS):
                if min(map(miss, probed)) <= _CALIBRATION_TOL:
                    break
                mid = 0.5 * (lo + hi)
                if beta_at(mid) > target_beta:
                    lo = mid
                else:
                    hi = mid
            break
    prob = min(probed, key=miss)
    g, wm = probed[prob]
    if miss(prob) > _CALIBRATION_TOL:
        raise ValueError(f"calibration missed target beta {target_beta} (closest {wm.beta:.4f} at p={prob:.4f})")
    return prob, g, wm
