import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh

from netdrift import topology
from netdrift.topology import (
    ConstructionError,
    Graph,
    InvalidSizeError,
    WeightRuleError,
    _validate_doubly_stochastic,
    build_complete,
    build_cycle,
    build_grid,
    build_line,
    build_random,
    calibrate_beta,
    is_connected,
    metropolis_weights,
    spectral_gap,
    uniform_neighbor_weights,
)


def cycle_beta_closed_form(n: int) -> float:
    # Independent oracle: eigenvalues of the circulant (I + S + S^T)/3.
    j = np.arange(1, n)
    return float(np.max(np.abs((1.0 + 2.0 * np.cos(2.0 * np.pi * j / n)) / 3.0)))


def eig_beta(w) -> float:
    # Independent oracle: full symmetric eigensolve, second largest magnitude.
    dense = w.toarray() if sparse.issparse(w) else w
    mags = np.sort(np.abs(np.linalg.eigvalsh(dense)))
    return float(mags[-2])


def edges(g) -> list[tuple[int, int]]:
    # Each undirected edge once, as (i, j) with i < j, read off the adjacency's upper triangle.
    upper = sparse.triu(g.adjacency, 1).tocoo()
    return sorted(zip(upper.row.tolist(), upper.col.tolist()))


def neighbor_counts(g) -> list[int]:
    # |N_i| per agent, agent i included: the stored entries of adjacency row i.
    return np.diff(g.adjacency.indptr).tolist()


def dense_metropolis(g) -> sparse.csr_matrix:
    # The former dense construction: edge loop, diagonal from dense row sums, then CSR.
    entries = np.zeros((g.n, g.n))
    deg = [count - 1 for count in neighbor_counts(g)]
    for i, j in edges(g):
        entries[i, j] = entries[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(entries, 1.0 - entries.sum(axis=1))
    return sparse.csr_matrix(entries)


def dense_uniform(g) -> sparse.csr_matrix:
    entries = np.zeros((g.n, g.n))
    for i, count in enumerate(neighbor_counts(g)):
        entries[i, g.adjacency[i].indices] = 1.0 / count
    return sparse.csr_matrix(entries)


def python_search_connected(g) -> bool:
    # Independent oracle: breadth-first search from agent 0 over the adjacency
    # rows, in pure Python.
    indptr, indices = g.adjacency.indptr.tolist(), g.adjacency.indices.tolist()
    seen = [True] + [False] * (g.n - 1)
    queue = [0]
    for i in queue:  # the loop also visits the agents appended while it runs
        for j in indices[indptr[i] : indptr[i + 1]]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return len(queue) == g.n


def hand_made_graph(n: int, pairs) -> Graph:
    # Agents 0..n-1 with a self-loop each and the listed undirected edges.
    entries = np.eye(n, dtype=bool)
    for i, j in pairs:
        entries[i, j] = entries[j, i] = True
    return Graph(sparse.csr_matrix(entries))


def triu_random(n: int, p: float, seed: int, max_retries: int = 50) -> sparse.csr_matrix:
    # Independent oracle: draw over every pair that np.triu_indices(n, 1) lists,
    # under the same child seeds, and keep the first connected draw.
    rows, cols = np.triu_indices(n, 1)
    loops = np.arange(n)
    for child in np.random.SeedSequence(seed).spawn(max_retries):
        mask = np.random.default_rng(child).random(rows.size) < p
        heads = np.concatenate((rows[mask], cols[mask], loops))
        tails = np.concatenate((cols[mask], rows[mask], loops))
        adjacency = sparse.csr_matrix((np.ones(heads.size, dtype=bool), (heads, tails)), shape=(n, n))
        if python_search_connected(Graph(adjacency)):
            return adjacency
    raise AssertionError("oracle found no connected draw")


def assert_same_csr(a: sparse.csr_matrix, b: sparse.csr_matrix) -> None:
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


# ---------------------------------------------------------------- builders


@pytest.mark.parametrize("n", [3, 5, 8, 100])
def test_build_cycle_neighbor_counts(n):
    g = build_cycle(n)
    assert g.n == n
    assert len(edges(g)) == n
    assert neighbor_counts(g) == [3] * n
    assert (g.adjacency.diagonal() != 0).all()
    assert is_connected(g)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_build_cycle_rejects_small(n):
    with pytest.raises(InvalidSizeError):
        build_cycle(n)


def test_build_line_endpoints():
    g = build_line(4)
    assert neighbor_counts(g) == [2, 3, 3, 2]
    assert edges(g) == [(0, 1), (1, 2), (2, 3)]
    assert is_connected(g)


def test_build_grid_corner_degrees():
    g = build_grid(3, 3)
    assert g.n == 9
    assert neighbor_counts(g) == [3, 4, 3, 4, 5, 4, 3, 4, 3]
    assert edges(g) == [
        (0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6), (4, 5), (4, 7), (5, 8), (6, 7), (7, 8),
    ]
    assert is_connected(g)


def test_build_complete_all_pairs():
    g = build_complete(4)
    assert len(edges(g)) == 6
    assert neighbor_counts(g) == [4] * 4


def test_build_complete_stores_every_pair():
    # n^2 stored entries: every ordered pair plus the n self-loops.
    assert build_complete(1000).adjacency.nnz == 1000**2


@pytest.mark.parametrize(
    "g",
    [build_cycle(7), build_line(6), build_grid(4, 5), build_complete(5), build_random(30, 0.2, seed=1)],
    ids=["cycle", "line", "grid", "complete", "random"],
)
def test_adjacency_is_symmetric_sorted_with_self_loops(g):
    adj = g.adjacency
    assert isinstance(adj, sparse.csr_matrix) and adj.has_sorted_indices
    assert (adj != adj.T).nnz == 0
    assert (adj.diagonal() != 0).all()
    assert adj.nnz == g.n + 2 * len(edges(g))


@pytest.mark.parametrize(
    "g, pairs",
    [
        (build_cycle(7), {(min(i, (i + 1) % 7), max(i, (i + 1) % 7)) for i in range(7)}),
        (build_line(6), {(i, i + 1) for i in range(5)}),
        (
            build_grid(3, 5),
            {(r * 5 + c, r * 5 + c + 1) for r in range(3) for c in range(4)}
            | {(r * 5 + c, (r + 1) * 5 + c) for r in range(2) for c in range(5)},
        ),
        (build_complete(6), {(i, j) for i in range(6) for j in range(i + 1, 6)}),
    ],
    ids=["cycle", "line", "grid", "complete"],
)
def test_builder_edges_match_pair_loops(g, pairs):
    # Reference: the pair-set loops the builders used before they made index arrays.
    assert edges(g) == sorted(pairs)


def test_graph_rejects_missing_self_loop():
    adjacency = sparse.csr_matrix(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool))
    with pytest.raises(ValueError) as excinfo:
        Graph(adjacency)
    assert str(excinfo.value) == "agent 2 missing from its own neighbor set"


@pytest.mark.parametrize("build, args", [(build_line, (1,)), (build_grid, (0, 3)), (build_complete, (1,)), (build_grid, (1, 1))])
def test_degenerate_sizes_rejected(build, args):
    with pytest.raises(InvalidSizeError):
        build(*args)


def test_build_random_full_probability_is_complete():
    g = build_random(10, 1.0, seed=3)
    assert edges(g) == edges(build_complete(10))


def test_build_random_deterministic():
    a = build_random(40, 0.2, seed=11)
    b = build_random(40, 0.2, seed=11)
    assert edges(a) == edges(b)


def test_build_random_pinned_edges():
    # Pinned from the pair-list implementation: one uniform draw per pair
    # (i, j), i < j, in row-major order decides whether the edge is kept.
    g = build_random(12, 0.3, seed=5)
    assert edges(g) == [
        (0, 3), (0, 4), (0, 5), (0, 7), (0, 10), (1, 4), (1, 5), (1, 9), (2, 3), (2, 4),
        (2, 7), (2, 8), (3, 8), (3, 10), (4, 9), (4, 10), (5, 6), (5, 8), (6, 9), (6, 11),
        (7, 8), (10, 11),
    ]


@pytest.mark.parametrize(
    "n, p, seed",
    [
        (2, 1.0, 0), (9, 0.4, 3), (30, 0.1, 3), (101, 0.05, 2), (362, 0.03, 1), (363, 0.03, 1),
        (400, 0.02, 5), (2001, 0.0055, 0),
    ],
)
def test_build_random_matches_all_pairs_oracle(n, p, seed):
    # (30, 0.1, 3) keeps the tenth draw, so the retries are covered too. The
    # pair stream is drawn in blocks of 2**16: n = 362 has 65,341 pairs, one
    # block; n = 363 has one block plus 167 pairs; n = 400 crosses one block
    # boundary; the benchmark's graph at n = 2001 is 30 blocks plus 34,920 pairs.
    assert_same_csr(build_random(n, p, seed).adjacency, triu_random(n, p, seed))


def test_build_random_memory_grows_with_the_kept_edges(traced_peak):
    # The benchmark's graph keeps about 11,000 of 2,001,000 pairs. One draw
    # of every pair would take 16 MB of uniforms and a 2 MB mask; a block of
    # the stream at a time leaves the kept edges and the CSR build.
    peak, _ = traced_peak(lambda: build_random(2001, 0.0055, 0))
    assert peak < 4 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_build_random_connected(seed):
    g = build_random(30, 0.15, seed=seed)
    assert is_connected(g)


def test_random_network_searches_each_graph_once(monkeypatch):
    # build_random tests every drawn graph for connectivity and the weights
    # need the kept one connected; its kind says it was searched when it
    # was drawn, so the weights do not search it again.
    drawn, searched = [], []
    graph, search = topology._graph, topology.is_connected

    def counted_graph(*args, **kwargs):
        drawn.append(graph(*args, **kwargs))
        return drawn[-1]

    def counted_search(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(topology, "_graph", counted_graph)
    monkeypatch.setattr(topology, "is_connected", counted_search)
    g = build_random(2001, 0.0055, seed=0)
    metropolis_weights(g)
    assert drawn[-1] is g
    assert len(searched) == len(drawn)
    assert all(a is b for a, b in zip(searched, drawn))


def test_weights_reject_a_disconnected_graph():
    # Two components: {0, 1} and {2}. Only the five builders' kinds are
    # trusted to be connected; a graph named anything else is searched.
    adjacency = hand_made_graph(3, [(0, 1)]).adjacency
    for kind in ("custom", "star", "ring", "Cycle", "random_regular", ""):
        g = Graph(adjacency, kind)
        assert not python_search_connected(g) and not is_connected(g)
        for rule in (metropolis_weights, uniform_neighbor_weights):
            with pytest.raises(ValueError, match="weight matrices require a connected graph"):
                rule(g)


def test_weights_do_not_search_builder_graphs(monkeypatch):
    # A builder's graph is connected by construction; a random one was
    # searched when it was drawn. So the weights search none of them.
    graphs = [build_cycle(9), build_line(7), build_grid(3, 4), build_complete(5), build_random(40, 0.2, seed=1)]
    assert {g.kind for g in graphs} == topology._BUILDER_KINDS

    def no_search(g):
        raise AssertionError(f"searched a {g.kind} graph")

    monkeypatch.setattr(topology, "is_connected", no_search)
    for g in graphs:
        metropolis_weights(g)


def test_is_connected_matches_the_python_search_on_drawn_patterns():
    # 200 pattern graphs drawn with build_random's own pair stream, many of
    # them below the connectivity threshold, with no retry for a disconnected one.
    rng = np.random.default_rng(26)
    disconnected = 0
    for _ in range(200):
        n, p = int(rng.integers(2, 80)), float(rng.uniform(0.01, 0.2))
        rows, cols = np.triu_indices(n, 1)
        kept = topology._kept_pairs(rng, rows.size, p)
        g = topology._graph(n, rows[kept], cols[kept], kind="custom")
        expected = python_search_connected(g)
        assert is_connected(g) == expected, (n, p)
        disconnected += not expected
    assert disconnected >= 100  # 116 of the 200


@pytest.mark.parametrize(
    "n, pairs, connected",
    [
        (1, [], True),
        (2, [], False),
        (5, [], False),
        (3, [(0, 1)], False),
        (3, [(1, 2)], False),  # agent 0, where the search starts, alone
        (4, [(0, 1), (1, 2)], False),  # the last agent alone
        (6, [(0, 1), (1, 2), (3, 4), (4, 5)], False),  # two paths
        (6, [(0, 2), (2, 4), (1, 3), (3, 5)], False),  # even and odd agents apart
        (6, [(0, 2), (2, 4), (1, 3), (3, 5), (4, 5)], True),
        (5, [(0, 4), (4, 3), (3, 2), (2, 1)], True),  # a path in reverse agent order
        (5, [(0, i) for i in range(1, 5)], True),  # a star
    ],
)
def test_is_connected_matches_the_python_search_on_hand_made_graphs(n, pairs, connected):
    g = hand_made_graph(n, pairs)
    assert python_search_connected(g) == connected
    assert is_connected(g) == connected


def test_every_builder_graph_is_connected():
    graphs = (
        [build_cycle(n) for n in range(3, 41)]
        + [build_line(n) for n in range(2, 41)]
        + [build_grid(rows, cols) for rows in range(1, 8) for cols in range(1, 8) if rows * cols >= 2]
        + [build_complete(n) for n in range(2, 25)]
        + [build_random(n, p, seed) for n, p in ((2, 1.0), (10, 0.4), (40, 0.15), (200, 0.04)) for seed in range(4)]
    )
    assert {g.kind for g in graphs} == topology._BUILDER_KINDS
    for g in graphs:
        assert python_search_connected(g), (g.kind, g.n)


def test_build_random_retry_budget_error():
    # Zero edge probability can never connect more than one agent.
    with pytest.raises(ConstructionError, match="in 50 attempts"):
        build_random(5, 1e-12, seed=0)


def test_build_random_rejects_bad_probability():
    with pytest.raises(ValueError):
        build_random(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        build_random(5, 1.5, seed=0)


# ---------------------------------------------------------------- weights


@pytest.mark.parametrize("n", [5, 50, 100])
def test_uniform_cycle_beta_matches_closed_form(n):
    wm = uniform_neighbor_weights(build_cycle(n))
    assert abs(wm.beta - cycle_beta_closed_form(n)) <= 1e-9


def test_uniform_complete_is_averaging_matrix():
    wm = uniform_neighbor_weights(build_complete(6))
    np.testing.assert_allclose(wm.csr.toarray(), np.full((6, 6), 1.0 / 6.0), atol=1e-15)
    assert wm.beta == 0.0


def test_graphs_where_every_agent_neighbors_all_have_beta_exactly_zero():
    # The 3-cycle is the complete graph on 3 agents, and the 2-agent line and
    # the 1x2 grid are the complete graph on 2. W is then the averaging
    # matrix, so beta is 0 exactly under either rule, without the eigensolver:
    # importing scipy.sparse.linalg adds about 10 MB to a run.
    code = (
        "import sys\n"
        "from netdrift.topology import build_cycle, build_grid, build_line, metropolis_weights, "
        "uniform_neighbor_weights\n"
        "for g in (build_cycle(3), build_line(2), build_grid(1, 2)):\n"
        "    print(g.kind, metropolis_weights(g).beta, uniform_neighbor_weights(g).beta)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines() == ["cycle 0.0 0.0", "line 0.0 0.0", "grid 0.0 0.0", "False"]


def test_uniform_weights_reject_irregular_graph():
    with pytest.raises(WeightRuleError, match="metropolis"):
        uniform_neighbor_weights(build_line(4))


def test_metropolis_path3_hand_values():
    wm = metropolis_weights(build_line(3))
    expected = np.array(
        [
            [2.0 / 3.0, 1.0 / 3.0, 0.0],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [0.0, 1.0 / 3.0, 2.0 / 3.0],
        ]
    )
    np.testing.assert_allclose(wm.csr.toarray(), expected, atol=1e-15)
    np.testing.assert_allclose(wm.csr.toarray().sum(axis=1), 1.0, atol=1e-15)


def test_metropolis_complete3_uniform():
    wm = metropolis_weights(build_complete(3))
    np.testing.assert_allclose(wm.csr.toarray(), np.full((3, 3), 1.0 / 3.0), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    p=st.floats(min_value=0.2, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n=6, p=0.201171875, seed=6)  # no connected draw in 50 attempts
def test_metropolis_doubly_stochastic(n, p, seed):
    try:
        g = build_random(n, p, seed=seed)
    except ConstructionError as err:
        # The documented outcome when the retry budget runs out; sparse small
        # graphs (n=6, p=0.2) reach it on a few percent of seeds.
        assert "in 50 attempts" in str(err)
        return
    wm = metropolis_weights(g)
    entries = wm.csr.toarray()
    assert np.all(entries >= 0.0)
    np.testing.assert_allclose(entries, entries.T, atol=1e-15)
    assert np.max(np.abs(entries.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(entries.sum(axis=1) - 1.0)) <= 1e-12
    assert wm.beta < 1.0


def test_weight_support_matches_neighbor_sets():
    g = build_random(20, 0.3, seed=5)
    wm = metropolis_weights(g)
    for i in range(g.n):
        support = set(np.nonzero(wm.csr.toarray()[i])[0])
        assert support <= set(g.adjacency[i].indices.tolist())


@pytest.mark.parametrize(
    "graph, entries, message",
    [
        (
            build_cycle(5),
            np.full((5, 5), 0.2),
            "agent 0 has weights outside its neighbor set: [2, 3]",
        ),
        (
            # Swaps agents 1 and 3 of a 4-agent line: row 0 is inside, row 1 is the first outside.
            build_line(4),
            np.eye(4)[[0, 3, 2, 1]],
            "agent 1 has weights outside its neighbor set: [3]",
        ),
    ],
)
def test_weight_outside_neighbor_set_message(graph, entries, message):
    with pytest.raises(ValueError) as excinfo:
        _validate_doubly_stochastic(sparse.csr_matrix(entries), graph)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "entries, message",
    [
        (-np.eye(3), "weight matrix has negative entries"),
        (0.5 * np.eye(3), "weight matrix is not doubly stochastic (error 5.000e-01)"),
        # Rows and columns sum to one, but W_10 != W_01.
        (
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.25, 0.0, 0.75]]),
            "weight matrix is not symmetric",
        ),
    ],
)
def test_invalid_weight_matrix_messages(entries, message):
    with pytest.raises(ValueError) as excinfo:
        _validate_doubly_stochastic(sparse.csr_matrix(entries), build_line(3))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "graph",
    [build_line(9), build_grid(30, 30)] + [build_random(2001, 0.0055, seed=s) for s in range(3)],
    ids=["line9", "grid30x30", "random2001_s0", "random2001_s1", "random2001_s2"],
)
def test_metropolis_csr_is_bitwise_the_dense_construction(graph):
    assert_same_csr(metropolis_weights(graph).csr, dense_metropolis(graph))


@pytest.mark.parametrize("n", [5, 21, 100])
def test_uniform_csr_is_bitwise_the_dense_construction(n):
    g = build_cycle(n)
    assert_same_csr(uniform_neighbor_weights(g).csr, dense_uniform(g))


REGULAR_GRAPHS = {
    "cycle5": build_cycle(5),
    "cycle100": build_cycle(100),
    "cycle201": build_cycle(201),
    "complete7": build_complete(7),
    "grid2x2": build_grid(2, 2),
    "line2": build_line(2),
}


@pytest.mark.parametrize("name", REGULAR_GRAPHS)
def test_both_rules_give_the_uniform_matrix_on_regular_graphs(name):
    # Every Metropolis weight of a regular graph is 1/|N_i|, the diagonal included.
    g = REGULAR_GRAPHS[name]
    uniform, metropolis = uniform_neighbor_weights(g), metropolis_weights(g)
    assert_same_csr(metropolis.csr, uniform.csr)
    assert_same_csr(uniform.csr, dense_uniform(g))
    assert np.float64(metropolis.beta).tobytes() == np.float64(uniform.beta).tobytes()


@pytest.mark.parametrize("rule", [uniform_neighbor_weights, metropolis_weights])
def test_weights_leave_the_graph_pattern_untouched(rule):
    # Validation edits W's arrays in place, so W must not share them with the graph.
    g = build_complete(6)
    before = g.adjacency.copy()
    wm = rule(g)
    assert not np.shares_memory(wm.csr.indices, g.adjacency.indices)
    assert not np.shares_memory(wm.csr.indptr, g.adjacency.indptr)
    assert_same_csr(g.adjacency, before)


def test_weight_construction_deterministic():
    a = metropolis_weights(build_random(30, 0.2, seed=9))
    b = metropolis_weights(build_random(30, 0.2, seed=9))
    assert_same_csr(a.csr, b.csr)
    assert a.beta == b.beta


@pytest.mark.parametrize(
    "wm",
    [
        uniform_neighbor_weights(build_cycle(7)),
        metropolis_weights(build_line(9)),
        metropolis_weights(build_random(2001, 0.0055, seed=0)),
    ],
    ids=["cycle7_uniform", "line9_metropolis", "random2001_metropolis"],
)
@pytest.mark.parametrize("columns", [1, 2, 8, 40])
def test_mix_is_bitwise_the_sparse_product(wm, columns):
    # mix calls scipy's private compiled kernels directly; a scipy release
    # that changes them or their signatures fails here.
    stack = np.random.default_rng(columns).standard_normal((wm.n, columns))
    special = stack.copy()
    special[0, 0], special[wm.n // 2, columns // 2], special[-1, -1] = np.inf, -np.inf, np.nan
    for x in (stack, np.asfortranarray(stack), special, np.asfortranarray(special)):
        before = x.copy()
        mixed = wm.mix(x)
        assert mixed.shape == (wm.n, columns) and mixed.dtype == np.float64
        assert np.array_equal(mixed, wm.csr @ x, equal_nan=True)
        assert np.array_equal(x, before, equal_nan=True)


def test_mix_rejects_a_stack_of_another_size():
    wm = metropolis_weights(build_line(6))
    with pytest.raises(ValueError, match="cannot mix a stack of 5 rows with a 6x6 weight matrix"):
        wm.mix(np.ones((5, 2)))


# ---------------------------------------------------------------- spectral gap


def test_spectral_gap_averaging_matrix_is_zero():
    n = 7
    assert spectral_gap(sparse.csr_matrix(np.full((n, n), 1.0 / n))) == 0.0


@pytest.mark.parametrize(
    "wm",
    [
        metropolis_weights(build_complete(3)),
        metropolis_weights(build_complete(200)),
        uniform_neighbor_weights(build_random(10, 1.0, seed=3)),
    ],
    ids=["metropolis_complete3", "metropolis_complete200", "uniform_random10_full"],
)
def test_spectral_gap_is_zero_within_rounding_of_the_averaging_matrix(wm):
    # W equals 11^T/n up to rounding; an eigensolve would return noise near 1e-16.
    assert wm.beta == 0.0
    assert spectral_gap(wm.csr) == 0.0


def test_spectral_gap_identity_is_one():
    assert abs(spectral_gap(sparse.csr_matrix(np.eye(7))) - 1.0) <= 1e-9


def test_spectral_gap_cycle_closed_form_generic_path():
    # Bypass the builder shortcut: feed the matrix to the eigensolver.
    for n in (12, 100):
        wm = uniform_neighbor_weights(build_cycle(n))
        assert abs(spectral_gap(wm.csr) - cycle_beta_closed_form(n)) <= 1e-9


@pytest.mark.parametrize(
    "wm",
    [
        uniform_neighbor_weights(build_cycle(12)),
        metropolis_weights(build_grid(3, 4)),
        metropolis_weights(build_random(25, 0.25, seed=2)),
        metropolis_weights(build_line(9)),
    ],
)
def test_spectral_gap_matches_dense_eigensolve(wm):
    assert abs(wm.beta - eig_beta(wm.csr)) <= 1e-12
    assert abs(spectral_gap(wm.csr) - eig_beta(wm.csr)) <= 1e-12


@pytest.mark.parametrize(
    "graph",
    [build_line(500), build_grid(30, 30), build_random(2001, 0.0055, seed=0)],
    ids=["line500", "grid30x30", "random2001"],
)
def test_metropolis_beta_matches_dense_eigensolve_on_poorly_connected_graphs(graph):
    wm = metropolis_weights(graph)
    assert abs(wm.beta - eig_beta(wm.csr)) <= 1e-12


def operator_dispatch_beta(w) -> float:
    # Reference: the deflated operator through scipy's ``w @ v`` dispatch,
    # with the start vector spectral_gap draws.
    deflated = LinearOperator(w.shape, matvec=lambda v: w @ v - v.mean(), dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(w.shape[0])
    (lam,) = eigsh(deflated, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(abs(lam))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_random(2001, 0.0055, seed=0),
        lambda: build_random(2001, 0.0055, seed=1),
        lambda: build_random(2001, 0.0055, seed=2),
        lambda: calibrate_beta(201, target_beta=0.89, seed=0)[1],
    ],
    ids=["random2001_seed0", "random2001_seed1", "random2001_seed2", "calibrated201"],
)
def test_spectral_gap_is_bitwise_the_operator_dispatch_beta(build):
    w = metropolis_weights(build()).csr
    assert repr(spectral_gap(w)) == repr(operator_dispatch_beta(w))


def test_spectral_gap_is_independent_of_earlier_eigensolves():
    w = metropolis_weights(build_random(300, 0.03, seed=4)).csr
    before = spectral_gap(w)
    # An unrelated ARPACK call without a start vector moves ARPACK's own random state.
    eigsh(sparse.diags(np.linspace(1.0, 2.0, 50)), k=1, which="LM")
    assert spectral_gap(w) == before


def test_calibrate_beta_near_target():
    prob, g, wm = calibrate_beta(201, target_beta=0.89, seed=1)
    assert 0.0 < prob < 1.0
    assert abs(wm.beta - 0.89) <= 0.02
    assert is_connected(g)


@pytest.mark.parametrize(
    "n, prob, beta",
    [
        (201, 0.031661521839158664, 0.8980939126479659),
        (9, 0.3117033978721915, 0.8832370319866425),
    ],
    ids=["sweep_hit", "bisection_hit"],
)
def test_calibrate_beta_pinned_outcomes(n, prob, beta):
    found, g, wm = calibrate_beta(n, target_beta=0.89, seed=0)
    assert found == prob
    assert abs(wm.beta - beta) <= 1e-12
    fresh = build_random(n, prob, seed=0)
    assert_same_csr(g.adjacency, fresh.adjacency)
    assert_same_csr(wm.csr, metropolis_weights(fresh).csr)


def test_calibrate_beta_pinned_miss():
    message = "calibration missed target beta 0.3 (closest 0.3333 at p=0.9124)"
    with pytest.raises(ValueError, match=re.escape(message)):
        calibrate_beta(9, target_beta=0.3, seed=0)
