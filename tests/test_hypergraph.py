"""Hypergraph structures, clique expansion, Laplacian, spectral gap."""

import math
import warnings

import numpy as np
import pytest

from wassprop import (
    Hypergraph,
    InputError,
    QuantileGrid,
    StructureError,
    TikhonovOperator,
    TrainingSet,
    WeightedGraph,
    barycenter_energy,
    clique_expand,
    is_connected,
    laplacian,
    quantile_from_histogram,
    spectral_gap,
    w2_squared_quantile,
)
from conftest import random_histogram_label, random_hypergraph


def complete_graph(n):
    return WeightedGraph(n, {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)})


def test_hypergraph_invariants():
    h = Hypergraph(3, [(2, 0, 1)])
    assert h.edges == ((0, 1, 2),)
    with pytest.raises(InputError):
        Hypergraph(3, [(0,)])
    with pytest.raises(InputError):
        Hypergraph(3, [(0, 0, 1)])
    with pytest.raises(InputError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(InputError):
        Hypergraph(0, [])


def test_weighted_graph_invariants():
    with pytest.raises(InputError):
        WeightedGraph(2, {(0, 0): 1.0})
    with pytest.raises(InputError):
        WeightedGraph(2, {(0, 1): 0.0})
    with pytest.raises(InputError):
        WeightedGraph(2, {(1, 0): 1.0, (0, 1): 1.0})


def test_incidence_matrix():
    h = Hypergraph(4, [(2, 1, 0), (1, 2), (2, 3)])
    inc = h.incidence()
    assert inc.shape == (3, 4)
    assert np.array_equal(inc.toarray(), [[1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert Hypergraph(2, []).incidence().shape == (0, 2)


def test_clique_expand_triangle():
    g = clique_expand(Hypergraph(3, [(0, 1, 2)]))
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}
    for w in g.edges.values():
        assert w == pytest.approx(1.0 / 9.0)


def test_clique_expand_pair():
    g = clique_expand(Hypergraph(2, [(0, 1)]))
    assert g.edges[(0, 1)] == pytest.approx(0.25)


def test_clique_expand_accumulates():
    g = clique_expand(Hypergraph(3, [(0, 1, 2), (1, 2)]))
    assert g.edges[(1, 2)] == pytest.approx(1.0 / 9.0 + 0.25)
    assert g.edges[(0, 1)] == pytest.approx(1.0 / 9.0)


def test_clique_expand_duplicate_hyperedges():
    g = clique_expand(Hypergraph(2, [(0, 1), (0, 1)]))
    assert g.edges[(0, 1)] == pytest.approx(0.5)


def test_clique_expand_additive():
    rng = np.random.default_rng(23)
    for _ in range(20):
        h1 = random_hypergraph(rng, 6)
        h2 = random_hypergraph(rng, 6)
        merged = Hypergraph(6, h1.edges + h2.edges)
        g1, g2, gm = clique_expand(h1), clique_expand(h2), clique_expand(merged)
        keys = set(g1.edges) | set(g2.edges)
        assert set(gm.edges) == keys
        for k in keys:
            expected = g1.edges.get(k, 0.0) + g2.edges.get(k, 0.0)
            assert gm.edges[k] == pytest.approx(expected, abs=1e-15)


def test_sparse_builds_match_loop_references():
    # clique_expand adds each pair's terms in hyperedge order, as this loop
    # does, so the weights are equal to the last bit; its keys are sorted
    # (i, j) pairs, not in order of first appearance.  laplacian adds each
    # degree in the order of g.edges.
    rng = np.random.default_rng(47)
    for _ in range(20):
        h = random_hypergraph(rng, 12, max_edges=15, max_size=6)
        weights = {}
        for e in h.edges:
            for a in range(len(e)):
                for b in range(a + 1, len(e)):
                    weights[(e[a], e[b])] = weights.get((e[a], e[b]), 0.0) + 1.0 / len(e) ** 2
        g = clique_expand(h)
        assert g.edges == weights
        assert list(g.edges) == sorted(weights)
        deg = np.zeros(g.n)
        for (i, j), w in g.edges.items():
            deg[i] += w
            deg[j] += w
        assert np.array_equal(laplacian(g).diagonal(), deg)


def test_objective_equivalence_random_instances():
    # hypergraph regularizer = clique-expansion pairwise regularizer
    rng = np.random.default_rng(29)
    grid = QuantileGrid(32)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        h = random_hypergraph(rng, n)
        labels = [random_histogram_label(rng, grid) for _ in range(n)]
        hyper = sum(barycenter_energy([labels[v] for v in e]) for e in h.edges)
        g = clique_expand(h)
        pairwise = sum(
            w * w2_squared_quantile(labels[i], labels[j])
            for (i, j), w in g.edges.items()
        )
        assert abs(hyper - pairwise) <= 1e-10


def test_laplacian_path2():
    lap = laplacian(WeightedGraph(2, {(0, 1): 1.0}))
    assert np.allclose(lap.toarray(), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_annihilates_constants():
    rng = np.random.default_rng(31)
    from conftest import random_connected_graph

    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 12)))
        lap = laplacian(g)
        assert np.allclose(lap @ np.ones(g.n), 0.0, atol=1e-12)


def test_laplacian_triangle_degrees():
    g = clique_expand(Hypergraph(3, [(0, 1, 2)]))
    lap = laplacian(g)
    assert np.allclose(lap.diagonal(), 2.0 / 9.0)


def test_laplacian_positive_semidefinite():
    rng = np.random.default_rng(37)
    from conftest import random_connected_graph

    g = random_connected_graph(rng, 10)
    lap = laplacian(g)
    for _ in range(100):
        x = rng.normal(size=10)
        assert x @ (lap @ x) >= -1e-12


def test_spectral_gap_edge():
    assert spectral_gap(WeightedGraph(2, {(0, 1): 1.0})) == pytest.approx(2.0, abs=1e-10)


def test_spectral_gap_complete():
    assert spectral_gap(complete_graph(4)) == pytest.approx(4.0, abs=1e-8)


def test_spectral_gap_path3():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    assert spectral_gap(g) == pytest.approx(1.0, abs=1e-8)
    # dense oracle: full spectrum is {0, 1, 3}
    evals = np.linalg.eigvalsh(laplacian(g).toarray())
    assert np.allclose(evals, [0.0, 1.0, 3.0], atol=1e-12)


def test_spectral_gap_matches_dense():
    rng = np.random.default_rng(41)
    from conftest import random_connected_graph

    for _ in range(10):
        n = int(rng.integers(3, 51))
        g = random_connected_graph(rng, n, extra_edges=5)
        dense = np.linalg.eigvalsh(laplacian(g).toarray())
        assert spectral_gap(g) == pytest.approx(dense[1], abs=1e-8)


def test_spectral_gap_iterative_path():
    # above the dense cutoff: cycle with a known closed-form gap
    n = 520
    weights = {(i, i + 1): 1.0 for i in range(n - 1)}
    weights[(0, n - 1)] = 1.0
    g = WeightedGraph(n, weights)
    exact = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
    assert spectral_gap(g) == pytest.approx(exact, rel=1e-8)


def test_spectral_gap_iterative_rerun_identical():
    # the iterative path starts from a fixed vector, so reruns agree bitwise
    from conftest import random_connected_graph

    g = random_connected_graph(np.random.default_rng(43), 600, extra_edges=600)
    first = spectral_gap(g)
    assert spectral_gap(g) == first
    dense = np.linalg.eigvalsh(laplacian(g).toarray())
    assert first == pytest.approx(dense[1], abs=1e-8)


def test_is_connected():
    assert is_connected(WeightedGraph(2, {(0, 1): 1.0}))
    assert not is_connected(WeightedGraph(2, {}))
    assert not is_connected(WeightedGraph(4, {(0, 1): 1.0, (2, 3): 1.0}))


@pytest.mark.parametrize(
    "n, edges, connected",
    [
        (4, {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 2.0}, True),
        (600, {(i, i + 1): 1.0 for i in range(599)}, True),  # iterative spectral gap
        (4, {(0, 1): 1.0, (2, 3): 1.0}, False),  # two components
        (3, {(0, 1): 1.0}, False),  # isolated vertex 2
        (3, {}, False),
    ],
)
def test_connectivity_agrees(n, edges, connected):
    g = WeightedGraph(n, edges)
    ts = TrainingSet([(0, quantile_from_histogram([0.0], [1.0], QuantileGrid(4)))])
    assert is_connected(g) is connected
    if connected:
        assert spectral_gap(g) > 0
        assert TikhonovOperator(g, ts, 1.0).matrix.shape == (n, n)
    else:
        with pytest.raises(StructureError, match="disconnected"):
            spectral_gap(g)
        with pytest.raises(StructureError, match="connected graph"):
            TikhonovOperator(g, ts, 1.0)


def test_laplacian_of_edgeless_graph_is_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lap = laplacian(WeightedGraph(3, {}))
    assert lap.dtype == np.float64
    assert not lap.toarray().any()


def test_spectral_gap_disconnected_rejected():
    with pytest.raises(StructureError):
        spectral_gap(WeightedGraph(2, {}))


def test_incident_edges():
    h = Hypergraph(4, [(0, 1, 2), (1, 2), (2, 3)])
    inc = h.incident_edges()
    assert inc[0] == [0]
    assert inc[1] == [0, 1]
    assert inc[2] == [0, 1, 2]
    assert inc[3] == [2]
