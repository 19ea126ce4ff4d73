"""Hypergraph structures, clique expansion, Laplacian, spectral gap."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from wassprop import (
    Hypergraph,
    InputError,
    NumericalError,
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
from wassprop import hypergraph
from conftest import dict_graph, edge_dict, random_histogram_label, random_hypergraph


def complete_graph(n):
    return dict_graph(n, {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)})


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


def first_fault(n, edges):
    """The hyperedge checks as one loop: the first faulty hyperedge, named by
    its first failed check, or None."""
    for e in edges:
        t = tuple(sorted(int(v) for v in e))
        if len(t) < 2:
            return f"hyperedge {t} has fewer than 2 vertices"
        if len(set(t)) != len(t):
            return f"hyperedge {t} contains duplicate vertices"
        if t[0] < 0 or t[-1] >= n:
            return f"hyperedge {t} has vertices outside [0, {n})"
    return None


def test_hypergraph_checks_name_the_first_faulty_edge():
    rng = np.random.default_rng(5)
    far = [2**63, -2**63 - 1, 10**30]  # past intp
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 7))
        edges = []
        for _ in range(int(rng.integers(0, 6))):
            if rng.random() < 0.8:  # most hyperedges are valid
                e = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist()
            else:
                e = rng.integers(-1, n + 2, size=int(rng.integers(0, 4))).tolist()
                e += [far[int(rng.integers(0, 3))]] if rng.random() < 0.2 else []
            edges.append(e)
        fault = first_fault(n, edges)
        seen.add(fault and next(k for k in ("fewer", "duplicate", "outside") if k in fault))
        if fault is None:
            h = Hypergraph(n, edges)
            assert h.edges == tuple(tuple(sorted(e)) for e in edges)
            indptr, indices = h.indptr, h.indices
            assert h.sizes.tolist() == [len(e) for e in edges]
            assert indptr.tolist() == [0, *np.cumsum([len(e) for e in edges]).tolist()]
            assert indices.tolist() == [v for e in h.edges for v in e]
            assert h.edge_of.tolist() == [i for i, e in enumerate(edges) for _ in e]
            continue
        with pytest.raises(InputError) as info:
            Hypergraph(n, edges)
        assert str(info.value) == fault
        if not any(v in far for e in edges for v in e):
            sizes = np.array([len(e) for e in edges], dtype=np.intp)
            members = np.array([v for e in edges for v in e], dtype=np.intp)
            with pytest.raises(InputError) as info:
                Hypergraph.from_members(n, sizes, members)
            assert str(info.value) == fault
    assert seen == {None, "fewer", "duplicate", "outside"}


def test_weighted_graph_invariants():
    with pytest.raises(InputError):
        dict_graph(2, {(0, 0): 1.0})
    with pytest.raises(InputError):
        dict_graph(2, {(0, 1): 0.0})
    with pytest.raises(InputError):
        dict_graph(2, {(1, 0): 1.0, (0, 1): 1.0})


def test_weighted_graph_arrays():
    # pairs keep their input order, each turned to i < j; both arrays are read-only
    g = WeightedGraph(4, [(3, 1), (0, 2), (1, 0)], [0.5, 2, 1.25])
    assert g.pairs.dtype == np.intp and g.pairs.tolist() == [[1, 3], [0, 2], [0, 1]]
    assert g.weights.dtype == np.float64 and g.weights.tolist() == [0.5, 2.0, 1.25]
    assert not g.pairs.flags.writeable and not g.weights.flags.writeable
    empty = WeightedGraph(3, [], [])
    assert empty.pairs.shape == (0, 2) and empty.weights.shape == (0,)
    # each check names its first offender, in the order the checks run
    cases = [
        ([(0, 1), (2, 2), (1, 1)], [1.0, 1.0, 1.0], "self-loop at vertex 2"),
        ([(0, 1), (4, 1), (0, 5)], [1.0, 1.0, 1.0], r"edge \(4,1\) outside \[0, 4\)"),
        ([(0, 1), (2, 3), (3, 2), (1, 0)], [1.0] * 4, r"duplicate edge \(2, 3\)"),
        ([(0, 1), (1, 2), (2, 3)], [1.0, -0.0, np.nan], r"edge \(1, 2\) has weight -0.0"),
        ([(0, 1)], [1.0, 2.0], "one weight per pair"),
        ([(0, 2**70)], [1.0], "out of range"),
    ]
    for pairs, weights, message in cases:
        with pytest.raises(InputError, match=message):
            WeightedGraph(4, pairs, weights)
    # the vertex-count check of a hypergraph, down to numpy's array size bound
    for n, message in ((0, "vertex count must be >= 1, got 0"),
                       (2**60 - 64, f"vertex count {2**60 - 64} out of range"),
                       (2**70, f"vertex count {2**70} out of range")):
        with pytest.raises(InputError, match=message):
            WeightedGraph(n, [(0, 1)], [1.0])
        with pytest.raises(InputError, match=message):
            Hypergraph(n, [(0, 1)])


def test_incidence_matrix():
    h = Hypergraph(4, [(2, 1, 0), (1, 2), (2, 3)])
    inc = h.incidence()
    assert inc.shape == (3, 4)
    assert np.array_equal(inc.toarray(), [[1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert Hypergraph(2, []).incidence().shape == (0, 2)
    # the graph builds its index arrays once, read-only, in scipy's index
    # type, and every incidence matrix wraps those very arrays
    again = h.incidence(edge_weights=np.ones(3))
    assert again is not inc and np.array_equal(again.toarray(), inc.toarray())
    for m in (inc, again, h.mean_incidence):
        assert np.shares_memory(m.indptr, h.indptr) and np.shares_memory(m.indices, h.indices)
    assert h.indptr.dtype == h.indices.dtype == np.int32
    assert not h.indptr.flags.writeable and not h.indices.flags.writeable
    assert h.sizes.tolist() == [3, 2, 2] and not h.sizes.flags.writeable
    assert h.edge_of.tolist() == [0, 0, 0, 1, 1, 2, 2] and not h.edge_of.flags.writeable


def test_from_members_keeps_its_own_sizes():
    # the graph stores an intp copy of `sizes`: the caller's array stays
    # writable, and writing to it changes nothing the graph holds
    sizes, members = np.array([3, 2], dtype=np.int32), np.array([2, 1, 0, 3, 2])
    h = Hypergraph.from_members(4, sizes, members)
    assert sizes.flags.writeable and not np.shares_memory(h.sizes, sizes)
    assert h.sizes.dtype == np.intp and not h.sizes.flags.writeable
    sizes[0] = 99
    assert h.sizes.tolist() == [3, 2] and h.edges == ((0, 1, 2), (2, 3))


def test_weighted_incidence():
    # a weighted incidence gives member v the weight of v, or of its hyperedge
    h = Hypergraph(4, [(2, 1, 0), (1, 2), (2, 3)])
    by_vertex = h.incidence(vertex_weights=np.array([0.5, 2.0, 3.0, 4.0]))
    assert by_vertex.toarray().tolist() == [[0.5, 2, 3, 0], [0, 2, 3, 0], [0, 0, 3, 4]]
    by_edge = h.incidence(edge_weights=np.array([0.25, 5.0, 6.0]))
    assert by_edge.toarray().tolist() == [[0.25, 0.25, 0.25, 0], [0, 5, 5, 0], [0, 0, 6, 6]]


def test_clique_expand_triangle():
    g = clique_expand(Hypergraph(3, [(0, 1, 2)]))
    assert set(edge_dict(g)) == {(0, 1), (0, 2), (1, 2)}
    for w in edge_dict(g).values():
        assert w == pytest.approx(1.0 / 9.0)


def test_clique_expand_pair():
    g = clique_expand(Hypergraph(2, [(0, 1)]))
    assert edge_dict(g)[(0, 1)] == pytest.approx(0.25)


def test_clique_expand_accumulates():
    g = edge_dict(clique_expand(Hypergraph(3, [(0, 1, 2), (1, 2)])))
    assert g[(1, 2)] == pytest.approx(1.0 / 9.0 + 0.25)
    assert g[(0, 1)] == pytest.approx(1.0 / 9.0)


def _lexsort_first_duplicate(pairs):
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    ranked = pairs[order]
    repeats = order[1:][np.all(ranked[1:] == ranked[:-1], axis=1)]
    return int(repeats.min()) if repeats.size else -1


@pytest.mark.parametrize("lo, width", [
    (0, 40), (-20, 40), (2**40 - 30, 40),  # one int64 key per pair
    (0, 2**40), (2**40, 2**40 + 7),  # span^2 overflows int64: lexsort
])
def test_first_duplicate_is_the_lexsort_index(monkeypatch, lo, width):
    # random pairs with repeats, distinct pairs in file order, then shuffled,
    # then with one repeat put back; each index against a lexsort's
    rng = np.random.default_rng(abs(lo) % 1000 + width % 1000)
    sets = [np.array([[lo, lo + width - 1]] * 2)]
    for m in (0, 1, 2, 5, 60, 400):
        sets.append(rng.integers(lo, lo + width, (m, 2)))
        distinct = np.unique(rng.integers(lo, lo + width, (m, 2)), axis=0)  # sorted, as a file may be
        sets += [distinct, rng.permutation(distinct)]
        if len(distinct) > 1:
            shuffled = rng.permutation(distinct)
            sets.append(np.insert(shuffled, rng.integers(1, len(shuffled)), shuffled[0], axis=0))
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
    for pairs in sets:
        expected = _lexsort_first_duplicate(pairs)
        lexsorts.clear()
        assert hypergraph.first_duplicate(pairs) == expected
        span = int(pairs.max()) - int(pairs.min()) + 1 if pairs.size else 1
        assert lexsorts == ([] if span * span < 2**63 else [1])
    assert {_lexsort_first_duplicate(p) >= 0 for p in sets} == {True, False}


def test_clique_expand_duplicate_hyperedges():
    g = clique_expand(Hypergraph(2, [(0, 1), (0, 1)]))
    assert edge_dict(g)[(0, 1)] == pytest.approx(0.5)


def test_clique_expand_additive():
    rng = np.random.default_rng(23)
    for _ in range(20):
        h1 = random_hypergraph(rng, 6)
        h2 = random_hypergraph(rng, 6)
        merged = Hypergraph(6, h1.edges + h2.edges)
        g1, g2, gm = (edge_dict(clique_expand(x)) for x in (h1, h2, merged))
        keys = set(g1) | set(g2)
        assert set(gm) == keys
        for k in keys:
            expected = g1.get(k, 0.0) + g2.get(k, 0.0)
            assert gm[k] == pytest.approx(expected, abs=1e-15)


def test_sparse_builds_match_loop_references():
    # clique_expand adds each pair's terms in hyperedge order, as this loop
    # does, so the weights are equal to the last bit; its pairs are sorted
    # (i, j) pairs, not in order of first appearance.  laplacian adds each
    # degree in the order of g.pairs.
    rng = np.random.default_rng(47)
    for _ in range(20):
        h = random_hypergraph(rng, 12, max_edges=15, max_size=6)
        weights = {}
        for e in h.edges:
            for a in range(len(e)):
                for b in range(a + 1, len(e)):
                    weights[(e[a], e[b])] = weights.get((e[a], e[b]), 0.0) + 1.0 / len(e) ** 2
        g = clique_expand(h)
        assert edge_dict(g) == weights
        assert list(edge_dict(g)) == sorted(weights)
        deg = np.zeros(g.n)
        for (i, j), w in edge_dict(g).items():
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
            for (i, j), w in edge_dict(g).items()
        )
        assert abs(hyper - pairwise) <= 1e-10


def test_laplacian_path2():
    lap = laplacian(dict_graph(2, {(0, 1): 1.0}))
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
    assert spectral_gap(laplacian(dict_graph(2, {(0, 1): 1.0}))) == pytest.approx(2.0, abs=1e-10)


def test_spectral_gap_complete():
    assert spectral_gap(laplacian(complete_graph(4))) == pytest.approx(4.0, abs=1e-8)


def test_spectral_gap_path3():
    g = dict_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
    assert spectral_gap(laplacian(g)) == pytest.approx(1.0, abs=1e-8)
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
        assert spectral_gap(laplacian(g)) == pytest.approx(dense[1], abs=1e-8)


def test_spectral_gap_iterative_path():
    # above the dense cutoff: cycle with a known closed-form gap
    n = 520
    weights = {(i, i + 1): 1.0 for i in range(n - 1)}
    weights[(0, n - 1)] = 1.0
    g = dict_graph(n, weights)
    exact = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
    assert spectral_gap(laplacian(g)) == pytest.approx(exact, rel=1e-10)


@pytest.fixture
def count_matvecs(monkeypatch):
    """The operator products of every Lanczos solve, appended one count per solve."""
    counts = []
    solve = hypergraph.smallest_eigenvalue

    def counted(matvec, v0, norm):
        counts.append(0)

        def product(x):
            counts[-1] += 1
            return matvec(x)

        return solve(product, v0, norm)

    monkeypatch.setattr(hypergraph, "smallest_eigenvalue", counted)
    return counts


# name -> (n, edges, lambda_1, most products): a complete graph's and a
# star's Krylov spaces are invariant after 2 and 3 steps, so the breakdown
# exit returns before the basis fills; the path and the cycle may use no
# more products than ARPACK's eigsh did on them (3271 and 761)
CLOSED_FORMS = {
    "complete": (600, [(i, j) for i in range(600) for j in range(i + 1, 600)], 600.0, 3),
    "star": (700, [(0, i) for i in range(1, 700)], 1.0, 3),
    "path": (600, [(i, i + 1) for i in range(599)], 2.0 - 2.0 * math.cos(math.pi / 600), 3271),
    "cycle": (520, [(i, (i + 1) % 520) for i in range(520)],
              2.0 - 2.0 * math.cos(2.0 * math.pi / 520), 761),
}


@pytest.mark.parametrize("case", list(CLOSED_FORMS))
def test_spectral_gap_iterative_closed_forms(count_matvecs, case):
    n, edges, exact, most = CLOSED_FORMS[case]
    assert n > hypergraph.DENSE_EIG_LIMIT
    g = WeightedGraph(n, edges, np.ones(len(edges)))
    assert spectral_gap(laplacian(g)) == pytest.approx(exact, rel=1e-10)
    (products,) = count_matvecs
    assert products <= most


@pytest.mark.parametrize("seed", range(4))
def test_spectral_gap_iterative_matches_dense_on_random_graphs(seed):
    from conftest import random_connected_graph

    rng = np.random.default_rng([47, seed])
    n = int(rng.integers(hypergraph.DENSE_EIG_LIMIT + 1, 801))
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
    dense = np.linalg.eigvalsh(laplacian(g).toarray())
    assert spectral_gap(laplacian(g)) == pytest.approx(dense[1], rel=1e-10)


def test_spectral_gap_no_convergence_is_numerical_error(monkeypatch):
    # no restart: one filled basis cannot resolve the gap of a long path
    monkeypatch.setattr(hypergraph, "RESTARTS_PER_VERTEX", 0)
    n = hypergraph.DENSE_EIG_LIMIT + 1  # the iterative path
    g = dict_graph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    with pytest.raises(NumericalError, match="did not converge in 0 restarts"):
        spectral_gap(laplacian(g))


@pytest.mark.parametrize("value", [0.0, -1e-3, math.nan])
def test_spectral_gap_not_positive_is_numerical_error(monkeypatch, value):
    monkeypatch.setattr(hypergraph, "smallest_eigenvalue", lambda matvec, v0, norm: value)
    g = dict_graph(600, {(i, i + 1): 1.0 for i in range(599)})
    with pytest.raises(NumericalError, match="eigensolver returned"):
        spectral_gap(laplacian(g))


def test_spectral_gap_past_the_float_range_is_numerical_error():
    # degrees of 2e308 overflow, so the deflated operator's products do too
    n = hypergraph.DENSE_EIG_LIMIT + 1
    g = dict_graph(n, {(i, i + 1): 1e308 for i in range(n - 1)})
    with pytest.raises(NumericalError, match="left the float range"):
        spectral_gap(laplacian(g))


def test_spectral_gap_iterative_rerun_identical():
    # the iterative path starts from a fixed vector, so reruns agree bitwise
    from conftest import random_connected_graph

    g = random_connected_graph(np.random.default_rng(43), 600, extra_edges=600)
    first = spectral_gap(laplacian(g))
    assert spectral_gap(laplacian(g)) == first
    dense = np.linalg.eigvalsh(laplacian(g).toarray())
    assert first == pytest.approx(dense[1], abs=1e-8)


def test_is_connected():
    assert is_connected(dict_graph(2, {(0, 1): 1.0}))
    assert not is_connected(dict_graph(2, {}))
    assert not is_connected(dict_graph(4, {(0, 1): 1.0, (2, 3): 1.0}))


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
    g = dict_graph(n, edges)
    ts = TrainingSet([(0, quantile_from_histogram([0.0], [1.0], QuantileGrid(4)))])
    assert is_connected(g) is connected
    if connected:
        assert spectral_gap(laplacian(g)) > 0
        assert TikhonovOperator(g, ts, 1.0).matrix.shape == (n, n)
    else:
        with pytest.raises(StructureError, match="disconnected"):
            spectral_gap(laplacian(g))
        with pytest.raises(StructureError, match="connected graph"):
            TikhonovOperator(g, ts, 1.0)


def _reference_components(n, heads, tails):
    """Smallest node of each node's component, by scipy's connected_components."""
    links = sp.coo_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))
    _, labels = connected_components(links, directed=False)
    first = np.unique(labels, return_index=True)[1]  # the smallest node of each label
    return first[labels]


def _check_components(n, heads, tails):
    heads, tails = np.asarray(heads, dtype=np.intp), np.asarray(tails, dtype=np.intp)
    got = hypergraph.components(n, heads, tails)
    assert np.array_equal(got, _reference_components(n, heads, tails))
    assert hypergraph.single_component(n, heads, tails) is bool(np.all(got == 0))


def test_components_match_scipy_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        m = int(rng.integers(0, 2 * n))  # from no links to well past the giant component
        _check_components(n, rng.integers(0, n, m), rng.integers(0, n, m))


@pytest.mark.parametrize("order", ["in order", "permuted"])
def test_components_of_long_path(order):
    n = 10_000
    nodes = np.arange(n) if order == "in order" else np.random.default_rng(3).permutation(n)
    _check_components(n, nodes[:-1], nodes[1:])
    _check_components(n, nodes[1:], nodes[:-1])  # each link the other way round
    assert hypergraph.single_component(n, nodes[:-1], nodes[1:])
    _check_components(n, np.delete(nodes[:-1], n // 2), np.delete(nodes[1:], n // 2))  # cut once


def test_components_of_star_with_largest_centre():
    n = 50
    leaves = np.arange(n - 1)
    _check_components(n, np.full(n - 1, n - 1), leaves)
    _check_components(n, leaves, np.full(n - 1, n - 1))
    _check_components(n + 3, np.full(n - 1, n + 2), leaves)  # n-1 .. n+1 left isolated


def test_components_of_isolated_nodes_and_no_links():
    empty = np.array([], dtype=np.intp)
    assert hypergraph.components(5, empty, empty).tolist() == [0, 1, 2, 3, 4]
    assert hypergraph.single_component(1, empty, empty)
    assert not hypergraph.single_component(2, empty, empty)
    _check_components(6, [4, 4], [1, 4])  # a self-link joins nothing
    _check_components(6, [5, 2], [3, 0])


def test_components_of_vertex_hyperedge_graph():
    # the reachability graph of propagation: vertices 0..n-1, then one node
    # per hyperedge, and one link per incidence
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        h = random_hypergraph(rng, n, max_edges=8, max_size=5)
        inc = h.incidence()
        edge_of = np.repeat(np.arange(len(h.edges)), np.diff(inc.indptr))
        _check_components(n + len(h.edges), inc.indices, n + edge_of)


def test_shared_propagation_parts():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        h = random_hypergraph(rng, n, max_edges=8, max_size=5)
        sizes = np.diff(h.incidence().indptr)
        assert np.array_equal(h.mean_incidence.toarray(), (h.incidence().toarray() / sizes[:, None]).T)
        assert np.array_equal(h.mean_degrees, h.mean_incidence @ np.ones(len(h.edges)))
        edge_of = np.repeat(np.arange(len(h.edges)), sizes)
        labels = _reference_components(n + len(h.edges), h.incidence().indices, n + edge_of)
        assert np.array_equal(h.bipartite_components, labels[:n])
        # kept on the graph and read-only, so runs on it can share them
        assert h.mean_incidence is h.mean_incidence
        for a in (h.mean_incidence.data, h.mean_degrees, h.bipartite_components):
            assert not a.flags.writeable


def test_laplacian_of_edgeless_graph_is_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lap = laplacian(dict_graph(3, {}))
    assert lap.dtype == np.float64
    assert not lap.toarray().any()


def test_spectral_gap_disconnected_rejected():
    with pytest.raises(StructureError):
        spectral_gap(laplacian(dict_graph(2, {})))


def test_incident_edges():
    # column v of the incidence lists the hyperedges holding vertex v
    h = Hypergraph(4, [(0, 1, 2), (1, 2), (2, 3)])
    inc = [[k for k, e in enumerate(h.edges) if v in e] for v in range(h.n)]
    assert inc == [[0], [0, 1], [0, 1, 2], [2]]
    csc = h.incidence().tocsc()
    assert [csc.indices[a:b].tolist() for a, b in zip(csc.indptr[:-1], csc.indptr[1:])] == inc
