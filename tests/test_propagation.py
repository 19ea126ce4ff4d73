"""Alternating barycenter propagation on hypergraphs."""

import numpy as np
import pytest

from wassprop import (
    DiagGaussianLabel,
    GaussianBackend,
    Hypergraph,
    InputError,
    LabeledSubset,
    PropagationConfig,
    QuantileBackend,
    QuantileGrid,
    TrainingSet,
    barycenter_gaussian,
    barycenter_quantile,
    classify,
    clique_expand,
    gaussian_quantile_label,
    evaluate_loss,
    initial_state,
    propagate,
    quantile_from_histogram,
    solve_field,
    step,
    w2_squared_quantile,
)
from wassprop import propagation
from wassprop.propagation import _Context
from conftest import dict_graph, random_histogram_label, random_hypergraph


def delta(grid, c):
    return quantile_from_histogram([c], [1.0], grid)


def test_config_validation():
    PropagationConfig(alpha=1.0, gamma=0.5)
    with pytest.raises(InputError):
        PropagationConfig(alpha=0.5, gamma=1.0)
    with pytest.raises(InputError):
        PropagationConfig(alpha=2.0, gamma=0.0)
    with pytest.raises(InputError):
        PropagationConfig(alpha=2.0, gamma=1.0, max_iters=0)
    with pytest.raises(InputError):
        PropagationConfig(alpha=2.0, gamma=1.0, rel_tol=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: dict_graph(2, {(0, 1): float("nan")}),
        lambda: dict_graph(2, {(0, 1): float("inf")}),
        lambda: PropagationConfig(alpha=float("nan"), gamma=1.0),
        lambda: PropagationConfig(alpha=float("inf"), gamma=1.0),
        lambda: PropagationConfig(alpha=2.0, gamma=float("nan")),
        lambda: PropagationConfig(alpha=2.0, gamma=float("inf")),
        lambda: PropagationConfig(alpha=2.0, gamma=1.0, rel_tol=float("nan")),
        lambda: PropagationConfig(alpha=2.0, gamma=1.0, rel_tol=float("inf")),
        lambda: quantile_from_histogram([0.0, 1.0], [float("nan"), 1.0], QuantileGrid(4)),
        lambda: quantile_from_histogram([0.0, 1.0], [float("inf"), 1.0], QuantileGrid(4)),
        lambda: DiagGaussianLabel([float("nan")], [1.0]),
        lambda: DiagGaussianLabel([0.0], [float("inf")]),
        lambda: DiagGaussianLabel([0.0], [float("nan")]),
    ],
    ids=[
        "graph-weight-nan", "graph-weight-inf", "alpha-nan", "alpha-inf", "gamma-nan",
        "gamma-inf", "rel-tol-nan", "rel-tol-inf", "hist-mass-nan", "hist-mass-inf",
        "gauss-mean-nan", "gauss-std-inf", "gauss-std-nan",
    ],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(InputError):
        build()


def test_random_init_uses_per_vertex_streams(grid4):
    rngs = [np.random.default_rng([7, v]) for v in range(3)]
    block = QuantileBackend(grid4).random_init(rngs, [])
    for v in range(3):
        shift = np.random.default_rng([7, v]).uniform(-1.0, 1.0)
        assert np.array_equal(block[v], gaussian_quantile_label(shift, 1.0, grid4).values)
    anchors = [DiagGaussianLabel([1.0, 0.0], [0.2, 0.4]), DiagGaussianLabel([0.0, 1.0], [0.4, 0.2])]
    block = GaussianBackend(2).random_init([np.random.default_rng([7, 1])], anchors)
    means = np.random.default_rng([7, 1]).uniform(0.0, 1.0, size=2)
    assert np.array_equal(block[:, :2], [means])
    assert np.allclose(block[:, 2:], 0.3, atol=1e-15)  # mean of the anchor stds


def test_labeled_subset_validation(grid4):
    with pytest.raises(InputError):
        LabeledSubset({})
    known = LabeledSubset({3: delta(grid4, 0.0), 1: delta(grid4, 1.0)})
    assert known.vertices == [1, 3]


def test_init_weights_examples(grid4):
    h = Hypergraph(3, [(0, 1, 2)])
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=20.0, gamma=10.0)
    ctx = _Context(h, known, cfg, QuantileBackend(grid4))
    assert np.allclose(ctx.edge_incidence.toarray(), [[20.0, 1.0, 1.0]])
    vertex_w = ctx.vertex_incidence.toarray()
    # known vertex 0 in one size-3 hyperedge, gamma added to its total
    assert np.allclose(vertex_w[0], [1.0 / 3.0])
    assert ctx.vertex_totals[0] == pytest.approx(1.0 / 3.0 + 10.0)
    # unknown vertex: just the reciprocal size
    assert np.allclose(vertex_w[1], [1.0 / 3.0])
    assert ctx.vertex_totals[1] == pytest.approx(1.0 / 3.0)


def test_init_weights_two_hyperedges(grid4):
    h = Hypergraph(4, [(0, 1, 2), (0, 3)])
    known = LabeledSubset({3: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=5.0, gamma=2.0)
    ctx = _Context(h, known, cfg, QuantileBackend(grid4))
    assert np.allclose(ctx.vertex_incidence.toarray()[0], [1.0 / 3.0, 1.0 / 2.0])
    # known vertex 3 carries alpha inside hyperedge 1 only
    assert np.allclose(ctx.edge_incidence.toarray(), [[1, 1, 1, 0], [1, 0, 0, 5.0]])
    assert np.allclose(ctx.edge_totals, [3.0, 6.0])


def test_consensus_fixed_point(grid4):
    h = Hypergraph(2, [(0, 1)])
    lab = delta(grid4, 0.7)
    known = LabeledSubset({0: lab, 1: lab})
    cfg = PropagationConfig(alpha=3.0, gamma=2.0)
    backend = QuantileBackend(grid4)
    state = initial_state(h, known, cfg, backend, initial_labels=[lab, lab])
    state = step(state)
    assert state.loss_history[-1] == pytest.approx(0.0, abs=1e-15)
    for v in range(2):
        assert np.allclose(state.vertex_label(v).values, lab.values, atol=1e-15)


def test_consensus_converges_fast(grid4):
    h = Hypergraph(3, [(0, 1), (1, 2)])
    lab = delta(grid4, -2.0)
    known = LabeledSubset({v: lab for v in range(3)})
    cfg = PropagationConfig(alpha=4.0, gamma=1.0, seed=5)
    final = propagate(h, known, cfg, QuantileBackend(grid4), initial_labels=[lab] * 3)
    assert final.iterations <= 2
    for v in range(3):
        assert np.allclose(final.vertex_label(v).values, lab.values, atol=1e-12)


def test_hand_example_one_step(grid4):
    # one hyperedge {0,1}, anchors delta_0 and delta_1, alpha = gamma = 1:
    # phase (i) gives the midpoint delta_{1/2}; the vertex-0 update averages
    # {(1/2, delta_{1/2}), (1, delta_0)} to delta_{1/6}
    h = Hypergraph(2, [(0, 1)])
    d0, d1 = delta(grid4, 0.0), delta(grid4, 1.0)
    known = LabeledSubset({0: d0, 1: d1})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    state = initial_state(h, known, cfg, QuantileBackend(grid4), initial_labels=[d0, d1])
    state = step(state)
    assert np.allclose(state.hyperedge_label(0).values, 0.5, atol=1e-15)
    assert np.allclose(state.vertex_label(0).values, 1.0 / 6.0, atol=1e-15)
    assert np.allclose(state.vertex_label(1).values, 5.0 / 6.0, atol=1e-15)


def test_loss_traces_recorded(grid32):
    rng = np.random.default_rng(11)
    for run in range(20):
        n = int(rng.integers(3, 9))
        h = random_hypergraph(rng, n)
        known = LabeledSubset(
            {v: random_histogram_label(rng, grid32) for v in range(0, n, 2)}
        )
        cfg = PropagationConfig(alpha=2.0, gamma=1.0, max_iters=40, seed=run)
        with pytest.warns(UserWarning) if _has_unreached(h, known) else _nullcontext():
            final = propagate(h, known, cfg, QuantileBackend(grid32))
        hist = np.array(final.loss_history)
        assert len(hist) == final.iterations >= 1
        assert np.all(np.isfinite(hist)) and np.all(hist >= 0.0)


def test_loss_matches_per_incidence_sum(grid32):
    rng = np.random.default_rng(17)
    h = Hypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 5), (0, 5)])
    known = LabeledSubset({v: random_histogram_label(rng, grid32) for v in (0, 3)})
    cfg = PropagationConfig(alpha=3.0, gamma=2.0, seed=4)
    state = step(initial_state(h, known, cfg, QuantileBackend(grid32)))
    expected = sum(
        w2_squared_quantile(state.vertex_label(v), state.hyperedge_label(e)) / len(edge)
        for e, edge in enumerate(h.edges)
        for v in edge
    ) + cfg.gamma * sum(
        w2_squared_quantile(state.vertex_label(v), lab) for v, lab in known.targets.items()
    )
    assert state.loss_history[-1] == pytest.approx(expected, rel=1e-12)


def test_loss_independent_of_gather_block(grid32, monkeypatch):
    rng = np.random.default_rng(19)
    h = random_hypergraph(rng, 8, max_edges=6)
    known = LabeledSubset({0: random_histogram_label(rng, grid32)})
    cfg = PropagationConfig(alpha=2.0, gamma=1.0, seed=3)
    state = initial_state(h, known, cfg, QuantileBackend(grid32))
    whole = evaluate_loss(state)
    monkeypatch.setattr(propagation, "LOSS_BLOCK_VALUES", 1)  # one incidence per block
    assert evaluate_loss(state) == whole


def _has_unreached(h, known):
    incident = [[] for _ in range(h.n)]
    for e, edge in enumerate(h.edges):
        for v in edge:
            incident[v].append(e)
    reached = np.zeros(h.n, dtype=bool)
    stack = list(known.vertices)
    reached[stack] = True
    while stack:
        v = stack.pop()
        for e in incident[v]:
            for u in h.edges[e]:
                if not reached[u]:
                    reached[u] = True
                    stack.append(u)
    return not reached.all()


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_quantile_backend_matches_closed_form_barycenter(grid32):
    # one step on a single hyperedge reproduces the exact weighted quantile
    # average of the member labels
    rng = np.random.default_rng(13)
    labels = [random_histogram_label(rng, grid32) for _ in range(3)]
    h = Hypergraph(3, [(0, 1, 2)])
    known = LabeledSubset({0: labels[0]})
    cfg = PropagationConfig(alpha=7.0, gamma=2.0)
    state = initial_state(h, known, cfg, QuantileBackend(grid32), initial_labels=labels)
    state = step(state)
    expected = barycenter_quantile([7.0, 1.0, 1.0], labels)
    assert np.max(np.abs(np.asarray(state.hyperedge_label(0).values) - expected.values)) <= 1e-12
    # vertex 1 update: incident weight 1/3 only (unknown) -> copies the edge label
    assert np.allclose(state.vertex_label(1).values, expected.values, atol=1e-12)


def test_gaussian_backend_matches_closed_form_barycenter():
    rng = np.random.default_rng(17)
    labels = [
        DiagGaussianLabel(rng.normal(size=2), rng.uniform(0.1, 1.0, size=2))
        for _ in range(3)
    ]
    h = Hypergraph(3, [(0, 1, 2)])
    known = LabeledSubset({2: labels[2]})
    cfg = PropagationConfig(alpha=4.0, gamma=1.0)
    state = initial_state(h, known, cfg, GaussianBackend(2), initial_labels=labels)
    state = step(state)
    expected = barycenter_gaussian([1.0, 1.0, 4.0], labels)
    got = state.hyperedge_label(0)
    assert np.allclose(got.mean, expected.mean, atol=1e-12)
    assert np.allclose(got.std, expected.std, atol=1e-12)


def test_permutation_equivariance(grid32):
    rng = np.random.default_rng(19)
    n = 7
    h = random_hypergraph(rng, n, max_edges=8)
    init = [random_histogram_label(rng, grid32) for _ in range(n)]
    targets = {1: random_histogram_label(rng, grid32), 4: random_histogram_label(rng, grid32)}
    cfg = PropagationConfig(alpha=3.0, gamma=2.0, max_iters=15)

    perm = rng.permutation(n)
    h_p = Hypergraph(n, [tuple(perm[v] for v in e) for e in h.edges])
    init_p = [None] * n
    for v in range(n):
        init_p[perm[v]] = init[v]
    targets_p = {int(perm[v]): lab for v, lab in targets.items()}

    backend = QuantileBackend(grid32)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = propagate(h, LabeledSubset(targets), cfg, backend, initial_labels=init)
        b = propagate(h_p, LabeledSubset(targets_p), cfg, backend, initial_labels=init_p)
    assert a.iterations == b.iterations
    for v in range(n):
        assert np.allclose(
            b.vertex_values[perm[v]], a.vertex_values[v], atol=1e-12
        )


def test_anchor_dominance(grid32):
    rng = np.random.default_rng(23)
    h = random_hypergraph(rng, 6, max_edges=7)
    targets = {v: random_histogram_label(rng, grid32) for v in (0, 2, 5)}
    cfg = PropagationConfig(alpha=2.0, gamma=1e6, max_iters=300, rel_tol=1e-12, seed=3)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        final = propagate(h, LabeledSubset(targets), cfg, QuantileBackend(grid32))
    for v, anchor in targets.items():
        assert w2_squared_quantile(final.vertex_label(v), anchor) <= 1e-4


def test_objective_link_tikhonov_dominates(grid32):
    # on graphs (all size-2 hyperedges) with alpha = 1, the closed-form solve
    # with gamma_solver = 1/(m * gamma_prop) minimizes the propagation loss
    rng = np.random.default_rng(29)
    for trial in range(5):
        n = int(rng.integers(3, 7))
        edges = {(i, i + 1) for i in range(n - 1)}
        for _ in range(2):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            edges.add((int(i), int(j)))
        h = Hypergraph(n, sorted(edges))
        k = int(rng.integers(1, n))
        targets = {int(v): random_histogram_label(rng, grid32) for v in rng.choice(n, size=k, replace=False)}
        gamma_prop = float(rng.uniform(0.5, 2.0))
        cfg = PropagationConfig(alpha=1.0, gamma=gamma_prop, max_iters=400, rel_tol=1e-10, seed=trial)
        backend = QuantileBackend(grid32)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final = propagate(h, LabeledSubset(targets), cfg, backend)

        ts = TrainingSet(sorted(targets.items()))
        g = clique_expand(h)
        field = solve_field(g, ts, gamma=1.0 / (ts.m * gamma_prop))
        loss_prop = evaluate_loss(final)
        loss_tik = evaluate_loss(final, vertex_values=field.values)
        assert loss_tik <= loss_prop + 1e-6


def test_deterministic_replay(grid32):
    rng = np.random.default_rng(31)
    h = random_hypergraph(rng, 6, max_edges=6)
    targets = {0: random_histogram_label(rng, grid32), 3: random_histogram_label(rng, grid32)}
    cfg = PropagationConfig(alpha=5.0, gamma=2.0, seed=42)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = propagate(h, LabeledSubset(targets), cfg, QuantileBackend(grid32))
        b = propagate(h, LabeledSubset(targets), cfg, QuantileBackend(grid32))
    assert np.array_equal(a.vertex_values, b.vertex_values)
    assert a.loss_history == b.loss_history


def test_classify_argmax():
    h = Hypergraph(2, [(0, 1)])
    backend = GaussianBackend(3)
    # argmax coordinate, 0-based: (0.2, 0.7, 0.1) -> 1, (0.1, 0.05, 0.9) -> 2
    lab0 = DiagGaussianLabel([0.2, 0.7, 0.1], [0.1, 0.1, 0.1])
    lab1 = DiagGaussianLabel([0.1, 0.05, 0.9], [0.1, 0.1, 0.1])
    known = LabeledSubset({0: lab0})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    state = initial_state(h, known, cfg, backend, initial_labels=[lab0, lab1])
    assert list(classify(state)) == [1, 2]


def test_classify_tie_breaks_low():
    h = Hypergraph(2, [(0, 1)])
    backend = GaussianBackend(2)
    tie = DiagGaussianLabel([0.5, 0.5], [0.1, 0.1])
    known = LabeledSubset({0: tie})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    state = initial_state(h, known, cfg, backend, initial_labels=[tie, tie])
    assert list(classify(state)) == [0, 0]


def test_classify_sign_rule():
    h = Hypergraph(2, [(0, 1)])
    backend = GaussianBackend(1)
    neg = DiagGaussianLabel([-0.3], [0.1])
    pos = DiagGaussianLabel([0.0], [0.1])
    known = LabeledSubset({0: neg})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    state = initial_state(h, known, cfg, backend, initial_labels=[neg, pos])
    assert list(classify(state)) == [-1, 1]


def test_classify_sign_rule_quantile(grid4):
    h = Hypergraph(2, [(0, 1)])
    backend = QuantileBackend(grid4)
    lo, hi = delta(grid4, -1.5), delta(grid4, 2.0)
    known = LabeledSubset({0: lo})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    state = initial_state(h, known, cfg, backend, initial_labels=[lo, hi])
    assert list(classify(state)) == [-1, 1]


def test_isolated_vertex_warning(grid4):
    h = Hypergraph(3, [(0, 1)])  # vertex 2 in no hyperedge
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0, max_iters=3)
    with pytest.warns(UserWarning, match="no hyperedge"):
        propagate(h, known, cfg, QuantileBackend(grid4))


def test_unreachable_component_warning(grid4):
    h = Hypergraph(4, [(0, 1), (2, 3)])
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0, max_iters=3)
    with pytest.warns(UserWarning, match="not reachable"):
        propagate(h, known, cfg, QuantileBackend(grid4))


def test_reachability_scan_linear_in_incidences(grid4, monkeypatch):
    # hyperedges of thousands of vertices: the scan must not build the
    # vertex-by-vertex co-membership matrix, which would hold ~10^7 entries
    edges = [range(0, 3000), range(2000, 5000), range(5000, 5500)]
    h = Hypergraph(6000, edges)
    seen = []

    scan = propagation.components

    def recording(n, heads, tails):
        seen.append((n, heads.size, tails.size))
        return scan(n, heads, tails)

    monkeypatch.setattr(propagation, "components", recording)
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0, max_iters=1)
    with pytest.warns(UserWarning) as record:
        propagate(h, known, cfg, QuantileBackend(grid4))
    assert seen == [(6003, 6500, 6500)]  # 6000 vertices and 3 hyperedges, one link per incidence
    messages = [str(w.message) for w in record]
    assert any(m.startswith("500 vertices belong to no hyperedge") and "[5500," in m for m in messages)
    assert any(m.startswith("500 vertices are not reachable") and "[5000," in m for m in messages)


def test_known_vertex_out_of_range(grid4):
    h = Hypergraph(2, [(0, 1)])
    known = LabeledSubset({5: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    with pytest.raises(InputError):
        initial_state(h, known, cfg, QuantileBackend(grid4))


def test_propagate_known_vertex_out_of_range(grid4):
    h = Hypergraph(2, [(0, 1)])
    known = LabeledSubset({5: delta(grid4, 0.0)})
    with pytest.raises(InputError):
        propagate(h, known, PropagationConfig(alpha=1.0, gamma=1.0), QuantileBackend(grid4))


def test_initial_labels_length_checked(grid4):
    h = Hypergraph(3, [(0, 1, 2)])
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    with pytest.raises(InputError):
        initial_state(h, known, cfg, QuantileBackend(grid4), initial_labels=[delta(grid4, 0.0)])


def test_gaussian_backend_dim_mismatch():
    backend = GaussianBackend(2)
    with pytest.raises(InputError):
        backend.encode(DiagGaussianLabel([0.0], [1.0]))
    with pytest.raises(InputError):
        GaussianBackend(0)
