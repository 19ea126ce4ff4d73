"""Alternating barycenter propagation on hypergraphs."""

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wassprop import (
    DiagGaussianLabel,
    DimensionError,
    GaussianBackend,
    Hypergraph,
    InputError,
    LabeledSubset,
    NumericalError,
    PropagationConfig,
    QuantileBackend,
    QuantileGrid,
    QuantileLabel,
    TikhonovOperator,
    TrainingSet,
    barycenter_gaussian,
    barycenter_quantile,
    classify,
    clique_expand,
    evaluate_loss,
    initial_state,
    propagate,
    quantile_from_histogram,
    star_graph,
    step,
    w2_squared_gaussian,
    w2_squared_quantile,
)
from wassprop import hypergraph, propagation, tikhonov
from wassprop.labels import standard_normal_quantiles
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


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 3, 10**30])
def test_random_init_rows_come_from_one_generator(grid4, seed):
    anchors = [DiagGaussianLabel([1.0, 0.0], [0.2, 0.4]), DiagGaussianLabel([0.0, 1.0], [0.4, 0.2])]
    quantile, gauss = QuantileBackend(grid4), GaussianBackend(2)
    n = 6
    # the quantile shift (one draw in [-1, 1)) and the Gaussian means (b draws in [0, 1))
    shifts = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 1))
    means = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2))
    no_anchors = np.empty((0, grid4.size))  # the quantile start reads no anchor
    rows, coefficients = quantile.start(seed, n, no_anchors)
    assert np.array_equal(rows, np.vstack([standard_normal_quantiles(grid4), np.ones(grid4.size)]))
    assert np.array_equal(coefficients, np.hstack([np.ones((n, 1)), shifts]))
    encoded = np.stack([gauss.encode(a) for a in anchors])
    rows, block = gauss.start(seed, n, encoded)
    assert rows is None  # the block is the encoded start
    assert np.array_equal(block[:, :2], means)
    assert np.allclose(block[:, 2:], 0.3, atol=1e-15)  # mean of the anchor stds
    for backend, labels, drawn in [(quantile, no_anchors, 1), (gauss, encoded, 0)]:
        # row v does not depend on n, and the seed picks the rows
        rows, block = backend.start(seed, n, labels)
        longer_rows, longer = backend.start(seed, n + 5, labels)
        assert np.array_equal(longer[:n], block)
        assert rows is None or np.array_equal(longer_rows, rows)
        zero, one = backend.start(0, n, labels)[1], backend.start(1, n, labels)[1]
        assert not np.any(zero[:, drawn] == one[:, drawn])
    # the encoded start of a run, bit for bit: the shifted quantiles, and the
    # means beside the mean of the anchor stds (in known-vertex order)
    h = Hypergraph(n, [(0, 1, 2), (2, 3, 4, 5)])
    cfg = PropagationConfig(alpha=2.0, gamma=1.0, seed=seed)
    known = LabeledSubset({0: delta(grid4, -1.0), 5: delta(grid4, 1.0)})
    start = initial_state(h, known, cfg, quantile).vertex_values
    assert start.tobytes() == (standard_normal_quantiles(grid4) + shifts).tobytes()
    known = LabeledSubset({5: anchors[1], 0: anchors[0]})
    std = np.mean(np.stack([anchors[0].std, anchors[1].std]), axis=0)
    start = initial_state(h, known, cfg, gauss).vertex_values
    assert start.tobytes() == np.hstack([means, np.broadcast_to(std, means.shape)]).tobytes()


@pytest.mark.parametrize("b", [1, 2, 3, 6])
def test_gaussian_start_std_is_the_mean_of_the_anchor_stds(b):
    # the start reads the stds from the encoded anchors, in known-vertex
    # order; it must give the bits of the mean of the stacked label stds
    rng = np.random.default_rng(b)
    n = 61
    h = Hypergraph(n, [tuple(range(n))])
    cfg = PropagationConfig(alpha=2.0, gamma=1.0, seed=5)
    for k in range(1, 61):
        anchors = [DiagGaussianLabel(rng.uniform(-1.0, 1.0, b), 10.0 ** rng.uniform(-8.0, 8.0, b))
                   for _ in range(k)]
        known = LabeledSubset(dict(zip(rng.permutation(n)[:k].tolist(), anchors)))
        stds = initial_state(h, known, cfg, GaussianBackend(b)).vertex_values[:, b:]
        expected = np.mean(np.stack([known.targets[v].std for v in known.vertices]), axis=0)
        assert stds.view(np.uint64).tolist() == [expected.view(np.uint64).tolist()] * n


def test_seed_must_be_a_non_negative_integer(grid4):
    for bad in (1.5, 2.0, np.float64(3.0), "3", -1, np.int64(-1)):
        with pytest.raises(InputError, match="seed"):
            PropagationConfig(alpha=2.0, gamma=1.0, seed=bad)
    h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    known = LabeledSubset({0: delta(grid4, 0.0)})
    reference = initial_state(h, known, PropagationConfig(alpha=2.0, gamma=1.0, seed=7),
                              QuantileBackend(grid4))
    for seed in (np.int64(7), np.uint32(7), np.uint64(7)):
        cfg = PropagationConfig(alpha=2.0, gamma=1.0, seed=seed)
        assert type(cfg.seed) is int and cfg.seed == 7
        state = initial_state(h, known, cfg, QuantileBackend(grid4))
        assert np.array_equal(state.vertex_values, reference.vertex_values)


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


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_gaussian_loss_matches_per_incidence_sum(b):
    rng = np.random.default_rng(17)
    h = Hypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 5), (0, 5)])
    known = LabeledSubset({v: DiagGaussianLabel(rng.uniform(-1.0, 1.0, b), rng.uniform(0.1, 1.0, b))
                           for v in (0, 3)})
    cfg = PropagationConfig(alpha=3.0, gamma=2.0, seed=4)
    state = step(initial_state(h, known, cfg, GaussianBackend(b)))
    expected = sum(
        w2_squared_gaussian(state.vertex_label(v), state.hyperedge_label(e)) / len(edge)
        for e, edge in enumerate(h.edges)
        for v in edge
    ) + cfg.gamma * sum(
        w2_squared_gaussian(state.vertex_label(v), lab) for v, lab in known.targets.items()
    )
    assert state.loss_history[-1] == pytest.approx(expected, rel=1e-12)


def _row_sum_block(rng, rows, width):
    """Rows whose sums depend on the order of the adds (values over 16
    decades), rows of values from 1e-300 to 1e300, and, scattered through
    both, signed zeros, infinities and NaN."""
    signs = rng.choice([-1.0, 1.0], (rows, width))
    spread = np.where(rng.random((rows, 1)) < 0.5, 8.0, 300.0)
    block = signs * 10.0 ** rng.uniform(-spread, spread, (rows, width))
    special = rng.random((rows, width)) < 0.1
    block[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
    block[0], block[1] = -0.0, 0.0
    return block


@pytest.mark.parametrize("width", [*range(1, 10), 16, 256])
def test_row_sums_match_numpy_bit_for_bit(width):
    # narrow rows are summed in the order numpy adds them; if a numpy release
    # changes that order, this fails before any loss moves.  A NaN sum is
    # only checked to be NaN: which of two unlike NaNs an add keeps depends
    # on the add loop, and np.sum itself keeps another for one row alone
    rng = np.random.default_rng(width)
    block = _row_sum_block(rng, 5000, width)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in [block] + [block[i:i + 1] for i in range(40)]:
            out = np.full(len(rows), 7.0)
            propagation._row_sums(rows, out)
            expected = np.sum(rows, axis=1)
            nan = np.isnan(expected)
            assert np.array_equal(np.isnan(out), nan)
            assert out[~nan].view(np.uint64).tolist() == expected[~nan].view(np.uint64).tolist()


def test_overflowing_loss_is_a_numerical_error():
    # |inf - inf| is NaN, so an overflowing loss never met the stop test and
    # the loop ran to max_iters; now the first step raises, with no warning
    h = Hypergraph(3, [(0, 1), (1, 2)])
    known = LabeledSubset({0: DiagGaussianLabel([0.0], [1.0]), 2: DiagGaussianLabel([1e308], [1e308])})
    for alpha, gamma in ((2.0, 1.0), (20.0, 10.0)):
        state = initial_state(h, known, PropagationConfig(alpha=alpha, gamma=gamma), GaussianBackend(1))
        with pytest.raises(NumericalError, match="propagation loss is (inf|nan)"):
            step(state)


def test_loss_independent_of_gather_block(grid32, monkeypatch):
    rng = np.random.default_rng(19)
    h = random_hypergraph(rng, 8, max_edges=6)
    cfg = PropagationConfig(alpha=2.0, gamma=1.0, seed=3)
    gauss = DiagGaussianLabel(rng.uniform(-1.0, 1.0, 4), rng.uniform(0.1, 1.0, 4))
    cases = [(QuantileBackend(grid32), random_histogram_label(rng, grid32)), (GaussianBackend(4), gauss)]
    # dims 2 and 4 are summed by columns in _row_sums, dims 8 and 32 by np.sum
    for b in (1, 2):
        cases.append((GaussianBackend(b), DiagGaussianLabel(rng.uniform(-1.0, 1.0, b), rng.uniform(0.1, 1.0, b))))
    for backend, label in cases:
        known = LabeledSubset({0: label})
        start = initial_state(h, known, cfg, backend)
        whole, width = evaluate_loss(start), start.vertex_values.shape[1]
        incidences = h.incidence().nnz
        rows = incidences // 2 + 1  # a full block and a shorter last one
        assert incidences > rows
        for block_values in (1, rows * width):  # 1: one incidence per block
            # the context sizes its loss buffers when it is made
            monkeypatch.setattr(propagation, "LOSS_BLOCK_VALUES", block_values)
            state = initial_state(h, known, cfg, backend)
            assert state.context.loss_rows == max(1, block_values // width)
            assert evaluate_loss(state) == whole
        monkeypatch.undo()


def test_loss_sums_in_numpy_order_not_blas_order():
    # a BLAS dot of the weights and the squared norms adds in an order that
    # depends on the thread count; the loss must give the bits of numpy's
    # own pairwise sum, here over 12 000 incidences at each of 10 steps (one
    # loss can agree with a dot's by chance; ten in a row seldom do)
    rng = np.random.default_rng(29)
    n = 3000
    h = Hypergraph(n, [tuple(rng.choice(n, 4, replace=False).tolist()) for _ in range(n)])
    assert h.incidence().nnz > 10_000
    backend = GaussianBackend(1)
    known = LabeledSubset({v: DiagGaussianLabel(rng.uniform(-1.0, 1.0, 1), rng.uniform(0.1, 1.0, 1))
                           for v in range(0, n, 50)})
    cfg = PropagationConfig(alpha=2.0, gamma=1.5, seed=6)
    sizes = np.diff(h.incidence().indptr)[h.edge_of]
    targets = np.stack([backend.encode(known.targets[v]) for v in known.vertices])
    state = initial_state(h, known, cfg, backend)
    losses, expected = [], []
    for _ in range(10):
        state = step(state)
        x, y = state.vertex_values, state.edge_values
        d = x[h.incidence().indices] - y[h.edge_of]
        anchors = x[known.vertices] - targets
        total = float((np.sum(d * d, axis=1) * (1.0 / sizes)).sum())
        losses.append(state.loss_history[-1].hex())
        expected.append((total + cfg.gamma * float(np.sum(anchors * anchors))).hex())
    assert losses == expected


def _frozen(state):
    """Bit copies of what a step must not change in its input state."""
    edges = None if state.edge_values is None else state.edge_values.tobytes()
    return state.vertex_values.tobytes(), edges, state.loss_history


@pytest.mark.parametrize("kind", ["quantile", "gauss"])
def test_step_leaves_its_input_unchanged(grid32, kind):
    # vertex 5 is unknown and in no hyperedge, so its row is copied from the input
    rng = np.random.default_rng(23)
    h = Hypergraph(6, [(0, 1, 2), (2, 3, 4), (0, 4)])
    if kind == "quantile":
        backend = QuantileBackend(grid32)
        targets = {v: random_histogram_label(rng, grid32) for v in (0, 3)}
    else:
        backend = GaussianBackend(2)
        targets = {v: DiagGaussianLabel(rng.uniform(-1, 1, 2), rng.uniform(0.1, 1, 2))
                   for v in (0, 3)}
    known = LabeledSubset(targets)
    cfg = PropagationConfig(alpha=3.0, gamma=2.0, seed=8)
    state = initial_state(h, known, cfg, backend)
    for _ in range(3):  # the first input has no hyperedge block, the later ones do
        before = _frozen(state)
        new = step(state)
        assert _frozen(state) == before
        assert new.vertex_values[5].tobytes() == state.vertex_values[5].tobytes()
        assert not np.array_equal(new.vertex_values[:5], state.vertex_values[:5])
        state = new

    with pytest.warns(UserWarning, match="no hyperedge"):
        final = propagate(h, known, replace(cfg, max_iters=3, rel_tol=1e-300), backend)
    assert final.iterations == 3
    # a seeded quantile run steps on coefficients over its anchors' span and
    # encodes them at exit (a Gaussian run on the encoded labels, where both
    # helpers return their input): the same steps give the same bits
    span = propagation._seeded_span(initial_state(h, known, cfg, backend))
    assert (span.context.basis is None) == (kind == "gauss")
    for _ in range(3):
        span = step(span)
    span = propagation._encoded(span, final.context)
    assert final.loss_history == span.loss_history
    assert final.vertex_values.tobytes() == span.vertex_values.tobytes()
    # and within rounding of the steps on the encoded labels; the result holds
    # no hyperedge labels, so the last step's are compared, mapped back
    assert np.abs(final.vertex_values - state.vertex_values).max() <= 1e-14
    assert np.abs(span.edge_values - state.edge_values).max() <= 1e-14
    for e in range(len(h.edges)):
        got, want = span.hyperedge_label(e), state.hyperedge_label(e)
        assert np.abs(backend.encode(got) - backend.encode(want)).max() <= 1e-14


def _loss_scale(ctx, x, y):
    """The loss with each squared norm ||x - y||^2 taken as ||x||^2 + ||y||^2:
    the size its rounding errors scale with."""
    h = ctx.h
    sizes = np.diff(h.incidence().indptr)[h.edge_of]
    x2, y2, a2 = (np.sum(z * z, axis=1) for z in (x, y, ctx.anchor_values))
    incidences = np.sum((x2[h.incidence().indices] + y2[h.edge_of]) / sizes)
    return (incidences + ctx.cfg.gamma * np.sum(x2[ctx.anchor_vertices] + a2)) / x.shape[1]


def _span_anchors(rng, grid, k, kind):
    """k anchors: separated random labels, or rows of one label 1e-8 apart
    along a monotone direction, the constant row, or the label itself."""
    base = random_histogram_label(rng, grid).values
    if kind == "separated":
        return [random_histogram_label(rng, grid) for _ in range(k)]
    directions = {
        "collinear": lambda: np.sort(rng.uniform(0.0, 1.0, grid.size)),
        "shifted": lambda: np.full(grid.size, rng.uniform()),
        "scaled": lambda: base * rng.uniform(),
    }
    return [QuantileLabel(grid, base + 1e-8 * directions[kind]()) for _ in range(k)]


@pytest.mark.parametrize("kind", ["separated", "collinear", "shifted", "scaled"])
def test_gram_form_loss_matches_the_loss_of_the_encoded_labels(kind):
    # a seeded run's loss is the quadratic form of the basis's Gram matrix on
    # coefficient differences.  Against the loss of the encoded labels, over
    # 100 instances of each kind and 15 steps each, it was within 1.3e-16 of
    # the loss's scale, and, with separated anchors, within 2.7e-12 of the
    # loss itself (6.5e-16 on the instances here).  Rows 1e-8 apart cancel
    # in the quadratic form, so there it matches only to the scale: the
    # relative error grows as the loss falls toward the rounding level of
    # its scale, and the loss is clamped at 0 where it rounds below
    rng = np.random.default_rng(["separated", "collinear", "shifted", "scaled"].index(kind))
    worst_scaled = worst_relative = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 40))
        grid = QuantileGrid(int(rng.choice([16, 32, 64])))
        h = random_hypergraph(rng, n, max_edges=3 * n, max_size=5)
        k = int(rng.integers(1, min(n, grid.size - 2)))
        targets = dict(zip(rng.choice(n, k, replace=False).tolist(), _span_anchors(rng, grid, k, kind)))
        cfg = PropagationConfig(alpha=float(rng.choice([1.0, 20.0])), gamma=float(rng.choice([0.5, 10.0])),
                                seed=trial)
        start = initial_state(h, LabeledSubset(targets), cfg, QuantileBackend(grid))
        encoded = start.context
        span = propagation._seeded_span(start)
        assert span.context.basis.shape == (k + 2, grid.size)
        for _ in range(15):
            span = step(span)
            labels = propagation._encoded(span, encoded)
            x, y = labels.vertex_values, labels.edge_values
            assert span.loss_history[-1] >= 0.0
            gap = abs(span.loss_history[-1] - propagation._loss(encoded, x, y))
            worst_scaled = max(worst_scaled, gap / _loss_scale(encoded, x, y))
            if kind == "separated":
                worst_relative = max(worst_relative, gap / span.loss_history[-1])
    assert worst_scaled <= 4e-15
    assert worst_relative <= 1e-11


class _QuantilesOnly(QuantileBackend):
    """Quantile labels whose seeded start is the one row [standard normal
    quantiles], with coefficient `weight` at every vertex."""

    def __init__(self, grid, weight=1.0):
        super().__init__(grid)
        self.weight = weight

    def start(self, seed, n, anchor_values):
        return standard_normal_quantiles(self.grid)[None, :], np.full((n, 1), self.weight)


def test_seeded_span_does_not_depend_on_the_backend():
    # the propagation module lays out the span from any backend's start: one
    # start row gives the (k + 1)-row basis [anchors; quantiles], and the run
    # on it stays within 1e-12 of the encoded loop, with the same classes
    rng = np.random.default_rng(47)
    n, k, grid = 120, 6, QuantileGrid(32)
    h = Hypergraph(n, [rng.choice(n, int(rng.integers(2, 6)), replace=False) for _ in range(2 * n)])
    vertices = rng.choice(n, k, replace=False).tolist()
    known = LabeledSubset({v: random_histogram_label(rng, grid) for v in vertices})
    cfg = PropagationConfig(alpha=20.0, gamma=10.0, seed=3)
    quantiles = standard_normal_quantiles(grid)
    backend = _QuantilesOnly(grid)
    start = initial_state(h, known, cfg, backend)
    assert np.array_equal(start.vertex_values, np.tile(quantiles, (n, 1)))
    span = propagation._seeded_span(start)
    assert np.array_equal(span.context.basis, np.vstack([start.context.anchor_values, quantiles]))
    assert np.array_equal(span.vertex_values, np.hstack([np.zeros((n, k)), np.ones((n, 1))]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        final = propagate(h, known, cfg, backend)
    wide = start
    for _ in range(final.iterations):
        wide = step(wide)
    assert final.context.basis is None and final.vertex_values.shape == (n, grid.size)
    assert np.abs(final.vertex_values - wide.vertex_values).max() <= 1e-12
    assert np.array_equal(classify(final), classify(wide))
    # the span's overflow rule rests on start rows of 1-norm at most 2: a
    # start past that keeps the encoded labels, and steps on them
    at_bound = initial_state(h, known, cfg, _QuantilesOnly(grid, 2.0))
    assert propagation._seeded_span(at_bound).context.basis is not None
    heavy = _QuantilesOnly(grid, np.nextafter(2.0, 3.0))
    start = initial_state(h, known, cfg, heavy)
    assert propagation._seeded_span(start) is start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        final = propagate(h, known, replace(cfg, max_iters=5, rel_tol=1e-300), heavy)
    wide = start
    for _ in range(5):
        wide = step(wide)
    assert final.vertex_values.tobytes() == wide.vertex_values.tobytes()
    assert final.loss_history == wide.loss_history


class _CountsStarts:
    """A backend mixin that counts the calls of its `start`."""

    starts = 0

    def start(self, seed, n, anchor_values):
        self.starts += 1
        return super().start(seed, n, anchor_values)


class _CountingQuantiles(_CountsStarts, QuantileBackend):
    pass


class _CountingGaussians(_CountsStarts, GaussianBackend):
    pass


def test_each_seeded_run_draws_its_start_once(grid4, grid32):
    # the run's context holds the one draw: initial_state encodes it and
    # the span is laid out from it, on the span path, on the encoded
    # quantile path (k + 2 >= S) and on the Gaussian path
    rng = np.random.default_rng(59)
    n = 30
    h = Hypergraph(n, [rng.choice(n, int(rng.integers(2, 6)), replace=False) for _ in range(2 * n)])
    cfg = PropagationConfig(alpha=20.0, gamma=10.0, max_iters=4, seed=2)
    cases = [
        (_CountingQuantiles(grid32), {v: random_histogram_label(rng, grid32) for v in (0, 7, 11)}, True),
        (_CountingQuantiles(grid4), {v: random_histogram_label(rng, grid4) for v in (0, 7)}, False),
        (_CountingGaussians(2), {0: DiagGaussianLabel([1.0, 0.0], [0.1, 0.2]),
                                 7: DiagGaussianLabel([0.0, 1.0], [0.3, 0.1])}, False),
    ]
    for backend, targets, spanned in cases:
        known = LabeledSubset(targets)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            propagate(h, known, cfg, backend)
            assert backend.starts == 1
            labels = [backend.decode(row) for row in initial_state(h, known, cfg, backend).vertex_values]
            propagate(h, known, cfg, backend, initial_labels=labels)
        assert backend.starts == 2  # explicit labels draw no start
        start = initial_state(h, known, cfg, backend)
        rows, drawn = start.context.start
        span = propagation._seeded_span(start)
        assert backend.starts == 3
        assert (span is not start) == spanned
        if spanned:
            assert span.vertex_values[:, len(targets):].tobytes() == drawn.tobytes()
            assert np.array_equal(span.context.basis[len(targets):], rows)
        elif rows is None:
            assert start.vertex_values is drawn


def test_known_check_and_alpha_weights_are_built_once(grid4, monkeypatch):
    # one helper checks the known vertices and weighs the incidences: each
    # run's context and each star expansion call it once, and the star's
    # pair weights are the context's alpha weights over the hyperedge sizes
    calls = []
    check = propagation.check_vertex_range
    monkeypatch.setattr(propagation, "check_vertex_range",
                        lambda what, vertices, n: calls.append(what) or check(what, vertices, n))
    h = Hypergraph(5, [(0, 1, 2), (2, 3), (1, 3, 4)])
    known = LabeledSubset({1: delta(grid4, 0.0), 3: delta(grid4, 1.0)})
    ctx = _Context(h, known, PropagationConfig(alpha=3.0, gamma=1.0), QuantileBackend(grid4))
    assert calls == ["known"]
    assert ctx.edge_incidence.toarray().tolist() == [[1, 3, 1, 0, 0], [0, 0, 1, 3, 0], [0, 3, 0, 3, 1]]
    star = star_graph(h, known, 3.0)
    assert calls == ["known", "known"]
    sizes = np.diff(ctx.edge_incidence.indptr)[h.edge_of]
    assert star.weights.tobytes() == (ctx.edge_incidence.data / sizes).tobytes()


@pytest.mark.parametrize("kind", ["quantile", "gauss"])
def test_evaluate_loss_names_a_mis_shaped_block(grid4, kind):
    h = Hypergraph(3, [(0, 1, 2)])
    if kind == "quantile":
        backend, label = QuantileBackend(grid4), delta(grid4, 0.0)
    else:
        backend, label = GaussianBackend(2), DiagGaussianLabel([0.0, 1.0], [0.5, 0.5])
    state = initial_state(h, LabeledSubset({0: label}), PropagationConfig(alpha=2.0, gamma=1.0), backend)
    n, width = state.vertex_values.shape
    for shape in [(n, 1), (n, width + 1), (n - 1, width)]:
        message = f"vertex_values of shape {shape} do not match the state's labels of shape {(n, width)}"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            evaluate_loss(state, np.zeros(shape))
    assert evaluate_loss(state, np.zeros((n, width))) >= 0.0


def test_seeded_run_steps_in_the_span_and_matches_the_encoded_loop():
    # the span is chosen from the input: k + 2 rows against S columns.  A
    # seeded run steps on coefficients and encodes them at exit; it stays
    # within 1e-12 of the same steps on the encoded labels, with the same
    # classes and non-decreasing rows
    rng = np.random.default_rng(43)
    n, grid = 300, QuantileGrid(64)
    h = Hypergraph(n, [rng.choice(n, int(rng.integers(2, 6)), replace=False) for _ in range(2 * n)])
    backend = QuantileBackend(grid)
    for k, spanned in ((10, True), (61, True), (62, False)):
        targets = {int(v): random_histogram_label(rng, grid) for v in rng.choice(n, k, replace=False)}
        known = LabeledSubset(targets)
        cfg = PropagationConfig(alpha=20.0, gamma=10.0, seed=k)
        start = initial_state(h, known, cfg, backend)
        assert (propagation._seeded_span(start).context.basis is not None) == spanned
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            final = propagate(h, known, cfg, backend)
        assert final.context.basis is None and final.vertex_values.shape == (n, grid.size)
        wide, span = start, propagation._seeded_span(start)
        for _ in range(final.iterations):
            wide, span = step(wide), step(span)
        if not spanned:
            assert final.vertex_values.tobytes() == wide.vertex_values.tobytes()
            assert final.loss_history == wide.loss_history
        assert np.abs(final.vertex_values - wide.vertex_values).max() <= 1e-12
        assert np.array_equal(classify(final), classify(wide))
        assert np.all(np.diff(final.vertex_values, axis=1) >= 0)
        # the result holds no hyperedge labels: the span's last step, mapped back
        edges = propagation._encoded(span, start.context).edge_values
        assert np.abs(edges - wide.edge_values).max() <= 1e-12
        assert np.all(np.diff(edges, axis=1) >= 0)


def test_explicit_initial_labels_step_on_the_encoded_labels(grid32):
    # explicit labels can span every column, so the run keeps the loop on
    # the encoded labels, bit for bit
    rng = np.random.default_rng(47)
    h = random_hypergraph(rng, 12, max_edges=20)
    known = LabeledSubset({v: random_histogram_label(rng, grid32) for v in (0, 5)})
    cfg = PropagationConfig(alpha=3.0, gamma=2.0, max_iters=25, seed=4)
    labels = [random_histogram_label(rng, grid32) for _ in range(12)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        final = propagate(h, known, cfg, QuantileBackend(grid32), initial_labels=labels)
    state = initial_state(h, known, cfg, QuantileBackend(grid32), initial_labels=labels)
    for _ in range(final.iterations):
        previous, state = state, step(state)
    assert final.vertex_values.tobytes() == state.vertex_values.tobytes()
    assert final.loss_history == state.loss_history
    # the result holds no hyperedge labels; its context makes the last step's
    # from the labels before it, bit for bit
    edges = propagation._edge_phase(final.context, previous.vertex_values)
    assert edges.tobytes() == state.edge_values.tobytes()


def test_overflowing_loss_in_the_span_is_a_numerical_error():
    # anchors of +-1.6e152 at S = 64: 16 times the Gram matrix is finite, so
    # the run steps on coefficients, and the loss of 9000 incidences passes
    # the float range there as it does on the encoded labels
    grid = QuantileGrid(64)
    rng = np.random.default_rng(5)
    n = 40
    h = Hypergraph(n, [tuple(rng.choice(n, 3, replace=False).tolist()) for _ in range(3000)])
    known = LabeledSubset({v: delta(grid, (-1) ** v * 1.6e152) for v in range(0, n, 2)})
    cfg = PropagationConfig(alpha=2.0, gamma=10.0, seed=3)
    start = initial_state(h, known, cfg, QuantileBackend(grid))
    assert propagation._seeded_span(start).context.basis is not None
    with pytest.raises(NumericalError, match="propagation loss is (inf|nan)"):
        step(start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="propagation loss is (inf|nan)"):
            propagate(h, known, cfg, QuantileBackend(grid))


def test_gram_past_the_float_range_keeps_the_encoded_labels(grid32):
    # nearly equal anchors near 1e160 on known vertices in no hyperedge:
    # their squared norms pass the float range, so the Gram matrix is not
    # finite, but the loss of the encoded labels is.  The run is accepted,
    # on the encoded labels, bit for bit
    rng = np.random.default_rng(53)
    h = Hypergraph(8, [(0, 1, 2), (2, 3), (3, 4, 5), (1, 5)])
    targets = {0: random_histogram_label(rng, grid32), 4: random_histogram_label(rng, grid32),
               6: delta(grid32, 1e160), 7: delta(grid32, 1e160 * (1 + 1e-12))}
    known = LabeledSubset(targets)
    cfg = PropagationConfig(alpha=2.0, gamma=3.0, seed=9)
    start = initial_state(h, known, cfg, QuantileBackend(grid32))
    assert propagation._seeded_span(start) is start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = propagate(h, known, cfg, QuantileBackend(grid32))
    state = start
    for _ in range(final.iterations):
        state = step(state)
    assert final.vertex_values.tobytes() == state.vertex_values.tobytes()
    assert final.loss_history == state.loss_history
    assert list(classify(final)[6:]) == [1, 1]


def _wide_hyperedge_run():
    """A seeded span run whose hyperedge block is 20 times its vertex block:
    the result, the tracemalloc peak of the run, and the sizes of one E x S
    block, one n x S block and the loss buffers."""
    rng = np.random.default_rng(29)
    grid256 = QuantileGrid(256)
    n, n_edges = 100, 2000
    h = Hypergraph(n, [rng.choice(n, 3, replace=False) for _ in range(n_edges)])
    known = LabeledSubset({v: random_histogram_label(rng, grid256) for v in range(0, n, 10)})
    cfg = PropagationConfig(alpha=20.0, gamma=10.0, max_iters=3, rel_tol=1e-300, seed=2)
    backend = QuantileBackend(grid256)
    edge_block, vertex_block = n_edges * grid256.size * 8, n * grid256.size * 8
    loss_buffers = 2 * propagation.LOSS_BLOCK_VALUES * 8 + h.incidence().nnz * 8
    propagate(h, known, cfg, backend)  # lazy imports and the graph's shared parts
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = propagate(h, known, cfg, backend)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return state, peak, edge_block, vertex_block, loss_buffers


def test_propagate_working_set_is_one_hyperedge_block():
    # E x S >> n x S: a second live hyperedge block would break the bound below
    state, peak, edge_block, vertex_block, loss_buffers = _wide_hyperedge_run()
    assert state.iterations == 3
    # the current and new vertex blocks, and as much again for the context's
    # operators and numpy's ufunc buffers
    assert peak <= edge_block + 4 * vertex_block + loss_buffers


def test_propagate_returns_vertex_labels_and_no_hyperedge_labels(grid4, grid32):
    # a result carries the vertex labels and the loss trace; only a state
    # that step returns holds hyperedge labels
    rng = np.random.default_rng(59)
    h = Hypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 5), (0, 5)])
    cfg = PropagationConfig(alpha=3.0, gamma=2.0, max_iters=5, seed=7)
    quantile = LabeledSubset({v: random_histogram_label(rng, grid32) for v in (0, 3)})
    gauss = LabeledSubset({v: DiagGaussianLabel(rng.uniform(-1, 1, 2), rng.uniform(0.1, 1, 2))
                           for v in (0, 3)})
    runs = {  # (known, backend, initial labels, steps on coefficients)
        "span": (quantile, QuantileBackend(grid32), None, True),
        "encoded": (LabeledSubset({v: delta(grid4, v) for v in (0, 3)}), QuantileBackend(grid4), None, False),
        "initial_labels": (quantile, QuantileBackend(grid32),
                           [random_histogram_label(rng, grid32) for _ in range(6)], False),
        "gauss": (gauss, GaussianBackend(2), None, False),
    }
    for known, backend, labels, spanned in runs.values():
        start = initial_state(h, known, cfg, backend, initial_labels=labels)
        assert (labels is None and propagation._seeded_span(start).context.basis is not None) == spanned
        final = propagate(h, known, cfg, backend, initial_labels=labels)
        assert final.edge_values is None and final.iterations == 5
        with pytest.raises(InputError, match="only a state that step returns"):
            final.hyperedge_label(0)
        assert step(start).hyperedge_label(0) is not None
    # a span run makes no E x S block: its peak is below one
    state, peak, edge_block, _, _ = _wide_hyperedge_run()
    assert state.edge_values is None
    assert peak < edge_block


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
        field = TikhonovOperator(g, ts, gamma=1.0 / (ts.m * gamma_prop)).field()
        loss_prop = evaluate_loss(final)
        loss_tik = evaluate_loss(final, vertex_values=field.values)
        assert loss_tik <= loss_prop + 1e-6


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("alpha", [1.0, 20.0])
def test_star_expansion_solve_is_a_fixed_point_of_step(monkeypatch, alpha, dense):
    # the loop is block coordinate descent on the star expansion's Tikhonov
    # energy, so that solve at gamma' = 1/(m alpha gamma) is a fixed point of `step`
    grid, gamma = QuantileGrid(8), 0.5
    h = Hypergraph(9, [(0, 1, 2), (2, 3), (3, 4, 5), (5, 6, 7, 8), (1, 6), (0, 4, 8)])
    rng = np.random.default_rng(41)
    targets = {v: random_histogram_label(rng, grid) for v in (0, 5, 7)}
    star = star_graph(h, LabeledSubset(targets), alpha)
    if not dense:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", star.n - 1)
    ts = TrainingSet(sorted(targets.items()))
    op = TikhonovOperator(star, ts, 1.0 / (ts.m * alpha * gamma))
    assert op.uses_cholesky(op.labeled.size) == dense
    solution = op.field().values
    x, y = solution[: h.n], solution[h.n:]
    cfg = PropagationConfig(alpha=alpha, gamma=gamma)
    start = initial_state(h, LabeledSubset(targets), cfg, QuantileBackend(grid),
                          initial_labels=[QuantileLabel(grid, row) for row in x])
    moved = step(start)
    x_move = np.abs(moved.vertex_values - x).max()
    y_move = np.abs(moved.edge_values - y).max()
    if dense:
        assert max(x_move, y_move) <= 1e-12
    else:
        # ||X - X*|| <= ||A^-1 1|| ||A X - E_L Y_L|| with A^-1 >= 0, and a
        # step is an average that fixes X*, so it moves X by at most twice that
        residual = op.matrix @ solution
        residual[op.labeled] -= op.block
        a_inv_ones = np.linalg.solve(op.matrix.toarray(), np.ones(star.n))
        bound = 2 * np.abs(a_inv_ones).max() * np.abs(residual).max() + 1e-13
        assert max(x_move, y_move) <= bound


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


def test_known_vertex_in_no_hyperedge_is_neither_isolated_nor_unreached(grid4):
    # vertex 3 is known and in no hyperedge: its anchor reaches it, and it
    # is not kept at its start; vertex 4, in no hyperedge and unknown, is
    cfg = PropagationConfig(alpha=1.0, gamma=1.0, max_iters=3)
    known = LabeledSubset({0: delta(grid4, 0.0), 3: delta(grid4, 2.0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = propagate(Hypergraph(4, [(0, 1), (1, 2)]), known, cfg, QuantileBackend(grid4))
    assert np.array_equal(state.vertex_values[3], delta(grid4, 2.0).values)
    with pytest.warns(UserWarning) as record:
        propagate(Hypergraph(5, [(0, 1), (1, 2)]), known, cfg, QuantileBackend(grid4))
    assert [str(w.message) for w in record] == [
        "1 vertices belong to no hyperedge and keep their initialization: [4]"
    ]


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

    scan = hypergraph.components

    def recording(n, heads, tails):
        seen.append((n, heads.size, tails.size))
        return scan(n, heads, tails)

    monkeypatch.setattr(hypergraph, "components", recording)
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0, max_iters=1)
    with pytest.warns(UserWarning) as record:
        propagate(h, known, cfg, QuantileBackend(grid4))
        propagate(h, LabeledSubset({1: delta(grid4, 0.0)}), cfg, QuantileBackend(grid4))
    # 6000 vertices and 3 hyperedges, one link per incidence; the second run,
    # with another known set, reuses the graph's component labels
    assert seen == [(6003, 6500, 6500)]
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
    # vertex 3 is in no hyperedge: propagate refuses the labels before it warns
    h = Hypergraph(4, [(0, 1, 2)])
    known = LabeledSubset({0: delta(grid4, 0.0)})
    cfg = PropagationConfig(alpha=1.0, gamma=1.0)
    labels = [delta(grid4, 0.0)]
    with pytest.raises(InputError, match="^expected 4 initial labels, got 1$"):
        initial_state(h, known, cfg, QuantileBackend(grid4), initial_labels=labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^expected 4 initial labels, got 1$"):
            propagate(h, known, cfg, QuantileBackend(grid4), initial_labels=labels)


def test_gaussian_backend_dim_mismatch():
    backend = GaussianBackend(2)
    with pytest.raises(InputError):
        backend.encode(DiagGaussianLabel([0.0], [1.0]))
    with pytest.raises(InputError):
        GaussianBackend(0)
