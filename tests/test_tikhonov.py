"""Closed-form graph solver: operator, slice columns of the field, field guarantees."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from wassprop import (
    DimensionError,
    DominatedQuantileEnvelope,
    Hypergraph,
    InputError,
    NumericalError,
    QuantileBackend,
    QuantileGrid,
    QuantileLabel,
    StructureError,
    TikhonovOperator,
    TrainingSet,
    check_apriori,
    check_maximum_principle,
    clique_expand,
    empirical_stability,
    gaussian_quantile_label,
    invertibility_margin,
    quantile_from_histogram,
    laplacian,
    spectral_gap,
    tight_envelope,
)
from wassprop import tikhonov
from conftest import (
    dict_graph,
    edge_dict,
    random_connected_graph,
    random_histogram_label,
    random_monotone_label,
    random_training_set,
)


def delta(grid, c):
    return quantile_from_histogram([c], [1.0], grid)


def lstsq_minimizer(g, ts, gamma, s_index):
    """Oracle: minimize the per-slice fit-plus-smoothness quadratic through a
    stacked least-squares design, with no reference to the solver's algebra."""
    rows, targets = [], []
    for v, lab in ts.samples:
        r = np.zeros(g.n)
        r[v] = 1.0
        rows.append(r)
        targets.append(lab.values[s_index])
    for (i, j), w in edge_dict(g).items():
        r = np.zeros(g.n)
        c = math.sqrt(ts.m * gamma * w)
        r[i] = c
        r[j] = -c
        rows.append(r)
        targets.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    return sol


def dense_rhs(ts, n):
    """Reference (n, S) right-hand side of all slices: row v sums, in sample
    order, the samples at vertex v, and every other row is zero."""
    y = np.zeros((n, ts.grid.size))
    for v, lab in ts.samples:
        y[v] += lab.values
    return y


def p2_instance(grid):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid, 0.0)), (1, delta(grid, 1.0))])
    return g, ts


def test_assembly_p2_single_sample(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.7))])
    op = TikhonovOperator(g, ts, gamma=1.0)
    assert np.allclose(op.matrix.toarray(), [[2.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(dense_rhs(ts, 2)[:, 2], [0.7, 0.0])
    # [[2, -1], [-1, 1]] x = (0.7, 0) gives x = (0.7, 0.7)
    assert np.allclose(TikhonovOperator(g, ts, gamma=1.0).field().values[:, 2], [0.7, 0.7], atol=1e-12)


def test_assembly_multiplicity_doubles(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.7)), (0, delta(grid4, 0.7))])
    op = TikhonovOperator(g, ts, gamma=0.5)
    assert np.allclose(op.matrix.toarray(), [[3.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(dense_rhs(ts, 2)[:, 0], [1.4, 0.0])
    # [[3, -1], [-1, 1]] x = (1.4, 0) gives x = (0.7, 0.7)
    assert np.allclose(TikhonovOperator(g, ts, gamma=0.5).field().values[:, 0], [0.7, 0.7], atol=1e-12)


def test_assembly_centering_invariant(grid32):
    # the right-hand side centered on the sample mean, y - ybar * T 1, sums
    # to zero at every grid node, because the multiplicities sum to m
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, 6)))
        t = ts.multiplicities(n)
        assert t.sum() == ts.m
        y = dense_rhs(ts, n)[:, int(rng.integers(0, 32))]
        ybar = y.sum() / ts.m
        assert abs(np.sum(y - ybar * t)) <= 1e-12 * max(1.0, np.abs(y).sum())


def test_assembly_disconnected_rejected(grid4):
    g = dict_graph(3, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.0))])
    with pytest.raises(StructureError):
        TikhonovOperator(g, ts, gamma=1.0).field()


def test_solve_slice_p2_hand_value(grid4):
    g, ts = p2_instance(grid4)
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    for s_index in range(4):
        assert np.allclose(field.values[:, s_index], [0.4, 0.6], atol=1e-12)


def test_solve_slice_consensus(grid4):
    g = random_connected_graph(np.random.default_rng(47), 5)
    ts = TrainingSet([(0, delta(grid4, 2.5)), (3, delta(grid4, 2.5))])
    sol = TikhonovOperator(g, ts, gamma=3.0).field().values[:, 1]
    assert np.allclose(sol, 2.5, atol=1e-10)


def test_solve_slice_matches_dense_direct(grid32):
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 6)
    ts = random_training_set(rng, grid32, 6, 4)
    s_index = 7
    op = TikhonovOperator(g, ts, gamma=0.9)
    sol = op.field().values[:, s_index]
    dense = np.linalg.solve(op.matrix.toarray(), dense_rhs(ts, g.n)[:, s_index])
    assert np.max(np.abs(sol - dense)) <= 1e-9
    # the field is solved once and shared read-only
    assert op.field() is op.field() and not op.field().values.flags.writeable


def test_solve_slice_matches_lstsq_oracle(grid32):
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, 7)))
        gamma = float(rng.uniform(0.1, 3.0))
        s_index = int(rng.integers(0, 32))
        sol = TikhonovOperator(g, ts, gamma).field().values[:, s_index]
        oracle = lstsq_minimizer(g, ts, gamma, s_index)
        assert np.max(np.abs(sol - oracle)) <= 1e-8


def test_solve_field_constant_training(grid32):
    g = dict_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
    lab = gaussian_quantile_label(0.0, 1.0, grid32)
    ts = TrainingSet([(0, lab), (1, lab), (2, lab)])
    field = TikhonovOperator(g, ts, gamma=0.8).field()
    for v in range(3):
        assert np.allclose(field.values[v], lab.values, atol=1e-9)
        assert np.all(np.diff(field.values[v]) >= 0)


def test_solve_field_p2_rows(grid4):
    g, ts = p2_instance(grid4)
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    assert np.allclose(field.values[0], 0.4, atol=1e-12)
    assert np.allclose(field.values[1], 0.6, atol=1e-12)
    lab = field.label(0)
    assert isinstance(lab, QuantileLabel)


def test_solve_field_uniform_rows_strictly_increasing(grid32):
    g = dict_graph(2, {(0, 1): 1.0})
    u01 = QuantileLabel(grid32, grid32.nodes)
    u23 = QuantileLabel(grid32, 2.0 + grid32.nodes)
    ts = TrainingSet([(0, u01), (1, u23)])
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    for v in range(2):
        assert np.all(np.diff(field.values[v]) > 0)


def test_field_monotone_and_max_principle_random(grid32):
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n)
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, 7)))
        field = TikhonovOperator(g, ts, gamma=float(rng.uniform(0.2, 2.0))).field()
        assert np.all(np.diff(field.values, axis=1) >= -1e-9)
        report = check_maximum_principle(field, ts)
        assert report.ok
        assert report.extrema_on_labeled


def test_max_principle_p2(grid4):
    g, ts = p2_instance(grid4)
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    report = check_maximum_principle(field, ts)
    assert report.ok
    # extrema 0.4 and 0.6 both sit at the labeled vertices
    assert field.values.min() == pytest.approx(0.4)
    assert field.values.max() == pytest.approx(0.6)


def test_max_principle_nonnegative_training(grid32):
    rng = np.random.default_rng(67)
    g = random_connected_graph(rng, 6)
    samples = []
    for v in (0, 2, 4):
        vals = np.asarray(random_histogram_label(rng, grid32).values)
        samples.append((v, QuantileLabel(grid32, vals - min(vals.min(), 0.0))))
    ts = TrainingSet(samples)
    field = TikhonovOperator(g, ts, gamma=0.5).field()
    assert field.values.min() >= -1e-9
    assert check_maximum_principle(field, ts).nonnegative_ok


def test_max_principle_star_center_between_leaves(grid4):
    g = dict_graph(4, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
    ts = TrainingSet([(1, delta(grid4, 0.0)), (2, delta(grid4, 1.0)), (3, delta(grid4, 2.0))])
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    leaves = field.values[[1, 2, 3], 0]
    center = field.values[0, 0]
    assert leaves.min() < center < leaves.max()
    assert check_maximum_principle(field, ts).ok


def test_translation_equivariance(grid32):
    rng = np.random.default_rng(71)
    n = 7
    g = random_connected_graph(rng, n)
    ts = random_training_set(rng, grid32, n, 4)
    c = 1.375
    shifted = TrainingSet(
        [(v, QuantileLabel(grid32, np.asarray(lab.values) + c)) for v, lab in ts.samples]
    )
    f0 = TikhonovOperator(g, ts, gamma=0.6).field()
    f1 = TikhonovOperator(g, shifted, gamma=0.6).field()
    assert np.max(np.abs(f1.values - (f0.values + c))) <= 1e-10


def test_check_apriori(grid32):
    rng = np.random.default_rng(73)
    g = random_connected_graph(rng, 5)
    ts = random_training_set(rng, grid32, 5, 3)
    env = tight_envelope([lab for _, lab in ts.samples])
    field = TikhonovOperator(g, ts, gamma=0.5).field()
    assert check_apriori(field, env, ts)
    wide = DominatedQuantileEnvelope(grid32, np.full(32, 10.0))
    assert check_apriori(field, wide, ts)


def test_check_apriori_constant_delta_equality(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, -1.5)), (1, delta(grid4, -1.5))])
    field = TikhonovOperator(g, ts, gamma=2.0).field()
    env = DominatedQuantileEnvelope(grid4, np.full(4, 1.5))
    assert check_apriori(field, env, ts)


def test_check_apriori_rejects_undominated_training(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 5.0)), (1, delta(grid4, 0.0))])
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    with pytest.raises(InputError):
        check_apriori(field, env, ts)


def test_monotone_field_clamps_roundoff_and_refuses_a_larger_drop(grid4):
    # the solution is non-decreasing: a drop within MONOTONE_SLACK is
    # roundoff, clamped by a running maximum, and a larger one is a defect
    row = np.array([[0.0, 1.0, 1.0 - 1e-12, 2.0]])
    assert tikhonov.monotone_field(grid4, row).values.tolist() == [[0.0, 1.0, 1.0, 2.0]]
    increasing = np.array([[0.0, 1.0, 1.0, 2.0]])
    assert tikhonov.monotone_field(grid4, increasing).values is increasing
    with pytest.raises(NumericalError, match=r"^monotonicity violated by 1\.000e-01 \(> 1e-09\)"):
        tikhonov.monotone_field(grid4, np.array([[0.0, 1.0, 0.9, 2.0]]))


def test_invertibility_margin_p2(grid4):
    g, ts = p2_instance(grid4)
    # lambda_1 = 2, m = 2, gamma = 1, T = 1
    assert invertibility_margin(TikhonovOperator(g, ts, 1.0)) == pytest.approx(3.0, abs=1e-9)


def test_invertibility_margin_boundary_warns(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.0))])
    # m*gamma*lambda1 = 1*0.5*2 = 1 = T
    with pytest.warns(UserWarning):
        margin = invertibility_margin(TikhonovOperator(g, ts, 0.5))
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_slice_stability_bound_random_pairs(grid32):
    rng = np.random.default_rng(79)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        m = int(rng.integers(2, 6))
        base = random_training_set(rng, grid32, n, m)
        idx = int(rng.integers(0, m))
        v = base.samples[idx][0]
        other = base.replaced(idx, v, random_histogram_label(rng, grid32))
        gamma = float(rng.uniform(1.0, 3.0))
        T = max(base.max_multiplicity(), other.max_multiplicity())
        margin = m * gamma * spectral_gap(laplacian(g)) - T
        if margin <= 0:
            continue
        env = tight_envelope([lab for _, lab in base.samples + other.samples])
        f0 = TikhonovOperator(g, base, gamma).field()
        f1 = TikhonovOperator(g, other, gamma).field()
        shift = np.max(np.abs(f0.values - f1.values), axis=0)
        coeff = 3.0 * math.sqrt(T * m) / margin**2 + 4.0 / margin + 2.0 / m
        assert np.all(shift <= coeff * env.phi + 1e-9)


def test_operator_shared_across_slices(grid32):
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, 6)
    ts = random_training_set(rng, grid32, 6, 3)
    op = TikhonovOperator(g, ts, gamma=1.2)
    shared = op.field()
    assert op.field() is shared  # solved once
    field = TikhonovOperator(g, ts, gamma=1.2).field()
    for s in (0, 31):
        assert np.allclose(field.values[:, s], shared.values[:, s], atol=1e-12)
        assert np.allclose(op.solve(dense_rhs(ts, g.n)[:, [s]])[:, 0], shared.values[:, s], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_operator_is_bitwise_symmetric(grid4, seed):
    # laplacian writes both orientations of a pair with one weight,
    # WeightedGraph refuses a repeated pair and T is diagonal, so A equals its
    # transpose bit for bit: the dense solve densifies A.T, a CSC view of A,
    # in Fortran order with no CSR-to-CSC conversion
    rng = np.random.default_rng([89, seed])
    n = int(rng.integers(2, 60))
    if seed % 2:  # a clique expansion: weights summed over hyperedges of 2 to 6 vertices
        edges = [rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)), replace=False)
                 for _ in range(n)]
        g = clique_expand(Hypergraph(n, edges + [(v, v + 1) for v in range(n - 1)]))
    else:
        g = random_connected_graph(rng, n, extra_edges=n)
    ts = random_training_set(rng, grid4, n, int(rng.integers(1, 2 * n)))  # repeats: T > 1
    op = TikhonovOperator(g, ts, float(rng.uniform(0.01, 10.0)))
    assert (op.matrix != op.matrix.T).nnz == 0
    dense = op.matrix.T.toarray()
    assert dense.flags.f_contiguous
    assert np.array_equal(dense.view(np.int64), op.matrix.toarray(order="F").view(np.int64))


def test_operator_solves_each_column_once(grid32, monkeypatch):
    rng = np.random.default_rng(85)
    g = random_connected_graph(rng, 6)
    ts = random_training_set(rng, grid32, 6, 3)
    op = TikhonovOperator(g, ts, gamma=1.2)
    solves = []
    original = TikhonovOperator.solve
    monkeypatch.setattr(
        TikhonovOperator, "solve", lambda self, rhs: solves.append(1) or original(self, rhs)
    )
    assert op.field() is op.field()
    label = random_monotone_label(rng, grid32)
    for index in range(ts.m):
        op.swapped_field(index, label)
    # one (n, k) block of Green's columns serves the field and every swap
    assert len(solves) == 1 and op.green.shape == (6, len(ts.labeled_vertices))
    units = np.zeros_like(op.green)
    units[ts.labeled_vertices, np.arange(units.shape[1])] = 1.0
    op.check_residual(op.green, units)


@pytest.mark.parametrize("cg_path", [False, True])
def test_green_columns_nonnegative(grid32, monkeypatch, cg_path):
    # A = T + m*gamma*L is a Stieltjes matrix, so A^{-1} >= 0 entrywise
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(86)
    for _ in range(6):
        n = int(rng.integers(6, 30))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, n)))
        op = TikhonovOperator(g, ts, gamma=float(rng.uniform(0.05, 5.0)))
        assert op.uses_cholesky(op.labeled.size) != cg_path
        assert op.green.shape == (n, len(ts.labeled_vertices))
        assert np.all(op.green >= 0.0)


@pytest.mark.parametrize("cg_path, tol", [(False, 1e-12), (True, 1e-8)])
def test_field_matches_block_solve_of_rhs(grid32, monkeypatch, cg_path, tol):
    # G Y_L and the direct solve of all S columns are the same field
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(87)
    for _ in range(4):
        n = int(rng.integers(6, 30))
        g = random_connected_graph(rng, n, extra_edges=n)
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, n)))
        op = TikhonovOperator(g, ts, gamma=float(rng.uniform(0.05, 5.0)))
        assert op.uses_cholesky(op.labeled.size) != cg_path
        assert op.uses_cholesky(grid32.size) != cg_path
        assert np.max(np.abs(op.field().values - op.solve(dense_rhs(ts, n)))) <= tol


def _repeated_vertex_instance(rng, grid, n):
    """Random connected graph with 2 to 5 labeled vertices, each carrying
    2 or 3 samples, the samples in random order."""
    g = random_connected_graph(rng, n, extra_edges=n)
    vertices = rng.choice(n, size=int(rng.integers(2, 6)), replace=False)
    order = rng.permutation(np.repeat(vertices, rng.integers(2, 4, size=vertices.size)))
    return g, TrainingSet([(int(v), random_monotone_label(rng, grid)) for v in order])


@pytest.mark.parametrize("cg_path", [False, True])
def test_labeled_block_is_the_dense_rhs_bit_for_bit(grid32, monkeypatch, cg_path):
    # the block holds the labeled rows of the dense right-hand side with the
    # same floats, and the field and each swap are what G applied to the
    # dense form's labeled rows gives
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(93)
    for _ in range(4):
        n = int(rng.integers(8, 30))
        g, ts = _repeated_vertex_instance(rng, grid32, n)
        op = TikhonovOperator(g, ts, gamma=float(rng.uniform(0.2, 3.0)))
        assert op.uses_cholesky(op.labeled.size) != cg_path
        dense = dense_rhs(ts, n)
        assert ts.block.tobytes() == dense[ts.labeled_vertices].tobytes()
        assert op.block is ts.block and not op.block.flags.writeable
        field = tikhonov.monotone_field(grid32, op.green @ dense[op.labeled])
        assert op.field().values.tobytes() == field.values.tobytes()
        op.check_residual(op.field().values, dense)
        for index in range(ts.m):
            vertex, old = ts.sample(index)
            label = random_monotone_label(rng, grid32)
            swapped = dense.copy()
            swapped[vertex] += label.values - old.values
            ref = tikhonov.monotone_field(grid32, op.green @ swapped[op.labeled])
            assert op.swapped_field(index, label).values.tobytes() == ref.values.tobytes()
        assert op.block.tobytes() == dense[op.labeled].tobytes()  # no swap moved it


@pytest.mark.parametrize("cg_path", [False, True])
def test_corrupted_green_block_fails_field_and_swap(grid32, monkeypatch, cg_path):
    # the residual check of the block right-hand side still sees a bad G
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    g, ts = _repeated_vertex_instance(np.random.default_rng(94), grid32, 20)
    op = TikhonovOperator(g, ts, gamma=1.0)
    assert op.uses_cholesky(op.labeled.size) != cg_path
    corrupt = op.green.copy()
    corrupt[:, -1] += 1e-7
    monkeypatch.setitem(vars(op), "green", corrupt)
    label = random_monotone_label(np.random.default_rng(95), grid32)
    for call in (op.field, lambda: op.swapped_field(0, label)):
        with pytest.raises(NumericalError, match="residual"):
            call()


def test_swap_working_set_is_two_fields(grid32):
    # a swap copies the (k, S) block only and checks its residual in the one
    # buffer A X, so its peak is the swapped field plus its monotonicity
    # differences, about 2.1 fields here; a copy of a dense (n, S)
    # right-hand side and the residual's temporaries would make it about 4
    rng = np.random.default_rng(95)
    n, grid = 600, QuantileGrid(256)
    g = random_connected_graph(rng, n, extra_edges=n)
    ts = TrainingSet([(int(v), random_monotone_label(rng, grid)) for v in rng.integers(0, n, 12)])
    op = TikhonovOperator(g, ts, gamma=1.0)
    op.field()
    label = random_monotone_label(rng, grid)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op.swapped_field(0, label)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * grid.size * 8


def test_grid_mismatch_reads_the_same_everywhere(grid4):
    # one grid rule for the training set, a swap, the a-priori check and the backend
    grid8 = QuantileGrid(8)
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.0))])
    field = TikhonovOperator(g, ts, 1.0).field()
    for call in (lambda: TrainingSet([(0, delta(grid4, 0.0)), (1, delta(grid8, 1.0))]),
                 lambda: TikhonovOperator(g, ts, 1.0).swapped_field(0, delta(grid8, 1.0)),
                 lambda: check_apriori(field, DominatedQuantileEnvelope(grid8, np.ones(8))),
                 lambda: QuantileBackend(grid4).encode(delta(grid8, 1.0))):
        with pytest.raises(DimensionError, match=r"^grid mismatch: S=\d vs S=\d$"):
            call()


@pytest.mark.parametrize("gamma", [1e5, 1e6])
@pytest.mark.parametrize("cg_path", [False, True])
def test_large_gamma_solve_meets_contract(grid32, monkeypatch, cg_path, gamma):
    # A = T + m*gamma*L is SPD at every gamma > 0, but a backward-stable solve
    # leaves a residual near eps ||A||_inf ||x||_inf, which grows with m*gamma;
    # the contract's rounding floor admits it, and the field is the exact one
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(91)
    g = random_connected_graph(rng, 20, extra_edges=20)
    op = TikhonovOperator(g, random_training_set(rng, grid32, 20, 40), gamma)
    assert op.uses_cholesky(op.labeled.size) != cg_path
    exact = np.linalg.solve(op.matrix.toarray(), dense_rhs(op.training, 20))
    assert np.max(np.abs(op.field().values - exact)) <= 1e-8


def test_cg_path_large_graph():
    # above the dense-factorization cutoff the solver switches to iterations
    n = 2100
    g = dict_graph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    grid = QuantileGrid(4)
    ts = TrainingSet(
        [
            (0, gaussian_quantile_label(0.0, 1.0, grid)),
            (n // 2, gaussian_quantile_label(1.0, 1.0, grid)),
            (n - 1, gaussian_quantile_label(2.0, 1.0, grid)),
        ]
    )
    op = TikhonovOperator(g, ts, gamma=5.0)
    field = op.field()
    assert not op.uses_cholesky(op.labeled.size)  # above the memory ceiling: PCG
    assert field.values.shape == (n, 4)
    assert np.all(np.diff(field.values, axis=1) >= -1e-9)
    # spot-check one slice against the oracle on the tridiagonal system
    dense = np.linalg.solve(op.matrix.toarray(), dense_rhs(ts, n)[:, 2])
    assert np.max(np.abs(field.values[:, 2] - dense)) <= 1e-8


# nnz(A) of the benchmark generator's clique expansions: 3n hyperedges of 2 to
# 7 vertices in two planted blocks
CLIQUE_NNZ = {600: 32444, 1000: 55786, 1500: 85876, 2000: 114820}
# the sweep the cost constants were fitted to: Green's blocks of k columns on
# those graphs at gamma 1.5, ms by Cholesky / by PCG (one BLAS thread, min of 3)
SOLVE_SWEEP = {
    600: {10: (4.9, 4.8), 20: (5.5, 8.3), 50: (6.9, 17.4), 100: (9.4, 33.7), 200: (14.5, 69.3)},
    1000: {10: (17.0, 7.7), 20: (19.0, 14.4), 50: (21.8, 32.9), 100: (26.6, 61.2),
           200: (35.3, 130.9), 400: (57.1, 313.0)},
    1500: {10: (48.1, 13.9), 20: (50.3, 20.7), 50: (55.8, 48.1), 100: (64.3, 101.0),
           200: (83.0, 230.0), 400: (120.0, 525.0)},
    2000: {10: (96.7, 18.0), 20: (98.0, 28.1), 50: (106.0, 69.0), 100: (120.0, 158.0),
           200: (154.0, 319.0), 400: (200.0, 759.0)},
}


def test_solve_path_rule():
    rule = tikhonov.cholesky_is_cheaper
    assert not rule(1000, CLIQUE_NNZ[1000], 20)  # the stability workload's Green's block
    assert rule(1000, CLIQUE_NNZ[1000], 400)
    assert not rule(2000, CLIQUE_NNZ[2000], 10)
    n = tikhonov.DENSE_SOLVE_LIMIT + 1
    for k in (0, 1, 20, 400, n, 100 * n):
        for nnz in (n, 10 * n, n * n):
            assert not rule(n, nnz, k)  # above the memory ceiling nothing is densified


@pytest.mark.parametrize("n", sorted(SOLVE_SWEEP))
def test_solve_path_rule_picks_the_faster_side_of_the_sweep(n):
    for k, (cholesky_ms, pcg_ms) in SOLVE_SWEEP[n].items():
        if max(cholesky_ms, pcg_ms) > 1.2 * min(cholesky_ms, pcg_ms):
            assert tikhonov.cholesky_is_cheaper(n, CLIQUE_NNZ[n], k) == (cholesky_ms < pcg_ms), k


def _per_column_cg(op, b):
    """Reference block solve: scipy's cg on one column at a time, with the
    solver's own stop rule."""
    x = np.empty(b.shape)
    for j in range(b.shape[1]):
        x[:, j], info = spla.cg(op.matrix, b[:, j], rtol=tikhonov.CG_RELATIVE_RESIDUAL, atol=0.0)
        assert info == 0
    return x


def _unit_columns(op):
    units = np.zeros((op.graph.n, op.labeled.size))
    units[op.labeled, np.arange(op.labeled.size)] = 1.0
    return units


def _path_instance(n):
    """Path graph with three Gaussian samples, at both ends and the middle."""
    grid = QuantileGrid(4)
    g = dict_graph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    ts = TrainingSet([(v, gaussian_quantile_label(float(c), 1.0, grid))
                      for c, v in enumerate((0, n // 2, n - 1))])
    return TikhonovOperator(g, ts, gamma=5.0)


@pytest.mark.parametrize("cg_path", [False, True])
def test_block_solve_matches_per_column_cg(grid32, monkeypatch, cg_path):
    # Cholesky below the crossover and batched PCG above it both agree with
    # per-column cg on the Green's block and on the full right-hand side
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(88)
    for _ in range(6):
        n = int(rng.integers(6, 40))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, n)))
        op = TikhonovOperator(g, ts, gamma=float(rng.uniform(0.05, 5.0)))
        for b in (_unit_columns(op), dense_rhs(ts, n)):
            assert op.uses_cholesky(b.shape[1]) != cg_path
            ref = _per_column_cg(op, b)
            assert np.max(np.abs(op.solve(b) - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_block_solve_matches_per_column_cg_on_path():
    # the n=2100 path graph of test_cg_path_large_graph: far more iterations
    op = _path_instance(2100)
    assert not op.uses_cholesky(op.labeled.size)
    ref = _per_column_cg(op, _unit_columns(op))
    assert np.max(np.abs(op.green - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_block_columns_stop_on_their_own(grid32, monkeypatch):
    # each column stops, and is frozen, at its own rule: a column solved in
    # one step gives the same bits whichever columns share its block, a
    # doubled copy gives doubled bits, and a zero column stays zero
    monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(90)
    n = 40
    g = random_connected_graph(rng, n, extra_edges=n)
    op = TikhonovOperator(g, random_training_set(rng, grid32, n, 5), gamma=1.0)
    # A y for an eigenvector y of D^{-1} A: Jacobi-PCG solves it in one step
    s = 1.0 / np.sqrt(op.matrix.diagonal())
    _, q = np.linalg.eigh(s[:, None] * op.matrix.toarray() * s)
    easy = op.matrix @ (s * q[:, 0])
    zero = np.zeros(n)
    x = op.solve(np.column_stack([easy, 2.0 * easy, zero]))
    y = op.solve(np.column_stack([easy, rng.standard_normal(n), zero]))
    assert np.array_equal(x[:, 0], y[:, 0])
    assert np.array_equal(x[:, 1], 2.0 * x[:, 0])
    assert not x[:, 2].any() and not y[:, 2].any()


@pytest.mark.parametrize("cg_path", [False, True])
def test_nan_right_hand_side_is_numerical_error(grid32, monkeypatch, cg_path):
    # Cholesky runs without LAPACK's finiteness masks, so a NaN right-hand
    # side reaches the residual check as a NaN residual, which fails the
    # contract; PCG breaks down on it first
    if cg_path:
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    rng = np.random.default_rng(96)
    g = random_connected_graph(rng, 20, extra_edges=20)
    op = TikhonovOperator(g, random_training_set(rng, grid32, 20, 4), gamma=1.0)
    rhs = np.ones((20, 2))
    rhs[3, 1] = np.nan
    assert op.uses_cholesky(2) != cg_path
    with pytest.raises(NumericalError):
        op.solve(rhs)


@pytest.mark.parametrize("instance", ["path", "random"])
def test_cg_without_convergence_raises(grid4, monkeypatch, instance):
    # a zero tolerance is never met: the 8-vertex path runs into the iteration
    # cap, the random graph's residual underflows until r.z vanishes; both end
    # in NumericalError and neither divides by zero on the way
    monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
    monkeypatch.setattr(tikhonov, "CG_RELATIVE_RESIDUAL", 0.0)
    if instance == "path":
        op = _path_instance(8)
    else:
        rng = np.random.default_rng(89)
        g = random_connected_graph(rng, 12, extra_edges=12)
        op = TikhonovOperator(g, random_training_set(rng, grid4, 12, 3), gamma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="conjugate gradient"):
            op.field()


def test_training_set_invariants(grid4):
    with pytest.raises(InputError):
        TrainingSet([])
    # a vertex is checked only against a vertex count, by the one range rule
    for v in (-1, 2**63, 2**70):
        with pytest.raises(InputError, match=rf"^sample vertex {v} outside \[0, 4\)$"):
            TrainingSet([(0, delta(grid4, 0.0)), (v, delta(grid4, 0.0))]).multiplicities(4)
    a = delta(QuantileGrid(4), 0.0)
    b = delta(QuantileGrid(8), 0.0)
    with pytest.raises(InputError):
        TrainingSet([(0, a), (1, b)])
    ts = TrainingSet([(0, a), (0, a), (2, a)])
    assert ts.m == 3
    assert ts.labeled_vertices == [0, 2]
    assert ts.max_multiplicity() == 2
    assert np.array_equal(ts.multiplicities(4), [2, 0, 1, 0])


def test_slice_rhs_is_column_of_dense_reference(grid32):
    # per-sample loop: a slice right-hand side built one sample at a time,
    # kept as the reference; the operator holds only its labeled rows
    rng = np.random.default_rng(89)
    g = random_connected_graph(rng, 5)
    labs = [random_monotone_label(rng, grid32) for _ in range(4)]
    ts = TrainingSet([(1, labs[0]), (3, labs[1]), (1, labs[2]), (0, labs[3])])
    op = TikhonovOperator(g, ts, gamma=0.8)
    rhs = dense_rhs(ts, g.n)
    fields = (TikhonovOperator(g, ts, 0.8).field(), op.field())
    for s in (0, 7, 31):
        ref = np.zeros(g.n)
        for v, lab in ts.samples:
            ref[v] += lab.values[s]
        assert rhs[:, s].tobytes() == ref.tobytes()
        assert op.block[:, s].tobytes() == ref[op.labeled].tobytes()
        for field in fields:
            op.check_residual(field.values[:, s], ref)
            op.check_residual(field.values[:, s], op.block[:, s], op.labeled)
    # the operator checks the sample range of its training set
    outside = TrainingSet([(1, labs[0]), (5, labs[1])])
    with pytest.raises(InputError, match="sample vertex 5 outside"):
        TikhonovOperator(g, outside, 0.8)


def test_counts_match_per_sample_loop(grid4):
    rng = np.random.default_rng(97)
    lab = delta(grid4, 0.0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        vertices = rng.integers(0, n, size=int(rng.integers(1, 12))).tolist()
        ts = TrainingSet([(v, lab) for v in vertices])
        ref = np.zeros(n)
        for v in vertices:
            ref[v] += 1.0
        assert np.array_equal(ts.multiplicities(n), ref)
        assert ts.max_multiplicity() == int(ref.max())
        assert ts.labeled_vertices == sorted(set(vertices))
        with pytest.raises(InputError, match=f"sample vertex {max(vertices)} outside"):
            ts.multiplicities(max(vertices))
    # the first sample outside, in sample order, from the operator too
    first = TrainingSet([(0, lab), (9, lab), (4, lab)])
    for call in (lambda: first.multiplicities(3),
                 lambda: TikhonovOperator(dict_graph(3, {(0, 1): 1.0, (1, 2): 1.0}), first, 1.0)):
        with pytest.raises(InputError, match=r"^sample vertex 9 outside \[0, 3\)$"):
            call()


def test_training_dominance_one_error(grid4):
    g = dict_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.5)), (2, delta(grid4, 3.0)), (1, delta(grid4, 4.0))])
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    messages = []
    for check in (
        lambda: check_apriori(field, env, ts),
        lambda: empirical_stability(TikhonovOperator(g, ts, 1.0), 1, env),
        lambda: ts.check_dominated(env),
    ):
        with pytest.raises(InputError) as info:
            check()
        messages.append(str(info.value))
    assert messages == ["training label at vertex 2 is not dominated by the envelope"] * 3


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_operator_rejects_bad_gamma(grid4, gamma):
    g, ts = p2_instance(grid4)
    with pytest.raises(InputError, match="gamma"):
        TikhonovOperator(g, ts, gamma)
