"""Closed-form graph solver: operator, slice columns of the field, field guarantees."""

import math

import numpy as np
import pytest

from wassprop import (
    DominatedQuantileEnvelope,
    InputError,
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
    solve_field,
    laplacian,
    spectral_gap,
    tight_envelope,
)
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


def p2_instance(grid):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid, 0.0)), (1, delta(grid, 1.0))])
    return g, ts


def test_assembly_p2_single_sample(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.7))])
    op = TikhonovOperator(g, ts, gamma=1.0)
    assert np.allclose(op.matrix.toarray(), [[2.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(ts.rhs_matrix(2)[:, 2], [0.7, 0.0])
    # [[2, -1], [-1, 1]] x = (0.7, 0) gives x = (0.7, 0.7)
    assert np.allclose(solve_field(g, ts, gamma=1.0).values[:, 2], [0.7, 0.7], atol=1e-12)


def test_assembly_multiplicity_doubles(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.7)), (0, delta(grid4, 0.7))])
    op = TikhonovOperator(g, ts, gamma=0.5)
    assert np.allclose(op.matrix.toarray(), [[3.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(ts.rhs_matrix(2)[:, 0], [1.4, 0.0])
    # [[3, -1], [-1, 1]] x = (1.4, 0) gives x = (0.7, 0.7)
    assert np.allclose(solve_field(g, ts, gamma=0.5).values[:, 0], [0.7, 0.7], atol=1e-12)


def test_assembly_centering_invariant(grid32):
    # the right-hand side centered on the sample mean, y - ybar * T 1, sums
    # to zero at every grid node, because the multiplicities sum to m
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, 6)))
        t = ts.multiplicities(n)
        assert t.sum() == ts.m
        y = ts.rhs_matrix(n)[:, int(rng.integers(0, 32))]
        ybar = y.sum() / ts.m
        assert abs(np.sum(y - ybar * t)) <= 1e-12 * max(1.0, np.abs(y).sum())


def test_assembly_disconnected_rejected(grid4):
    g = dict_graph(3, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.0))])
    with pytest.raises(StructureError):
        solve_field(g, ts, gamma=1.0)


def test_solve_slice_p2_hand_value(grid4):
    g, ts = p2_instance(grid4)
    field = solve_field(g, ts, gamma=1.0)
    for s_index in range(4):
        assert np.allclose(field.values[:, s_index], [0.4, 0.6], atol=1e-12)


def test_solve_slice_consensus(grid4):
    g = random_connected_graph(np.random.default_rng(47), 5)
    ts = TrainingSet([(0, delta(grid4, 2.5)), (3, delta(grid4, 2.5))])
    sol = solve_field(g, ts, gamma=3.0).values[:, 1]
    assert np.allclose(sol, 2.5, atol=1e-10)


def test_solve_slice_matches_dense_direct(grid32):
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 6)
    ts = random_training_set(rng, grid32, 6, 4)
    s_index = 7
    op = TikhonovOperator(g, ts, gamma=0.9)
    sol = op.field().values[:, s_index]
    dense = np.linalg.solve(op.matrix.toarray(), ts.rhs_matrix(g.n)[:, s_index])
    assert np.max(np.abs(sol - dense)) <= 1e-9


def test_solve_slice_matches_lstsq_oracle(grid32):
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, 7)))
        gamma = float(rng.uniform(0.1, 3.0))
        s_index = int(rng.integers(0, 32))
        sol = solve_field(g, ts, gamma).values[:, s_index]
        oracle = lstsq_minimizer(g, ts, gamma, s_index)
        assert np.max(np.abs(sol - oracle)) <= 1e-8


def test_solve_field_constant_training(grid32):
    g = dict_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
    lab = gaussian_quantile_label(0.0, 1.0, grid32)
    ts = TrainingSet([(0, lab), (1, lab), (2, lab)])
    field = solve_field(g, ts, gamma=0.8)
    for v in range(3):
        assert np.allclose(field.values[v], lab.values, atol=1e-9)
        assert np.all(np.diff(field.values[v]) >= 0)


def test_solve_field_p2_rows(grid4):
    g, ts = p2_instance(grid4)
    field = solve_field(g, ts, gamma=1.0)
    assert np.allclose(field.values[0], 0.4, atol=1e-12)
    assert np.allclose(field.values[1], 0.6, atol=1e-12)
    lab = field.label(0)
    assert isinstance(lab, QuantileLabel)


def test_solve_field_uniform_rows_strictly_increasing(grid32):
    g = dict_graph(2, {(0, 1): 1.0})
    u01 = QuantileLabel(grid32, grid32.nodes)
    u23 = QuantileLabel(grid32, 2.0 + grid32.nodes)
    ts = TrainingSet([(0, u01), (1, u23)])
    field = solve_field(g, ts, gamma=1.0)
    for v in range(2):
        assert np.all(np.diff(field.values[v]) > 0)


def test_field_monotone_and_max_principle_random(grid32):
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n)
        ts = random_training_set(rng, grid32, n, int(rng.integers(1, 7)))
        field = solve_field(g, ts, gamma=float(rng.uniform(0.2, 2.0)))
        assert np.all(np.diff(field.values, axis=1) >= -1e-9)
        report = check_maximum_principle(field, ts)
        assert report.ok
        assert report.extrema_on_labeled


def test_max_principle_p2(grid4):
    g, ts = p2_instance(grid4)
    field = solve_field(g, ts, gamma=1.0)
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
    field = solve_field(g, ts, gamma=0.5)
    assert field.values.min() >= -1e-9
    assert check_maximum_principle(field, ts).nonnegative_ok


def test_max_principle_star_center_between_leaves(grid4):
    g = dict_graph(4, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
    ts = TrainingSet([(1, delta(grid4, 0.0)), (2, delta(grid4, 1.0)), (3, delta(grid4, 2.0))])
    field = solve_field(g, ts, gamma=1.0)
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
    f0 = solve_field(g, ts, gamma=0.6)
    f1 = solve_field(g, shifted, gamma=0.6)
    assert np.max(np.abs(f1.values - (f0.values + c))) <= 1e-10


def test_check_apriori(grid32):
    rng = np.random.default_rng(73)
    g = random_connected_graph(rng, 5)
    ts = random_training_set(rng, grid32, 5, 3)
    env = tight_envelope([lab for _, lab in ts.samples])
    field = solve_field(g, ts, gamma=0.5)
    assert check_apriori(field, env, ts)
    wide = DominatedQuantileEnvelope(grid32, np.full(32, 10.0))
    assert check_apriori(field, wide, ts)


def test_check_apriori_constant_delta_equality(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, -1.5)), (1, delta(grid4, -1.5))])
    field = solve_field(g, ts, gamma=2.0)
    env = DominatedQuantileEnvelope(grid4, np.full(4, 1.5))
    assert check_apriori(field, env, ts)


def test_check_apriori_rejects_undominated_training(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 5.0)), (1, delta(grid4, 0.0))])
    field = solve_field(g, ts, gamma=1.0)
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    with pytest.raises(InputError):
        check_apriori(field, env, ts)


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
        f0 = solve_field(g, base, gamma)
        f1 = solve_field(g, other, gamma)
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
    field = solve_field(g, ts, gamma=1.2)
    for s in (0, 31):
        assert np.allclose(field.values[:, s], shared.values[:, s], atol=1e-12)
        assert np.allclose(op.solve(ts.rhs_matrix(g.n)[:, s]), shared.values[:, s], atol=1e-12)


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
    column = op.unit_response(4)
    assert op.unit_response(4) is column
    assert len(solves) == 2
    e = np.zeros(6)
    e[4] = 1.0
    op.check_residual(column, e)


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
    assert op._cho is None  # the conjugate-gradient path
    assert field.values.shape == (n, 4)
    assert np.all(np.diff(field.values, axis=1) >= -1e-9)
    # spot-check one slice against the oracle on the tridiagonal system
    dense = np.linalg.solve(op.matrix.toarray(), ts.rhs_matrix(n)[:, 2])
    assert np.max(np.abs(field.values[:, 2] - dense)) <= 1e-8


def test_training_set_invariants(grid4):
    with pytest.raises(InputError):
        TrainingSet([])
    with pytest.raises(InputError):
        TrainingSet([(-1, delta(grid4, 0.0))])
    a = delta(QuantileGrid(4), 0.0)
    b = delta(QuantileGrid(8), 0.0)
    with pytest.raises(InputError):
        TrainingSet([(0, a), (1, b)])
    ts = TrainingSet([(0, a), (0, a), (2, a)])
    assert ts.m == 3
    assert ts.labeled_vertices == [0, 2]
    assert ts.max_multiplicity() == 2
    assert np.array_equal(ts.multiplicities(4), [2, 0, 1, 0])


def test_slice_rhs_is_column_of_rhs_matrix(grid32):
    # per-sample loop: a slice right-hand side built one sample at a time,
    # kept as the reference
    rng = np.random.default_rng(89)
    g = random_connected_graph(rng, 5)
    labs = [random_monotone_label(rng, grid32) for _ in range(4)]
    ts = TrainingSet([(1, labs[0]), (3, labs[1]), (1, labs[2]), (0, labs[3])])
    op = TikhonovOperator(g, ts, gamma=0.8)
    rhs = ts.rhs_matrix(g.n)
    fields = (solve_field(g, ts, 0.8), op.field())
    for s in (0, 7, 31):
        ref = np.zeros(g.n)
        for v, lab in ts.samples:
            ref[v] += lab.values[s]
        assert rhs[:, s].tobytes() == ref.tobytes()
        assert op.rhs[:, s].tobytes() == ref.tobytes()
        for field in fields:
            op.check_residual(field.values[:, s], ref)
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
    first = TrainingSet([(0, lab), (9, lab), (4, lab)])
    with pytest.raises(InputError, match=r"sample vertex 9 outside \[0, 3\)"):
        first.rhs_matrix(3)


def test_training_dominance_one_error(grid4):
    g = dict_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.5)), (2, delta(grid4, 3.0)), (1, delta(grid4, 4.0))])
    field = solve_field(g, ts, gamma=1.0)
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
