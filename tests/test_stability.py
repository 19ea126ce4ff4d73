"""Stability constant, generalization bounds, and the swap stress harness."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from wassprop import (
    BoundReport,
    DimensionError,
    DominatedQuantileEnvelope,
    Hypergraph,
    HypothesisError,
    InputError,
    NumericalError,
    QuantileGrid,
    QuantileLabel,
    StabilityInputs,
    TrainingSet,
    beta,
    clique_expand,
    empirical_stability,
    generalization_bounds,
    laplacian,
    quantile_from_histogram,
    slice_shift_coefficient,
    spectral_gap,
)
from wassprop import hypergraph, stability, tikhonov
from wassprop.labels import check_quantile_samples
from wassprop.stability import SwapTrial, _random_dominated_label
from wassprop.tikhonov import TikhonovOperator
from conftest import dict_graph, random_connected_graph, random_monotone_label


def delta(grid, c):
    return quantile_from_histogram([c], [1.0], grid)


def reference_beta(m, gamma, lambda1, T, phi_sq):
    margin = m * gamma * lambda1 - T
    return 4.0 * phi_sq * (3.0 * math.sqrt(T * m) / margin**2 + 4.0 / margin + 2.0 / m)


def test_inputs_validation():
    si = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    assert si.margin == pytest.approx(499.0)
    assert si.hypothesis_holds
    with pytest.raises(InputError):
        StabilityInputs(m=0, gamma=1.0, lambda1=1.0, T=1, phi_l2_squared=1.0)
    with pytest.raises(InputError):
        StabilityInputs(m=1, gamma=-1.0, lambda1=1.0, T=1, phi_l2_squared=1.0)
    with pytest.raises(InputError):
        StabilityInputs(m=1, gamma=1.0, lambda1=1.0, T=0, phi_l2_squared=1.0)
    with pytest.raises(InputError):
        StabilityInputs(m=1, gamma=1.0, lambda1=1.0, T=1, phi_l2_squared=-0.5)


def test_inputs_from_instance(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet([(0, delta(grid4, 0.0)), (1, delta(grid4, 1.0))])
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    si = StabilityInputs.from_instance(TikhonovOperator(g, ts, 1.0), env)
    assert si.m == 2 and si.T == 1
    assert si.lambda1 == pytest.approx(2.0)
    assert si.margin == pytest.approx(3.0)
    assert si.phi_l2_squared == pytest.approx(1.0)


def test_beta_direct_substitution():
    si = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    independent = 4.0 * (30.0 / 249001.0 + 4.0 / 499.0 + 0.02)
    assert abs(beta(si) - independent) <= 1e-12
    assert beta(si) == pytest.approx(0.11256, abs=5e-5)


def test_beta_zero_envelope():
    si = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=0.0)
    assert beta(si) == 0.0


def test_beta_decreases_with_m():
    lo = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    hi = StabilityInputs(m=200, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    assert beta(hi) < beta(lo)


def test_m_beta_nonincreasing():
    values = []
    for m in (100, 1000, 10000):
        si = StabilityInputs(m=m, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
        values.append(m * beta(si))
    assert values[0] >= values[1] >= values[2]


def test_nonpositive_margin_raises():
    with pytest.raises(HypothesisError):
        slice_shift_coefficient(m=1, gamma=0.1, lambda1=0.5, T=1)
    si = StabilityInputs(m=1, gamma=0.1, lambda1=0.5, T=1, phi_l2_squared=1.0)
    assert not si.hypothesis_holds
    with pytest.raises(HypothesisError):
        beta(si)
    with pytest.raises(HypothesisError):
        generalization_bounds(si, 0.5)


def test_exponential_bound_zero_beta():
    report = BoundReport(0.0, 1.0, 100, 0.5)
    assert report.exponential_bound == pytest.approx(2.0 * math.exp(-12.5), rel=1e-12)
    assert report.fraction_bound == pytest.approx(8.0 / 25.0, rel=1e-12)
    assert report.m_ge_4
    assert report.sample_size_ok  # 100 >= 8 * 1 / 0.25 = 32
    assert not report.fraction_vacuous
    assert not report.exponential_vacuous


def test_fraction_bound_vacuous_flagged():
    si = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    report = generalization_bounds(si, 1.0)
    b = reference_beta(100, 10.0, 0.5, 1, 1.0)
    expected_fraction = (64.0 * 4.0 * 100.0 * b + 8.0 * 16.0) / 100.0
    assert report.fraction_bound == pytest.approx(expected_fraction, rel=1e-12)
    assert report.fraction_bound > 1.0
    assert report.fraction_vacuous
    assert report.M == pytest.approx(4.0)


def test_bounds_monotone_in_epsilon():
    si = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    eps = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
    fracs = [generalization_bounds(si, e).fraction_bound for e in eps]
    exps = [generalization_bounds(si, e).exponential_bound for e in eps]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    assert all(a >= b for a, b in zip(exps, exps[1:]))
    huge = generalization_bounds(si, 1e6)
    assert huge.fraction_bound <= 1e-8
    assert huge.exponential_bound <= 1e-8


def test_bounds_input_validation():
    with pytest.raises(InputError):
        BoundReport(0.1, 1.0, 100, 0.0)
    with pytest.raises(InputError):
        BoundReport(0.1, 1.0, 0, 0.5)


def test_bound_report_refuses_what_the_cli_refuses():
    # the constructor itself checks epsilon and m, with the CLI's messages
    for eps in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(InputError, match=rf"^epsilon must be positive and finite, got {eps}$"):
            BoundReport(0.1, 1.0, 100, eps)
    for m in (0, -3):
        with pytest.raises(InputError, match=rf"^m must be >= 1, got {m}$"):
            BoundReport(0.1, 1.0, m, 0.5)


SCALES = (1e-170, 1e-150, 1e-100, 1e-5, 1.0, 1e5, 1e100, 1e150, 1e200)


def _rounded(x: Fraction) -> float:
    """x rounded once to a float, inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def test_bounds_match_exact_rationals_across_scales():
    # where the float expressions under- or overflow, the bounds still read
    # as the same formulas in exact rationals
    for b, M, eps, m in itertools.product((0.0, *SCALES), (0.0, *SCALES), SCALES, (1, 7, 1000)):
        report = BoundReport(b, M, m, eps)
        beta_, M_, eps_ = Fraction(b), Fraction(M), Fraction(eps)
        fraction = (64 * M_ * m * beta_ + 8 * M_ * M_) / (m * eps_ * eps_)
        exponent = m * eps_ * eps_ / (2 * (m * beta_ + M_) ** 2) if b or M else math.inf
        case = (b, M, eps, m)
        assert report.fraction_bound == pytest.approx(_rounded(fraction), rel=1e-12, abs=1e-300), case
        assert report.exponential_bound == pytest.approx(
            2.0 * math.exp(-_rounded(exponent)), rel=1e-12, abs=1e-300), case
        assert report.sample_size_ok == (m * eps_ * eps_ >= 8 * M_ * M_), case


def test_bounds_of_an_infinite_beta_or_M_are_vacuous():
    # an overflowed beta or M gives the bounds' limits, never nan
    for (b, M), eps, m in itertools.product(((math.inf, 4.0), (math.inf, math.inf)), SCALES, (1, 1000)):
        report = BoundReport(b, M, m, eps)
        assert report.fraction_bound == math.inf and report.fraction_vacuous
        assert report.exponential_bound == 2.0 and report.exponential_vacuous
        assert report.sample_size_ok == (M < math.inf and m * Fraction(eps) ** 2 >= 8 * Fraction(M) ** 2)


def test_slice_shift_coefficient_matches_exact_rationals_across_scales():
    # margin**2 overflows past about 1.3e154, where the first term is 0
    for gamma, lambda1, (m, T) in itertools.product(SCALES, SCALES, ((1, 1), (7, 3), (1000, 10))):
        margin = m * gamma * lambda1 - T
        if margin <= 0:
            continue
        exact = Fraction(2, m)
        if margin < math.inf:
            exact += 3 * Fraction(math.sqrt(T * m)) / Fraction(margin) ** 2 + 4 / Fraction(margin)
        assert slice_shift_coefficient(m, gamma, lambda1, T) == pytest.approx(float(exact), rel=1e-13)


def test_zero_beta_zero_m_denominator():
    # beta = M = 0 makes the exponential denominator vanish; bound is 0
    report = BoundReport(0.0, 0.0, 10, 1.0)
    assert report.exponential_bound == 0.0
    assert report.fraction_bound == 0.0


def test_self_swap_is_exactly_zero(grid32):
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 5)
    labels = [
        QuantileLabel(grid32, 0.5 * np.sort(rng.uniform(-1.0, 1.0, 32))) for _ in range(3)
    ]
    ts = TrainingSet([(0, labels[0]), (2, labels[1]), (4, labels[2])])
    same = ts.replaced(1, 2, labels[1])
    f0 = TikhonovOperator(g, ts, gamma=1.0).field()
    f1 = TikhonovOperator(g, same, gamma=1.0).field()
    assert np.array_equal(f0.values, f1.values)


def test_p2_hand_swap(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    base = TrainingSet([(0, delta(grid4, 0.0)), (1, delta(grid4, 1.0))])
    swapped = base.replaced(1, 1, delta(grid4, 0.0))
    f0 = TikhonovOperator(g, base, gamma=1.0).field()
    f1 = TikhonovOperator(g, swapped, gamma=1.0).field()
    assert np.allclose(f0.values[0], 0.4, atol=1e-12)
    assert np.allclose(f0.values[1], 0.6, atol=1e-12)
    assert np.allclose(f1.values, 0.0, atol=1e-12)
    shift = np.max(np.abs(f0.values - f1.values))
    assert shift == pytest.approx(0.6, abs=1e-12)
    # coefficient with m=2, gamma=1, lambda1=2, T=1 and M_s = 1
    coeff = slice_shift_coefficient(m=2, gamma=1.0, lambda1=2.0, T=1)
    assert coeff == pytest.approx(3.0 * math.sqrt(2.0) / 9.0 + 4.0 / 3.0 + 1.0, rel=1e-12)
    assert shift <= coeff * 1.0


def test_empirical_stability_random_graph(grid32):
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 10)
    env = DominatedQuantileEnvelope(grid32, np.full(32, 2.0))
    labels = [
        QuantileLabel(grid32, 2.0 * np.sort(rng.uniform(-1.0, 1.0, 32))) for _ in range(4)
    ]
    vertices = [0, 3, 6, 9]
    base = TrainingSet(list(zip(vertices, labels)))
    gap = spectral_gap(laplacian(g))
    gamma = max(1.0, 2.0 / (base.m * gap))
    op = TikhonovOperator(g, base, gamma)
    report = empirical_stability(op, swaps=20, envelope=env, seed=7)
    assert len(report.trials) == 20
    assert report.ok
    assert report.worst_slice_ratio <= 1.0 + 1e-9
    assert report.worst_cost_ratio <= 1.0 + 1e-9
    assert report.beta > 0.0


@pytest.mark.parametrize("bound, message", [
    ("slice_shift_coefficient", r"^swap 0: slice shift ratio \S+ exceeds the proven bound$"),
    ("beta", r"^swap 0: cost shift ratio \S+ exceeds beta$"),
])
def test_empirical_stability_refuses_a_shift_past_its_bound(grid32, monkeypatch, bound, message):
    # a measured shift past its proven bound is a solver defect: shrink the
    # slice coefficient, or beta, and the first swap is refused by name
    _, g, base = _swap_instance(8, grid32, 10, [2, 5, 9])
    env = DominatedQuantileEnvelope(grid32, np.full(32, 2.0))
    op = TikhonovOperator(g, base, 5.0)
    assert empirical_stability(op, swaps=3, envelope=env, seed=4).ok
    monkeypatch.setattr(stability, bound, lambda *args: 1e-12)
    with pytest.raises(NumericalError, match=message):
        empirical_stability(op, swaps=3, envelope=env, seed=4)


def test_empirical_stability_envelope_violation(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    base = TrainingSet([(0, delta(grid4, 5.0)), (1, delta(grid4, 0.0))])
    with pytest.raises(InputError):
        empirical_stability(TikhonovOperator(g, base, 10.0), swaps=1, envelope=env)


def test_empirical_stability_margin_violation(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    base = TrainingSet([(0, delta(grid4, 0.0))])
    # m=1, gamma=0.4: margin = 1*0.4*2 - 1 < 0
    with pytest.raises(HypothesisError):
        empirical_stability(TikhonovOperator(g, base, 0.4), swaps=1, envelope=env)


def test_nonpositive_margin_reads_the_same_everywhere(grid4):
    # one margin, m*gamma*lambda1 - T, and one HypothesisError for it
    g = dict_graph(2, {(0, 1): 1.0})
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    op = TikhonovOperator(g, TrainingSet([(0, delta(grid4, 0.0))]), 0.4)
    si = StabilityInputs.from_instance(op, env)
    with pytest.warns(UserWarning, match="invertibility margin"):
        assert stability.invertibility_margin(op) == si.margin == 1 * 0.4 * op.lambda1 - 1
    message = rf"^margin m\*gamma\*lambda1 - T = {si.margin:.6g} must be positive$"
    for call in (lambda: slice_shift_coefficient(si.m, si.gamma, si.lambda1, si.T),
                 lambda: beta(si), lambda: generalization_bounds(si, 0.5),
                 lambda: empirical_stability(op, swaps=1, envelope=env)):
        with pytest.raises(HypothesisError, match=message):
            call()


def test_empirical_stability_swaps_validated(grid4):
    g = dict_graph(2, {(0, 1): 1.0})
    env = DominatedQuantileEnvelope(grid4, np.ones(4))
    base = TrainingSet([(0, delta(grid4, 0.0)), (1, delta(grid4, 0.5))])
    with pytest.raises(InputError):
        empirical_stability(TikhonovOperator(g, base, 1.0), swaps=0, envelope=env)


def _swap_instance(seed, grid, n, vertices):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=n)
    base = TrainingSet([(v, random_monotone_label(rng, grid)) for v in vertices])
    return rng, g, base


@pytest.mark.parametrize("cg_path", [False, True])
def test_swap_update_matches_fresh_solve(grid32, monkeypatch, cg_path):
    if cg_path:
        # CG stops at a relative residual of 1e-10, which alone keeps two CG
        # solves from agreeing to 1e-12; a tighter stop leaves the update's error
        monkeypatch.setattr(tikhonov, "DENSE_SOLVE_LIMIT", 5)
        monkeypatch.setattr(tikhonov, "CG_RELATIVE_RESIDUAL", 1e-14)
    for seed in range(4):
        # vertex 2 carries two samples: multiplicity 2 in T
        rng, g, base = _swap_instance(seed, grid32, 12, [0, 2, 2, 7, 11])
        op = TikhonovOperator(g, base, gamma=0.8)
        assert op.uses_cholesky(op.labeled.size) != cg_path
        for idx in range(base.m):
            label = random_monotone_label(rng, grid32)
            updated = op.swapped_field(idx, label).values
            fresh = TikhonovOperator(g, base.replaced(idx, base.samples[idx][0], label), 0.8).field().values
            assert np.max(np.abs(updated - fresh)) <= 1e-12 * np.max(np.abs(fresh))


def _replayed_fields(op, env, report, seed):
    """Each trial with the base field and its swapped field, from the harness's draws."""
    rng = np.random.default_rng(seed)
    x = op.field().values
    for trial in report.trials:
        idx = int(rng.integers(0, op.m))
        assert trial.sample_index == idx
        yield trial, x, op.swapped_field(idx, _random_dominated_label(rng, env)).values


def _cost_shifts(x, other, probes):
    """(1/S)||x - p||^2 - (1/S)||x' - p||^2 for each probe row p, unfactored."""
    return np.array([np.mean((x - p) ** 2) - np.mean((other - p) ** 2) for p in probes])


def _step_probes(S, c):
    """The S+1 step probes: -c before node t and +c from t on."""
    return np.where(np.arange(S) >= np.arange(S + 1)[:, None], c, -c)


def test_cost_ratios_match_per_probe_costs(grid32):
    # replay the harness's draws and take the cost shift of every step probe
    # at every vertex, one probe at a time against the field rows
    _, g, base = _swap_instance(10, grid32, 9, [1, 4, 4, 7])
    env = DominatedQuantileEnvelope(grid32, np.linspace(2.0, 3.0, 32))
    op = TikhonovOperator(g, base, 5.0)
    report = empirical_stability(op, swaps=3, envelope=env, seed=6)
    probes = _step_probes(32, 2.0)
    for trial, x, other in _replayed_fields(op, env, report, seed=6):
        worst = max(np.max(np.abs(_cost_shifts(x[v], other[v], probes))) for v in range(g.n))
        assert math.isclose(trial.cost_shift_ratio * report.beta, worst, rel_tol=1e-12)


def _probe_extremes(x, other, c):
    """Largest and smallest cost shift over monotone p in [-c, c], each by a
    linear program: the shift is (1/S)(x - x').(x + x' - 2p)."""
    S = x.size
    d = x - other
    monotone = np.eye(S, k=0)[:-1] - np.eye(S, k=1)[:-1]  # p_s - p_{s+1} <= 0
    a_ub, b_ub = (monotone, np.zeros(S - 1)) if S > 1 else (None, None)
    extremes = []
    for sign in (-1.0, 1.0):  # -1: minimize d.p for the largest shift
        res = scipy.optimize.linprog(-sign * d, A_ub=a_ub, b_ub=b_ub, bounds=[(-c, c)] * S)
        assert res.status == 0
        extremes.append(_cost_shifts(x, other, [res.x])[0])
    return extremes


@pytest.mark.parametrize("S, c", [(1, 0.5), (4, 1.0), (8, 0.7), (8, 0.0)])
def test_step_probe_is_the_supremum_over_monotone_probes(S, c):
    grid = QuantileGrid(S)
    rng = np.random.default_rng(S + int(10 * c))
    phi = c + np.linspace(0.0, 1.0, S)  # min phi = c, and phi grows
    env = DominatedQuantileEnvelope(grid, phi)
    g = random_connected_graph(rng, 6)
    # labels narrower than the swapped-in ones in [-c, c], so x - x' changes
    # sign and the worst step is often inside the grid; at c = 0 they are
    # zero where phi is, and grow with it
    labels = [
        QuantileLabel(grid, 0.25 * c * np.sort(rng.uniform(-1.0, 1.0, S)) if c > 0
                      else phi * np.sort(rng.uniform(0.0, 1.0, S)))
        for _ in range(3)
    ]
    base = TrainingSet(list(zip([0, 2, 5], labels)))
    op = TikhonovOperator(g, base, max(1.0, 2.0 / (base.m * spectral_gap(laplacian(g)))))
    report = empirical_stability(op, swaps=3, envelope=env, seed=S)
    for trial, x, other in _replayed_fields(op, env, report, seed=S):
        sups = []
        for v in range(g.n):
            step = np.max(np.abs(_cost_shifts(x[v], other[v], _step_probes(S, c))))
            sup = max(abs(e) for e in _probe_extremes(x[v], other[v], c))
            assert abs(step - sup) <= 1e-12 * max(1.0, sup)
            probes = np.sort(rng.uniform(-c, c, (200, S)), axis=1)
            assert np.max(np.abs(_cost_shifts(x[v], other[v], probes))) <= step * (1 + 1e-12)
            sups.append(sup)
        assert math.isclose(trial.cost_shift_ratio * report.beta, max(sups), rel_tol=1e-12)


def test_quantile_block_check():
    good = np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, (5, 8)), axis=1)
    check_quantile_samples(good, (5, 8))
    with pytest.raises(DimensionError):
        check_quantile_samples(good, (5, 9))
    for row, col, value in ((2, 3, np.nan), (0, 7, np.inf), (4, 0, 5.0)):
        bad = good.copy()
        bad[row, col] = value
        with pytest.raises(InputError):
            check_quantile_samples(bad, (5, 8))


@pytest.mark.parametrize("swaps", [1, 6])
def test_empirical_stability_builds_one_operator(grid32, monkeypatch, swaps):
    _, g, base = _swap_instance(5, grid32, 10, [1, 4, 4, 8])
    calls = []
    original = TikhonovOperator.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TikhonovOperator, "__init__", counting)
    factor = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor", lambda a, **kw: calls.append(2) or factor(a, **kw))
    env = DominatedQuantileEnvelope(grid32, np.full(32, 2.0))
    op = TikhonovOperator(g, base, 5.0)
    assert calls == [1]  # factored on the first solve, not on construction
    report = empirical_stability(op, swaps=swaps, envelope=env, seed=2)
    assert len(report.trials) == swaps and report.ok
    assert calls == [1, 2]  # one operator, one factorization for every swap


def _swap_with_corrupted_column(grid, monkeypatch, delta):
    _, g, base = _swap_instance(6, grid, 10, [0, 3, 9])
    op = TikhonovOperator(g, base, 5.0)
    op.field()
    # corrupt one Green's column after it passed its own solve check: the
    # swapped field built from it must fail the residual check
    corrupt = op.green.copy()
    corrupt[:, 1] += delta
    monkeypatch.setitem(vars(op), "green", corrupt)
    env = DominatedQuantileEnvelope(grid, np.full(32, 2.0))
    with pytest.raises(NumericalError, match="residual"):
        empirical_stability(op, swaps=2, envelope=env, seed=0)


def test_corrupted_column_solve_fails_residual_check(grid32, monkeypatch):
    _swap_with_corrupted_column(grid32, monkeypatch, 1e-3)


def test_slightly_corrupted_column_solve_fails_residual_check(grid32, monkeypatch):
    # the contract's rounding floor, 100 eps ||A||_inf ||x||_inf, is far below this
    _swap_with_corrupted_column(grid32, monkeypatch, 1e-7)


@pytest.mark.parametrize("index", [-1, 3])
def test_swap_index_outside_samples_rejected(grid32, index):
    _, g, base = _swap_instance(6, grid32, 10, [0, 3, 9])
    label = base.samples[0][1]
    with pytest.raises(InputError, match=rf"sample index {index} outside \[0, 3\)"):
        TikhonovOperator(g, base, 5.0).swapped_field(index, label)
    with pytest.raises(InputError, match=rf"sample index {index} outside \[0, 3\)"):
        base.replaced(index, 0, label)


def test_swapped_fields_pass_monotonicity_check(grid32, monkeypatch):
    _, g, base = _swap_instance(7, grid32, 10, [0, 3, 9])
    checked = []
    original = tikhonov.monotone_field
    monkeypatch.setattr(
        tikhonov, "monotone_field", lambda grid, phi: checked.append(1) or original(grid, phi)
    )
    env = DominatedQuantileEnvelope(grid32, np.full(32, 2.0))
    empirical_stability(TikhonovOperator(g, base, 5.0), swaps=3, envelope=env, seed=0)
    assert len(checked) == 1 + 3  # the base field, then each swapped field


def test_empirical_stability_shared_inputs(grid32, monkeypatch):
    # the report and the harness share the operator, so lambda_1 is computed once
    _, g, base = _swap_instance(8, grid32, 10, [2, 5, 9])
    env = DominatedQuantileEnvelope(grid32, np.full(32, 2.0))
    gaps = []
    gap = tikhonov.spectral_gap
    monkeypatch.setattr(tikhonov, "spectral_gap", lambda lap: gaps.append(1) or gap(lap))
    op = TikhonovOperator(g, base, 5.0)
    si = StabilityInputs.from_instance(op, env)
    shared = empirical_stability(op, swaps=3, envelope=env, seed=4)
    assert len(gaps) == 1 and si.lambda1 == op.lambda1
    own = empirical_stability(TikhonovOperator(g, base, 5.0), swaps=3, envelope=env, seed=4)
    assert shared == own


def _clique_instance(n, grid, seed):
    """An instance shaped like the benchmark's stability workload: the clique
    expansion of 3n random hyperedges of 2 to 7 vertices plus a spanning
    cycle, n // 50 labeled vertices, gamma 1.5, and an envelope phi >= 1."""
    rng = np.random.default_rng(seed)
    edges = [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist()))
             for k in rng.integers(2, 8, 3 * n)]
    edges += [tuple(sorted((v, (v + 1) % n))) for v in range(n)]
    known = rng.choice(n, n // 50, replace=False)
    ts = TrainingSet([(int(v), random_monotone_label(rng, grid, spread=1.0)) for v in known])
    env = DominatedQuantileEnvelope(grid, np.linspace(1.0, 1.5, grid.size))
    return TikhonovOperator(clique_expand(Hypergraph(n, edges)), ts, 1.5), env


def _whole_block_ratios(x, other, env, coeff, beta_value):
    """One swap's (slice, cost) ratios from the whole (n, S) fields at once:
    the harness's formulas without its row blocks."""
    S = env.grid.size
    bound = coeff * env.phi
    c = float(env.phi.min())
    d = x - other
    shift = np.max(np.abs(d), axis=0)
    slice_ratio = float(np.where(bound > 0, shift / np.where(bound > 0, bound, 1.0), 0.0).max())
    prefix = np.zeros((d.shape[0], S + 1))
    np.cumsum(d, axis=1, out=prefix[:, 1:])
    shifts = np.einsum("vs,vs->v", d, x + other)[:, None] - 2.0 * c * (prefix[:, -1:] - 2.0 * prefix)
    return slice_ratio, float(np.max(np.abs(shifts))) / S / beta_value


def _assert_blocked_trials_exact(op, env, swaps, seed):
    report = empirical_stability(op, swaps=swaps, envelope=env, seed=seed)
    si = StabilityInputs.from_instance(op, env)
    coeff = slice_shift_coefficient(si.m, si.gamma, si.lambda1, si.T)
    assert report.beta == beta(si)
    for trial, x, other in _replayed_fields(op, env, report, seed):
        assert trial == SwapTrial(trial.sample_index, *_whole_block_ratios(x, other, env, coeff, report.beta))


@pytest.mark.parametrize("S", [1, 32])
@pytest.mark.parametrize("n", [5, 16, 21])  # below one block of 8 rows, two blocks, and 2 5/8
def test_blocked_swap_statistics_are_bit_exact(monkeypatch, S, n):
    monkeypatch.setattr(stability, "SWAP_BLOCK_VALUES", 8 * S)
    grid = QuantileGrid(S)
    _, g, base = _swap_instance(n + S, grid, n, [0, 2, 2, n - 1])
    gamma = max(1.0, 4.0 / (base.m * spectral_gap(laplacian(g))))
    env = DominatedQuantileEnvelope(grid, np.linspace(2.0, 3.0, S))
    _assert_blocked_trials_exact(TikhonovOperator(g, base, gamma), env, swaps=5, seed=n)


def test_blocked_swap_statistics_are_bit_exact_on_a_dense_lanczos_instance():
    # SWAP_BLOCK_VALUES itself: 600 rows in blocks of 8192 // 32 = 256; the
    # cost rule keeps this 12-column block on Cholesky
    op, env = _clique_instance(600, QuantileGrid(32), seed=12)
    assert hypergraph.DENSE_EIG_LIMIT < op.graph.n and op.uses_cholesky(op.labeled.size)
    _assert_blocked_trials_exact(op, env, swaps=3, seed=5)


def test_small_k_green_block_densifies_no_a():
    # the benchmark's stability shape, n = 1000 and k = 20: the cost rule sends
    # the block to PCG, whose peak is about 8.1 (n, k) blocks (x, r, p, z, A p,
    # the unit columns and two products), 0.16 n^2 floats; Cholesky read 1.08
    n = 1000
    op, _ = _clique_instance(n, QuantileGrid(64), seed=11)
    k = op.labeled.size
    assert not op.uses_cholesky(k)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op.green
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 9 * n * k * 8


def test_dense_path_working_set():
    # tracemalloc sees numpy's buffers and f2py's copies for LAPACK.  The
    # Green's block factors one Fortran-ordered copy of A in place, and the
    # operator keeps G alone.  The peak, 1.081 n^2 floats, is that copy and
    # the (n, k) blocks; cho_factor's n^2-byte finiteness masks read 1.146,
    # copying through a CSC conversion of A 1.160, a dense copy of A kept
    # with cho_factor's own copy 2.0, and keeping the factor held 1.0.
    # A swap holds the base field, the swapped one with its residual check,
    # and a few row blocks: whole (n, S + 1) temporaries read about 7.5 fields
    n, grid = 600, QuantileGrid(64)
    op, env = _clique_instance(n, grid, seed=11)
    assert op.uses_cholesky(op.labeled.size)  # 12 columns: the cost rule's Cholesky side
    op.lambda1  # the CLI's report computes it before the swaps
    dense, field = n * n * 8, n * grid.size * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op.green
        held, peak = tracemalloc.get_traced_memory()
        assert peak - start <= 1.09 * dense
        assert held - start <= 0.1 * dense
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        report = empirical_stability(op, swaps=4, envelope=env, seed=3)
        assert tracemalloc.get_traced_memory()[1] - start <= 4.5 * field
    finally:
        tracemalloc.stop()
    assert report.ok
