"""Label backends: quantile transform, transport distances, barycenters."""

import math

import numpy as np
import pytest
import scipy.special
from scipy.stats import norm

from wassprop import (
    DiagGaussianLabel,
    DimensionError,
    DominatedQuantileEnvelope,
    InputError,
    NormalizationError,
    QuantileGrid,
    QuantileLabel,
    barycenter_energy,
    barycenter_gaussian,
    barycenter_quantile,
    check_dominated,
    gaussian_quantile_label,
    quantile_from_histogram,
    tight_envelope,
    w2_squared_gaussian,
    w2_squared_quantile,
)
from wassprop.labels import ndtri, standard_normal_quantiles
from conftest import random_histogram_label


def brute_force_inverse(bins, masses, s):
    """Oracle: smallest bin value whose cumulative mass strictly exceeds s."""
    total = 0.0
    for b, m in zip(bins, masses):
        total += m
        if total > s:
            return b
    return bins[-1]


def delta(grid, c):
    return quantile_from_histogram([c], [1.0], grid)


def test_grid_nodes():
    grid = QuantileGrid(4)
    assert np.allclose(grid.nodes, [0.125, 0.375, 0.625, 0.875])
    assert all(0 < s < 1 for s in grid.nodes)
    spacing = np.diff(grid.nodes)
    assert np.allclose(spacing, 1.0 / 4)
    with pytest.raises(InputError):
        QuantileGrid(0)


def test_histogram_point_mass(grid4):
    lab = quantile_from_histogram([0.0], [1.0], grid4)
    assert np.array_equal(lab.values, np.zeros(4))


def test_histogram_median_split(grid4):
    lab = quantile_from_histogram([0.0, 1.0], [0.5, 0.5], grid4)
    assert np.array_equal(lab.values, [0.0, 0.0, 1.0, 1.0])


def test_histogram_matches_brute_force_scan():
    grid = QuantileGrid(10)
    bins, masses = [0.0, 1.0, 2.0], [0.2, 0.5, 0.3]
    lab = quantile_from_histogram(bins, masses, grid)
    expected = [brute_force_inverse(bins, masses, s) for s in grid.nodes]
    assert np.array_equal(lab.values, expected)


def test_histogram_random_against_oracle():
    rng = np.random.default_rng(7)
    grid = QuantileGrid(64)
    for _ in range(50):
        nbins = int(rng.integers(1, 7))
        bins = np.sort(rng.choice(np.linspace(-3, 3, 50), size=nbins, replace=False))
        masses = rng.dirichlet(np.ones(nbins))
        lab = quantile_from_histogram(bins, masses, grid)
        expected = [brute_force_inverse(bins, masses, s) for s in grid.nodes]
        assert np.array_equal(lab.values, expected)


def test_histogram_errors(grid4):
    with pytest.raises(NormalizationError):
        quantile_from_histogram([0.0, 1.0], [0.5, 0.4], grid4)
    with pytest.raises(InputError):
        quantile_from_histogram([1.0, 0.0], [0.5, 0.5], grid4)
    with pytest.raises(InputError):
        quantile_from_histogram([0.0, 1.0], [1.5, -0.5], grid4)
    # a NaN mass makes every comparison false, so it is rejected by name
    for masses in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(InputError, match="finite"):
            quantile_from_histogram([0.0, 1.0], masses, grid4)
    with pytest.raises(InputError):
        quantile_from_histogram([0.0, 1.0], [1.0], grid4)


def test_quantile_label_invariants(grid4):
    with pytest.raises(InputError):
        QuantileLabel(grid4, [0.0, 1.0, 0.5, 2.0])
    with pytest.raises(InputError):
        QuantileLabel(grid4, [0.0, 1.0, np.inf, np.inf])
    with pytest.raises(DimensionError):
        QuantileLabel(grid4, [0.0, 1.0])


def test_w2_point_masses(grid32):
    assert w2_squared_quantile(delta(grid32, 0.0), delta(grid32, 1.0)) == pytest.approx(1.0)
    mu = random_histogram_label(np.random.default_rng(0), grid32)
    assert w2_squared_quantile(mu, mu) == 0.0


def test_w2_translated_uniform(grid32):
    u = QuantileLabel(grid32, grid32.nodes)
    shifted = QuantileLabel(grid32, grid32.nodes + 2.5)
    assert w2_squared_quantile(u, shifted) == pytest.approx(6.25, abs=1e-12)


def test_w2_grid_mismatch():
    a = delta(QuantileGrid(4), 0.0)
    b = delta(QuantileGrid(8), 0.0)
    with pytest.raises(DimensionError):
        w2_squared_quantile(a, b)


def test_w2_metric_properties(grid32):
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = random_histogram_label(rng, grid32)
        b = random_histogram_label(rng, grid32)
        c = random_histogram_label(rng, grid32)
        assert w2_squared_quantile(a, b) == w2_squared_quantile(b, a)
        dab = math.sqrt(w2_squared_quantile(a, b))
        dbc = math.sqrt(w2_squared_quantile(b, c))
        dac = math.sqrt(w2_squared_quantile(a, c))
        assert dac <= dab + dbc + 1e-12


def test_barycenter_midpoint(grid4):
    bar = barycenter_quantile([1.0, 1.0], [delta(grid4, 0.0), delta(grid4, 1.0)])
    assert np.array_equal(bar.values, np.full(4, 0.5))


def test_barycenter_gaussian_samples(grid32):
    a = gaussian_quantile_label(0.0, 1.0, grid32)
    b = gaussian_quantile_label(2.0, 1.0, grid32)
    bar = barycenter_quantile([1.0, 1.0], [a, b])
    expected = gaussian_quantile_label(1.0, 1.0, grid32)
    assert np.allclose(bar.values, expected.values, atol=1e-12)


def test_barycenter_weighted(grid4):
    bar = barycenter_quantile([1.0, 3.0], [delta(grid4, 0.0), delta(grid4, 4.0)])
    assert np.allclose(bar.values, np.full(4, 3.0))


def test_barycenter_errors(grid4):
    with pytest.raises(InputError):
        barycenter_quantile([], [])
    with pytest.raises(InputError):
        barycenter_quantile([1.0, -1.0], [delta(grid4, 0.0), delta(grid4, 1.0)])


def test_barycenter_energy_two_points(grid32):
    assert barycenter_energy([delta(grid32, 0.0), delta(grid32, 1.0)]) == pytest.approx(0.25)
    mu = random_histogram_label(np.random.default_rng(1), grid32)
    assert barycenter_energy([mu, mu, mu]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InputError):
        barycenter_energy([mu])


def test_barycenter_energy_pairwise_oracle(grid32):
    rng = np.random.default_rng(11)
    labels = [random_histogram_label(rng, grid32) for _ in range(4)]
    pairwise = sum(
        w2_squared_quantile(labels[i], labels[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert abs(barycenter_energy(labels) - pairwise / 16.0) <= 1e-10


def test_barycenter_identity_random_sets(grid32):
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        labels = [random_histogram_label(rng, grid32) for _ in range(k)]
        pairwise = sum(
            w2_squared_quantile(labels[i], labels[j])
            for i in range(k)
            for j in range(i + 1, k)
        )
        assert abs(barycenter_energy(labels) - pairwise / k**2) <= 1e-10


def test_barycenter_local_minimality(grid32):
    rng = np.random.default_rng(9)
    labels = [random_histogram_label(rng, grid32) for _ in range(5)]
    bar = barycenter_quantile(np.ones(5), labels)
    base = np.mean([w2_squared_quantile(mu, bar) for mu in labels])
    assert base == pytest.approx(barycenter_energy(labels), abs=1e-12)
    for _ in range(20):
        j = int(rng.integers(0, grid32.size))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        bumped = np.array(bar.values)
        bumped[j] += sign * 1e-3
        # perturbed samples may break monotonicity; evaluate the quadratic directly
        perturbed_avg = np.mean(
            [np.mean((np.asarray(mu.values) - bumped) ** 2) for mu in labels]
        )
        assert perturbed_avg >= base - 1e-15


def test_barycenter_monotone_closure(grid32):
    rng = np.random.default_rng(13)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        labels = [random_histogram_label(rng, grid32) for _ in range(k)]
        weights = rng.uniform(0.1, 3.0, k)
        bar = barycenter_quantile(weights, labels)
        assert np.all(np.diff(bar.values) >= 0)


def test_gaussian_w2_examples():
    a = DiagGaussianLabel([0.0], [0.1])
    b = DiagGaussianLabel([1.0], [0.1])
    assert w2_squared_gaussian(a, b) == pytest.approx(1.0)
    assert w2_squared_gaussian(a, a) == 0.0
    c = DiagGaussianLabel([0.0, 0.0], [1.0, 2.0])
    d = DiagGaussianLabel([3.0, 4.0], [2.0, 1.0])
    assert w2_squared_gaussian(c, d) == pytest.approx(27.0)
    with pytest.raises(DimensionError):
        w2_squared_gaussian(a, c)


def test_gaussian_barycenter_examples():
    a = DiagGaussianLabel([0.0], [1.0])
    b = DiagGaussianLabel([2.0], [1.0])
    bar = barycenter_gaussian([1.0, 1.0], [a, b])
    assert np.allclose(bar.mean, [1.0]) and np.allclose(bar.std, [1.0])
    single = barycenter_gaussian([2.0], [a])
    assert np.allclose(single.mean, a.mean) and np.allclose(single.std, a.std)
    c = DiagGaussianLabel([0.0], [0.3])
    d = DiagGaussianLabel([3.0], [0.9])
    bar2 = barycenter_gaussian([2.0, 1.0], [c, d])
    assert np.allclose(bar2.mean, [1.0]) and np.allclose(bar2.std, [0.5])
    with pytest.raises(InputError):
        barycenter_gaussian([], [])


def test_gaussian_label_invariants():
    with pytest.raises(InputError):
        DiagGaussianLabel([0.0], [-0.1])
    with pytest.raises(DimensionError):
        DiagGaussianLabel([0.0, 1.0], [0.1])
    with pytest.raises(InputError):
        DiagGaussianLabel([], [])


def test_gaussian_quantile_consistency():
    # quadrature error is (std gap)^2 times the E[z^2] midpoint deficit
    grid = QuantileGrid(4096)
    cases = [((0.0, 0.5), (2.0, 1.5)), ((-1.0, 1.0), (1.0, 0.2)), ((0.3, 0.7), (0.3, 1.4))]
    for (m1, s1), (m2, s2) in cases:
        exact = w2_squared_gaussian(DiagGaussianLabel([m1], [s1]), DiagGaussianLabel([m2], [s2]))
        sampled = w2_squared_quantile(
            gaussian_quantile_label(m1, s1, grid), gaussian_quantile_label(m2, s2, grid)
        )
        assert abs(exact - sampled) <= 1e-3


def test_check_dominated_examples(grid32):
    ones = DominatedQuantileEnvelope(grid32, np.ones(32))
    assert check_dominated(delta(grid32, 0.0), ones)
    assert not check_dominated(delta(grid32, 2.0), ones)
    uniform = QuantileLabel(grid32, 2.0 * grid32.nodes - 1.0)
    vee = DominatedQuantileEnvelope(grid32, np.abs(2.0 * grid32.nodes - 1.0))
    assert check_dominated(uniform, vee)
    with pytest.raises(DimensionError):
        check_dominated(delta(QuantileGrid(8), 0.0), ones)


def test_envelope_invariants(grid32):
    with pytest.raises(InputError):
        DominatedQuantileEnvelope(grid32, -np.ones(32))
    env = DominatedQuantileEnvelope(grid32, np.full(32, 2.0))
    assert env.phi_l2_squared == pytest.approx(4.0)
    # phi^2 past the float range is refused, not computed to inf with a warning
    with pytest.raises(InputError, match="squared L2 norm overflows"):
        DominatedQuantileEnvelope(grid32, np.full(32, 1e200))


def test_tight_envelope_dominates(grid32):
    rng = np.random.default_rng(17)
    labels = [random_histogram_label(rng, grid32) for _ in range(6)]
    env = tight_envelope(labels)
    assert all(check_dominated(lab, env) for lab in labels)


def test_gaussian_quantile_label_shape(grid32):
    lab = gaussian_quantile_label(1.5, 0.5, grid32)
    assert np.allclose(lab.values, 1.5 + 0.5 * norm.ppf(grid32.nodes))


def bits(values):
    """The IEEE bit patterns of float64 values: equal only if bit for bit equal."""
    return np.asarray(values, dtype=float).view(np.int64)


def test_standard_normal_quantiles_match_scipy_on_every_grid():
    # the Cephes port gives scipy's bits on all 8.4 million nodes of S <= 4096
    for size in range(1, 4097):
        grid = QuantileGrid(size)
        expected = scipy.special.ndtri(grid.nodes)
        assert np.array_equal(bits(standard_normal_quantiles(grid)), bits(expected)), size


@pytest.mark.parametrize("point", [0.5, math.exp(-2), 1 - math.exp(-2), math.exp(-32)])
def test_ndtri_matches_scipy_on_both_sides_of_each_branch_point(point):
    # the central, near-tail (x < 8) and far-tail approximations meet at
    # y = exp(-2), 1 - exp(-2) and exp(-32), where x = sqrt(-2 log y) = 8
    y = np.concatenate([point + np.arange(-4, 5) * np.spacing(point),
                        point * (1 + np.linspace(-1e-12, 1e-12, 401))])
    assert np.array_equal(bits(ndtri(y)), bits(scipy.special.ndtri(y)))
    crossing = np.sqrt(-2.0 * np.log(y)) - 8.0 if point == math.exp(-32) else y - point
    assert np.any(crossing < 0) and np.any(crossing > 0)


def test_ndtri_matches_scipy_on_random_points():
    rng = np.random.default_rng(2014)
    y = np.concatenate([rng.random(50_000), np.exp(-rng.uniform(0.0, 700.0, 50_000))])
    y = np.concatenate([y, 1 - y[y > 0.5]])
    assert np.array_equal(bits(ndtri(y)), bits(scipy.special.ndtri(y)))
