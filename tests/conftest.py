"""Shared random-instance builders for the test suite."""

import numpy as np
import pytest

from wassprop import (
    Hypergraph,
    QuantileGrid,
    QuantileLabel,
    TrainingSet,
    WeightedGraph,
    quantile_from_histogram,
)


def random_histogram_label(rng, grid, max_bins=6, spread=2.0):
    """Random discrete distribution pushed through the quantile transform."""
    nbins = int(rng.integers(1, max_bins + 1))
    bins = np.sort(rng.uniform(-spread, spread, nbins))
    while len(np.unique(bins)) != nbins:
        bins = np.sort(rng.uniform(-spread, spread, nbins))
    masses = rng.dirichlet(np.ones(nbins))
    return quantile_from_histogram(bins, masses, grid)


def random_monotone_label(rng, grid, spread=2.0):
    """Sorted uniform samples: a generic continuous-ish quantile label."""
    return QuantileLabel(grid, np.sort(rng.uniform(-spread, spread, grid.size)))


def dict_graph(n, weights):
    """WeightedGraph from a {(i, j): w} dict, pairs in the dict's order."""
    return WeightedGraph(n, list(weights), list(weights.values()))


def edge_dict(g):
    """A graph's edges as a {(i, j): w} dict, in its pair order."""
    return dict(zip(map(tuple, g.pairs.tolist()), g.weights.tolist()))


def random_connected_graph(rng, n, extra_edges=3):
    """Random spanning tree plus a few extra edges, random positive weights."""
    weights = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        weights[(u, v)] = float(rng.uniform(0.2, 2.0))
    for _ in range(extra_edges):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) not in weights:
            weights[(i, j)] = float(rng.uniform(0.2, 2.0))
    return dict_graph(n, weights)


def random_hypergraph(rng, n, max_edges=6, max_size=4):
    """Random hypergraph; may be disconnected, sizes in [2, max_size]."""
    n_edges = int(rng.integers(1, max_edges + 1))
    edges = []
    for _ in range(n_edges):
        size = int(rng.integers(2, min(max_size, n) + 1))
        edges.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return Hypergraph(n, edges)


def random_training_set(rng, grid, n, m):
    """m samples at random vertices (repeats allowed) with histogram labels."""
    samples = []
    for _ in range(m):
        v = int(rng.integers(0, n))
        samples.append((v, random_histogram_label(rng, grid)))
    return TrainingSet(samples)


@pytest.fixture
def grid32():
    return QuantileGrid(32)


@pytest.fixture
def grid4():
    return QuantileGrid(4)
