"""Property tests: every writer/reader (or formatter/parser) pair of `fileio`
gives back the exact doubles and integers it was given.

Hypothesis runs derandomized with a small example budget, so the suite stays
deterministic and quick.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wassprop import DiagGaussianLabel, QuantileField, QuantileGrid, WeightedGraph, fileio

# one tmp_path per test is reused by its examples: each example overwrites the file
ROUND_TRIP = settings(
    derandomize=True,
    max_examples=10,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


def same_doubles(a, b) -> bool:
    """Bit-equal float64 arrays (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 6))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.lists(st.sampled_from(upper), unique=True, max_size=8))  # unsorted
    weights = draw(st.lists(positive, min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, np.array(pairs, dtype=np.intp).reshape(-1, 2), weights)


@ROUND_TRIP
@given(g=graphs())
def test_graph_round_trip_exact(tmp_path, g):
    path = tmp_path / "graph.txt"
    fileio.write_graph(path, g)
    back = fileio.read_graph(path, g.n)
    order = np.lexsort((g.pairs[:, 1], g.pairs[:, 0]))
    assert back.n == g.n
    assert np.array_equal(back.pairs, g.pairs[order].reshape(-1, 2))
    assert same_doubles(back.weights, g.weights[order])


@st.composite
def fields(draw):
    n, S = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    values = draw(st.lists(finite, min_size=n * S, max_size=n * S))
    # a field's rows are non-decreasing, and read_field refuses any other
    return QuantileField(QuantileGrid(S), np.sort(np.array(values).reshape(n, S), axis=1))


@ROUND_TRIP
@given(field=fields())
def test_field_round_trip_exact(tmp_path, field):
    path = tmp_path / "field.csv"
    fileio.write_field(path, field)
    back = fileio.read_field(path, field.grid)
    assert same_doubles(back.values, field.values)


@ROUND_TRIP
@given(
    pairs=st.integers(1, 4).flatmap(
        lambda b: st.tuples(
            st.lists(finite, min_size=b, max_size=b),
            st.lists(non_negative, min_size=b, max_size=b),
        )
    )
)
def test_gauss_params_round_trip_exact(pairs):
    label = DiagGaussianLabel(*pairs)
    back = fileio.parse_gauss_params(fileio.gauss_params(label))
    assert same_doubles(back.mean, label.mean) and same_doubles(back.std, label.std)


@ROUND_TRIP
@given(
    pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=6)
)
def test_hist_params_round_trip_exact(pairs):
    bins, masses = [b for b, _ in pairs], [m for _, m in pairs]
    back_bins, back_masses = fileio.parse_hist_params(fileio.hist_params(bins, masses))
    assert same_doubles(back_bins, bins) and same_doubles(back_masses, masses)


@ROUND_TRIP
@given(classes=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=20))
def test_truth_round_trip_exact(tmp_path, classes):
    path = tmp_path / "truth.csv"
    fileio.write_truth(path, classes)
    back = fileio.read_truth(path)
    assert back.dtype == np.intp and back.tolist() == classes
