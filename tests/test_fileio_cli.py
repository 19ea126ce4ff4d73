"""File formats and the command-line front end."""

import codecs
import csv
import dataclasses
import gc
import io
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import wassprop
from wassprop import cli, fileio, hypergraph, tikhonov
from wassprop import (
    DiagGaussianLabel,
    ExperimentResult,
    GaussianBackend,
    Hypergraph,
    InputError,
    LabeledSubset,
    NormalizationError,
    PropagationConfig,
    QuantileBackend,
    QuantileField,
    QuantileGrid,
    QuantileLabel,
    TikhonovOperator,
    TrainingSet,
    classify,
    propagate,
    quantile_from_histogram,
)
from conftest import dict_graph, edge_dict


# ---------------------------------------------------------------- file I/O


def test_gauss_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = {
        0: DiagGaussianLabel([1.0, 0.0], [0.1, 0.2]),
        3: DiagGaussianLabel([-0.5, 2.0], [0.3, 0.4]),
    }
    fileio.write_gauss_labels(path, labels)
    kind, back = fileio.read_labels(path)
    assert kind == "gauss"
    assert sorted(back) == [0, 3]
    for v, lab in labels.items():
        assert np.array_equal(back[v].mean, lab.mean)
        assert np.array_equal(back[v].std, lab.std)


def test_hist_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    grid = QuantileGrid(16)
    hists = {0: ([0.0, 1.0], [0.5, 0.5]), 2: ([2.0], [1.0])}
    fileio.write_hist_labels(path, hists)
    kind, back = fileio.read_labels(path, grid)
    assert kind == "hist"
    for v, (bins, masses) in hists.items():
        expected = quantile_from_histogram(bins, masses, grid)
        assert np.array_equal(np.asarray(back[v].values), np.asarray(expected.values))


def test_labels_mixed_kinds_rejected(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,kind,params\n0,hist,0.0:1.0\n1,gauss,0.0|1.0\n")
    with pytest.raises(InputError):
        fileio.read_labels(path, QuantileGrid(4))


def test_labels_duplicate_vertex_rejected(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,kind,params\n0,hist,0.0:1.0\n0,hist,1.0:1.0\n")
    with pytest.raises(InputError):
        fileio.read_labels(path, QuantileGrid(4))


@pytest.mark.parametrize("vertex", ["-1", "3", "99999999999999999999"])
def test_labels_vertex_range_checked_with_the_vertex_count(tmp_path, vertex):
    # the one range rule, on the row that breaks it; without n, as the
    # set-up probe reads a file, every integer vertex is accepted
    path = tmp_path / "labels.csv"
    path.write_text(f"vertex,kind,params\n0,hist,0.0:1.0\n{vertex},hist,1.0:1.0\n")
    message = f"{path}, line 3: label vertex {vertex} outside [0, 3)"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        fileio.read_labels(path, QuantileGrid(4), 3)
    assert sorted(fileio.read_labels(path, QuantileGrid(4))[1]) == sorted([0, int(vertex)])


def test_hist_labels_require_grid(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,kind,params\n0,hist,0.0:1.0\n")
    with pytest.raises(InputError):
        fileio.read_labels(path)


def test_labels_unknown_kind_rejected(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,kind,params\n0,point,0.0\n")
    with pytest.raises(InputError):
        fileio.read_labels(path)


def test_hypergraph_round_trip(tmp_path):
    path = tmp_path / "h.txt"
    h = Hypergraph(5, [(0, 1, 2), (2, 4)])
    fileio.write_hypergraph(path, h)
    back = fileio.read_hypergraph(path)
    assert back.n == 5 and back.edges == h.edges
    # comments and blank lines are ignored; n may be overridden
    path.write_text("# comment\n0 1\n\n2 3\n")
    back = fileio.read_hypergraph(path, n=6)
    assert back.n == 6 and back.edges == ((0, 1), (2, 3))
    path.write_text("")
    with pytest.raises(InputError):
        fileio.read_hypergraph(path)


def test_graph_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    g = dict_graph(4, {(0, 1): 1.5, (1, 3): 0.25, (0, 2): 2.0})
    fileio.write_graph(path, g)
    back = fileio.read_graph(path)
    assert back.n == 4 and edge_dict(back) == edge_dict(g)
    path.write_text("0 1 1.0\n1 0 2.0\n")
    with pytest.raises(InputError):
        fileio.read_graph(path)
    path.write_text("0 1\n")
    with pytest.raises(InputError):
        fileio.read_graph(path)


def test_graph_round_trip_unsorted(tmp_path):
    # pairs given out of order and reversed are written sorted, and read back
    # as the same edges with the same weight bits
    path = tmp_path / "g.txt"
    weights = {(3, 1): 0.1, (0, 4): 2.5e-17, (2, 0): 1.0 / 3.0, (1, 2): 7.0, (0, 1): 1e300}
    g = dict_graph(5, weights)
    fileio.write_graph(path, g)
    back = fileio.read_graph(path)
    expected = {(min(k), max(k)): w for k, w in weights.items()}
    assert back.n == 5 and edge_dict(back) == expected
    assert list(edge_dict(back)) == sorted(expected)
    assert back.weights.tobytes() == np.array([expected[k] for k in sorted(expected)]).tobytes()
    again = tmp_path / "again.txt"
    fileio.write_graph(again, back)
    assert again.read_bytes() == path.read_bytes()


# each case: file text, the vertex count given (or None), the reader's message
MALFORMED_GRAPHS = {
    "self-loop": ("# g\n0 1 1.0\n2 2 1.0\n", None, "self-loop at vertex 2"),
    "out-of-range": ("0 1 1.0\n1 3 1.0\n", 3, "edge (1,3) outside [0, 3)"),
    "out-of-range-reversed": ("0 1 1.0\n3 1 1.0\n", 3, "edge (1,3) outside [0, 3)"),
    "negative-vertex": ("0 1 1.0\n-1 1 1.0\n", None, "edge (-1,1) outside [0, 2)"),
    "duplicate": ("0 1 1.0\n# c\n0 1 2.0\n", None,
                  "{path}, line 3: duplicate edge (0, 1) in graph file"),
    "duplicate-reversed": ("0 1 1.0\n1 0 1.0\n", None,
                           "{path}, line 2: duplicate edge (0, 1) in graph file"),
    "zero-weight": ("0 1 1.0\n1 2 0\n", None,
                    "edge (1, 2) has weight 0.0; weights must be positive and finite"),
    "negative-weight": ("0 1 -2.5\n", None,
                        "edge (0, 1) has weight -2.5; weights must be positive and finite"),
    "nan-weight": ("0 1 1.0\n1 2 nan\n", None,
                   "edge (1, 2) has weight nan; weights must be positive and finite"),
    "inf-weight": ("0 1 inf\n", None,
                   "edge (0, 1) has weight inf; weights must be positive and finite"),
    "two-tokens": ("0 1 1.0\n\n1 2\n", None,
                   "{path}, line 3: graph line needs 'i j w', got '1 2'"),
    "four-tokens": ("0 1 1.0 7\n", None,
                    "{path}, line 1: graph line needs 'i j w', got '0 1 1.0 7'"),
    "float-vertex": ("0 1.5 1.0\n", None,
                     "{path}, line 1: graph line needs 'i j w', got '0 1.5 1.0'"),
    "empty": ("# only\n", None, "cannot infer vertex count from an empty graph file"),
    "blank": ("\n  \r\n", None, "cannot infer vertex count from an empty graph file"),
    "no-lines": ("", None, "cannot infer vertex count from an empty graph file"),
}

MALFORMED_HYPERGRAPHS = {
    "bad-token": ("# edges\n0 1\n1 two\n", None, "{path}, line 3: bad hyperedge line '1 two'"),
    "float-vertex": ("0 1\n\n1 2.0\n", None, "{path}, line 3: bad hyperedge line '1 2.0'"),
    "one-vertex": ("0 1\n2\n", None, "hyperedge (2,) has fewer than 2 vertices"),
    "repeated-vertex": ("0 1\n2 1 2\n", None, "hyperedge (1, 2, 2) contains duplicate vertices"),
    "out-of-range": ("0 1\n3 1\n", 3, "hyperedge (1, 3) has vertices outside [0, 3)"),
    "negative-vertex": ("0 1\n1 -1\n", None, "hyperedge (-1, 1) has vertices outside [0, 2)"),
    "vertex-past-intp": ("0 1\n0 99999999999999999999\n", None,
                         "vertex count 100000000000000000000 out of range"),
    "negative-past-intp": ("0 1\n-99999999999999999999 1\n", None,
                           "hyperedge (-99999999999999999999, 1) has vertices outside [0, 2)"),
    "no-vertices": ("0 1\n", 0, "vertex count must be >= 1, got 0"),
    "empty": ("# only\n\n", None, "cannot infer vertex count from an empty hypergraph file"),
    "no-lines": ("", None, "cannot infer vertex count from an empty hypergraph file"),
}


@pytest.mark.parametrize("case", list(MALFORMED_GRAPHS))
def test_malformed_graph_file(tmp_path, recwarn, case):
    text, n, message = MALFORMED_GRAPHS[case]
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        fileio.read_graph(path, n)
    assert str(info.value) == message.format(path=path)
    assert not recwarn.list  # e.g. loadtxt's "input contained no data" on blank lines


@pytest.mark.parametrize("case", list(MALFORMED_HYPERGRAPHS))
def test_malformed_hypergraph_file(tmp_path, case):
    text, n, message = MALFORMED_HYPERGRAPHS[case]
    path = tmp_path / "h.txt"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        fileio.read_hypergraph(path, n)
    assert str(info.value) == message.format(path=path)


def test_field_round_trip(tmp_path):
    path = tmp_path / "field.csv"
    grid = QuantileGrid(8)
    g = dict_graph(2, {(0, 1): 1.0})
    ts = TrainingSet(
        [
            (0, quantile_from_histogram([0.0], [1.0], grid)),
            (1, quantile_from_histogram([1.0], [1.0], grid)),
        ]
    )
    field = TikhonovOperator(g, ts, gamma=1.0).field()
    fileio.write_field(path, field)
    back = fileio.read_field(path, grid)
    assert np.array_equal(back.values, field.values)
    with pytest.raises(InputError):
        fileio.read_field(path, QuantileGrid(4))


def test_writers_match_per_value_reference(tmp_path):
    # per-value format_float through csv.writer: the writers' former loops
    grid = QuantileGrid(6)
    values = np.array(
        [[-1e300, -0.0, 0.0, 5e-324, 0.1, 1e16], [-2.5, -1 / 3, 1e-7, 2 / 3, 123456.789, np.inf]]
    )
    path = tmp_path / "field.csv"
    fileio.write_field(path, QuantileField(grid, values))
    rows = [[v] + [fileio.format_float(x) for x in row] for v, row in enumerate(values)]
    assert path.read_bytes() == _csv_bytes([["vertex"] + [f"s_{j}" for j in range(1, 7)], *rows])

    label = QuantileLabel(grid, np.sort(values[0]))
    assert fileio.label_params(label) == ";".join(fileio.format_float(x) for x in label.values)
    gauss = DiagGaussianLabel([0.1, -1e-300, 7.0], [0.0, 1 / 3, 1e20])
    assert fileio.label_params(gauss) == (
        ",".join(fileio.format_float(x) for x in gauss.mean)
        + "|"
        + ",".join(fileio.format_float(x) for x in gauss.std)
    )


def _csv_bytes(rows, delimiter=",") -> bytes:
    """`rows` as csv.writer writes them with `\n` line endings: the reference
    dialect of every output file."""
    buffer = io.StringIO()
    csv.writer(buffer, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


def _writer_cases():
    """Each writer, and the rows (with their delimiter) csv.writer is given
    for the same file."""
    gauss = {3: DiagGaussianLabel([0.1, -1e-300], [0.0, 1 / 3]), 0: DiagGaussianLabel([7.0], [1e20])}
    hists = {2: ([-1.5, 0.25], [0.25, 0.75]), 0: ([1e-7], [1.0])}
    h = Hypergraph(4, [(0, 1, 2), (3, 1), (0, 3)])
    g = dict_graph(4, {(3, 1): 0.1, (0, 2): 1 / 3, (0, 1): 1e300})
    classes = np.array([1, 0, 2, 0])
    losses = [12.5, 1 / 3, 5e-324]
    # a trial holds no swap number: the writer numbers the rows
    trials = [SimpleNamespace(sample_index=3, slice_shift_ratio=0.25, cost_shift_ratio=1 / 3),
              SimpleNamespace(sample_index=0, slice_shift_ratio=1e-17, cost_shift_ratio=0.0)]
    result = ExperimentResult(accuracies=(0.5, 2 / 3))
    incidence = h.incidence().toarray().T.astype(int).tolist()
    return {
        "gauss-labels": (lambda p: fileio.write_gauss_labels(p, gauss),
                         [["vertex", "kind", "params"]]
                         + [[v, "gauss", fileio.gauss_params(gauss[v])] for v in sorted(gauss)], ","),
        "hist-labels": (lambda p: fileio.write_hist_labels(p, hists),
                        [["vertex", "kind", "params"]]
                        + [[v, "hist", fileio.hist_params(*hists[v])] for v in sorted(hists)], ","),
        "hypergraph": (lambda p: fileio.write_hypergraph(p, h), [list(e) for e in h.edges], " "),
        "graph": (lambda p: fileio.write_graph(p, g),
                  [[i, j, repr(w)] for (i, j), w in sorted(edge_dict(g).items())], " "),
        "truth": (lambda p: fileio.write_truth(p, classes),
                  [["vertex", "class"]] + [[v, c] for v, c in enumerate(classes.tolist())], ","),
        "ratios": (lambda p: fileio.write_ratios(p, trials),
                   [["swap", "sample_index", "slice_ratio", "cost_ratio"]]
                   + [[k, t.sample_index, repr(t.slice_shift_ratio), repr(t.cost_shift_ratio)]
                      for k, t in enumerate(trials)], ","),
        "trace": (lambda p: fileio.write_trace(p, losses),
                  [["iter", "loss"]] + [[t, repr(x)] for t, x in enumerate(losses)], ","),
        "incidence": (lambda p: fileio.write_incidence(p, h),
                      [["vertex", "edge_0", "edge_1", "edge_2"]]
                      + [[v, *row] for v, row in enumerate(incidence)], ","),
        "metrics": (lambda p: fileio.emit_metrics(result, p),
                    [["trial", "accuracy"], [0, "0.5"], [1, repr(2 / 3)],
                     ["mean", repr(0.5833333333333333)]], ","),  # the mean of (0.5, 2/3)
    }


@pytest.mark.parametrize("case", list(_writer_cases()))
def test_writer_matches_csv_writer(tmp_path, case):
    write, rows, delimiter = _writer_cases()[case]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == _csv_bytes(rows, delimiter)
    assert b"\r" not in path.read_bytes()
    if case == "gauss-labels":  # params of two or more dimensions hold commas, so are quoted
        assert path.read_text().splitlines()[2] == '3,gauss,"0.1,-1e-300|0.0,0.3333333333333333"'


@pytest.mark.parametrize("kind", ["hist", "gauss"])
def test_predictions_match_csv_writer(tmp_path, kind):
    grid = QuantileGrid(5)
    if kind == "hist":
        backend = QuantileBackend(grid)
        targets = {0: quantile_from_histogram([-1.0, 0.5], [0.3, 0.7], grid),
                   3: quantile_from_histogram([2.0], [1.0], grid)}
    else:
        backend = GaussianBackend(2)
        targets = {0: DiagGaussianLabel([1.0, 0.0], [0.1, 0.2]),
                   3: DiagGaussianLabel([0.0, 1.0], [1 / 3, 0.1])}
    h = Hypergraph(4, [(0, 1, 2), (2, 3)])
    state = propagate(h, LabeledSubset(targets), PropagationConfig(alpha=2.0, gamma=1.0, max_iters=3),
                      backend)
    predicted = classify(state)
    path = tmp_path / "pred.csv"
    fileio.write_predictions(path, predicted, state)
    rows = [[v, c, fileio.label_params(state.vertex_label(v))] for v, c in enumerate(predicted.tolist())]
    assert path.read_bytes() == _csv_bytes([["vertex", "predicted_class", "label_params"], *rows])
    assert b"\r" not in path.read_bytes()
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 4
    # Gaussian params hold commas, so csv quotes them; quantile params never do
    assert all(row.split(",", 2)[2].startswith('"') == (kind == "gauss") for row in rows)


@pytest.mark.parametrize("row, message", [([0.0, 1.0, np.nan, 2.0, 3.0], "must be finite"),
                                          ([0.0, 1.0, 0.5, 2.0, 3.0], "must be non-decreasing")])
def test_predictions_refuse_what_a_quantile_label_refuses(tmp_path, row, message):
    # the (n, S) block is checked at once, with the messages of QuantileLabel
    grid = QuantileGrid(5)
    targets = {0: quantile_from_histogram([-1.0, 0.5], [0.3, 0.7], grid)}
    state = propagate(Hypergraph(3, [(0, 1), (1, 2)]), LabeledSubset(targets),
                      PropagationConfig(alpha=2.0, gamma=1.0, max_iters=2), QuantileBackend(grid))
    values = state.vertex_values.copy()
    values[2] = row
    with pytest.raises(InputError, match=message):
        QuantileLabel(grid, values[2])
    with pytest.raises(InputError, match=message):
        fileio.write_predictions(tmp_path / "p.csv", classify(state),
                                 dataclasses.replace(state, vertex_values=values))


def _gaussian_state(b, rows):
    """A Gaussian propagation state on 3 vertices whose encoded labels are
    replaced by `rows`, each b means and then b stds."""
    targets = {0: DiagGaussianLabel(np.linspace(0.0, 1.0, b), np.full(b, 0.5))}
    state = propagate(Hypergraph(3, [(0, 1), (1, 2)]), LabeledSubset(targets),
                      PropagationConfig(alpha=2.0, gamma=1.0, max_iters=2), GaussianBackend(b))
    return dataclasses.replace(state, vertex_values=np.array(rows, dtype=float).reshape(3, 2 * b))


@pytest.mark.parametrize("b", [1, 2, 3])
def test_gaussian_predictions_match_label_params(tmp_path, b):
    # the rows come from the blocks of means and clamped stds; each matches
    # label_params of the decoded label, over the tokens floattext relays out
    # (1e-5 <= |x| < 1e-4, one-digit and positive exponents) and clamped stds
    values = [3e-5, -0.0, 1e16, 2.5e-300, -7.25, 1 / 3, 1e-6, 4.5e-5, 0.0, -1e-300, 1e22, 2.0,
              -1e-5, 123.0, 1e-7, 9.99e-5, -2.0, 0.1, 5e-324, 7e-6]
    state = _gaussian_state(b, (values * 2)[: 6 * b])
    path = tmp_path / "pred.csv"
    fileio.write_predictions(path, classify(state), state)
    rows = [[v, c, fileio.label_params(state.vertex_label(v))] for v, c in enumerate(classify(state).tolist())]
    assert path.read_bytes() == _csv_bytes([["vertex", "predicted_class", "label_params"], *rows])
    assert all(row.split(",", 2)[2].startswith('"') == (b > 1) for row in path.read_text().splitlines()[1:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predictions_refuse_what_a_gaussian_label_refuses(tmp_path, bad):
    # a non-finite mean or std is refused with DiagGaussianLabel's message,
    # before any row is written; a std of -inf is clamped to 0 first, as decode does
    for at in (1, 3):  # a mean, a std
        rows = [[0.0, 1.0, 0.5, 0.5]] * 3
        rows[2] = [bad if i == at else x for i, x in enumerate(rows[2])]
        state = _gaussian_state(2, rows)
        path = tmp_path / f"p{at}.csv"
        if at == 3 and bad == -np.inf:
            fileio.write_predictions(path, classify(state), state)
            assert path.read_text().splitlines()[3].endswith('"0.0,1.0|0.5,0.0"')
            continue
        with pytest.raises(InputError, match="must be finite"):
            state.vertex_label(2)
        with pytest.raises(InputError, match="must be finite"):
            fileio.write_predictions(path, classify(state), state)
        assert not path.exists()


@pytest.mark.parametrize("text", ["", "1.5;2.0", "1.0,2.0|0.5,0.5", 'a"b', "a\nb", '",'])
def test_predictions_field_quoting_matches_csv_writer(text):
    assert _csv_bytes([[7, -1, text]]) == f"7,-1,{fileio._csv_field(text)}\n".encode()


def test_truth_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    fileio.write_truth(path, [0, 1, 1, 0])
    assert np.array_equal(fileio.read_truth(path), [0, 1, 1, 0])
    path.write_text("vertex,class\n0,0\n2,1\n")  # vertex 1 missing
    with pytest.raises(InputError):
        fileio.read_truth(path)


def test_categorical_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("f1,class,f2\na,x,p\nb,y,q\na,x,q\n")
    table = fileio.read_categorical_csv(path)
    assert table.feature_names == ("f1", "f2")
    assert table.rows == (("a", "p"), ("b", "q"), ("a", "q"))
    assert table.classes == ("x", "y", "x")
    with pytest.raises(InputError):
        fileio.read_categorical_csv(path, class_column="missing")


def test_trace_and_incidence(tmp_path):
    trace = tmp_path / "trace.csv"
    fileio.write_trace(trace, [3.0, 1.5, 1.25])
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,loss" and len(lines) == 4
    inc = tmp_path / "inc.csv"
    fileio.write_incidence(inc, Hypergraph(3, [(0, 1), (1, 2)]))
    rows = inc.read_text().splitlines()
    assert rows[0] == "vertex,edge_0,edge_1"
    assert rows[1:] == ["0,1,0", "1,1,1", "2,0,1"]


# ---------------------------------------------------------------- CLI


@pytest.fixture(scope="module")
def import_child(tmp_path_factory):
    """One fresh interpreter, run once for the import guards: it says whether
    `scipy.stats` is loaded right after `from wassprop import cli`, and which
    heavy scipy modules and whether `wassprop.floattext` and orjson are
    loaded after `import wassprop`, after the cli import and after each of
    six commands.
    Returns its stdout lines and the directory the commands wrote in."""
    # scipy.linalg, scipy.sparse.linalg, scipy.sparse.csgraph and scipy.special
    # together cost about a quarter of a second of start-up; the package and
    # the experiment trials need only scipy.sparse
    heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.special")
    work = tmp_path_factory.mktemp("imports")
    (work / "h.txt").write_text("0 1\n1 2\n")
    fileio.write_hist_labels(work / "l.csv", {0: ([-1.0], [1.0]), 2: ([1.0], [1.0])})
    # a cycle above DENSE_EIG_LIMIT, so the report's lambda_1 is iterative,
    # and a star above DENSE_SOLVE_LIMIT, so the solve is PCG; the star's
    # conditioning keeps its solve short
    cycle, star = 600, 2100
    (work / "cycle.txt").write_text("".join(f"{v} {(v + 1) % cycle} 1.0\n" for v in range(cycle)))
    (work / "star.txt").write_text("".join(f"0 {v} 1.0\n" for v in range(1, star)))
    # empirical swaps on two stars: a 600-vertex one with 2 labeled vertices,
    # which the cost rule sends to PCG, and a 60-vertex one with 30, which it
    # sends to Cholesky; lambda_1 = 1 keeps both margins positive
    for name, size in (("star600.txt", 600), ("star60.txt", 60)):
        (work / name).write_text("".join(f"0 {v} 1.0\n" for v in range(1, size)))
    fileio.write_hist_labels(work / "many.csv", {v: ([float(v % 3)], [1.0]) for v in range(0, 60, 2)})
    experiment = ["experiment", "--blocks", "5,5", "--p-in", "0.8", "--p-out", "0.1",
                  "--labels-per-class", "1", "--trials", "2", "--alpha", "2", "--gamma", "1",
                  "--max-iters", "5", "--output", "m.csv"]
    stability = ["stability", "--graph", "cycle.txt", "--labels", "l.csv", "--gamma", "1",
                 "--epsilon", "0.5", "--grid-size", "8", "--output", "r.txt"]
    solve = ["solve-tikhonov", "--graph", "star.txt", "--labels", "l.csv", "--gamma", "1",
             "--grid-size", "8", "--output", "f.csv"]
    propagate_hist = ["propagate", "--hypergraph", "h.txt", "--labels", "l.csv", "--alpha", "2",
                      "--gamma", "1", "--grid-size", "8", "--output", "p.csv"]
    empirical = ["stability", "--gamma", "1", "--epsilon", "0.5", "--grid-size", "8", "--empirical",
                 "--swaps", "2"]
    small_k = [*empirical, "--graph", "star600.txt", "--labels", "l.csv", "--output", "e.txt"]
    large_k = [*empirical, "--graph", "star60.txt", "--labels", "many.csv", "--output", "d.txt"]
    script = "\n".join([
        "import sys",
        f"def loaded(): print('loaded:', *[m for m in {heavy!r} if m in sys.modules]);"
        " print('floattext:', 'wassprop.floattext' in sys.modules);"
        " print('orjson:', 'orjson' in sys.modules)",
        "import wassprop", "loaded()",
        "from wassprop import cli", "print('scipy.stats:', 'scipy.stats' in sys.modules)", "loaded()",
        f"assert cli.main({experiment!r}) == 0", "loaded()",
        f"assert cli.main({stability!r}) == 0", "loaded()",
        f"assert cli.main({solve!r}) == 0", "loaded()",
        f"assert cli.main({propagate_hist!r}) == 0", "loaded()",
        f"assert cli.main({small_k!r}) == 0", "loaded()",
        f"assert cli.main({large_k!r}) == 0", "loaded()",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         cwd=work, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout.splitlines(), work


def test_cli_import_leaves_out_scipy_stats(import_child):
    # scipy.stats costs close to a second of start-up on every CLI run
    lines, _ = import_child
    assert [line for line in lines if line.startswith("scipy.stats:")] == ["scipy.stats: False"]


def test_commands_load_only_the_scipy_they_run(import_child):
    lines, work = import_child
    reports = [line.split()[1:] for line in lines if line.startswith("loaded:")]
    # quantile initialization takes the standard normal quantiles from the
    # Cephes port, the iterative lambda_1 is a numpy Lanczos, and only the
    # last run's Green's block, 30 columns on 60 vertices, is worth a Cholesky
    assert reports == [[], [], [], [], [], [], [], ["scipy.linalg"]]
    for name in ("m.csv", "r.txt", "f.csv", "p.csv", "e.txt", "d.txt"):
        assert (work / name).is_file()
    for name in ("e.txt", "d.txt"):
        assert "empirical_ok=True" in (work / name).read_text()


def test_only_block_writers_load_the_float_text_kernel(import_child):
    # floattext is loaded by the first block write, so start-up and the
    # commands that write no (n, S) block never compile or import it
    lines, _ = import_child
    reports = [line.split()[1] for line in lines if line.startswith("floattext:")]
    # after import wassprop, the cli import, experiment, stability, the
    # field solve, the hist propagate and the two empirical stability runs
    assert reports == ["False", "False", "False", "False", "True", "True", "True", "True"]
    # orjson, the kernel's ~8 ms import, comes with it: not after import
    # wassprop or experiment, and after the hist propagate
    assert [line.split()[1] for line in lines if line.startswith("orjson:")] == reports


def _entry_point_commands(tmp_path):
    """A hist-label propagate and a Gaussian-label solve-tikhonov: both take
    standard normal quantiles."""
    (tmp_path / "h.txt").write_text("0 1 2\n2 3\n3 4 5\n")
    fileio.write_hist_labels(tmp_path / "l.csv", {0: ([-1.0, 0.5], [0.3, 0.7]), 5: ([1.0], [1.0])})
    (tmp_path / "g.txt").write_text("0 1 1.0\n1 2 0.5\n")
    fileio.write_gauss_labels(tmp_path / "gl.csv", {0: DiagGaussianLabel([0.0], [1.0]),
                                                    2: DiagGaussianLabel([1.0], [0.5])})
    return {
        "propagate": ["propagate", "--hypergraph", "h.txt", "--labels", "l.csv", "--alpha", "2",
                      "--gamma", "1", "--grid-size", "64", "--seed", "3", "--output"],
        "solve-tikhonov": ["solve-tikhonov", "--graph", "g.txt", "--labels", "gl.csv",
                           "--gamma", "1.0", "--grid-size", "64", "--output"],
    }


def test_module_entry_point_writes_what_main_writes(tmp_path, monkeypatch, capsys):
    # `python -m wassprop.cli` runs cli.run, which freezes the collector
    # around main: the output file and stdout stay byte for byte the same
    monkeypatch.chdir(tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    commands = _entry_point_commands(tmp_path)
    # both children start before either is waited on
    children = {name: subprocess.Popen([sys.executable, "-m", "wassprop.cli", *argv, f"{name}-module.csv"],
                                       env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for name, argv in commands.items()}
    for name, argv in commands.items():
        assert cli.main(argv + ["in-process.csv"]) == 0
        stdout = capsys.readouterr().out
        child_stdout, child_stderr = children[name].communicate(timeout=120)
        assert children[name].returncode == 0, child_stderr
        assert child_stdout == stdout
        module = tmp_path / f"{name}-module.csv"
        assert module.read_bytes() == (tmp_path / "in-process.csv").read_bytes(), name


def test_main_never_freezes_the_collector(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = gc.get_freeze_count()
    for argv in _entry_point_commands(tmp_path).values():
        assert cli.main(argv + ["out.csv"]) == 0
    assert gc.get_freeze_count() == before


def test_run_freezes_and_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["wassprop", "propagate"])  # required flags missing
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 2
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().err.startswith("error: ")


def test_public_names_resolve_once():
    names = wassprop.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(wassprop, name)]
    assert missing == []


def p2_files(tmp_path, grid_size=8):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1 1.0\n")
    labels = tmp_path / "labels.csv"
    fileio.write_hist_labels(labels, {0: ([0.0], [1.0]), 1: ([1.0], [1.0])})
    return graph, labels


def test_cli_solve_tikhonov_p2(tmp_path, capsys):
    graph, labels = p2_files(tmp_path)
    out = tmp_path / "field.csv"
    rc = cli.main(
        [
            "solve-tikhonov",
            "--graph", str(graph),
            "--labels", str(labels),
            "--gamma", "1.0",
            "--grid-size", "8",
            "--output", str(out),
        ]
    )
    assert rc == 0
    field = fileio.read_field(out, QuantileGrid(8))
    assert np.allclose(field.values[0], 0.4, atol=1e-12)
    assert np.allclose(field.values[1], 0.6, atol=1e-12)
    assert "margin=3.0" in capsys.readouterr().out


def test_cli_solve_tikhonov_gauss_labels(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1 1.0\n")
    labels = tmp_path / "labels.csv"
    fileio.write_gauss_labels(
        labels, {0: DiagGaussianLabel([0.0], [1.0]), 1: DiagGaussianLabel([1.0], [0.5])}
    )
    out = tmp_path / "field.csv"
    rc = cli.main(
        [
            "solve-tikhonov",
            "--graph", str(graph),
            "--labels", str(labels),
            "--gamma", "1.0",
            "--grid-size", "16",
            "--output", str(out),
        ]
    )
    assert rc == 0
    field = fileio.read_field(out, QuantileGrid(16))
    assert np.all(np.diff(field.values, axis=1) >= -1e-9)


def test_cli_solve_tikhonov_rejects_multidim_gauss(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1 1.0\n")
    labels = tmp_path / "labels.csv"
    fileio.write_gauss_labels(
        labels,
        {0: DiagGaussianLabel([0.0, 1.0], [1.0, 1.0]), 1: DiagGaussianLabel([1.0, 0.0], [1.0, 1.0])},
    )
    rc = cli.main(
        [
            "solve-tikhonov",
            "--graph", str(graph),
            "--labels", str(labels),
            "--gamma", "1.0",
            "--output", str(tmp_path / "field.csv"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_solve_tikhonov_undefined_margin_writes_no_field(tmp_path, capsys):
    # one vertex and no edge: the solve is defined, but the margin's
    # spectral gap is not, so the command fails before it writes the field
    graph, labels, out = tmp_path / "graph.txt", tmp_path / "labels.csv", tmp_path / "field.csv"
    graph.write_text("")
    labels.write_text("vertex,kind,params\n0,hist,0.0:0.5;1.0:0.5\n")
    rc = cli.main(["solve-tikhonov", "--graph", str(graph), "--n", "1", "--labels", str(labels),
                   "--gamma", "1.0", "--grid-size", "8", "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: spectral gap undefined on a single vertex\n"
    assert not out.exists()


def test_cli_missing_output_is_an_error(tmp_path, capsys):
    rc = cli.main(["gen-sbm", "--blocks", "4,4", "--k", "2", "--p-in", "0.5", "--p-out", "0.1"])
    assert rc == 2
    assert "--output" in capsys.readouterr().err


def test_cli_gen_sbm(tmp_path, capsys):
    out = tmp_path / "h.txt"
    truth = tmp_path / "truth.csv"
    inc = tmp_path / "inc.csv"
    argv = [
        "gen-sbm",
        "--blocks", "6,6",
        "--k", "3",
        "--p-in", "0.8",
        "--p-out", "0.1",
        "--seed", "3",
        "--output", str(out),
        "--truth", str(truth),
        "--incidence", str(inc),
    ]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert "n=12" in printed and "total=" in printed
    h = fileio.read_hypergraph(out, n=12)
    assert len(h.edges) > 0
    assert np.array_equal(np.sort(np.unique(fileio.read_truth(truth))), [0, 1])
    assert inc.read_text().splitlines()[0].startswith("vertex,edge_0")


def test_cli_gen_sbm_draws_past_the_enumerable_sizes(tmp_path, capsys):
    # C(4000, 3) is about 1.1e10 subsets; only the kept ones are drawn
    out = tmp_path / "h.txt"
    argv = ["gen-sbm", "--blocks", "2000,2000", "--k", "3", "--p-in", "1e-6", "--p-out", "1e-8",
            "--output", str(out)]
    assert cli.main(argv) == 0
    assert "n=4000 k=3" in capsys.readouterr().out
    h = fileio.read_hypergraph(out, n=4000)
    assert 0 < len(h.edges) < 10_000


def test_cli_gen_sbm_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.txt"
        truth = tmp_path / f"{name}_truth.csv"
        cli.main(
            [
                "gen-sbm",
                "--blocks", "6,6",
                "--k", "3",
                "--p-in", "0.8",
                "--p-out", "0.1",
                "--seed", "3",
                "--output", str(out),
                "--truth", str(truth),
            ]
        )
        outs.append((out.read_bytes(), truth.read_bytes()))
    assert outs[0] == outs[1]


def votes_csv(tmp_path):
    path = tmp_path / "votes.csv"
    rows = ["issue0,issue1,issue2,class"]
    votes = [
        ("y", "y", "n", "r"),
        ("y", "n", "?", "d"),
        ("n", "y", "n", "d"),
        ("n", "n", "y", "r"),
        ("y", "y", "y", "r"),
        ("n", "n", "n", "d"),
    ]
    rows += [",".join(v) for v in votes]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_cli_ingest(tmp_path, capsys):
    table = votes_csv(tmp_path)
    out = tmp_path / "h.txt"
    truth = tmp_path / "truth.csv"
    argv = [
        "ingest",
        "--input", str(table),
        "--output", str(out),
        "--truth", str(truth),
    ]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert "rows=6" in printed and "classes=d,r" in printed
    h = fileio.read_hypergraph(out, n=6)
    # row 1 has a missing issue2 vote: it joins no issue2 hyperedge
    issue2_edges = [e for e in h.edges if set(e) <= {0, 2, 3, 4, 5}]
    assert all(1 not in e for e in issue2_edges)
    truth_back = fileio.read_truth(truth)
    assert list(truth_back) == [1, 0, 0, 1, 1, 0]


def test_cli_propagate_hist(tmp_path, capsys):
    h_path = tmp_path / "h.txt"
    h_path.write_text("0 1\n1 2\n")
    labels = tmp_path / "labels.csv"
    fileio.write_hist_labels(labels, {0: ([-1.0], [1.0]), 2: ([1.0], [1.0])})
    out = tmp_path / "pred.csv"
    trace = tmp_path / "trace.csv"
    argv = [
        "propagate",
        "--hypergraph", str(h_path),
        "--labels", str(labels),
        "--alpha", "2.0",
        "--gamma", "5.0",
        "--grid-size", "32",
        "--output", str(out),
        "--trace", str(trace),
    ]
    assert cli.main(argv) == 0
    assert "iterations=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,predicted_class,label_params"
    assert len(lines) == 4
    classes = [int(line.split(",")[1]) for line in lines[1:]]
    assert classes[0] == -1 and classes[2] == 1
    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "iter,loss" and len(trace_lines) >= 2


def test_cli_propagate_gauss_rerun_identical(tmp_path):
    h_path = tmp_path / "h.txt"
    h_path.write_text("0 1 2\n2 3\n")
    labels = tmp_path / "labels.csv"
    fileio.write_gauss_labels(
        labels,
        {0: DiagGaussianLabel([1.0, 0.0], [0.1, 0.1]), 3: DiagGaussianLabel([0.0, 1.0], [0.1, 0.1])},
    )
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        argv = [
            "propagate",
            "--hypergraph", str(h_path),
            "--labels", str(labels),
            "--alpha", "3.0",
            "--gamma", "2.0",
            "--seed", "11",
            "--output", str(out),
        ]
        assert cli.main(argv) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    classes = [int(line.split(",")[1]) for line in blobs[0].decode().splitlines()[1:]]
    assert classes[0] == 0 and classes[3] == 1


def _hist_labels(rng, n, k):
    return {int(v): (np.sort(rng.uniform(-2.0, 2.0, 3)).tolist(), rng.dirichlet(np.ones(3)).tolist())
            for v in rng.choice(n, k, replace=False)}


def _outputs_at_one_and_two_blas_threads(work, argv, outputs):
    """Run `argv` in two child interpreters at once, at one and at two BLAS
    threads, the `{}` in each of `outputs` filled with the thread count;
    return each child's stdout and output bytes."""
    children = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        names = [name.format(threads) for name in outputs]
        children[threads] = names, subprocess.Popen(
            [sys.executable, "-m", "wassprop.cli", *[a.format(threads) for a in argv]],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    runs = []
    for names, child in children.values():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        runs.append((stdout, [(work / name).read_bytes() for name in names]))
    return runs


def test_cli_propagate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a hist-label run with k + 2 < S, so the loop steps on coefficients over
    # [anchors; standard normal quantiles; 1], and n = 160 vertices, past the
    # sizes at which a BLAS product would split its work across threads
    rng = np.random.default_rng(61)
    n = 160
    edges = [rng.choice(n, int(rng.integers(2, 6)), replace=False) for _ in range(2 * n)]
    (tmp_path / "h.txt").write_text("".join(" ".join(map(str, e)) + "\n" for e in edges))
    fileio.write_hist_labels(tmp_path / "l.csv", _hist_labels(rng, n, 12))
    argv = ["propagate", "--hypergraph", "h.txt", "--labels", "l.csv", "--alpha", "20",
            "--gamma", "10", "--grid-size", "64", "--max-iters", "40", "--seed", "5",
            "--output", "p{}.csv"]
    outputs = _outputs_at_one_and_two_blas_threads(tmp_path, argv, ["p{}.csv"])
    assert outputs[0][0].startswith("iterations=")
    assert outputs[0] == outputs[1]


def test_cli_small_k_stability_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 6 labeled vertices of n = 600: the Green's block goes to PCG, whose sums
    # follow no thread count, and lambda_1 to the Lanczos iteration (n is
    # above DENSE_EIG_LIMIT).  A Cholesky factor past n ~ 128 changes its
    # bits with the thread count, and so did these outputs while n alone
    # chose the path
    rng = np.random.default_rng(62)
    n = 600
    pairs = {tuple(sorted((v, (v + 1) % n))) for v in range(n)}
    while len(pairs) < 3 * n:
        pairs.add(tuple(sorted(rng.choice(n, 2, replace=False).tolist())))
    (tmp_path / "g.txt").write_text("".join(f"{i} {j} {rng.uniform(0.5, 2.0)!r}\n" for i, j in sorted(pairs)))
    fileio.write_hist_labels(tmp_path / "l.csv", _hist_labels(rng, n, 6))
    assert n > hypergraph.DENSE_EIG_LIMIT
    assert not tikhonov.cholesky_is_cheaper(n, n + 2 * len(pairs), 6)  # nnz(A) = n + 2|E|
    argv = ["stability", "--graph", "g.txt", "--labels", "l.csv", "--gamma", "1.5", "--epsilon", "0.5",
            "--grid-size", "32", "--empirical", "--swaps", "3", "--ratios", "r{}.csv", "--seed", "7",
            "--output", "o{}.txt"]
    outputs = _outputs_at_one_and_two_blas_threads(tmp_path, argv, ["o{}.txt", "r{}.csv"])
    assert b"empirical_ok=True" in outputs[0][1][0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["hist", "gauss"])
def test_cli_propagate_extra_vertices_only_add_rows(tmp_path, capsys, kind):
    # --n past the largest vertex adds isolated vertices; the seeded start of
    # the others is a prefix of the longer start, so nothing else changes
    h_path = tmp_path / "h.txt"
    h_path.write_text("0 1 2\n2 3\n3 4 5\n")
    labels = tmp_path / "labels.csv"
    if kind == "hist":
        fileio.write_hist_labels(labels, {0: ([-1.0], [1.0]), 5: ([1.0], [1.0])})
    else:
        fileio.write_gauss_labels(
            labels,
            {0: DiagGaussianLabel([1.0, 0.0], [0.1, 0.1]), 5: DiagGaussianLabel([0.0, 1.0], [0.1, 0.1])},
        )
    runs = []
    for extra in ([], ["--n", "9"]):
        out = tmp_path / f"pred{len(extra)}.csv"
        argv = [
            "propagate",
            "--hypergraph", str(h_path),
            "--labels", str(labels),
            "--alpha", "2.0",
            "--gamma", "5.0",
            "--grid-size", "16",
            "--max-iters", "7",
            "--seed", "13",
            "--output", str(out),
            *extra,
        ]
        if extra:
            with pytest.warns(UserWarning, match="3 vertices belong to no hyperedge"):
                assert cli.main(argv) == 0
        else:
            assert cli.main(argv) == 0
        runs.append((capsys.readouterr().out, out.read_text().splitlines()))
    (stdout, lines), (stdout_n, lines_n) = runs
    assert stdout_n == stdout
    assert len(lines) == 7 and lines_n[:7] == lines
    assert [line.split(",")[0] for line in lines_n[7:]] == ["6", "7", "8"]


def test_cli_stability_report(tmp_path, monkeypatch):
    gap_calls = []
    gap = tikhonov.spectral_gap
    monkeypatch.setattr(tikhonov, "spectral_gap", lambda lap: gap_calls.append(1) or gap(lap))
    graph, labels = p2_files(tmp_path)
    out = tmp_path / "report.txt"
    ratios = tmp_path / "ratios.csv"
    argv = [
        "stability",
        "--graph", str(graph),
        "--labels", str(labels),
        "--gamma", "1.0",
        "--epsilon", "0.5",
        "--grid-size", "8",
        "--empirical",
        "--swaps", "3",
        "--ratios", str(ratios),
        "--output", str(out),
    ]
    assert cli.main(argv) == 0
    report = dict(line.split("=", 1) for line in out.read_text().splitlines())
    assert report["m"] == "2" and report["T"] == "1"
    assert float(report["margin"]) == pytest.approx(3.0)
    assert report["margin_positive"] == "True"
    assert float(report["beta"]) > 0
    assert report["empirical_ok"] == "True"
    assert float(report["worst_slice_ratio"]) <= 1.0 + 1e-9
    assert float(report["worst_cost_ratio"]) <= 1.0 + 1e-9
    ratio_lines = ratios.read_text().splitlines()
    assert ratio_lines[0] == "swap,sample_index,slice_ratio,cost_ratio"
    assert len(ratio_lines) == 4
    assert len(gap_calls) == 1  # the report and the swap harness share one spectral gap


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize(
    "command, extra",
    [
        ("solve-tikhonov", []),
        ("stability", ["--epsilon", "0.5", "--empirical", "--swaps", "3"]),
    ],
)
def test_cli_builds_one_instance(tmp_path, monkeypatch, command, extra):
    # one operator, one Laplacian, one connectivity scan and one spectral gap per run
    calls = {}
    for owner, name in ((tikhonov, "laplacian"), (tikhonov, "spectral_gap"),
                        (tikhonov.TikhonovOperator, "__init__"),
                        (hypergraph, "components")):
        _count_calls(monkeypatch, owner, name, calls)
    graph, labels = p2_files(tmp_path)
    argv = [command, "--graph", str(graph), "--labels", str(labels), "--gamma", "1.0",
            "--grid-size", "8", "--output", str(tmp_path / "out.txt"), *extra]
    assert cli.main(argv) == 0
    assert calls == {"laplacian": 1, "spectral_gap": 1, "__init__": 1, "components": 1}


def test_cli_stability_without_empirical_factors_nothing(tmp_path, monkeypatch):
    calls = {}
    _count_calls(monkeypatch, scipy.linalg, "cho_factor", calls)
    graph, labels = p2_files(tmp_path)
    argv = ["stability", "--graph", str(graph), "--labels", str(labels), "--gamma", "1.0",
            "--epsilon", "0.5", "--grid-size", "8", "--output", str(tmp_path / "r.txt")]
    assert cli.main(argv) == 0
    assert calls == {}
    argv.append("--empirical")
    assert cli.main(argv) == 0
    assert calls == {"cho_factor": 1}


def test_cli_stability_stdout_without_output(tmp_path, capsys):
    graph, labels = p2_files(tmp_path)
    argv = [
        "stability",
        "--graph", str(graph),
        "--labels", str(labels),
        "--gamma", "1.0",
        "--epsilon", "1.0",
        "--grid-size", "8",
    ]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert "margin=3.0" in printed and "beta=" in printed


def test_cli_stability_report_file_matches_stdout_and_csv_writer(tmp_path, capsys):
    graph, labels = p2_files(tmp_path)
    report = tmp_path / "report.txt"
    argv = ["stability", "--graph", str(graph), "--labels", str(labels), "--gamma", "1.0",
            "--epsilon", "0.5", "--grid-size", "8", "--empirical", "--swaps", "2"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main([*argv, "--output", str(report)]) == 0
    assert report.read_bytes() == printed.encode()
    # each key=value line is one CSV field that needs no quoting
    assert report.read_bytes() == _csv_bytes([line] for line in printed.splitlines())
    assert b"\r" not in report.read_bytes()


def test_cli_experiment_from_blocks(tmp_path, capsys):
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    for out in (out1, out2):
        argv = [
            "experiment",
            "--blocks", "8,8",
            "--k", "3",
            "--p-in", "0.6",
            "--p-out", "0.05",
            "--labels-per-class", "3",
            "--trials", "3",
            "--alpha", "20",
            "--gamma", "10",
            "--seed", "2",
            "--output", str(out),
        ]
        assert cli.main(argv) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "mean=" in capsys.readouterr().out
    lines = out1.read_text().splitlines()
    assert lines[0] == "trial,accuracy" and len(lines) == 5


def test_cli_experiment_from_files(tmp_path):
    h_path = tmp_path / "h.txt"
    truth_path = tmp_path / "truth.csv"
    cli.main(
        [
            "gen-sbm",
            "--blocks", "8,8",
            "--k", "3",
            "--p-in", "0.6",
            "--p-out", "0.05",
            "--seed", "4",
            "--output", str(h_path),
            "--truth", str(truth_path),
        ]
    )
    out = tmp_path / "metrics.csv"
    argv = [
        "experiment",
        "--hypergraph", str(h_path),
        "--truth", str(truth_path),
        "--n", "16",
        "--labels-per-class", "3",
        "--trials", "2",
        "--alpha", "10",
        "--gamma", "5",
        "--anchor-kind", "sign",
        "--anchor-variance", "0.01",
        "--output", str(out),
    ]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 4


def test_cli_experiment_requires_source(tmp_path, capsys):
    rc = cli.main(
        [
            "experiment",
            "--labels-per-class", "3",
            "--alpha", "10",
            "--gamma", "5",
            "--output", str(tmp_path / "m.csv"),
        ]
    )
    assert rc == 2
    assert "either" in capsys.readouterr().err


def test_cli_config_file_defaults_and_overrides(tmp_path, capsys):
    graph, labels = p2_files(tmp_path)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"# defaults\ngamma=1.0\ngrid_size=8\nlabels={labels}\n")
    out = tmp_path / "field.csv"
    # config supplies required --gamma/--labels; margin = 2*1*2 - 1 = 3
    argv = [
        "solve-tikhonov",
        "--graph", str(graph),
        "--config", str(cfg),
        "--output", str(out),
    ]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert "margin=3.0" in printed
    # --config=FILE is the same run as --config FILE
    field = out.read_bytes()
    out.unlink()
    assert cli.main([*argv[:3], f"--config={cfg}", *argv[5:]]) == 0
    assert capsys.readouterr().out == printed and out.read_bytes() == field
    # explicit flag beats the config value: margin = 2*2*2 - 1 = 7
    argv += ["--gamma", "2.0"]
    assert cli.main(argv) == 0
    assert "margin=7.0" in capsys.readouterr().out


def test_cli_config_boolean_toggle(tmp_path):
    graph, labels = p2_files(tmp_path)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("empirical=true\nswaps=2\n")
    out = tmp_path / "report.txt"
    argv = [
        "stability",
        "--graph", str(graph),
        "--labels", str(labels),
        "--gamma", "1.0",
        "--epsilon", "1.0",
        "--grid-size", "8",
        "--config", str(cfg),
        "--output", str(out),
    ]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert "swaps=2" in text and "empirical_ok=True" in text


# the benchmark's four command lines, with the values the parser gave them
# before the loop and training flags moved into shared parent parsers
BENCH_ARGVS = [
    (
        ["propagate", "--hypergraph", "edges.txt", "--labels", "known.csv", "--alpha", "20.0",
         "--gamma", "10.0", "--grid-size", "256", "--max-iters", "6", "--tol", "1e-300",
         "--seed", "101", "--output", "predictions.csv"],
        {"alpha": 20.0, "command": "propagate", "config": None, "gamma": 10.0, "grid_size": 256,
         "hypergraph": Path("edges.txt"), "labels": Path("known.csv"), "max_iters": 6, "n": None,
         "output": Path("predictions.csv"), "seed": 101, "tol": 1e-300, "trace": None},
    ),
    (
        ["experiment", "--hypergraph", "edges.txt", "--truth", "truth.csv",
         "--labels-per-class", "10", "--trials", "4", "--alpha", "20.0", "--gamma", "10.0",
         "--anchor-kind", "onehot", "--max-iters", "30", "--tol", "1e-300", "--seed", "101",
         "--output", "metrics.csv"],
        {"alpha": 20.0, "anchor_kind": "onehot", "anchor_variance": 0.05, "blocks": None,
         "command": "experiment", "config": None, "gamma": 10.0,
         "hypergraph": Path("edges.txt"), "k": 3, "labels_per_class": 10, "max_iters": 30,
         "n": None, "output": Path("metrics.csv"), "p_in": None, "p_out": None, "seed": 101,
         "tol": 1e-300, "trials": 4, "truth": Path("truth.csv")},
    ),
    (
        ["stability", "--graph", "graph.txt", "--labels", "known.csv", "--gamma", "1.5",
         "--epsilon", "0.5", "--grid-size", "256", "--empirical", "--swaps", "4",
         "--ratios", "ratios.csv", "--seed", "101", "--output", "report.txt"],
        {"command": "stability", "config": None, "empirical": True, "epsilon": 0.5, "gamma": 1.5,
         "graph": Path("graph.txt"), "grid_size": 256, "labels": Path("known.csv"), "n": None,
         "output": Path("report.txt"), "ratios": Path("ratios.csv"), "seed": 101, "swaps": 4},
    ),
    (
        ["solve-tikhonov", "--graph", "graph.txt", "--labels", "known.csv", "--gamma", "0.01",
         "--grid-size", "128", "--seed", "101", "--output", "field.csv"],
        {"command": "solve-tikhonov", "config": None, "gamma": 0.01, "graph": Path("graph.txt"),
         "grid_size": 128, "labels": Path("known.csv"), "n": None, "output": Path("field.csv"),
         "seed": 101},
    ),
]


@pytest.mark.parametrize("argv, expected", BENCH_ARGVS, ids=[a[0] for a, _ in BENCH_ARGVS])
def test_bench_command_lines_parse_unchanged(argv, expected):
    parsed = vars(cli.build_parser().parse_args(argv))
    parsed.pop("func")
    assert parsed == expected


def test_propagation_config_from_flags():
    args = cli.build_parser().parse_args(BENCH_ARGVS[1][0])
    cfg = cli._propagation_config(args)
    assert (cfg.alpha, cfg.gamma, cfg.max_iters, cfg.rel_tol, cfg.seed) == (20.0, 10.0, 30, 1e-300, 101)


def _bad_input_cases(tmp_path):
    graph, labels = p2_files(tmp_path)
    hyper = tmp_path / "h.txt"
    hyper.write_text("0 1\n1 2\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("vertex,class\n0,0\n1,a\n2,1\n")
    bad_graph = tmp_path / "bad_graph.txt"
    bad_graph.write_text("0 1 1.0\n1 x 1.0\n")
    config = tmp_path / "bad.cfg"
    config.write_text("gamma=1.0\nepsilon\n")
    huge = "99999999999999999999"  # past intp
    huge_truth = tmp_path / "huge_truth.csv"
    huge_truth.write_text(f"vertex,class\n0,0\n{huge},1\n")
    huge_class = tmp_path / "huge_class.csv"
    huge_class.write_text(f"vertex,class\n0,0\n1,{huge}\n2,1\n")
    huge_hyper = tmp_path / "huge_h.txt"
    huge_hyper.write_text(f"0 1\n0 {huge}\n")
    missing = tmp_path / "missing.txt"
    nan_mass = tmp_path / "nan_mass.csv"
    nan_mass.write_text("vertex,kind,params\n0,hist,0.0:nan;1.0:1.0\n")
    huge_weight = tmp_path / "huge_weight.txt"
    huge_weight.write_text("0 1 1.0\n1 2 1e300\n")
    ends = tmp_path / "ends.csv"
    fileio.write_hist_labels(ends, {0: ([0.0], [1.0]), 2: ([1.0], [1.0])})
    outside = tmp_path / "outside.csv"
    outside.write_text("vertex,kind,params\n0,hist,0.0:1.0\n5,hist,1.0:1.0\n")
    empty_table = tmp_path / "empty.csv"
    empty_table.write_text("")
    # mean + 1.53 std, the top quantile of the 8-node grid, is past the float range
    quantile_overflow = tmp_path / "quantile_overflow.csv"
    quantile_overflow.write_text("vertex,kind,params\n0,gauss,1e308|1e308\n1,gauss,0.0|1.0\n")
    two_dims = tmp_path / "two_dims.csv"
    two_dims.write_text('vertex,kind,params\n0,gauss,"0.0,0.0|1.0,1.0"\n1,gauss,"1.0,1.0|1.0,1.0"\n')
    training = ["--graph", str(graph), "--labels", str(labels), "--grid-size", "8"]
    stab = ["stability", *training]
    prop = ["propagate", "--hypergraph", str(hyper), "--alpha", "2", "--gamma", "1",
            "--output", str(tmp_path / "p.csv")]
    sbm = ["--p-in", "0.5", "--p-out", "0.1", "--output", str(tmp_path / "s.txt")]
    experiment = ["experiment", "--labels-per-class", "1", "--alpha", "2", "--gamma", "1",
                  "--output", str(tmp_path / "m.csv")]
    return {
        "epsilon-nan": ([*stab, "--gamma", "1.0", "--epsilon", "nan"], "epsilon"),
        "gamma-inf": ([*stab, "--gamma", "inf", "--epsilon", "0.5"], "gamma"),
        "gamma-nan": (["solve-tikhonov", *training, "--gamma", "nan",
                       "--output", str(tmp_path / "f.csv")], "gamma"),
        "missing-hypergraph": (["propagate", "--hypergraph", str(missing), "--labels", str(labels),
                                "--alpha", "2", "--gamma", "1", "--output", str(tmp_path / "p.csv")],
                               str(missing)),
        "missing-config": ([*stab, "--gamma", "1.0", "--epsilon", "0.5", "--config", str(missing)],
                           str(missing)),
        "truth-class-a": (["experiment", "--hypergraph", str(hyper), "--truth", str(truth),
                           "--labels-per-class", "1", "--alpha", "2", "--gamma", "1",
                           "--output", str(tmp_path / "m.csv")], f"{truth}, line 3"),
        "graph-bad-line": (["solve-tikhonov", "--graph", str(bad_graph), "--labels", str(labels),
                            "--grid-size", "8", "--gamma", "1.0",
                            "--output", str(tmp_path / "f.csv")], f"{bad_graph}, line 2"),
        "config-bad-line": ([*stab, "--epsilon", "0.5", "--config", str(config)],
                            f"{config}, line 2"),
        # margin 2 * 0.1 * 2 - 1 = -0.6 leaves the bounds out, not the check
        "epsilon-nan-margin-negative": ([*stab, "--gamma", "0.1", "--epsilon", "nan"], "epsilon"),
        "output-dir-missing": (["solve-tikhonov", *training, "--gamma", "1.0",
                                "--output", str(tmp_path / "nodir" / "f.csv")],
                               f"cannot write {tmp_path / 'nodir' / 'f.csv'}"),
        "hist-mass-nan-propagate": ([*prop, "--labels", str(nan_mass)], f"{nan_mass}, line 2"),
        "hist-mass-nan-solve": (["solve-tikhonov", "--graph", str(graph), "--labels", str(nan_mass),
                                 "--grid-size", "8", "--gamma", "1.0",
                                 "--output", str(tmp_path / "f.csv")], "finite"),
        "tol-nan": ([*prop, "--labels", str(labels), "--tol", "nan"], "rel_tol"),
        "anchor-variance-nan": ([*experiment, "--blocks", "5,5", *sbm[:4],
                                 "--anchor-variance", "nan"], "variance"),
        "blocks-not-int": (["gen-sbm", "--blocks", "5,x", *sbm], "--blocks"),
        "blocks-empty": ([*experiment, "--blocks", "5,,5", *sbm[:4]], "--blocks"),
        # the report reads the same instance as the solve, so the range is checked
        "stability-sample-outside": (["stability", "--graph", str(graph), "--labels", str(outside),
                                      "--gamma", "1.0", "--epsilon", "0.5", "--grid-size", "8"],
                                     f"{outside}, line 3: label vertex 5 outside [0, 2)"),
        "gauss-quantile-overflow-solve": (
            ["solve-tikhonov", "--graph", str(graph), "--labels", str(quantile_overflow),
             "--grid-size", "8", "--gamma", "1.0", "--output", str(tmp_path / "f.csv")],
            f"{quantile_overflow}, line 2: quantile samples must be finite"),
        "gauss-quantile-overflow-stability": (
            ["stability", "--graph", str(graph), "--labels", str(quantile_overflow),
             "--gamma", "1.0", "--epsilon", "0.5", "--grid-size", "8"],
            f"{quantile_overflow}, line 2: quantile samples must be finite"),
        "gauss-two-dimensions-solve": (
            ["solve-tikhonov", "--graph", str(graph), "--labels", str(two_dims),
             "--grid-size", "8", "--gamma", "1.0", "--output", str(tmp_path / "f.csv")],
            "quantile-field solving needs one-dimensional labels, got dimension 2"),
        "truth-vertex-huge": ([*experiment, "--hypergraph", str(hyper), "--truth", str(huge_truth)],
                              "truth file must cover vertices"),
        "truth-class-huge": ([*experiment, "--hypergraph", str(hyper), "--truth", str(huge_class)],
                             "truth class out of range"),
        "hypergraph-vertex-huge": (["propagate", "--hypergraph", str(huge_hyper), "--labels",
                                    str(labels), "--alpha", "2", "--gamma", "1",
                                    "--output", str(tmp_path / "p.csv")], "vertex count"),
        # m * gamma * 1e300 = 2e310 overflows A = T + m*gamma*L to inf
        "operator-overflow": (["solve-tikhonov", "--graph", str(huge_weight), "--labels", str(ends),
                               "--grid-size", "8", "--gamma", "1e10",
                               "--output", str(tmp_path / "f.csv")], "overflows"),
        # numpy rejects a negative seed with its own ValueError
        "gen-sbm-seed-negative": (["gen-sbm", "--blocks", "5,5", *sbm, "--seed", "-1"],
                                  "seed must be non-negative, got -1"),
        "experiment-seed-negative": ([*experiment, "--blocks", "5,5", *sbm[:4], "--seed", "-1"],
                                     "seed must be non-negative, got -1"),
        "stability-empirical-seed-negative": ([*stab, "--gamma", "1.0", "--epsilon", "0.5",
                                               "--empirical", "--seed", "-1"],
                                              "seed must be non-negative, got -1"),
        # the swap flags are checked like --epsilon, also when no swap runs
        "stability-empirical-swaps-zero-margin-negative": (
            [*stab, "--gamma", "0.1", "--epsilon", "0.5", "--empirical", "--swaps", "0"],
            "swaps must be >= 1, got 0"),
        "stability-empirical-seed-negative-margin-negative": (
            [*stab, "--gamma", "0.1", "--epsilon", "0.5", "--empirical", "--seed", "-1"],
            "seed must be non-negative, got -1"),
        "blocks-size-zero": (["gen-sbm", "--blocks", "0,5", *sbm], "block sizes must be positive"),
        # C(100000, 6) is about 1.4e27, past the int64 ranks the draw takes
        "gen-sbm-subsets-past-int64": (["gen-sbm", "--blocks", "50000,50000", "--k", "6", *sbm],
                                       "C(100000, 6) subsets exceed the 64-bit rank range"),
        "experiment-blocks-subsets-past-int64": (
            [*experiment, "--blocks", "50000,50000", "--k", "6", *sbm[:4]],
            "C(100000, 6) subsets exceed the 64-bit rank range"),
        # flags a mode would ignore are refused: without --empirical no
        # ratios file is written, and --hypergraph builds no block model
        "stability-ratios-without-empirical": (
            [*stab, "--gamma", "1.0", "--epsilon", "0.5", "--ratios", str(tmp_path / "r.csv")],
            "--ratios requires --empirical"),
        "stability-swaps-negative-without-empirical": (
            [*stab, "--gamma", "1.0", "--epsilon", "0.5", "--swaps", "-1"],
            "swaps must be >= 1, got -1"),
        "experiment-hypergraph-with-block-flags": (
            [*experiment, "--hypergraph", str(hyper), "--truth", str(truth),
             "--blocks", "x", "--k", "0", "--p-in", "-1"],
            "--hypergraph does not combine with --blocks, --k, --p-in"),
        "experiment-blocks-with-truth": (
            [*experiment, "--blocks", "5,5", *sbm[:4], "--truth", str(truth)],
            "--blocks does not combine with --truth"),
        # each source needs all of its flags
        "experiment-hypergraph-without-truth": (
            [*experiment, "--hypergraph", str(hyper)], "--hypergraph requires --truth"),
        "experiment-blocks-without-p-in-p-out": (
            [*experiment, "--blocks", "5,5"], "--blocks requires --p-in and --p-out"),
        "ingest-empty-csv": (["ingest", "--input", str(empty_table), "--output", str(tmp_path / "i.txt")],
                             f"{empty_table} is empty"),
        # two labels in each of two 2-vertex blocks leave no vertex to score
        "experiment-every-vertex-known": (
            ["experiment", "--blocks", "2,2", "--k", "2", "--p-in", "1", "--p-out", "1",
             "--labels-per-class", "2", "--trials", "2", "--alpha", "2", "--gamma", "1",
             "--output", str(tmp_path / "m.csv")], "leaving none to score"),
    }


@pytest.mark.parametrize(
    "case",
    ["epsilon-nan", "gamma-inf", "gamma-nan", "missing-hypergraph", "missing-config",
     "truth-class-a", "graph-bad-line", "config-bad-line", "epsilon-nan-margin-negative",
     "output-dir-missing", "hist-mass-nan-propagate", "hist-mass-nan-solve", "tol-nan",
     "anchor-variance-nan", "blocks-not-int", "blocks-empty", "stability-sample-outside",
     "gauss-quantile-overflow-solve", "gauss-quantile-overflow-stability",
     "gauss-two-dimensions-solve",
     "truth-vertex-huge", "truth-class-huge", "hypergraph-vertex-huge", "operator-overflow",
     "gen-sbm-seed-negative", "experiment-seed-negative", "stability-empirical-seed-negative",
     "stability-empirical-swaps-zero-margin-negative",
     "stability-empirical-seed-negative-margin-negative", "experiment-every-vertex-known",
     "blocks-size-zero", "stability-ratios-without-empirical",
     "stability-swaps-negative-without-empirical", "experiment-hypergraph-with-block-flags",
     "experiment-blocks-with-truth", "gen-sbm-subsets-past-int64",
     "experiment-blocks-subsets-past-int64", "experiment-hypergraph-without-truth",
     "experiment-blocks-without-p-in-p-out", "ingest-empty-csv"],
)
def test_cli_bad_input_is_one_error_line(tmp_path, capsys, case):
    argv, names = _bad_input_cases(tmp_path)[case]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    err = captured.err
    assert rc == 2 and captured.out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and names in errors[0]
    assert "Traceback" not in err


def _only_error_line(capsys, argv) -> str:
    """The one stderr line of a CLI run that exits 2, warns of nothing and
    prints nothing else."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


# labels files on the 3-vertex path: rows for vertices 0 and 2 unless a row is the defect
MALFORMED_LABELS = {
    "two-columns": "vertex,kind,params\n0,hist\n",
    "four-columns": "vertex,kind,params\n0,hist,0.0:1.0\n2,hist,1.0:1.0,7\n",
    "empty": "",
    "header-only": "vertex,kind,params\n",
    "unknown-kind": "vertex,kind,params\n0,point,0.0\n2,point,1.0\n",
    "mixed-kinds": "vertex,kind,params\n0,hist,0.0:1.0\n2,gauss,1.0|1.0\n",
    "duplicate-vertex": "vertex,kind,params\n0,hist,0.0:1.0\n0,hist,1.0:1.0\n",
    "negative-vertex": "vertex,kind,params\n-1,hist,0.0:1.0\n2,hist,1.0:1.0\n",
    "vertex-past-intp": "vertex,kind,params\n0,hist,0.0:1.0\n99999999999999999999,hist,1.0:1.0\n",
    "vertex-out-of-range": "vertex,kind,params\n0,hist,0.0:1.0\n3,hist,1.0:1.0\n",
    "vertex-not-integer": "vertex,kind,params\n0,hist,0.0:1.0\n2.0,hist,1.0:1.0\n",
    "hist-empty-params": "vertex,kind,params\n0,hist,\n2,hist,1.0:1.0\n",
    "hist-unsorted-bins": "vertex,kind,params\n0,hist,1.0:0.5;0.0:0.5\n2,hist,1.0:1.0\n",
    "hist-negative-mass": "vertex,kind,params\n0,hist,0.0:-0.5;1.0:1.5\n2,hist,1.0:1.0\n",
    "hist-nan-mass": "vertex,kind,params\n0,hist,0.0:nan;1.0:1.0\n2,hist,1.0:1.0\n",
    "hist-not-normalized": "vertex,kind,params\n0,hist,0.0:0.5\n2,hist,1.0:1.0\n",
    "gauss-missing-part": "vertex,kind,params\n0,gauss,0.0\n2,gauss,1.0|1.0\n",
    "gauss-extra-part": "vertex,kind,params\n0,gauss,0.0|1.0|2.0\n2,gauss,1.0|1.0\n",
    "gauss-not-a-number": "vertex,kind,params\n0,gauss,0.0|1.0\n2,gauss,1.0|one\n",
    "gauss-negative-std": "vertex,kind,params\n0,gauss,0.0|-1.0\n2,gauss,1.0|1.0\n",
    "gauss-mixed-dimensions": 'vertex,kind,params\n0,gauss,"0.0,1.0|1.0,1.0"\n2,gauss,1.0|1.0\n',
    # |inf - inf| is NaN, so an overflowing loss never met the stop test
    "gauss-loss-overflow": "vertex,kind,params\n0,gauss,0.0|1.0\n2,gauss,1e308|1e308\n",
    # the envelope's squared norm overflows
    "gauss-envelope-overflow": "vertex,kind,params\n0,gauss,1e200|1e200\n2,gauss,-1e200|1e200\n",
}

MALFORMED_TRUTH = {
    "one-column": "vertex,class\n0,0\n1\n2,1\n",
    "three-columns": "vertex,class\n0,0\n1,1,1\n2,1\n",
    "empty": "",
    "header-only": "vertex,class\n",
    "class-not-integer": "vertex,class\n0,0\n1,a\n2,1\n",
    "vertex-not-integer": "vertex,class\n0,0\nv,1\n2,1\n",
    "duplicate-vertex": "vertex,class\n0,0\n1,1\n1,0\n2,1\n",
    "missing-vertex": "vertex,class\n0,0\n2,1\n",
    "negative-vertex": "vertex,class\n-1,0\n0,0\n1,1\n",
    "vertex-past-intp": "vertex,class\n0,0\n1,1\n99999999999999999999,1\n",
    "class-past-intp": "vertex,class\n0,0\n1,99999999999999999999\n2,1\n",
    "fewer-vertices": "vertex,class\n0,0\n1,1\n",
    "more-vertices": "vertex,class\n0,0\n1,1\n2,1\n3,0\n",
    "one-class": "vertex,class\n0,0\n1,0\n2,0\n",
    "classes-not-from-0": "vertex,class\n0,1\n1,2\n2,2\n",
    "negative-class": "vertex,class\n0,-1\n1,0\n2,0\n",
    # one label per class makes every vertex known, so no accuracy is scored
    "every-vertex-known": "vertex,class\n0,0\n1,1\n2,2\n",
}

# the reader rejects the first three, naming the file; argparse the others
MALFORMED_CONFIGS = {
    "no-equals": b"# defaults\ngamma\n",
    "empty-key": b"=1\n",
    "not-utf8": b"\xff\xfeseed=1\n",
    "unknown-key": b"bogus=1\n",
    "bad-int": b"seed=x\n",
}


def _command_argvs(tmp_path, labels_text):
    """Each subcommand on the 3-vertex path (as a graph and a hypergraph) with
    the given labels file, and experiment also on a generated block model,
    writing into tmp_path."""
    graph, hyper, labels = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "l.csv"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    hyper.write_text("0 1\n1 2\n")
    labels.write_text(labels_text)
    truth = tmp_path / "t.csv"
    truth.write_text("vertex,class\n0,0\n1,1\n2,1\n")
    table = tmp_path / "table.csv"
    table.write_text("f,class\na,x\na,y\nb,x\n")
    training = ["--graph", str(graph), "--labels", str(labels), "--gamma", "1.0", "--grid-size", "8"]
    return {
        "gen-sbm": ["gen-sbm", "--blocks", "3,3", "--p-in", "0.5", "--p-out", "0.1",
                    "--output", str(tmp_path / "s.txt")],
        "ingest": ["ingest", "--input", str(table), "--output", str(tmp_path / "i.txt")],
        "propagate": ["propagate", "--hypergraph", str(hyper), "--labels", str(labels),
                      "--alpha", "2", "--gamma", "1", "--grid-size", "8",
                      "--output", str(tmp_path / "p.csv")],
        "solve-tikhonov": ["solve-tikhonov", *training, "--output", str(tmp_path / "f.csv")],
        "stability": ["stability", *training, "--epsilon", "0.5", "--empirical", "--swaps", "2",
                      "--output", str(tmp_path / "r.txt")],
        "experiment": ["experiment", "--hypergraph", str(hyper), "--truth", str(truth),
                       "--labels-per-class", "1", "--alpha", "2", "--gamma", "1",
                       "--output", str(tmp_path / "m.csv")],
        "experiment-blocks": ["experiment", "--blocks", "3,3", "--p-in", "0.5", "--p-out", "0.1",
                              "--labels-per-class", "1", "--trials", "2", "--alpha", "2",
                              "--gamma", "1", "--output", str(tmp_path / "b.csv")],
    }


GOOD_LABELS = "vertex,kind,params\n0,hist,0.0:1.0\n2,hist,1.0:1.0\n"


def test_cli_gate_inputs_are_good(tmp_path):
    # the commands the gates below run succeed on the unbroken files, with no
    # warning but the one for the vertex the generated hypergraph leaves out
    for command, argv in _command_argvs(tmp_path, GOOD_LABELS).items():
        if command == "experiment-blocks":
            with pytest.warns(UserWarning, match=r"^1 vertices belong to no hyperedge .*: \[1\]$"):
                assert cli.main(argv) == 0, command
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0, command


# stability inputs on which a float expression of the bounds under- or
# overflows: (labels, flags appended to the stability command line)
EXTREME_STABILITY = {
    "margin-squared-overflows": (GOOD_LABELS, ["--gamma", "1e155"]),
    "m-eps-squared-underflows": (GOOD_LABELS, ["--epsilon", "1e-170"]),
    "beta-plus-M-squared-underflows": (
        "vertex,kind,params\n0,hist,1e-150:1.0\n2,hist,2e-150:1.0\n", []),
    "inf-over-inf": (
        "vertex,kind,params\n0,hist,1e100:1.0\n2,hist,2e100:1.0\n", ["--epsilon", "1e200"]),
    "zero-labels-eps-underflows": (
        "vertex,kind,params\n0,hist,0.0:1.0\n2,hist,0.0:1.0\n", ["--epsilon", "1e-170"]),
}


def _exact_bound_flags(report):
    """(fraction_vacuous, exponential_vacuous, sample_size_ok) of a printed
    report, from its beta, M, m and epsilon in exact rationals."""
    beta, M, eps = (Fraction(float(report[k])) for k in ("beta", "M", "epsilon"))
    m = int(report["m"])
    fraction = (64 * M * m * beta + 8 * M * M) / (m * eps * eps)
    exponent = m * eps * eps / (2 * (m * beta + M) ** 2) if m * beta + M else math.inf
    return fraction > 1, exponent < math.log(2), m * eps * eps >= 8 * M * M


@pytest.mark.parametrize("case", EXTREME_STABILITY)
def test_cli_stability_bounds_past_the_float_range(tmp_path, capsys, case):
    # a full report, exit 0, no nan, and vacuity flags as in exact arithmetic
    labels, flags = EXTREME_STABILITY[case]
    argv = _command_argvs(tmp_path, labels)["stability"] + flags
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "r.txt").read_text()
    assert "nan" not in text
    report = dict(line.split("=", 1) for line in text.splitlines())
    good = tmp_path / "good"
    good.mkdir()
    assert cli.main(_command_argvs(good, GOOD_LABELS)["stability"]) == 0
    assert list(report) == [line.split("=", 1)[0] for line in (good / "r.txt").read_text().splitlines()]
    printed = tuple(report[k] == "True" for k in ("fraction_vacuous", "exponential_vacuous",
                                                  "sample_size_ok"))
    assert printed == _exact_bound_flags(report)


def test_cli_stability_empirical_past_the_float_range(tmp_path, capsys):
    # labels of ±4e153 make beta overflow, so the swap harness has no finite
    # bound: one error line naming the overflow, no warning, nan or report
    labels = "vertex,kind,params\n0,hist,-4e153:1.0\n2,hist,4e153:1.0\n"
    line = _only_error_line(capsys, _command_argvs(tmp_path, labels)["stability"])
    assert "overflows the float range" in line and "nan" not in line
    assert not (tmp_path / "r.txt").exists()


# the solve builds no envelope, and solves these labels to a finite field
SOLVE_ACCEPTS = {"gauss-envelope-overflow"}


@pytest.mark.parametrize(
    "case, command",
    [(case, command) for case in MALFORMED_LABELS
     for command in ("propagate", "solve-tikhonov", "stability")
     if not (command == "solve-tikhonov" and case in SOLVE_ACCEPTS)],
)
def test_cli_malformed_labels_is_one_error_line(tmp_path, capsys, case, command):
    argv = _command_argvs(tmp_path, MALFORMED_LABELS[case])[command]
    _only_error_line(capsys, argv)


# the line of each labels defect, None for a file with no row; the reader
# checks the vertex range against the graph's or hypergraph's n, and the two
# overflow rows fail where each command first computes with the labels
LABEL_DEFECT_LINES = {
    "two-columns": 2, "four-columns": 3, "empty": None, "header-only": None,
    "unknown-kind": 2, "mixed-kinds": 3, "duplicate-vertex": 3, "negative-vertex": 2,
    "vertex-past-intp": 3, "vertex-out-of-range": 3, "vertex-not-integer": 3,
    "hist-empty-params": 2, "hist-unsorted-bins": 2, "hist-negative-mass": 2,
    "hist-nan-mass": 2, "hist-not-normalized": 2, "gauss-missing-part": 2,
    "gauss-extra-part": 2, "gauss-not-a-number": 3, "gauss-negative-std": 2,
    "gauss-mixed-dimensions": 3,
}
LABEL_DEFECTS_PER_COMMAND = {"gauss-loss-overflow", "gauss-envelope-overflow"}


def test_label_defect_tables_cover_the_gate():
    assert set(LABEL_DEFECT_LINES) | LABEL_DEFECTS_PER_COMMAND == set(MALFORMED_LABELS)
    assert not set(LABEL_DEFECT_LINES) & LABEL_DEFECTS_PER_COMMAND


@pytest.mark.parametrize("case", list(LABEL_DEFECT_LINES))
def test_cli_label_defect_reads_the_same_from_every_command(tmp_path, capsys, case):
    argvs = _command_argvs(tmp_path, MALFORMED_LABELS[case])
    lines = {_only_error_line(capsys, argvs[command])
             for command in ("propagate", "solve-tikhonov", "stability")}
    (line,) = lines
    path, number = tmp_path / "l.csv", LABEL_DEFECT_LINES[case]
    assert str(path) in line
    if number is not None:
        assert line.startswith(f"error: {path}, line {number}: ")


# flag -> (bad values, the commands that take it, the error it gives; {} is
# the value as parsed)
POSITIVE_VALUES = ["0", "-1", "nan", "inf"]
BAD_FLAGS = {
    "--gamma": (POSITIVE_VALUES, ["propagate", "solve-tikhonov", "stability", "experiment"],
                "gamma must be positive and finite, got {}"),
    "--tol": (POSITIVE_VALUES, ["propagate", "experiment"], "rel_tol must be positive and finite, got {}"),
    "--epsilon": (POSITIVE_VALUES, ["stability"], "epsilon must be positive and finite, got {}"),
    "--alpha": (["0.5", "nan"], ["propagate", "experiment"], "alpha must be finite and >= 1, got {}"),
    "--max-iters": (["0", "-1"], ["propagate", "experiment"], "max_iters must be >= 1, got {}"),
    "--grid-size": (["0", "-1"], ["propagate", "solve-tikhonov", "stability"],
                    "grid size must be >= 1, got {}"),
    "--swaps": (["0", "-1"], ["stability"], "swaps must be >= 1, got {}"),
    "--trials": (["0", "-1"], ["experiment"], "labels_per_class and trials must be >= 1"),
    "--labels-per-class": (["0", "-1"], ["experiment"], "labels_per_class and trials must be >= 1"),
    "--k": (["0", "-1"], ["gen-sbm", "experiment-blocks"], "hyperedge arity k must be >= 2, got {}"),
    "--anchor-variance": (["-1", "nan"], ["experiment"], "variance must be non-negative and finite, got {}"),
    "--p-in": (["-1", "nan"], ["gen-sbm", "experiment-blocks"], "p_in={}"),
    "--p-out": (["-1", "nan"], ["gen-sbm", "experiment-blocks"], "p_out={}"),
    "--blocks": (["5,x", "5,,5", ""], ["gen-sbm", "experiment-blocks"],
                 "--blocks must be comma-separated integers, got '{}'"),
}
INT_FLAGS = {"--max-iters", "--grid-size", "--swaps", "--trials", "--labels-per-class", "--k"}
TEXT_FLAGS = {"--blocks"}


@pytest.mark.parametrize("flag, value, command", [
    (flag, value, command) for flag, (values, commands, _) in BAD_FLAGS.items()
    for value in values for command in commands])
def test_cli_bad_flag_value_is_one_error_line(tmp_path, capsys, flag, value, command):
    # the flag comes last, so it overrides the good value the command holds
    argv = _command_argvs(tmp_path, GOOD_LABELS)[command]
    line = _only_error_line(capsys, [*argv, flag, value])
    parsed = (int if flag in INT_FLAGS else str if flag in TEXT_FLAGS else float)(value)
    assert BAD_FLAGS[flag][2].format(parsed) in line


@pytest.mark.parametrize("case", list(MALFORMED_TRUTH))
def test_cli_malformed_truth_is_one_error_line(tmp_path, capsys, case):
    argv = _command_argvs(tmp_path, GOOD_LABELS)["experiment"]
    (tmp_path / "t.csv").write_text(MALFORMED_TRUTH[case])
    _only_error_line(capsys, argv)


@pytest.mark.parametrize("command", ["gen-sbm", "ingest", "propagate", "solve-tikhonov",
                                     "stability", "experiment"])
@pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
def test_cli_malformed_config_is_one_error_line(tmp_path, capsys, case, command):
    config = tmp_path / "c.cfg"
    config.write_bytes(MALFORMED_CONFIGS[case])
    argv = _command_argvs(tmp_path, GOOD_LABELS)[command]
    line = _only_error_line(capsys, [*argv, "--config", str(config)])
    assert (str(config) in line) == (case in ("no-equals", "empty-key", "not-utf8"))


SEEDED_COMMANDS = ["gen-sbm", "ingest", "propagate", "solve-tikhonov", "stability",
                   "stability-report", "experiment"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_cli_negative_seed_is_one_error_line(tmp_path, capsys, command, source):
    # also the commands that draw nothing; "stability-report" runs no swaps
    argvs = _command_argvs(tmp_path, GOOD_LABELS)
    argvs["stability-report"] = [a for a in argvs["stability"] if a != "--empirical"]
    if source == "flag":
        extra = ["--seed", "-1"]
    else:
        config = tmp_path / "c.cfg"
        config.write_text("seed=-1\n")
        extra = ["--config", str(config)]
    line = _only_error_line(capsys, [*argvs[command], *extra])
    assert line == "error: seed must be non-negative, got -1"


# counts numpy cannot size an 8-byte array of (2**60 - 64 is the first, as
# np.arange rounds its length to a double); smaller huge counts are left
# out, as an allocation of that size might be granted lazily
@pytest.mark.parametrize("n", [10**23, 2**60, 2**62, 2**63 - 1])
@pytest.mark.parametrize("command", ["propagate", "solve-tikhonov", "stability", "experiment"])
def test_cli_vertex_count_past_numpy_is_one_error_line(tmp_path, capsys, command, n):
    argv = _command_argvs(tmp_path, GOOD_LABELS)[command]
    assert _only_error_line(capsys, [*argv, "--n", str(n)]) == f"error: vertex count {n} out of range"


@pytest.mark.parametrize("command", ["solve-tikhonov", "stability"])
@pytest.mark.parametrize("case", list(MALFORMED_GRAPHS))
def test_cli_malformed_graph_is_the_readers_error(tmp_path, capsys, case, command):
    text, n, message = MALFORMED_GRAPHS[case]
    graph, labels = p2_files(tmp_path)
    graph.write_text(text)
    argv = [command, "--graph", str(graph), "--labels", str(labels), "--grid-size", "8",
            "--gamma", "1.0", "--output", str(tmp_path / "out.txt")]
    argv += ["--epsilon", "0.5"] if command == "stability" else []
    argv += ["--n", str(n)] if n is not None else []
    assert _only_error_line(capsys, argv) == "error: " + message.format(path=graph)


@pytest.mark.parametrize("command", ["propagate", "experiment"])
@pytest.mark.parametrize("case", list(MALFORMED_HYPERGRAPHS))
def test_cli_malformed_hypergraph_is_the_readers_error(tmp_path, capsys, case, command):
    text, n, message = MALFORMED_HYPERGRAPHS[case]
    hyper = tmp_path / "h.txt"
    hyper.write_text(text)
    _, labels = p2_files(tmp_path)
    truth = tmp_path / "truth.csv"
    fileio.write_truth(truth, [0, 1])
    sources = {"propagate": ["--labels", str(labels)],
               "experiment": ["--truth", str(truth), "--labels-per-class", "1"]}
    argv = [command, "--hypergraph", str(hyper), *sources[command], "--alpha", "2",
            "--gamma", "1", "--output", str(tmp_path / "out.csv")]
    argv += ["--n", str(n)] if n is not None else []
    assert _only_error_line(capsys, argv) == "error: " + message.format(path=hyper)


@pytest.mark.parametrize("message", ["Unable to allocate 931. GiB for an array", ""])
def test_cli_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys, message):
    # a vertex index near 1e12 fits intp but sizes an n-long array past memory
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(fileio, "read_hypergraph", exhausted)
    argv = ["propagate", "--hypergraph", str(tmp_path / "h.txt"), "--labels",
            str(tmp_path / "l.csv"), "--alpha", "2", "--gamma", "1",
            "--output", str(tmp_path / "p.csv")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: out of memory: {message or 'allocation failed'}"]


# good lines {edge} and {other} and a bad line {bad}, and the bad line's number
LINE_ENDINGS = {
    "crlf": ("{edge}\r\n{other}\r\n{bad}\r\n", 3),
    "cr": ("{edge}\r{bad}\r{other}\r", 2),
    "mixed": ("{edge}\r\n\r{bad}\n", 3),
    "blank-lines": ("{edge}\n\n  \n\t\n{bad}\n", 5),
    "blank-lines-crlf": ("\r\n{edge}\r\n\r\n{bad}\r\n", 4),
    "comment": ("# edges\n{edge}\n#\n{bad}\n", 4),
    "no-final-newline": ("{edge}\n{bad}", 2),
    "no-final-newline-cr": ("{edge}\r{other}\r{bad}", 3),
}


@pytest.mark.parametrize(
    "reader, text, line",
    [
        (lambda p: fileio.read_labels(p, QuantileGrid(4)),
         "vertex,kind,params\n0,hist,0.0:1.0\n1,hist,0.0:x\n", 3),
        (lambda p: fileio.read_labels(p), "vertex,kind,params\n0,gauss,0.0|1.0\nv,gauss,0|1\n", 3),
        (lambda p: fileio.read_hypergraph(p), "# edges\n0 1\n1 two\n", 3),
        *[(lambda p: fileio.read_hypergraph(p), text.format(edge="0 1", other="1 2", bad="1 two"), line)
          for text, line in LINE_ENDINGS.values()],
        *[(lambda p: fileio.read_graph(p), text.format(edge="0 1 1.0", other="1 2 1.0", bad="1 x 1.0"), line)
          for text, line in LINE_ENDINGS.values()],
        # every line parses, so the whole-file pass runs and the check sends it to the lines
        *[(lambda p: fileio.read_graph(p), text.format(edge="0 1 1.0", other="1 2 1.0", bad="1 0 2.0"), line)
          for text, line in LINE_ENDINGS.values()],
        (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\n0,0.0,1.0\n1,0.5\n", 3),
        (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\n0,0.0,one\n", 2),
        (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\nzz,1.0,0.0\n", 2),
        (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\n0,0.0,1.0\n7,0.0,1.0\n", 3),
        (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\n0,0.0,1.0\n1,nan,inf\n", 3),
        (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\n0,0.0,1.0\n1,1.0,0.0\n", 3),
        (lambda p: fileio.read_truth(p), "vertex,class\n0,0\n1\n", 3),
        (lambda p: fileio.read_truth(p), "vertex,class\n0,0\n0,1\n1,1\n", 3),
        (lambda p: fileio.read_categorical_csv(p), "f,class\na,x\nb\n", 3),
    ],
    ids=["hist-params", "vertex", "hypergraph",
         *[f"hypergraph-{name}" for name in LINE_ENDINGS],
         *[f"graph-{name}" for name in LINE_ENDINGS],
         *[f"graph-duplicate-{name}" for name in LINE_ENDINGS],
         "field-width", "field-value", "field-vertex", "field-order", "field-nan",
         "field-decreasing",
         "truth", "truth-duplicate", "table"],
)
def test_readers_name_file_and_line(tmp_path, reader, text, line):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())  # line endings as written
    with pytest.raises(InputError, match=f"^{path}, line {line}: "):
        reader(path)
    with pytest.raises(InputError, match=f"cannot read {tmp_path / 'absent.txt'}"):
        reader(tmp_path / "absent.txt")
    path.write_bytes(b"\xff\xfe" + text.encode())  # not UTF-8
    with pytest.raises(InputError, match=f"cannot read {path}"):
        reader(path)


# each reader, a file it reads, and the plain data of what it returns
BOM_CASES = {
    "labels": (lambda p: fileio.read_labels(p, QuantileGrid(4)), "vertex,kind,params\n0,hist,0.0:1.0\n",
               lambda r: (r[0], {v: lab.values.tolist() for v, lab in r[1].items()})),
    "truth": (fileio.read_truth, "vertex,class\n0,0\n1,1\n", lambda r: r.tolist()),
    "field": (lambda p: fileio.read_field(p, QuantileGrid(2)), "vertex,s_1,s_2\n0,0.0,1.0\n",
              lambda r: r.values.tolist()),
    "hypergraph": (fileio.read_hypergraph, "0 1\n1 2\n", lambda r: (r.n, r.edges)),
    "graph": (fileio.read_graph, "0 1 1.0\n1 2 0.5\n", lambda r: (r.n, r.pairs.tolist(), r.weights.tolist())),
    "table": (fileio.read_categorical_csv, "f,class\na,x\nb,y\n", lambda r: r),
    "config": (fileio.read_config_flags, "alpha=2\nverbose=true\n", lambda r: r),
}


@pytest.mark.parametrize("case", list(BOM_CASES))
def test_readers_accept_a_byte_order_mark(tmp_path, case):
    # spreadsheet exports often open with a UTF-8 byte-order mark
    read, text, plain_data = BOM_CASES[case]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert plain_data(read(marked)) == plain_data(read(plain))


def test_label_validation_error_keeps_its_type(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("vertex,kind,params\n0,hist,0.0:0.5\n")
    with pytest.raises(NormalizationError, match=f"^{path}, line 2: "):
        fileio.read_labels(path, QuantileGrid(4))
