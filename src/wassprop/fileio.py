"""Plain-text formats: label tables, hypergraph and graph files, quantile
field CSVs, categorical tables, truth tables, predictions, stability ratios,
metric traces, and key=value config files.

Label files are CSV with header `vertex,kind,params`.  kind "hist" encodes a
histogram as `b1:m1;b2:m2;...` (bin:mass pairs); kind "gauss" encodes a
diagonal Gaussian as `mu1,...,mub|sd1,...,sdb`.  Hypergraph files hold one
hyperedge per line as whitespace-separated 0-based vertex indices; graph
files hold lines `i j w`.  All floats are written with `.` decimals via repr
(shortest round-trip) and all files use `\n` line endings.  Readers raise
InputError naming the file, and the line for a line that does not parse.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .experiments import CategoricalTable
from .hypergraph import Hypergraph, WeightedGraph, first_duplicate, vertex_array
from .labels import (
    DiagGaussianLabel,
    QuantileGrid,
    QuantileLabel,
    quantile_from_histogram,
)
from .tikhonov import QuantileField

LABELS_HEADER = ["vertex", "kind", "params"]


def format_float(x: float) -> str:
    return repr(float(x))


def _read_lines(path) -> List[str]:
    """The lines of an input file, endings kept; if it cannot be read, raise
    InputError naming it."""
    try:
        with open(Path(path), newline="") as fh:
            return fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc.reason}") from None


def _csv_rows(path) -> List[Tuple[int, List[str]]]:
    """(line number, fields) of each non-empty row of a CSV file."""
    reader = csv.reader(_read_lines(path))
    return [(reader.line_num, row) for row in reader if row]


def _data_lines(path) -> List[Tuple[int, str]]:
    """(line number, stripped text) of each non-blank line that is no `#` comment."""
    lines = enumerate((raw.strip() for raw in _read_lines(path)), start=1)
    return [(number, text) for number, text in lines if text and not text.startswith("#")]


def _joined(values: np.ndarray, sep: str) -> str:
    """`format_float` of each value, joined; repr of the Python floats that
    `tolist` yields is the same text, made in one pass."""
    return sep.join(map(repr, values.tolist()))


def gauss_params(label: DiagGaussianLabel) -> str:
    return f"{_joined(label.mean, ',')}|{_joined(label.std, ',')}"


def parse_gauss_params(text: str) -> DiagGaussianLabel:
    parts = text.split("|")
    if len(parts) != 2:
        raise InputError(f"gauss params need one '|', got {text!r}")
    try:
        mean = [float(v) for v in parts[0].split(",")]
        std = [float(v) for v in parts[1].split(",")]
    except ValueError as exc:
        raise InputError(f"bad gauss params {text!r}: {exc}") from None
    return DiagGaussianLabel(mean, std)


def hist_params(bins: Sequence[float], masses: Sequence[float]) -> str:
    if len(bins) != len(masses):
        raise InputError("bins and masses must have equal length")
    return ";".join(
        f"{format_float(b)}:{format_float(m)}" for b, m in zip(bins, masses)
    )


def parse_hist_params(text: str) -> Tuple[List[float], List[float]]:
    bins: List[float] = []
    masses: List[float] = []
    for pair in text.split(";"):
        pieces = pair.split(":")
        if len(pieces) != 2:
            raise InputError(f"hist pair must be 'bin:mass', got {pair!r}")
        try:
            bins.append(float(pieces[0]))
            masses.append(float(pieces[1]))
        except ValueError as exc:
            raise InputError(f"bad hist pair {pair!r}: {exc}") from None
    return bins, masses


def label_params(label) -> str:
    """Serialized params column: gauss form for Gaussians, semicolon-joined
    quantile samples for quantile labels."""
    if isinstance(label, DiagGaussianLabel):
        return gauss_params(label)
    if isinstance(label, QuantileLabel):
        return _joined(label.values, ";")
    raise InputError(f"cannot serialize label of type {type(label).__name__}")


def read_labels(path, grid: Optional[QuantileGrid] = None):
    """Parse a labels CSV into (kind, {vertex: label}).

    All rows must share one kind; hist rows are resampled onto `grid`
    (required for hist files).
    """
    rows = []
    for line, row in _csv_rows(path):
        if row[0].strip() == "vertex":
            continue
        if len(row) != 3:
            raise InputError(f"{path}, line {line}: labels row needs 3 columns, got {row!r}")
        rows.append((line, [field.strip() for field in row]))
    if not rows:
        raise InputError(f"no label rows found in {path}")
    kinds = {row[1] for _, row in rows}
    if not kinds <= {"hist", "gauss"}:
        raise InputError(f"unknown label kind(s) {sorted(kinds - {'hist', 'gauss'})}")
    if len(kinds) != 1:
        raise InputError("labels file mixes hist and gauss rows")
    kind = kinds.pop()
    if kind == "hist" and grid is None:
        raise InputError("hist labels require a quantile grid")
    out: Dict[int, object] = {}
    for line, (vertex_text, _, params) in rows:
        try:
            vertex = int(vertex_text)
        except ValueError:
            raise InputError(f"{path}, line {line}: bad vertex index {vertex_text!r}") from None
        if vertex in out:
            raise InputError(f"{path}, line {line}: duplicate label for vertex {vertex}")
        try:
            if kind == "hist":
                bins, masses = parse_hist_params(params)
                out[vertex] = quantile_from_histogram(bins, masses, grid)
            else:
                out[vertex] = parse_gauss_params(params)
        except InputError as exc:  # keeps the subclass, e.g. NormalizationError
            raise type(exc)(f"{path}, line {line}: {exc}") from None
    return kind, out


def write_gauss_labels(path, labels: Mapping[int, DiagGaussianLabel]) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABELS_HEADER)
        for v in sorted(labels):
            writer.writerow([v, "gauss", gauss_params(labels[v])])


def write_hist_labels(
    path, hists: Mapping[int, Tuple[Sequence[float], Sequence[float]]]
) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABELS_HEADER)
        for v in sorted(hists):
            bins, masses = hists[v]
            writer.writerow([v, "hist", hist_params(bins, masses)])


def read_hypergraph(path, n: Optional[int] = None) -> Hypergraph:
    """One hyperedge per line; `#` comments and blank lines ignored; the
    vertex count defaults to one past the largest index seen."""
    edges: List[Tuple[int, ...]] = []
    for line, text in _data_lines(path):
        try:
            edges.append(tuple(int(v) for v in text.split()))
        except ValueError:
            raise InputError(f"{path}, line {line}: bad hyperedge line {text!r}") from None
    if n is None:
        if not edges:
            raise InputError("cannot infer vertex count from an empty hypergraph file")
        n = max(max(e) for e in edges) + 1
    return Hypergraph(n, edges)


def write_hypergraph(path, h: Hypergraph) -> None:
    with open(Path(path), "w") as fh:
        for e in h.edges:
            fh.write(" ".join(str(v) for v in e) + "\n")


def read_graph(path, n: Optional[int] = None) -> WeightedGraph:
    """Lines `i j w`; `#` comments ignored; a repeated pair, in either
    orientation, is rejected naming its line."""
    rows = _data_lines(path)
    heads: List[int] = []
    tails: List[int] = []
    weights: List[float] = []
    for line, text in rows:
        try:
            i, j, w = text.split()
            i, j, w = int(i), int(j), float(w)
        except ValueError:
            raise InputError(f"{path}, line {line}: graph line needs 'i j w', got {text!r}") from None
        heads.append(i)
        tails.append(j)
        weights.append(w)
    canon = np.sort(vertex_array([heads, tails]).T, axis=1)
    repeat = first_duplicate(canon)
    if repeat >= 0:
        key = tuple(canon[repeat].tolist())
        raise InputError(f"{path}, line {rows[repeat][0]}: duplicate edge {key} in graph file")
    if n is None:
        if not rows:
            raise InputError("cannot infer vertex count from an empty graph file")
        n = int(canon.max()) + 1
    return WeightedGraph(n, canon, weights)


def write_graph(path, g: WeightedGraph) -> None:
    """Lines `i j w` in sorted pair order."""
    order = np.lexsort((g.pairs[:, 1], g.pairs[:, 0]))
    with open(Path(path), "w") as fh:
        for (i, j), w in zip(g.pairs[order].tolist(), g.weights[order].tolist()):
            fh.write(f"{i} {j} {format_float(w)}\n")


def write_field(path, field: QuantileField) -> None:
    """CSV rows `vertex,s_1,...,s_S` of quantile samples."""
    S = field.grid.size
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex"] + [f"s_{j}" for j in range(1, S + 1)])
        # float reprs hold no delimiter or quote, so csv.writer would add no quoting
        for v, row in enumerate(field.values):
            fh.write(f"{v},{_joined(row, ',')}\n")


def read_field(path, grid: QuantileGrid) -> QuantileField:
    rows: List[List[float]] = []
    for line, row in _csv_rows(path):
        if row[0] == "vertex":
            continue
        try:
            if len(row) - 1 != grid.size:
                raise ValueError(f"width {len(row) - 1} does not match grid size {grid.size}")
            rows.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise InputError(f"{path}, line {line}: {exc}") from None
    if not rows:
        raise InputError(f"no field rows found in {path}")
    return QuantileField(grid, np.array(rows))


def read_categorical_csv(path, class_column: str = "class") -> CategoricalTable:
    """CSV with header; the named class column is split out, every other
    column is a categorical feature."""
    lines = _csv_rows(path)
    if not lines:
        raise InputError(f"{path} is empty")
    header = [h.strip() for h in lines[0][1]]
    if class_column not in header:
        raise InputError(f"class column {class_column!r} not found in header {header}")
    class_idx = header.index(class_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != class_idx)
    rows: List[Tuple[str, ...]] = []
    classes: List[str] = []
    for line, row in lines[1:]:
        if len(row) != len(header):
            raise InputError(
                f"{path}, line {line}: row {row!r} does not match header width {len(header)}"
            )
        classes.append(row[class_idx].strip())
        rows.append(tuple(v.strip() for i, v in enumerate(row) if i != class_idx))
    return CategoricalTable(feature_names, tuple(rows), tuple(classes))


def write_truth(path, classes: Sequence[int]) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex", "class"])
        for v, c in enumerate(classes):
            writer.writerow([v, int(c)])


def read_truth(path) -> np.ndarray:
    values: Dict[int, int] = {}
    for line, row in _csv_rows(path):
        if row[0] == "vertex":
            continue
        try:
            vertex, cls = row
            vertex, cls = int(vertex), int(cls)
        except ValueError:
            raise InputError(f"{path}, line {line}: truth row needs two integers, got {row!r}") from None
        if vertex in values:
            raise InputError(f"{path}, line {line}: duplicate truth row for vertex {vertex}")
        values[vertex] = cls
    if not values:
        raise InputError(f"no truth rows found in {path}")
    # the vertices are distinct, so these two bounds make them exactly 0..n-1
    if min(values) < 0 or max(values) != len(values) - 1:
        raise InputError("truth file must cover vertices 0..n-1")
    try:
        return np.array([values[v] for v in range(len(values))], dtype=np.intp)
    except OverflowError:
        raise InputError(f"{path}: truth class out of range") from None


def _csv_field(text: str) -> str:
    """`text` as csv.writer's QUOTE_MINIMAL writes it with `\n` line endings:
    quoted, inner quotes doubled, when it holds a comma, a quote or a `\n`,
    and as it is otherwise."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_predictions(path, predicted: np.ndarray, state) -> None:
    """CSV rows `vertex,predicted_class,label_params` of a propagation state.

    The same bytes as csv.writer; only the params field can need quoting
    (Gaussian params hold commas), so each line is written directly."""
    with open(Path(path), "w", newline="") as fh:
        fh.write("vertex,predicted_class,label_params\n")
        fh.writelines(
            f"{v},{c},{_csv_field(label_params(state.vertex_label(v)))}\n"
            for v, c in enumerate(predicted.tolist())
        )


def write_ratios(path, trials) -> None:
    """CSV rows `swap,sample_index,slice_ratio,cost_ratio`, one per stability swap."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["swap", "sample_index", "slice_ratio", "cost_ratio"])
        for t in trials:
            ratios = [format_float(t.slice_shift_ratio), format_float(t.cost_shift_ratio)]
            writer.writerow([t.swap_index, t.sample_index, *ratios])


def read_config_flags(path) -> List[str]:
    """CLI flag tokens from `key=value` lines; a true/false value toggles its flag."""
    flags: List[str] = []
    for line, text in _data_lines(path):
        if "=" not in text:
            raise InputError(f"{path}, line {line}: config line must be key=value, got {text!r}")
        key, _, value = text.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            flags.extend([flag, value])
    return flags


def write_trace(path, losses: Sequence[float]) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "loss"])
        for t, loss in enumerate(losses):
            writer.writerow([t, format_float(loss)])


def write_incidence(path, h: Hypergraph) -> None:
    """0/1 vertex-by-hyperedge incidence matrix, for external baselines.

    Rows are written one at a time from the sparse incidence, so no dense
    n x E matrix is held in memory."""
    m = len(h.edges)
    row = np.zeros(m, dtype=int)
    inc = h.incidence().tocsc()  # column v lists the hyperedges holding vertex v
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex"] + [f"edge_{j}" for j in range(m)])
        for v in range(h.n):
            edges = inc.indices[inc.indptr[v]:inc.indptr[v + 1]]
            row[edges] = 1
            writer.writerow([v] + row.tolist())
            row[edges] = 0
