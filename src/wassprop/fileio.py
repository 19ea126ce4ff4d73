"""Plain-text formats: label tables, hypergraph and graph files, quantile
field CSVs, categorical tables, truth tables, predictions, stability ratios
and reports, loss traces, incidence matrices, experiment metrics, and
key=value config files.

Label files are CSV with header `vertex,kind,params`.  kind "hist" encodes a
histogram as `b1:m1;b2:m2;...` (bin:mass pairs); kind "gauss" encodes a
diagonal Gaussian as `mu1,...,mub|sd1,...,sdb`.  Hypergraph files hold one
hyperedge per line as whitespace-separated 0-based vertex indices; graph
files hold lines `i j w`.  All floats are written with `.` decimals via repr
(shortest round-trip).  The block writers, `write_field` and the quantile
rows of `write_predictions`, make repr's exact text for a whole (n, S)
block at a time through `floattext.repr_rows`.  Every output file is
written by `write_lines`, so every line ends in `\n` on every platform, and
`_csv_field` is the one CSV quoting rule: a field holding `,`, `"` or a
newline is quoted, its inner quotes doubled.  `_read_lines` opens every
input file, as UTF-8 with a leading byte-order mark dropped.  Readers raise
InputError naming the file, and the line for a line that does not parse.
`_vertex_rows` is the header rule of the three vertex-keyed CSVs, and
`read_labels` checks every label-row rule in one pass, the vertex range
included once the caller knows the vertex count.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, check_vertex_range
from .experiments import CategoricalTable, ExperimentResult
from .hypergraph import Hypergraph, WeightedGraph, first_duplicate, vertex_array
from .labels import (
    DiagGaussianLabel,
    QuantileGrid,
    QuantileLabel,
    check_quantile_samples,
    gaussian_quantile_label,
    quantile_from_histogram,
)
from .propagation import QuantileBackend
from .tikhonov import QuantileField

LABELS_HEADER = "vertex,kind,params"
GRAPH_ROW = np.dtype([("i", np.intp), ("j", np.intp), ("w", float)])  # one `i j w` line


def format_float(x: float) -> str:
    return repr(float(x))


def write_lines(path, header: Optional[str], lines: Iterable[str]) -> None:
    """Write `header` (unless None) and then each of `lines`, every one ended
    in `\n`.  The file is opened with `newline=""`, so no platform line
    separator is substituted; this is the only place an output file is
    opened.  The lines are written one at a time, never joined whole."""
    with open(Path(path), "w", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, inner quotes doubled, when it holds a
    comma, a quote or a `\n`, and as it is otherwise (csv's QUOTE_MINIMAL
    with `\n` line endings)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _read_lines(path) -> List[str]:
    """The lines of an input file, endings kept, read as UTF-8 with a leading
    byte-order mark dropped; if it cannot be read, raise InputError naming it."""
    try:
        with open(Path(path), encoding="utf-8-sig", newline="") as fh:
            return fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc.reason}") from None


def _csv_rows(path) -> List[Tuple[int, List[str]]]:
    """(line number, fields) of each non-empty row of a CSV file."""
    reader = csv.reader(_read_lines(path))
    return [(reader.line_num, row) for row in reader if row]


def _vertex_rows(path) -> List[Tuple[int, List[str]]]:
    """`_csv_rows` of a labels, field or truth file, but its `vertex` header rows."""
    return [(line, row) for line, row in _csv_rows(path) if row[0].strip() != "vertex"]


def _data_lines(lines: List[str]) -> List[Tuple[int, str]]:
    """(line number, stripped text) of each non-blank line that is no `#` comment."""
    numbered = enumerate((raw.strip() for raw in lines), start=1)
    return [(number, text) for number, text in numbered if text and not text.startswith("#")]


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


def read_labels(path, grid: Optional[QuantileGrid] = None, n: Optional[int] = None,
                quantiles: bool = False):
    """Parse a labels CSV into (kind, {vertex: label}) in one pass, naming the
    file and line of the first bad row: every row needs 3 columns, a new
    integer vertex (in [0, n) when the caller knows the vertex count n),
    params that parse and the file's one kind, "hist" (resampled onto
    `grid`, required then) or "gauss" (of one dimension).  With `quantiles`
    every label is a quantile label on `grid`: the file's Gaussians must be
    one-dimensional, and each becomes its quantiles on its own row, so a
    row whose quantiles leave the float range is named too."""
    kind = dim = None
    out: Dict[int, object] = {}
    for line, row in _vertex_rows(path):
        try:
            if len(row) != 3:
                raise InputError(f"labels row needs 3 columns, got {row!r}")
            vertex_text, row_kind, params = (field.strip() for field in row)
            if row_kind not in ("hist", "gauss"):
                raise InputError(f"unknown label kind {row_kind!r}")
            kind = kind or row_kind
            if row_kind != kind:
                raise InputError("labels file mixes hist and gauss rows")
            if kind == "hist" and grid is None:
                raise InputError("hist labels require a quantile grid")
            try:
                vertex = int(vertex_text)
            except ValueError:
                raise InputError(f"bad vertex index {vertex_text!r}") from None
            if n is not None:
                check_vertex_range("label", [vertex], n)
            if vertex in out:
                raise InputError(f"duplicate label for vertex {vertex}")
            if kind == "hist":
                label = quantile_from_histogram(*parse_hist_params(params), grid)
            else:
                label = parse_gauss_params(params)
                dim = dim or label.dim
                if label.dim != dim:
                    raise InputError(f"gauss labels mix dimensions {dim} and {label.dim}")
                if quantiles and dim == 1:
                    label = gaussian_quantile_label(float(label.mean[0]), float(label.std[0]), grid)
            out[vertex] = label
        except InputError as exc:  # keeps the subclass, e.g. NormalizationError
            raise type(exc)(f"{path}, line {line}: {exc}") from None
    if not out:
        raise InputError(f"no label rows found in {path}")
    if quantiles and dim not in (None, 1):
        raise InputError(f"quantile-field solving needs one-dimensional labels, got dimension {dim}")
    return kind, out


def write_gauss_labels(path, labels: Mapping[int, DiagGaussianLabel]) -> None:
    write_lines(path, LABELS_HEADER,
                (f"{v},gauss,{_csv_field(gauss_params(labels[v]))}" for v in sorted(labels)))


def write_hist_labels(
    path, hists: Mapping[int, Tuple[Sequence[float], Sequence[float]]]
) -> None:
    # bin:mass pairs of float reprs hold no comma or quote, so need no quoting
    write_lines(path, LABELS_HEADER,
                (f"{v},hist,{hist_params(*hists[v])}" for v in sorted(hists)))


def read_hypergraph(path, n: Optional[int] = None) -> Hypergraph:
    """One hyperedge per line; `#` comments and blank lines ignored; the
    vertex count defaults to one past the largest index seen.

    Every index is converted in one numpy pass, and the hypergraph checks
    them as flat arrays.  A file holding a token that is no integer, or one
    past intp, is parsed line by line, which names the bad line."""
    rows = _data_lines(_read_lines(path))
    try:  # int() of each token; joined, the stripped lines split into the same tokens
        members = np.array(" ".join(text for _, text in rows).split(), dtype=np.intp)
    except (ValueError, OverflowError):
        return _hypergraph_by_line(path, rows, n)
    if n is None:
        if not rows:
            raise InputError("cannot infer vertex count from an empty hypergraph file")
        n = int(members.max()) + 1
    # one line's tokens at a time, so the per-line lists never all live at once
    sizes = np.fromiter((len(text.split()) for _, text in rows), dtype=np.intp, count=len(rows))
    return Hypergraph.from_members(n, sizes, members)


def _hypergraph_by_line(path, rows: List[Tuple[int, str]], n: Optional[int]) -> Hypergraph:
    """`read_hypergraph` of the numbered data lines, one line at a time."""
    edges: List[Tuple[int, ...]] = []
    for line, text in rows:
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
    write_lines(path, None, (" ".join(map(str, e)) for e in h.edges))


def read_graph(path, n: Optional[int] = None) -> WeightedGraph:
    """Lines `i j w`; `#` comments ignored; a repeated pair, in either
    orientation, is rejected naming its line.

    A file of `i j w` lines only is parsed whole, in one numpy pass.  Any
    other file, and any whose graph fails a check, is parsed again line by
    line, which names the bad line."""
    lines = _read_lines(path)
    g = _whole_graph(lines, n)
    return g if g is not None else _graph_by_line(path, lines, n)


def _whole_graph(lines: List[str], n: Optional[int]) -> Optional[WeightedGraph]:
    """The graph of `lines` parsed in one `np.loadtxt` pass, or None when a
    line is blank, a comment or no `i j w` row, or the graph fails a check.

    loadtxt rejects every token that `int` and `float` reject, and reads the
    ones it takes to the same numbers; some tokens those accept (`1_0`,
    non-ASCII digits, integers past intp) it rejects, and the line-by-line
    parse then reads them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" on an empty file
            rows = np.loadtxt(lines, dtype=GRAPH_ROW, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(rows) != len(lines):  # loadtxt skips blank lines; leave them to the line parse
        return None
    pairs = np.column_stack((rows["i"], rows["j"]))
    try:
        return WeightedGraph(int(pairs.max()) + 1 if n is None else n, pairs, rows["w"])
    except InputError:
        return None


def _graph_by_line(path, lines: List[str], n: Optional[int]) -> WeightedGraph:
    """`read_graph` of the file's lines, one line at a time."""
    rows = _data_lines(lines)
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
    pairs, weights = g.pairs[order].tolist(), g.weights[order].tolist()
    write_lines(path, None, (f"{i} {j} {format_float(w)}" for (i, j), w in zip(pairs, weights)))


def write_field(path, field: QuantileField) -> None:
    """CSV rows `vertex,s_1,...,s_S` of quantile samples."""
    from .floattext import repr_rows  # loaded only by the commands that write a block

    header = ",".join(["vertex"] + [f"s_{j}" for j in range(1, field.grid.size + 1)])
    # float reprs hold no comma or quote, so need no quoting
    write_lines(path, header, (f"{v},{text}" for v, text in enumerate(repr_rows(field.values, ","))))


def read_field(path, grid: QuantileGrid) -> QuantileField:
    """CSV rows `vertex,s_1,...,s_S` as `write_field` writes them: row i names
    vertex i, and every sample is finite and no smaller than the one before."""
    rows: List[List[float]] = []
    for line, row in _vertex_rows(path):
        try:
            if len(row) - 1 != grid.size:
                raise ValueError(f"width {len(row) - 1} does not match grid size {grid.size}")
            if row[0].strip() != str(len(rows)):
                raise ValueError(f"expected vertex {len(rows)}, got {row[0]!r}")
            values = [float(x) for x in row[1:]]
            if not np.all(np.isfinite(values)):
                raise ValueError("field samples must be finite")
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError("field samples must be non-decreasing")
            rows.append(values)
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
    write_lines(path, "vertex,class", (f"{v},{int(c)}" for v, c in enumerate(classes)))


def read_truth(path) -> np.ndarray:
    values: Dict[int, int] = {}
    for line, row in _vertex_rows(path):
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


def write_predictions(path, predicted: np.ndarray, state) -> None:
    """CSV rows `vertex,predicted_class,label_params` of a propagation state;
    only the params field can need quoting (Gaussian params hold commas).
    Quantile rows are checked as one (n, S) block, by the rule each
    QuantileLabel obeys, and formatted straight from the state's values."""
    backend = state.context.backend
    if isinstance(backend, QuantileBackend):
        from .floattext import repr_rows  # loaded only by the commands that write a block

        check_quantile_samples(state.vertex_values, (len(predicted), backend.grid.size))
        params = repr_rows(state.vertex_values, ";")
    else:
        params = (label_params(state.vertex_label(v)) for v in range(len(predicted)))
    rows = (f"{v},{c},{_csv_field(text)}"
            for v, (c, text) in enumerate(zip(predicted.tolist(), params)))
    write_lines(path, "vertex,predicted_class,label_params", rows)


def write_ratios(path, trials) -> None:
    """CSV rows `swap,sample_index,slice_ratio,cost_ratio`, one per stability swap."""
    rows = (f"{k},{t.sample_index},{format_float(t.slice_shift_ratio)},"
            f"{format_float(t.cost_shift_ratio)}" for k, t in enumerate(trials))
    write_lines(path, "swap,sample_index,slice_ratio,cost_ratio", rows)


def read_config_flags(path) -> List[str]:
    """CLI flag tokens from `key=value` lines; a true/false value toggles its flag."""
    flags: List[str] = []
    for line, text in _data_lines(_read_lines(path)):
        key, _, value = text.partition("=")
        if "=" not in text or not key.strip():
            raise InputError(f"{path}, line {line}: config line must be key=value, got {text!r}")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            flags.extend([flag, value])
    return flags


def write_trace(path, losses: Sequence[float]) -> None:
    write_lines(path, "iter,loss", (f"{t},{format_float(loss)}" for t, loss in enumerate(losses)))


def write_incidence(path, h: Hypergraph) -> None:
    """0/1 vertex-by-hyperedge incidence matrix, for external baselines.

    Rows are written one at a time from the sparse incidence, so no dense
    n x E matrix is held in memory."""
    m = len(h.edges)
    inc = h.incidence().tocsc()  # column v lists the hyperedges holding vertex v

    def lines():
        row = np.zeros(m, dtype=int)
        for v in range(h.n):
            edges = inc.indices[inc.indptr[v]:inc.indptr[v + 1]]
            row[edges] = 1
            yield ",".join(map(str, [v] + row.tolist()))
            row[edges] = 0

    write_lines(path, ",".join(["vertex"] + [f"edge_{j}" for j in range(m)]), lines())


def emit_metrics(result: ExperimentResult, path) -> None:
    """Write `trial,accuracy` rows followed by one summary row holding the
    mean; reruns with the same result are byte-identical."""
    rows = [f"{t},{format_float(acc)}" for t, acc in enumerate(result.accuracies)]
    write_lines(path, "trial,accuracy", rows + [f"mean,{format_float(result.mean)}"])
