"""Fuzz tests: every `fileio` reader turns malformed text into `InputError`,
and the graph and hypergraph readers' one-pass parse agrees with their
line-by-line parse.

Files are built from the pieces the formats are made of: digits, signs,
exponents, `nan`/`inf`, the separators `,:;|#`, whitespace, integers past
intp, the format keywords and label parameters; and, near the graph and
hyperedge grammars, mostly well-formed lines with odd tokens, padding,
blank and `#` lines and mixed line endings.  Hypothesis runs derandomized
with a small example budget, so the suite stays deterministic and quick.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wassprop import InputError, QuantileGrid, fileio

GRID = QuantileGrid(4)

token = st.one_of(
    st.sampled_from(["99999999999999999999", "-99999999999999999999", "nan", "inf", "-inf",
                     "1e999", "-0.0", "0.5", "hist", "gauss", "vertex", "class",
                     "0:1", "0:nan;1:1", "0.5|1", "1|0", "#"]),
    st.integers(-2, 3).map(str),
    st.text(alphabet="0123456789+-.eE,:;| ", min_size=1, max_size=6),
)


@st.composite
def files(draw):
    """Rows of one width and one separator; each row opens with its own index
    or a token, so that some files get past the first checks."""
    sep = draw(st.sampled_from([",", " ", "\t", ";", ":", "|", ", "]))
    width = draw(st.integers(1, 5))
    rows = []
    for r in range(draw(st.integers(0, 4))):
        head = draw(st.one_of(st.just(str(r)), token))
        rows.append(sep.join([head] + draw(st.lists(token, min_size=width - 1, max_size=width - 1))))
    return "\n".join(rows)


READERS = {
    "graph": fileio.read_graph,
    "hypergraph": fileio.read_hypergraph,
    "labels": lambda path: fileio.read_labels(path, GRID),
    "truth": fileio.read_truth,
    "field": lambda path: fileio.read_field(path, GRID),
}


# one tmp_path per test is reused by its examples: each example overwrites the file
@settings(derandomize=True, max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=files())
@example(text="0,99999999999999999999")  # past intp: a truth class, a hyperedge vertex
@example(text="0 99999999999999999999")
def test_readers_return_or_raise_input_error(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    for read in READERS.values():
        try:
            read(path)
        except InputError:
            pass


# Tokens near the `i j w` and hyperedge grammars.  Most are plain; the odd
# ones are read by numpy and Python alike, only by Python's int() or float()
# (`1_0`, non-ASCII digits, integers past intp), or by neither.
ODD_TOKENS = ["+1", "-1", "-0", "007", "1_0", " 1e3", "1e3", "1.0", ".5", "1e400", "1E-400",
              "nan", "-nan", "inf", "-inf", "Infinity", "1e", "0x1p3", "١", "٣", "１",
              "99999999999999999999", "-99999999999999999999", "9223372036854775807",
              "9223372036854775808", "-9223372036854775808", "#", "1#", "1\x00", "\xa01"]
separator = st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\x0c", "\xa0"])
line_end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
odd_swap = st.tuples(st.integers(0, 19), st.sampled_from(ODD_TOKENS))  # odd one time in 20
pad = st.sampled_from(["", "", "", " ", "\t"])
other_line = st.sampled_from(["", "  ", "# c"])


@st.composite
def near_valid_files(draw, graph):
    """Mostly well-formed graph (`i j w`) or hyperedge lines, some padded or
    of another width, with blank and `#` lines and mixed line endings; the
    last line may have no ending."""

    def token(plain: str) -> str:
        roll, odd = draw(odd_swap)
        return odd if roll == 0 else plain

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            lines.append(draw(other_line))
            continue
        if graph:
            i, j = draw(st.integers(0, 40)), draw(st.integers(0, 40))
            vertices = {1: [i], 2: [i, j, j]}.get(kind, [i, j])  # now and then 2 or 4 tokens
        else:
            vertices = draw(st.lists(st.integers(0, 40), unique=kind > 1, min_size=min(kind, 2),
                                     max_size=5))
        tokens = [token(str(v)) for v in vertices]
        if graph:
            tokens.append(token(repr(draw(st.floats(1e-3, 1e3)))))
        lines.append(draw(pad) + draw(separator).join(tokens) + draw(pad))
    text = "".join(line + draw(line_end) for line in lines)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


def outcome(parse, *args):
    """What a parser returns, or the type and message of its InputError."""
    try:
        return parse(*args)
    except InputError as exc:
        return type(exc), str(exc)


def graph_key(g):
    return g.n, g.pairs.shape, g.pairs.tobytes(), g.weights.tobytes()


def hypergraph_key(h):
    return h.n, h.edges, h.indptr.tobytes(), h.indices.tobytes(), h.sizes.tobytes(), h.edge_of.tobytes()


FAST_PATH = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@FAST_PATH
@given(text=st.one_of(files(), near_valid_files(graph=True)), n=st.sampled_from([None, None, None, 41]))
@example(text="0 1 1_0\n1 2 ١\r\n", n=None)
@example(text="0 1 1\r\n1 0 2", n=None)
@example(text="0 1 inf\n", n=None)
@example(text="0 9223372036854775807 1\n0 9223372036854775807 2\n", n=None)
def test_whole_graph_parse_matches_line_parse(tmp_path, text, n):
    """The one-pass parse accepts only what the line-by-line parse accepts,
    with the same arrays; read_graph gives what the line-by-line parse gives."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    lines = fileio._read_lines(path)
    by_line = outcome(fileio._graph_by_line, path, lines, n)
    whole = fileio._whole_graph(lines, n)
    if whole is not None:
        assert not isinstance(by_line, tuple) and graph_key(whole) == graph_key(by_line)
    read = outcome(fileio.read_graph, path, n)
    if isinstance(by_line, tuple):
        assert read == by_line
    else:
        assert graph_key(read) == graph_key(by_line)


@FAST_PATH
@given(text=st.one_of(files(), near_valid_files(graph=False)), n=st.sampled_from([None, None, None, 41]))
@example(text="0 1_0\n١ 2\r\n", n=None)
@example(text="0 1\r\n1 1\r", n=None)
@example(text="0 -99999999999999999999\n", n=None)
def test_hypergraph_one_pass_matches_line_parse(tmp_path, text, n):
    """read_hypergraph gives what the line-by-line parse gives, with the same
    hyperedges and incidence arrays, or the same error."""
    path = tmp_path / "h.txt"
    path.write_bytes(text.encode())
    rows = fileio._data_lines(fileio._read_lines(path))
    by_line = outcome(fileio._hypergraph_by_line, path, rows, n)
    read = outcome(fileio.read_hypergraph, path, n)
    if isinstance(by_line, tuple):
        assert read == by_line
    else:
        # the tuples are built on first read of `edges`, from the CSR arrays
        assert "edges" not in vars(read) and "edges" not in vars(by_line)
        assert read.edges == tuple(tuple(sorted(map(int, text.split()))) for _, text in rows)
        assert hypergraph_key(read) == hypergraph_key(by_line)
