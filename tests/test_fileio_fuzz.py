"""Fuzz test: every `fileio` reader turns malformed text into `InputError`.

Files are built from the pieces the formats are made of: digits, signs,
exponents, `nan`/`inf`, the separators `,:;|#`, whitespace, integers past
intp, the format keywords and label parameters.  Hypothesis runs
derandomized with a small example budget, so the suite stays deterministic
and quick.
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
