"""`floattext.repr_rows` against its definition: each row's text is
`sep.join(map(repr, row.tolist()))`, byte for byte, and the block writers
write what `fileio._joined` writes.

Hypothesis runs derandomized with a small example budget, so the suite stays
deterministic and quick.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wassprop import (Hypergraph, QuantileBackend, QuantileField, QuantileGrid, fileio,
                      quantile_from_histogram)
from wassprop.floattext import CHUNK, _tables, repr_rows
from wassprop.propagation import LabeledSubset, PropagationConfig, classify, propagate

EDGES = [1e-05, 0.0001, 1e16, 9999999999999998.0, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308]


def reference(block, sep):
    return [sep.join(map(repr, row.tolist())) for row in block]


def assert_repr_rows(block, sep=","):
    assert list(repr_rows(block, sep)) == reference(block, sep)


# widths of one value up to three chunks, so rows end inside, at and past chunk ends
blocks = arrays(np.float64, st.tuples(st.integers(1, 2), st.one_of(st.integers(1, 64),
                                                                   st.integers(1, 3 * CHUNK))),
                elements=st.floats(width=64), fill=st.floats(width=64))


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(blocks, st.sampled_from([",", ";"]))
def test_repr_rows_is_repr_of_any_block(block, sep):
    # st.floats draws ±0, subnormals, ±max, inf and nan
    assert_repr_rows(block, sep)


def test_repr_rows_is_repr_of_random_bit_patterns():
    # 200 000 uniform bit patterns: every binary exponent about 100 times,
    # nan and inf among them, in rows that cross chunk ends
    bits = np.random.default_rng(20181).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_repr_rows(bits.view(np.float64).reshape(200, 1000))


def test_repr_rows_is_repr_of_edge_values():
    row = np.array(EDGES + [-v for v in EDGES] + [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5])
    assert_repr_rows(row[None, :])
    assert_repr_rows(row[:, None], ";")  # one value per row
    powers = np.concatenate((np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]))
    assert_repr_rows(np.stack((powers, np.nextafter(powers, 0.0), -np.nextafter(powers, np.inf))))


def test_repr_rows_takes_any_2d_float_block():
    values = np.arange(12.0).reshape(3, 4) / 7.0
    assert_repr_rows(values.T)  # not C-contiguous
    assert list(repr_rows(np.zeros((2, 0)), ",")) == ["", ""]
    assert list(repr_rows(np.zeros((0, 3)), ",")) == []
    for bad_sep in ("", ",,", "\n", "é"):
        with pytest.raises(ValueError, match="separator"):
            list(repr_rows(values, bad_sep))
    with pytest.raises(ValueError, match="2-D"):
        list(repr_rows(values.ravel(), ","))


def test_multiplier_shift_of_every_exponent_is_in_the_kernel_range():
    # _mul_shift's limb carries assume a shift in [118, 125] for finite doubles
    shift = _tables().shift[:2047].astype(np.intp) + 112
    assert shift.min() == 118 and shift.max() == 125


def test_block_writers_write_the_joined_reference(tmp_path):
    rng = np.random.default_rng(7)
    scales = 10.0 ** rng.integers(-30, 30, (30, 1))
    values = np.sort(rng.standard_normal((30, 300)) * scales, axis=1)
    fileio.write_field(tmp_path / "f.csv", QuantileField(QuantileGrid(300), values))
    header = ",".join(["vertex"] + [f"s_{j}" for j in range(1, 301)])
    rows = [f"{v},{fileio._joined(row, ',')}" for v, row in enumerate(values)]
    assert (tmp_path / "f.csv").read_text() == "\n".join([header] + rows) + "\n"

    grid = QuantileGrid(5000)  # each row spans two chunks
    state = propagate(Hypergraph(3, [(0, 1), (1, 2)]),
                      LabeledSubset({0: quantile_from_histogram([0.0], [1.0], grid)}),
                      PropagationConfig(alpha=2.0, gamma=1.0, max_iters=2), QuantileBackend(grid))
    values = np.sort(rng.standard_normal((3, 5000)), axis=1)
    predicted = classify(state)
    fileio.write_predictions(tmp_path / "p.csv", predicted,
                             dataclasses.replace(state, vertex_values=values))
    rows = [f"{v},{c},{fileio._joined(row, ';')}"
            for v, (c, row) in enumerate(zip(predicted.tolist(), values))]
    header = "vertex,predicted_class,label_params"
    assert (tmp_path / "p.csv").read_text() == "\n".join([header] + rows) + "\n"
