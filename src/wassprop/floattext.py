"""repr's text of whole float64 blocks.

`repr_rows(block, sep)` yields `sep.join(map(repr, row.tolist()))` for each
row of a 2-D float64 block, byte for byte, without calling `repr` on each
value.  orjson's compiled Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) writes the block a chunk of at most `CHUNK` values
at a time: whole rows where a row fits in a chunk, otherwise pieces of one
row.  Ryu picks the shortest digits that read back as the value, the ones
nearest it, as repr does, and orjson lays out every token as repr does but
three kinds:

- 1e-5 <= |x| < 1e-4 comes out as `0.0000ddd`, where repr writes `d.ddde-05`;
- exponents come out as `e16` and `e-7`, where repr writes `e+16` and `e-07`;
- nan, inf and -inf come out as `null`, where repr writes `nan`, `inf` and
  `-inf`.

Which tokens are of these kinds is read from the values, and only the rows
that hold one are relaid out, all of a chunk's together: each of their
tokens is gathered right-aligned into a row of 32 bytes, its separator last,
the odd ones are rewritten by whole-column moves, and the rows are compacted
once, with the 0 bytes their layouts leave dropped.

orjson is imported with this module, and `fileio` imports this module only
in the commands that write a block.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np
import orjson

CHUNK = 4096  # values formatted per pass; bounds a pass's text and arrays to well under 1 MB

_WIDTH = 32  # bytes per relaid token: its text, right-aligned, then its separator
_SEP = _WIDTH - 1
_COLUMNS = np.arange(_WIDTH)
# as 4 words a row, masks of the bytes a token of each length covers: from
# the right, the separator and the text; from the left, the text alone
_RIGHT = np.where(_COLUMNS >= _SEP - _COLUMNS[:, None], 0xFF, 0).astype(np.uint8).view(np.uint64)
_LEFT = np.where(_COLUMNS < _COLUMNS[:, None], 0xFF, 0).astype(np.uint8).view(np.uint64)
# repr's text of nan, inf and -inf, right-aligned before the separator
_NAMES = np.array([list(name.rjust(_SEP, b"\0")) for name in (b"nan", b"inf", b"-inf")],
                  dtype=np.uint8)


def _relaid(texts: List[bytes], values: np.ndarray) -> List[bytes]:
    """repr's layout of rows of a chunk: `texts` are orjson's text of the
    rows of `values`, with `,` between values."""
    pad = bytes(_SEP)
    chars = np.frombuffer(b"\n".join([pad, *texts, pad]), dtype=np.uint8)
    # "," and "\n" are the only bytes of the text up to ","; the first
    # "\n" ends the padding, and each later one ends a row
    seps = np.flatnonzero(chars[_SEP:-_SEP] <= ord(",")) + _SEP
    ends, length = seps[1:], np.diff(seps) - 1
    windows = np.lib.stride_tricks.sliding_window_view(chars, _WIDTH)  # row i starts at chars[i]
    tokens = windows[ends - _SEP]
    tokens.view(np.uint64)[:] &= _RIGHT[length]

    flat = values.ravel()
    size = np.abs(flat)
    # exponents: "0" after e- for e-6..e-9, "+" after e for e16..e99 and e100..e308
    for at, column, char in (((size >= 1e-9) & (size < 1e-5), _SEP - 2, "0"),
                             ((size >= 1e16) & (size < 1e100), _SEP - 3, "+"),
                             (size >= 1e100, _SEP - 4, "+")):
        k = np.flatnonzero(at)
        tokens[k, :column] = tokens[k, 1:column + 1]
        tokens[k, column] = ord(char)

    # [-]0.0000d[ddd] to [-]d[.ddd]e-05, the digits after the first one
    # gathered from the left
    k = np.flatnonzero((size >= 1e-5) & (size < 1e-4))
    negative = np.signbit(flat[k])
    first = ends[k] - length[k] + negative + 6  # the first digit
    digits = ends[k] - first
    rest = windows[first + 1]
    rest.view(np.uint64)[:] &= _LEFT[digits - 1]
    small = np.zeros((len(k), _SEP), dtype=np.uint8)
    small[:, 0] = negative * ord("-")
    small[:, 1] = chars[first]
    small[:, 2] = (digits > 1) * ord(".")
    small[:, 3:_SEP - 4] = rest[:, :_SEP - 7]
    small[:, _SEP - 4:] = np.frombuffer(b"e-05", dtype=np.uint8)
    tokens[k, :_SEP] = small

    k = np.flatnonzero(~np.isfinite(flat))
    tokens[k, :_SEP] = _NAMES[np.where(np.isnan(flat[k]), 0, np.where(flat[k] > 0, 1, 2))]
    return tokens.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def _rows_text(part: np.ndarray) -> List[bytes]:
    """repr's text of each row of a C-contiguous 2-D block, with `,`
    between values."""
    rows = orjson.dumps(part, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    size = np.abs(part)
    odd = np.flatnonzero(~((size < 1e-9) | ((size >= 1e-4) & (size < 1e16))).all(axis=1))
    if odd.size:
        picked = odd.tolist()
        for row, line in zip(picked, _relaid([rows[r] for r in picked], part[odd])):
            rows[row] = line
    return rows


def repr_rows(block: np.ndarray, sep: str) -> Iterator[str]:
    """`sep.join(map(repr, row.tolist()))` of each row of a 2-D float64
    block, in order; `sep` is one ASCII character other than a newline."""
    values = np.ascontiguousarray(block, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"repr_rows needs a 2-D block, got {values.ndim} dimensions")
    if len(sep) != 1 or not sep.isascii() or sep == "\n":
        raise ValueError(f"repr_rows needs one ASCII separator other than a newline, got {sep!r}")
    rows, width = values.shape
    if width == 0:
        yield from ("" for _ in range(rows))
        return
    separator = sep.encode("ascii")
    step = max(1, CHUNK // width)  # whole rows, or one row in pieces of CHUNK values
    for start in range(0, rows, step):
        part = values[start:start + step]
        if width <= CHUNK:
            lines = _rows_text(part)
        else:
            lines = [b",".join(_rows_text(part[:, at:at + CHUNK])[0] for at in range(0, width, CHUNK))]
        yield from (line.replace(b",", separator).decode("ascii") for line in lines)
