"""repr's text of whole float64 blocks.

`repr_rows(block, sep)` yields `sep.join(map(repr, row.tolist()))` for each
row of a 2-D float64 block, byte for byte, without calling `repr` on each
value.  It runs Ryu's shortest round-trip algorithm (Adams, "Ryu: fast
float-to-string conversion", PLDI 2018) over uint64 arrays, a chunk of at
most `CHUNK` values at a time, and lays the digits out as `float.__repr__`
does: fixed notation when the decimal point falls in (-4, 16], otherwise
`d.ddde±XX`, with a sign and `.0` where repr adds them.

Ryu's 64x128-bit products run on 28-bit limbs: each 125-bit power-of-5
multiplier is five uint64 limbs below 2**28, looked up by the value's
biased exponent, so every partial product and column sum is exact in
uint64.  For every finite double the multiplier shift lies in [118, 125],
so once the carries reach bit 112 one shift finishes the product.  Each
value's text is laid out in a row of 32 bytes, with 0 bytes where its
layout leaves a gap, from per-layout mask words; a chunk's rows are
compacted into text at once.  ±0.0, inf and nan take `repr` one value at a
time.  Every operation on uint64 arrays takes uint64 operands and every
other integer array is intp, so no operation mixes signed and unsigned
64-bit integers, which numpy 1.x would carry out in float64.

The tables are built on the first call; importing this module does no work.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from operator import mul
from typing import Iterator, NamedTuple

import numpy as np

CHUNK = 4096  # values formatted per pass; bounds the scratch arrays at ~1 MB

_U = np.uint64
_MASK28 = _U((1 << 28) - 1)
_U28 = _U(28)
_U32 = _U(32)
_TEN = _U(10)
_POW5_BITS = 125  # bit length of every multiplier, as in Ryu's d2s tables
_INV_ROWS, _POW5_ROWS = 342, 326  # 2**k / 5**q for exponents >= 0, 5**i below
_POINTS = 330  # |decimal point position| of every double is below this


class _Tables(NamedTuple):
    """Ryu's constants, indexed by biased exponent where they depend on it,
    and the layout words of repr's text."""

    limbs: np.ndarray  # (5, 2048) uint64: the multiplier's 28-bit limbs
    shift: np.ndarray  # (2048,) uint64: the multiplier shift less 112
    exponent: np.ndarray  # (2048,) intp: the decimal exponent before digits are dropped
    twos: np.ndarray  # (2048,) uint64: mv & twos == 0 when vr's dropped digits are 0
    rare: np.ndarray  # (2048,) bool: Ryu's exact cases, q <= 21 where up, q <= 1 where not
    up: np.ndarray  # (2048,) bool: the binary exponent e2 is >= 0
    pow5: np.ndarray  # (2048,) uint64: 5**min(q, 21)
    pow10: np.ndarray  # (20,) uint64: 10**k
    quads: np.ndarray  # (10000,) uint64: the 4 ASCII digits of 0..9999, as bytes of a word
    body: np.ndarray  # (3, 3, 22 * 18) uint64: per shape and digit count, the masks
    #   of the digits before the point, the point itself and the digits after it
    lead: np.ndarray  # (22,) uint64: per shape, "0." and the 0s before the digits
    power: np.ndarray  # (2 * _POINTS + 1,) uint64: per point position, "e±dd[d]"


def _limbs(values) -> np.ndarray:
    """(5, len(values)) uint64 limbs of 28 bits, least significant first, of
    Python ints below 2**140."""
    raw = b"".join(v.to_bytes(20, "little") for v in values)
    words = np.frombuffer(raw, dtype="<u4").reshape(-1, 5).T.astype(_U)  # 32-bit limbs
    first = np.arange(5, dtype=np.intp) * np.intp(28)  # each limb's lowest bit
    word, offset = first // 32, (first % 32).astype(_U)[:, None]
    return ((words[word] >> offset) | (words[word + 1] << (_U32 - offset))) & _MASK28


def _pow5_bits(e: np.ndarray) -> np.ndarray:
    """Bit length of 5**e, for 0 <= e <= 3528."""
    return ((e * np.intp(1217359)) >> np.intp(19)) + np.intp(1)


@cache
def _tables() -> _Tables:
    powers = list(accumulate([1] + [5] * (_INV_ROWS - 1), mul))
    inverse = [(1 << (p.bit_length() - 1 + _POW5_BITS)) // p + 1 for p in powers]
    scaled = [p >> (p.bit_length() - _POW5_BITS) if p.bit_length() > _POW5_BITS
              else p << (_POW5_BITS - p.bit_length()) for p in powers[:_POW5_ROWS]]
    multipliers = _limbs(inverse + scaled)

    # Ryu's step 3 for every biased exponent; e2 is the exponent of 4*m2
    e2 = np.maximum(np.arange(2048, dtype=np.intp), np.intp(1)) - np.intp(1077)
    up = e2 >= 0
    size = np.abs(e2)
    q = np.where(up, ((size * np.intp(78913)) >> np.intp(18)) - (size > 3),
                 ((size * np.intp(732923)) >> np.intp(20)) - (size > 1))
    row = np.where(up, q, np.intp(_INV_ROWS) + size - q)
    shift = np.where(up, q - e2 + _pow5_bits(q) + np.intp(_POW5_BITS - 1),
                     q - _pow5_bits(size - q) + np.intp(_POW5_BITS))
    binary = ~up & (q < 63)  # vr's dropped digits are 0 iff mv has q trailing 0 bits
    twos = np.where(binary, (_U(1) << np.minimum(q, 62).astype(_U)) - _U(1), ~_U(0))
    digit = np.arange(ord("0"), ord("9") + 1, dtype=_U)
    return _Tables(
        limbs=multipliers[:, row],
        shift=(shift - np.intp(112)).astype(_U),
        exponent=np.where(up, q, q + e2),
        twos=twos,
        rare=np.where(up, q <= 21, q <= 1),
        up=up,
        pow5=np.array(powers[:22], dtype=_U)[np.minimum(q, 21)],
        pow10=np.array([10**k for k in range(20)], dtype=_U),
        quads=(digit[:, None, None, None] | (digit[:, None, None] << _U(8))
               | (digit[:, None] << _U(16)) | (digit << _U(24))).ravel(),
        **_layouts(),
    )


def _words(chars: np.ndarray) -> np.ndarray:
    """Byte rows, a multiple of 8 long, as uint64 words whose low byte comes
    first in the text."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view("<u8").astype(_U)


def _layouts():
    """The layout words.  A value's text is a row of 4 words, 32 bytes: its
    sign in byte 0, "0." and up to three 0s from byte 1, its digits with the
    point from byte 8, "e±dd[d]" from byte 26 and the separator in byte 31;
    every byte its layout leaves out is 0.  The shape is the point position
    clipped to [-4, 17], less -4: 0 and 21 are the scientific shapes."""
    point = np.arange(22, dtype=np.intp)[:, None] - np.intp(4)
    length = np.arange(18, dtype=np.intp)[None, :]
    scientific = (point < -3) | (point > 16)
    inside = ~scientific & (point > 0)
    no_dot = np.intp(99)
    dot = np.where(inside, point, np.where(scientific & (length > 1), np.intp(1), no_dot))
    shown = np.where(inside, np.maximum(length, point + 1) + 1, length + (dot < no_dot))
    column = np.arange(24, dtype=np.intp)
    dot, shown = dot[..., None], shown[..., None]
    masks = np.stack(((column < np.minimum(dot, shown)) * 0xFF, (column == dot) * ord("."),
                      ((column > dot) & (column < shown)) * 0xFF), axis=2)

    lead_count = np.where(~scientific & (point <= 0), 2 - point, 0)  # "0." and -point 0s
    column = np.arange(8, dtype=np.intp)
    lead_text = np.frombuffer(b"\x000.000\0\0", dtype=np.uint8)  # after the sign byte
    lead = np.where((column >= 1) & (column <= lead_count), lead_text, 0)

    point = np.arange(-_POINTS, _POINTS + 1, dtype=np.intp)
    power = np.abs(point - 1)
    three = power >= 100
    text = np.zeros((len(point), 8), dtype=np.intp)
    text[:, 2] = ord("e")
    text[:, 3] = np.where(point > 0, ord("+"), ord("-"))
    text[:, 4] = np.where(three, power // 100, power // 10 % 10) + ord("0")
    text[:, 5] = np.where(three, power // 10 % 10, power % 10) + ord("0")
    text[:, 6] = np.where(three, power % 10 + ord("0"), 0)
    text[(point > -4) & (point <= 16)] = 0
    return dict(body=np.ascontiguousarray(_words(masks).reshape(-1, 3, 3).transpose(1, 2, 0)),
                lead=_words(lead).ravel(), power=_words(text).ravel())


def _mul_shift(m: np.ndarray, limbs, shift: np.ndarray) -> np.ndarray:
    """floor(m * M / 2**(112 + shift)) for m < 2**56 and M < 2**140 given
    as five 28-bit limbs, least significant first.  Every partial product
    is below 2**56 and every column sum below 2**58, so uint64 holds them;
    the carries run up to bit 112, and the quotient fits in 64 bits for
    Ryu's shifts 112 + [6, 13]."""
    m0, m1 = m & _MASK28, m >> _U28
    l0, l1, l2, l3, l4 = limbs
    carry = (m0 * l0) >> _U28
    carry = (m0 * l1 + m1 * l0 + carry) >> _U28
    carry = (m0 * l2 + m1 * l1 + carry) >> _U28
    carry = (m0 * l3 + m1 * l2 + carry) >> _U28
    return ((m1 * l4) << (_U28 - shift)) + ((m0 * l4 + m1 * l3 + carry) >> shift)


def _shortest(bits: np.ndarray, t: _Tables):
    """(digits, exponent): digits * 10**exponent is the shortest decimal that
    reads back as each positive finite double in `bits`, the one nearest it,
    ties to an even last digit (Ryu's d2d)."""
    biased = (bits >> _U(52)).astype(np.intp)
    fraction = bits & _U((1 << 52) - 1)
    m2 = np.where(biased == 0, fraction, fraction | _U(1 << 52))
    even = (m2 & _U(1)) == _U(0)
    mm_shift = (fraction != _U(0)) | (biased <= 1)
    mv = m2 << _U(2)
    low = mv - _U(1) - mm_shift.astype(_U)
    vr, vp, vm = _mul_shift(np.stack((mv, mv + _U(2), low)), t.limbs[:, biased], t.shift[biased])

    # whether the digits dropped from vr and from vm are all 0
    vr_zeros = (mv & t.twos[biased]) == _U(0)
    vm_zeros = np.zeros(len(bits), dtype=bool)
    at = np.flatnonzero(t.rare[biased])
    if at.size:
        up, p5, accept, mv_at = t.up[biased[at]], t.pow5[biased[at]], even[at], mv[at]
        by5 = mv_at % _U(5) == _U(0)
        vr_zeros[at] = np.where(up, by5 & (mv_at % p5 == _U(0)), True)
        vm_zeros[at] = accept & np.where(up, ~by5 & (low[at] % p5 == _U(0)), mm_shift[at])
        vp[at] -= (~accept & np.where(up, ~by5 & ((mv_at + _U(2)) % p5 == _U(0)), True)).astype(_U)

    vr, vm, last, removed = _drop_digits(vr, vp, vm, vr_zeros, vm_zeros, t.pow10)
    half_even = vr_zeros & (last == _U(5)) & ((vr & _U(1)) == _U(0))
    round_up = ((vr == vm) & ~(even & vm_zeros)) | ((last >= _U(5)) & ~half_even)
    return vr + round_up.astype(_U), t.exponent[biased] + removed


def _drop_digits(vr, vp, vm, vr_zeros, vm_zeros, pow10):
    """Ryu's step 4: drop the last digits of vr and vm while vp and vm still
    differ above them, then, where vm's dropped digits were all 0, go on while
    vm ends in 0.  Updates the two flags in place and returns vr, vm, the
    last digit dropped from vr and the count dropped.

    The first count is the largest r with vp // 10**r > vm // 10**r: a
    width vp - vm of at least 10**r holds a multiple of 10**r, and many
    values drop a digit or more past that."""
    width = vp - vm  # at most 2**9: 4 * M / 2**shift
    removed = (width >= _TEN).astype(np.intp) + (width >= _U(100))
    scale = pow10[removed + 1]
    more = np.flatnonzero(vp // scale > vm // scale)
    while more.size:
        removed[more] += 1
        scale = pow10[removed[more] + 1]
        more = more[vp[more] // scale > vm[more] // scale]
    scale, below = pow10[removed], pow10[np.maximum(removed - 1, 0)]
    kept = vr // scale
    rest = vr - kept * scale
    last = rest // below
    vr_zeros &= rest == last * below
    vm_kept = vm // scale
    vm_zeros &= vm == vm_kept * scale

    more = np.flatnonzero(vm_zeros)
    more = more[vm_kept[more] % _TEN == _U(0)]
    while more.size:
        r = kept[more]
        kept[more] = r // _TEN
        vr_zeros[more] &= last[more] == _U(0)
        last[more] = r % _TEN
        vm_kept[more] //= _TEN
        removed[more] += 1
        more = more[vm_kept[more] % _TEN == _U(0)]
    return kept, vm_kept, last, removed


def _chunk_text(values: np.ndarray, ends: np.ndarray, sep: int, t: _Tables) -> str:
    """The reprs of `values`, each followed by the byte `sep`, or by a
    newline where `ends` is set."""
    n = len(values)
    bits = values.view(_U)
    special = ((bits << _U(1)) == _U(0)) | ((bits >> _U(52)) & _U(0x7FF) == _U(0x7FF))
    one = _U(0x3FF0000000000000)  # 1.0 stands in for the values repr writes
    digits, exponent = _shortest(np.where(special, one, bits & _U((1 << 63) - 1)), t)
    length = np.searchsorted(t.pow10, digits, side="right")
    point = exponent + length  # repr's decimal point position

    # the 17 ASCII digits of digits * 10**(17 - length): the significant
    # digits first and 0s after them, as three words of bytes
    full = digits * t.pow10[17 - length]
    high = full // _U(10**9)
    low = full - high * _U(10**9)
    first, third = high // _U(10**4), low // _U(10**5)
    rest = low - third * _U(10**5)
    fourth = rest // _TEN
    quads = t.quads[np.stack((first, high - first * _U(10**4), third, fourth)).astype(np.intp)]
    figures = np.stack((quads[0] | (quads[1] << _U32), quads[2] | (quads[3] << _U32),
                        rest - fourth * _TEN + _U(ord("0"))))
    after = figures << _U(8)  # each figure one byte on, to make room for the point
    after[1:] |= figures[:-1] >> _U(56)

    shape = np.clip(point, -4, 17) + np.intp(4)
    before, dot, behind = t.body[:, :, shape * np.intp(18) + length]
    words = np.empty((4, n), dtype=_U)
    words[1:] = (figures & before) | dot | (after & behind)
    words[0] = t.lead[shape] | ((bits >> _U(63)) * _U(ord("-")))
    words[3] |= t.power[point + np.intp(_POINTS)] | np.where(ends, _U(ord("\n")), _U(sep)) << _U(56)

    chars = words.T.astype("<u8", order="C").view(np.uint8)
    for k in np.flatnonzero(special).tolist():
        text = repr(float(values[k])).encode("ascii")
        chars[k, :-1] = 0
        chars[k, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars.tobytes().translate(None, b"\0").decode("ascii")


def repr_rows(block: np.ndarray, sep: str) -> Iterator[str]:
    """`sep.join(map(repr, row.tolist()))` of each row of a 2-D float64
    block, in order; `sep` is one ASCII character other than a newline."""
    values = np.ascontiguousarray(block, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"repr_rows needs a 2-D block, got {values.ndim} dimensions")
    if len(sep) != 1 or not sep.isascii() or sep in "\n\0":
        raise ValueError(f"repr_rows needs one ASCII separator other than a newline, got {sep!r}")
    rows, width = values.shape
    if width == 0:
        yield from ("" for _ in range(rows))
        return
    t = _tables()
    flat = values.ravel()
    pending = ""
    for start in range(0, flat.size, CHUNK):
        chunk = flat[start:start + CHUNK]
        ends = np.arange(start + 1, start + 1 + len(chunk), dtype=np.intp) % np.intp(width) == 0
        lines = _chunk_text(chunk, ends, ord(sep), t).split("\n")
        lines[0] = pending + lines[0]
        pending = lines.pop()
        yield from lines
