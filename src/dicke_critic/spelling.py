"""Float columns spelled as text, byte for byte as Python spells each float.

``spell(values, json)`` gives a ``(len(values), WIDTH)`` array of bytes,
NUL-padded: row i with its NULs dropped is ``format(v + 0.0, ".17g")``, the
CSV cell ``cli.fmt`` writes, or with ``json=True`` ``json.dumps(v)``, of
``v = values[i]``; with ``out=`` the rows are written in place, into a
column of a block of table rows. ``blocks`` lays out the rows of a table, a
block at a time, in one buffer reused for every block, and gives the text of
each block.

Inside the window ``10**E_MIN <= |v| < 10**(E_MAX + 1)`` the digits come
from exact integer arithmetic on numpy arrays, and are the digits of
Python's correctly rounded conversion (docs/VALIDATION_NOTES.md, "Spelling
floats as text"): with ``v = m 2^q``, ``m < 2^53`` and ``E = floor(log10
|v|)``, the 17 significant digits are ``D = round(m 5^k 2^(q + k))``, ``k =
16 - E``, one 128-bit product and one shift. ``.17g`` writes D; ``repr``
writes the first of its 15-, 16- and 17-digit roundings that reads back as
v. Outside the window, ±0, ±inf and nan are constants, and any other value
is spelled by Python one at a time.
"""

from __future__ import annotations

import json as _json
import math
from collections.abc import Callable, Iterator, Sequence

import numpy as np

# the window's decades: k = 16 - E stays in 0..27, where 5^k < 2^63
E_MIN, E_MAX = -11, 16

# A row: sign, integer part (17 bytes), point, the zeros after the point of 0.000d (3 bytes
# and a NUL), the digits after the point or of the mantissa (17 bytes), exponent ("e-05").
# Each field is a run of bytes that NULs pad, so no byte moves from column to column: a
# 17-byte field is two little-endian words and a byte of the digits, each masked.
_ROW = np.dtype({
    "names": ["sign", "int0", "int1", "int2", "point", "zeros", "frac0", "frac1", "frac2", "exp"],
    "formats": ["u1", "<u8", "<u8", "u1", "u1", "<u4", "<u8", "<u8", "u1", "<u4"],
    "offsets": [0, 1, 9, 17, 18, 19, 23, 31, 39, 40],
})
WIDTH = _ROW.itemsize  # 44; no spelling is longer ("-1.2345678901234567e-308" has 24 bytes)


def _at_least_ten_to(e: int) -> float:
    """The least float >= 10^e."""
    f = float(10**e) if e >= 0 else 1 / 10**-e  # int / int rounds correctly
    n, d = f.as_integer_ratio()
    return f if n * 10 ** max(-e, 0) >= d * 10 ** max(e, 0) else math.nextafter(f, math.inf)


def _first_bytes(n) -> np.ndarray:
    """Masks of the first n bytes of a 17-byte little-endian string, one row per word: (3, len(n))."""
    bits = np.clip(8 * np.asarray(n) - np.array([[0], [64], [128]]), 0, 64).astype(np.uint64)
    return (np.uint64(1) << bits) - np.uint64(1)  # numpy's 1 << 64 is 0: all ones


# _TENS[j] is the least float >= 10^(E_MIN - 1 + j); E is exact from two comparisons with it
_TENS = np.array([_at_least_ten_to(e) for e in range(E_MIN - 1, E_MAX + 3)])
_POW5 = np.array([5 ** (16 - e) for e in range(E_MIN, E_MAX + 1)], dtype=np.uint64)  # by E
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
_KEEP = _first_bytes(np.arange(18))  # by the number of digits kept
_LOW32, _ASCII0 = np.uint64(0xFFFFFFFF), np.uint64(0x3030303030303030)  # "0" in each byte


def _notation(json: bool) -> tuple[np.ndarray, ...]:
    """Each decade's layout, by E - E_MIN for E_MIN <= E <= E_MAX + 1 (a rounding may carry
    into the decade above the window): the digits in the integer part, the digits kept at
    least, their masks, the integer part "0" (E < 0), the zeros after the point and the
    exponent.

    Fixed notation (.17g: -4 <= E < 17; repr: -4 <= E < 16) puts digits 0..E in the integer
    part and the rest after the point, after -E - 1 zeros when E < 0; repr keeps one digit
    after the point (1.0). Exponent notation puts digit 0 in the integer part.
    """
    e = np.arange(E_MIN, E_MAX + 2)
    fixed = (e >= -4) & (e < (16 if json else 17))
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)
    least = np.where(fixed & (e >= 0), e + 1 + json, 0)
    word = lambda texts: np.array([int.from_bytes(t.encode(), "little") for t in texts], np.uint32)
    return (whole, least, _first_bytes(whole), (fixed & (e < 0)) * np.uint64(ord("0")),
            word("0" * (-1 - i) if f and i < 0 else "" for i, f in zip(e, fixed)),
            word("" if f else f"e{i:+03d}" for i, f in zip(e, fixed)))


_NOTATION = {False: _notation(False), True: _notation(True)}


def _product(m: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of m * (f1 2^32 + f0), exactly, from 32-bit limbs."""
    m0, m1 = m & _LOW32, m >> 32
    low, cross0, cross1 = m0 * f0, m0 * f1, m1 * f0
    mid = (low >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)  # < 3 * 2^32
    return m1 * f1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32), (low & _LOW32) | (mid << 32)


def _decimal(x: np.ndarray, json: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits D (10^16 <= D < 10^17) and the decimal exponent of each x in the window,
    rounded as .17g or repr rounds them."""
    ax = np.abs(x)
    bits = ax.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    q = (bits >> 52).astype(np.int64) - 1075
    e = np.floor(np.log10(ax)).astype(np.int64)  # off by at most one near a power of ten
    j = e - (E_MIN - 1)
    e += (ax >= _TENS[j + 1]).view(np.int8) - (ax < _TENS[j]).view(np.int8)
    pow5 = _POW5[e - E_MIN]
    s = e - q - 16  # x 10^k = m 5^k / 2^s, k = 16 - e; -4 <= s <= 62 in the window
    right = np.maximum(s, 0).astype(np.uint64)
    high, low = _product(m, pow5 & _LOW32, pow5 >> 32)
    a = (high << (np.uint64(64) - right)) | (low >> right)
    if (s < 0).any():  # x 10^k = m 5^k 2^-s, an integer
        a <<= np.maximum(-s, 0).astype(np.uint64)
    rem = low & (_POW2[right] - np.uint64(1))  # x 10^k = a + rem / 2^s
    d = a + ((rem << 1 | (a & np.uint64(1))) > _POW2[right])  # rounded half to even
    if json:
        d = _shortest(*(v.view(np.int64) for v in (a, rem, pow5, d)), s, m).view(np.uint64)
    carry = d == 10**17  # the rounding reached the next decade: one digit, 1
    d[carry] = 10**16
    return d, e + carry


def _shortest(a, rem, pow5, d17, s, m):
    """repr's digits: the first of the 15-, 16- and 17-digit roundings of x 10^k = a + rem / 2^s
    that reads back as x, scaled to 17 digits.

    A candidate c reads back as x when it lies within half a unit in the last place of x,
    5^k / 2^(s+1) at this scale; on the boundary only when m is even. Below a power of two
    (m = 2^52) the next float down is half as far. The interval is at most 22.2 wide, so the
    nearest multiple of 100 is the only 15-digit candidate; of the 16-digit ones, the farther
    reads back where the nearer does not only in the lopsided interval of a power of two.
    """
    pow2 = m == np.uint64(2**52)
    # the 17-digit integers a - below .. a + above read back as x; for s >= 0, 2 |c - x| =
    # 5^k / 2^s never holds, 5^k being odd
    h = pow5 >> 1
    right = np.maximum(s, 0)
    above = (rem + h) >> right
    below = (np.where(pow2, h >> 1, h) - rem) >> right  # -1 where a itself is too far
    if (s < 0).any():  # x 10^k = a, and four half-widths 4 * 5^k 2^-s / 2 are an integer
        odd = (m & np.uint64(1)).view(np.int64)
        wide = np.where(s < 0, pow5, 0) << (np.maximum(-s, 0) + 1)
        above = np.where(s < 0, (wide - odd) >> 2, above)
        below = np.where(s < 0, (np.where(pow2, wide >> 1, wide) - odd) >> 2, below)
    low, high = a - below, a + above
    inexact = (rem > 0).view(np.int8)

    def nearest(unit):  # the multiple of unit nearest x 10^k, half to even, and the other one
        quotient = a // unit
        floor = quotient * unit
        up = 2 * (a - floor) + inexact + (quotient & 1) > unit
        return floor + unit * up, floor + unit * ~up

    candidates = [nearest(100)[0], *nearest(10)]
    return np.select([(c >= low) & (c <= high) for c in candidates], candidates, d17)


def _decimal8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8, one per byte of a little-endian uint64, most
    significant first (digit values, not ASCII).

    Each step splits every lane of the word in two lanes of half the width, the quotient
    and the remainder of 10^4, 100 and 10, with a multiply and a shift: no product leaves
    its lane, and x * 5243 >> 19 and x * 103 >> 10 are x // 100 and x // 10 on the lane
    values that occur (below 10^4 and 100).
    """
    x = v // 10000
    x |= (v - x * 10000) << 32
    q = (x * 5243) >> 19 & 0x0000007F0000007F
    x = q | (x - q * 100) << 16
    q = (x * 103) >> 10 & 0x000F000F000F000F
    return q | (x - q * 10) << 8


def _layout(d: np.ndarray, e: np.ndarray, negative: np.ndarray, json: bool,
            out: np.ndarray) -> np.ndarray:
    """out, a (len(d), WIDTH) array of bytes whose rows are contiguous, with the byte rows of
    the values of 17 digits d (10^16 <= d < 10^17), decimal exponents e and signs written in,
    laid out as ``_notation`` says.

    Trailing zeros after the point become NUL, and the point too where no digit follows it,
    so dropping NULs leaves Python's text. Every byte of a row is written: the fields of
    ``_ROW`` cover all WIDTH bytes.
    """
    head = d // 10**9
    tail = d - head * 10**9
    last = tail // 10
    words = np.empty((3, len(d)), np.uint64)  # digits 0..7, 8..15 and 16
    words[:2] = _decimal8(np.stack([head, last]))
    words[2] = tail - last * 10
    # the digits up to the last nonzero one: the top set bit 8j + 7 of a word's flags
    # (0x80 in each nonzero byte) fixes its binary exponent, 8j + 8, however the bits below
    # it round
    flags = (words[:2] + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    count = np.frexp(flags.astype(np.float64))[1] >> 3
    sig = np.maximum(np.maximum(count[0], (8 + count[1]) * (count[1] > 0)), 17 * (words[2] > 0))
    whole, least, masks, int0, zeros, exp = _NOTATION[json]
    i = e - E_MIN
    keep = np.maximum(sig, least[i])
    words[:2] += _ASCII0
    words[2] += ord("0")
    ints = np.take(masks, i, axis=1)  # a quarter of the time of masks[:, i]
    row = out.view(_ROW)[:, 0]
    row["sign"] = negative * np.uint8(ord("-"))
    row["int0"], row["int1"], row["int2"] = words & ints
    row["int0"] |= int0[i]
    row["point"] = (keep > whole[i]) * np.uint8(ord("."))
    row["zeros"] = zeros[i]
    row["frac0"], row["frac1"], row["frac2"] = words & (np.take(_KEEP, keep, axis=1) ^ ints)
    row["exp"] = exp[i]
    return out


def _python(values: np.ndarray, json: bool) -> np.ndarray:
    """The byte rows of values as Python spells them, one value at a time."""
    spell = _json.dumps if json else (lambda v: format(v + 0.0, ".17g"))
    texts = np.array([spell(v).encode() for v in values.tolist()], dtype=f"S{WIDTH}")
    return texts.view(np.uint8).reshape(len(values), WIDTH)


def spell(values: np.ndarray, json: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """The text of each float of values as NUL-padded ASCII rows of WIDTH bytes.

    Row i with its NULs dropped is ``format(v + 0.0, ".17g")`` (``json=False``, negative
    zero reads 0) or ``json.dumps(v)`` (``json=True``: 1.0, -0.0, NaN, Infinity) of
    ``v = values[i]``. The rows are written into ``out``, a (len(values), WIDTH) array of
    bytes whose rows are contiguous (a column of ``blocks``' buffer), where it is given, and
    each of its bytes is written.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if out is None:
        out = np.empty((len(x), WIDTH), np.uint8)
    inside = (np.abs(x) >= _TENS[1]) & (np.abs(x) < _TENS[-2])  # nan is outside
    rows = np.flatnonzero(~inside)
    if not rows.size:
        return _layout(*_decimal(x, json), x < 0, json, out)
    window = x[inside]
    out[inside] = _layout(*_decimal(window, json), window < 0, json,
                          np.empty((len(window), WIDTH), np.uint8))
    rest = x[rows]
    # ±0, ±inf and nan, spelled once each; any other value one at a time
    for constant in (np.isnan(rest), rest == np.inf, rest == -np.inf,
                     (rest == 0) & ~np.signbit(rest), (rest == 0) & np.signbit(rest)):
        if constant.any():
            out[rows[constant]] = _python(rest[constant][:1], json)
    other = np.isfinite(rest) & (rest != 0)
    if other.any():
        out[rows[other]] = _python(rest[other], json)
    return out


# rows laid out at a time, so that a long table holds one block of rows, not the whole
# table's, and a column's arrays in spell stay at 64 KB: corr's 1,999,997 rows at
# thermal(gamma=1e-6, T=0.5) took 2.27-2.39, 1.99-2.07 and 1.74-2.07 s and peaked at 335, 338
# and 343 MB in blocks of 4096, 8192 and 16384 rows (three runs each), 1.70 s and 352 MB in
# blocks of 32768 (one run; 2-core x86-64 host)
ROW_BLOCK = 8192


def blocks(n: int, pieces: Sequence[bytes | int],
           fill: Callable[[slice, list[np.ndarray]], None]) -> Iterator[bytearray]:
    """The UTF-8 text of a table's n rows, ROW_BLOCK rows at a time, with NULs dropped.

    A row is ``pieces`` left to right: a bytes literal, the same on every row, or the width
    of a field. The rows of a block are laid out in one buffer, allocated for the table and
    reused for every block. The literals are written into it once; ``fill(rows, fields)``
    writes every byte of the fields of the rows of the slice rows, one (rows, width) view
    of the buffer per field (``spell(..., out=field)``, NUL-padded text).
    """
    widths = [p if isinstance(p, int) else len(p) for p in pieces]
    size = min(n, ROW_BLOCK)
    store = bytearray(size * sum(widths))
    buffer = np.frombuffer(store, np.uint8).reshape(size, sum(widths))
    fields, at = [], 0
    for piece, width in zip(pieces, widths):
        cell = buffer[:, at:at + width]
        if isinstance(piece, int):
            fields.append(cell)
        else:
            cell[:] = np.frombuffer(piece, np.uint8)
        at += width
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, min(lo + ROW_BLOCK, n))
        m = rows.stop - lo
        fill(rows, [field[:m] for field in fields])
        if m < size:
            buffer[m:] = 0  # the last block's unused rows drop out with the NULs
        yield store.translate(None, b"\0")
