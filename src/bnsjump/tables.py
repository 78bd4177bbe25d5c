"""The one dialect of every CSV and JSON file the toolkit reads or writes.

A CSV file opens with a header, matched after strip and lower-case; blank
lines are skipped and every other row has one field per header column, or
ParseError names its line.  Floats are written as round-trip ``repr``, NaN
as an empty cell.  JSON has sorted keys, indent 2, a final newline, and
every non-finite float (NaN, +inf, -inf) as ``null``, so every file is
strict JSON.

``csv_rows`` reads a file row by row.  ``read_table`` reads the text of a
file named by a path once and parses every row at once with ``np.loadtxt``;
it re-reads the file row by row only when the bulk parse refuses it, so
every error, and the line it names, is the row loop's.  A text file is read
row by row.  The bulk parse takes only text that it reads exactly as the
row loop does: ASCII without a double quote (csv quoting), a carriage
return (so that only csv decides where a line ends; a CRLF file is read row
by row), a NUL (numpy drops it from the end of a text) or \\x1c-\\x1f
(numpy strips them around a number; ``float`` and ``int`` refuse them).
Non-ASCII text is refused because ``float`` reads non-ASCII digits and
numpy's integer parse misreads some letters as digits.  A path is decoded
as UTF-8 after an optional byte-order mark, with csv's own line splitting;
a text file is read as its caller opened it.

``float_rows`` writes float64 columns as CSV rows whose fields are exactly
``repr(float(v))``, whole columns at a time; ``formatted`` formats a column
alone, for one that several tables share; ``float_lines`` gives one column's
text with the offset of each value, for writers that place the values in
rows themselves (bar closes, overlapping feature windows).  Apart from
``cell``, these are the only float formatters.  ``repr`` is CPython's
correctly rounded shortest conversion (Gay's dtoa, mode 0): the fewest
significant digits that read back to the same float, and of those the
nearest to it.  Dragonbox (Jeon, 2020) finds the same digits with
fixed-width integers: one 64x128-bit product a value (summed here from
32-bit halves in uint64 columns) by a power of ten chosen by the exponent
scales the upper end of the value's rounding interval to z, and its width
to delta, between 100 and 1000.  If a multiple of 1000 lies within delta
below z, z // 1000 without its trailing zeros is the answer; else it is
the multiple of 100 nearest the value.  Where the value or an interval end
may fall exactly on such a multiple, Dragonbox reads the product's lower
bits; those values (r = z mod 1000 equal to delta, r = 0 from an exact
product and an odd significand, and a nearest multiple found on a cut) go
to ``repr`` one at a time instead, which measured faster for the one in a
hundred or so that they are.  So do +-0, subnormals, inf, nan and a zero
mantissa field (an interval narrower below the value).  The layout is
repr's: exponent notation below 1e-4 and from 1e16 up, with a sign and at
least two exponent digits, and ``.0`` after a whole number.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ParseError


def _rows(reader, width: int) -> Iterator[list[str]]:
    for row in reader:
        if len(row) != width:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank line
            raise ParseError(f"expected {width} fields, got {len(row)}")
        yield row


@contextmanager
def csv_rows(source, header: Sequence[str] | Callable[[int], Sequence[str]], spec: str = ""):
    """Open ``source`` (a path or a text file) and check its header; give the
    lower-cased header and an iterator over the other rows' fields, which
    reads each row as it is reached.  A ParseError raised in the block is
    raised again naming the line being read, so raise it without one.
    ``header`` is the column names, or a function from the header's width to
    them; messages name it ``spec``, by default the names joined with commas."""
    is_path = isinstance(source, (str, Path))
    fh = open(source, "r", encoding="utf-8-sig", newline="") if is_path else source
    reader = csv.reader(fh)
    try:
        first = next(reader, [])
        names = [name.strip().lower() for name in first]
        want = list(header(len(names)) if callable(header) else header)
        if names != want:
            raise ParseError(f"expected header {spec or ','.join(want)!r}, got {','.join(first)!r}")
        yield names, _rows(reader, len(names))
    except ParseError as exc:
        raise type(exc)(str(exc), max(reader.line_num, 1)) from None  # an empty file fails at line 1
    finally:
        if is_path:
            fh.close()


_NOT_BULK = '"\r\x00\x1c\x1d\x1e\x1f'  # see the module docstring


def _lines(text: str, start: int) -> Iterator[str]:
    """The lines of ``text[start:]``, split 64 KiB at a time, so that loadtxt
    reads them without a second copy of the whole text (a StringIO of it
    would take four bytes a character)."""
    while start < len(text):
        end = text.find("\n", start + 65536) + 1 or len(text)
        yield from text[start:end].split("\n")
        start = end


def _loadtxt(text: str, header, dtype) -> np.ndarray:
    """The rows under the header, as one structured array; ValueError where
    the parse might differ from the row loop's."""
    if not text.isascii() or any(c in text for c in _NOT_BULK):
        raise ValueError("not bulk-readable text")
    head = text.find("\n")
    if head < 0:
        raise ValueError("no rows")
    names = [name.strip().lower() for name in text[:head].split(",")]
    if names != list(header(len(names)) if callable(header) else header):
        raise ValueError("header mismatch")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        return np.loadtxt(_lines(text, head + 1), delimiter=",", comments=None, ndmin=1,
                          dtype=dtype(len(names)) if callable(dtype) else dtype)


def read_table(source, header, dtype, bulk: Callable, by_row: Callable, spec: str = ""):
    """Read ``source`` as ``csv_rows`` would, parsing a path's rows in bulk.

    ``np.loadtxt`` parses the rows under the header as ``dtype`` (a
    structured dtype, or a function from the header's width to one), and
    ``bulk`` makes the result from that array, raising ValueError for any
    row it would not accept.  Where either refuses, or the file does not
    decode, it is read again through ``csv_rows`` and ``by_row(names, rows)``
    makes the same result, or raises the error the row loop finds first,
    naming its line.  A text file goes straight to ``csv_rows``.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                text = fh.read()
            table = _loadtxt(text, header, dtype)
            del text  # freed while bulk runs: a refused file is read again
            return bulk(table)
        except (ValueError, Warning):  # UnicodeDecodeError too: csv_rows raises it at its line
            pass
    with csv_rows(source, header, spec) as (names, rows):
        return by_row(names, rows)


def cell(x: float) -> str:
    """A float cell: round-trip ``repr``, or empty for NaN."""
    return "" if math.isnan(x) else repr(float(x))


# ---------------------------------------------------------------------------
# float64 columns -> CSV rows whose fields are repr's text, a column at a time

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_W = 24  # the longest repr, -2.2250738585072014e-308


def _cache() -> np.ndarray:
    """Dragonbox's constants for each biased exponent, as the rows of a
    (7, 2048) uint64 table: the four 32-bit limbs of phi_k = ceil(10^k *
    2^(127 - floor(k log2 10))), the lowest first; beta; delta, phi_k's
    top 64 bits >> (63 - beta); and -k, two's complement.  5^k and
    floor(2^m / 5^k) are walked one multiply or divide by 5 a step."""
    e2 = np.maximum(np.arange(2048), 1) - 1075  # a subnormal scales as the least normal value
    minus_k = (e2 * 315653 >> 20) - 2  # floor(e2 log10 2) - kappa, kappa = 2
    k = -minus_k
    beta = e2 + (k * 1741647 >> 19)  # e2 + floor(k log2 10), 6 to 9
    lo, hi = int(k.min()), int(k.max())

    def shift(k):  # phi_k = ceil(5^k * 2^shift(k))
        return 127 + k - (k * 1741647 >> 19)

    phi, five = {}, 1
    for i in range(hi + 1):
        phi[i] = five << shift(i) if shift(i) >= 0 else ((five - 1) >> -shift(i)) + 1
        five *= 5
    scaled = 1 << shift(lo)
    for i in range(1, 1 - lo):
        scaled //= 5  # floor(2^shift(lo) / 5^i), exactly: floors compose
        phi[-i] = (scaled >> (shift(lo) - shift(-i))) + 1  # 5^i divides no power of 2
    limbs = np.frombuffer(b"".join(phi[i].to_bytes(16, "little") for i in range(lo, hi + 1)), dtype="<u4")
    limbs = limbs.reshape(-1, 4).astype(np.uint64).take(k - lo, axis=0).T
    delta = (limbs[3] << _U(32) | limbs[2]) >> (63 - beta).astype(np.uint64)
    return np.vstack([limbs, beta.astype(np.uint64), delta, minus_k.astype(np.uint64)])


_CACHE = _cache()


def _upper(x, t0, t1, t2, t3):
    """floor(x * phi / 2^128) for x < 2^63 and phi the 128-bit number of
    limbs t0..t3, exactly, and whether bits 64-127 of x * phi are all zero,
    summing the eight 32x32-bit partial products column by column."""
    x0 = x & _M32
    x1 = x >> _U(32)
    c1 = x0 * t0 >> _U(32)
    p = x0 * t1
    c2 = p >> _U(32)
    c1 += p & _M32
    p = x1 * t0
    c2 += p >> _U(32)
    c1 += p & _M32
    c2 += c1 >> _U(32)
    p = x0 * t2
    c3 = p >> _U(32)
    c2 += p & _M32
    p = x1 * t1
    c3 += p >> _U(32)
    c2 += p & _M32
    c3 += c2 >> _U(32)
    p = x0 * t3
    c4 = p >> _U(32)
    c3 += p & _M32
    p = x1 * t2
    c4 += p >> _U(32)
    c3 += p & _M32
    c4 += c3 >> _U(32)
    return c4 + x1 * t3, (c2 | c3) & _M32 == 0


def _shortest(bits: np.ndarray):
    """Dragonbox's shortest digits of float64 bit patterns: ``(out, e, odd)``
    with each value equal to ``out * 10^e`` when printed, and ``odd`` the
    indices of the values left to ``repr`` (see the module docstring); their
    ``out`` and ``e`` are those of 0.1."""
    exps = bits >> _U(52) & _U(0x7FF)
    mant = bits & _U((1 << 52) - 1)
    t0, t1, t2, t3, beta, delta, minus_k = _CACHE.take(exps, axis=1)
    z, exact = _upper(((mant | _U(1 << 52)) << _U(1) | _U(1)) << beta, t0, t1, t2, t3)
    # z is the interval's scaled upper end: a multiple of 1000 lies within
    # delta below it when r < delta, and then q is the answer; else the
    # answer has one more digit, the multiple of 100 nearest the value
    q = z // _U(1000)
    r = z - q * _U(1000)
    small = r > delta
    dist = r - (delta >> _U(1)) + _U(50)  # wraps where r <= delta, which takes q
    cut = dist // _U(100)
    out = np.where(small, q * _U(10) + cut, q)
    e = minus_k.view(np.int64) + 3 - small
    odd = np.flatnonzero((exps == 0) | (exps == 2047) | (mant == 0) | (r == delta)
                         | (r == 0) & exact & (mant & _U(1) == _U(1)) | small & (cut * _U(100) == dist))
    out[odd] = 1
    e[odd] = -1
    # q's trailing zeros go; uint64 `%` costs several times `//`, so each test is `//`
    zeros = np.flatnonzero(out // _U(10) * _U(10) == out)
    if zeros.size:
        digits, power = out[zeros], e[zeros]
        for s in (16, 8, 4, 2, 1):
            shorter = digits // _POW10[s]
            whole = shorter * _POW10[s] == digits
            digits = np.where(whole, shorter, digits)
            power += s * whole
        out[zeros], e[zeros] = digits, power
    return out, e, odd


def _ascii8(x):
    """Each x < 10^8 as eight zero-padded ASCII digits, the first in the
    lowest byte of a uint64 (SWAR: two 4-digit lanes, then four 2-digit ones)."""
    hi = x // _U(10000)
    merged = hi | (x - hi * _U(10000)) << _U(32)
    top = (merged * _U(10486)) >> _U(20) & _U(0x0000007F0000007F)
    pairs = (merged - _U(100) * top) << _U(16) | top
    tens = (pairs * _U(103)) >> _U(10) & _U(0x000F000F000F000F)
    return tens | (pairs - _U(10) * tens) << _U(8) | _U(0x3030303030303030)


def _masks() -> tuple[np.ndarray, ...]:
    """Byte masks over a 24-byte text as three little-endian words: for each
    count f of digits after the point (0: no point), the bytes taken as they
    are, the bytes taken from the text shifted left one byte, and the point;
    and for each column, the XOR that turns its '0' into '-'."""
    def words(chars):
        return np.frombuffer(bytes(chars), dtype="<u8").astype(np.uint64)
    cols = range(_W)
    as_is = [words([255] * _W)] + [words([255 * (c >= _W - f) for c in cols]) for f in range(1, 22)]
    shifted = [words([0] * _W)] + [words([255 * (c < _W - 1 - f) for c in cols]) for f in range(1, 22)]
    point = [words([0] * _W)] + [words([ord(".") * (c == _W - 1 - f) for c in cols]) for f in range(1, 22)]
    minus = [words([(ord("0") ^ ord("-")) * (c == at) for c in cols]) for at in range(_W + 1)]
    return tuple(np.array(table) for table in (as_is, shifted, point, minus))


_AS_IS, _SHIFTED, _POINT, _MINUS = _masks()


class Formatted(NamedTuple):
    """``repr`` of each float of a column, right-aligned in 24 bytes (three
    little-endian uint64 words a value), and its length."""

    img: np.ndarray
    length: np.ndarray


def formatted(values: np.ndarray) -> Formatted:
    """The floats of the 1-D ``values`` formatted for `float_rows`, which
    can write a column formatted once into any number of tables."""
    values = np.ascontiguousarray(values, dtype=float)
    bits = values.view(np.uint64)
    out, e, odd = _shortest(bits)
    neg = bits >= _U(1 << 63)
    neg[odd] = False
    ndig = np.searchsorted(_POW10[1:18], out, side="right") + 1
    point = ndig + e  # the value is 0.DIGITS * 10^point
    sci = (point > 16) | (point < -3)  # repr's switch to exponent notation
    whole = ~sci & (e >= 0)
    # print the integer ``digits`` with ``frac`` of them after the point: an
    # integral value gets one more zero, and exponent notation one digit before
    digits = np.where(whole, out * _POW10.take(np.where(whole, e + 1, 0)), out)
    frac = np.where(sci, ndig - 1, np.where(e < 0, -e, 1))
    length = frac + (frac > 0) + np.maximum(1, np.where(whole, point + 1, ndig) - frac) + neg
    groups = np.empty((len(values), 3), dtype=np.uint64)
    rest = digits // _U(10**8)
    groups[:, 2] = digits - rest * _U(10**8)
    groups[:, 0] = rest // _U(10**8)
    groups[:, 1] = rest - groups[:, 0] * _U(10**8)
    text = _ascii8(groups)
    left = text >> _U(8)
    left[:, 0] |= text[:, 1] << _U(56)
    left[:, 1] |= text[:, 2] << _U(56)
    img = text & _AS_IS.take(frac, axis=0) | left & _SHIFTED.take(frac, axis=0) | _POINT.take(frac, axis=0)
    x = np.flatnonzero(sci)
    if x.size:  # shift left by the 4 or 5 bytes of e+XX or e-XXX, and write them
        power = point[x] - 1
        mag = np.abs(power).astype(np.uint64)
        big = mag >= _U(100)
        tail = 4 + big
        length[x] += tail
        shift = (8 * tail).astype(np.uint64)
        words = img[x]
        moved = words >> shift[:, None]
        moved[:, :2] |= words[:, 1:] << (_U(64) - shift)[:, None]
        ten = mag // _U(10) % _U(10)
        unit = mag % _U(10)
        exponent = np.where(big, (mag // _U(100) | ten << _U(8) | unit << _U(16)) + _U(0x303030),
                            (ten | unit << _U(8)) + _U(0x3030))
        sign = np.where(power < 0, _U(ord("-")), _U(ord("+")))
        moved[:, 2] |= (_U(ord("e")) | sign << _U(8) | exponent << _U(16)) << (_U(64) - shift)
        img[x] = moved
    img ^= _MINUS.take(np.where(neg, _W - length, _W), axis=0)  # row _W is all zeros
    img = img.astype("<u8", copy=False)
    if odd.size:
        texts = [repr(v) for v in values[odd].tolist()]  # a negative value's '-' is in its text
        length[odd] = sizes = np.array([len(t) for t in texts])
        ends = np.cumsum(sizes)
        at = np.arange(ends[-1]) - np.repeat(ends - _W, sizes)  # each byte's column
        img.view(np.uint8)[np.repeat(odd, sizes), at] = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
    return Formatted(img, length)


def float_rows(columns: Sequence[np.ndarray | Formatted | None]) -> bytes:
    """The rows of equal-length float columns as ``\\n``-terminated CSV
    bytes: each field is ``repr(float(v))``, and a ``None`` column an empty
    field.  The first column must be given.  A column may come `formatted`
    already; the others are formatted here, together."""
    present = [k for k, c in enumerate(columns) if c is not None]
    given = [isinstance(columns[k], Formatted) for k in present]
    n = len(columns[0].length if given[0] else columns[0])
    m = len(present)
    # a field is its text, then the separators up to the next field's text,
    # or to the end of its row
    seps = ["," * (b - a) for a, b in zip(present, present[1:])]
    seps.append("," * (len(columns) - 1 - present[-1]) + "\n")
    sizes = np.array([len(s) for s in seps])
    words = -(-sizes.max() // 8)
    fields = np.empty((n, m, 3 + words), dtype="<u8")
    length = np.empty((n, m), dtype=np.intp)
    fresh = [j for j in range(m) if not given[j]]
    if fresh:
        texts = formatted(np.column_stack([columns[present[j]] for j in fresh]).ravel())
        fields[:, fresh, :3] = texts.img.reshape(n, len(fresh), 3)
        length[:, fresh] = texts.length.reshape(n, len(fresh))
    for j in range(m):
        if given[j]:
            fields[:, j, :3], length[:, j] = columns[present[j]]
    fields[:, :, 3:] = np.frombuffer(b"".join(s.encode().ljust(8 * words, b"\0") for s in seps),
                                     dtype="<u8").reshape(m, words)
    cols = np.arange(_W + 8 * words)
    keep = (cols >= _W - np.arange(_W + 1)[:, None, None]) & (cols < _W + sizes[:, None])  # [length, column]
    keep = keep.reshape(-1, len(cols)).take(length * m + np.arange(m), axis=0)
    return fields.view(np.uint8).reshape(keep.shape)[keep].tobytes()


REPR_BLOCK = 4096  # values formatted at a time; bounds the kernel's temporary arrays


def float_lines(values: np.ndarray) -> tuple[str, np.ndarray]:
    """``repr(float(v))`` of each float of the 1-D ``values`` on a line of
    its own, formatted by `float_rows` `REPR_BLOCK` values at a time; and
    where each line starts in that text, then the text's length."""
    text = b"".join(float_rows([values[lo:lo + REPR_BLOCK]]) for lo in range(0, len(values), REPR_BLOCK))
    starts = np.zeros(len(values) + 1, dtype=int)
    starts[1:] = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n")) + 1
    return text.decode("ascii"), starts


def write_rows(fileobj, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header, then each row, as ``\\n``-terminated CSV lines."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _finite_or_none(value):
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def dumps(payload) -> str:
    """``payload`` as strict JSON: sorted keys, indent 2, every non-finite
    float as ``null``, and a final newline."""
    return json.dumps(_finite_or_none(payload), sort_keys=True, indent=2) + "\n"
