"""The one dialect of every CSV and JSON file the toolkit reads or writes.

A CSV file opens with a header, matched after strip and lower-case; blank
lines are skipped and every other row has one field per header column, or
ParseError names its line.  Floats are written as round-trip ``repr``, NaN
as an empty cell.  JSON has sorted keys, indent 2, a final newline, and
NaN as ``null``, so every file is strict JSON.

``csv_rows`` reads a file row by row.  ``read_table`` reads the text of a
file named by a path once and parses every row at once with ``np.loadtxt``;
it re-reads the file row by row only when the bulk parse refuses it, so
every error, and the line it names, is the row loop's.  Any other source
(bytes, a text or binary file) is read row by row.  The bulk parse takes
only text that it reads exactly as the row loop does: ASCII without a
double quote (csv quoting), a carriage return (so that only csv decides
where a line ends; a CRLF file is read row by row), a NUL (numpy drops it
from the end of a text) or \\x1c-\\x1f (numpy strips them around a number;
``float`` and ``int`` refuse them).  Non-ASCII text is refused because
``float`` reads non-ASCII digits and numpy's integer parse misreads some
letters as digits.  Paths, bytes and binary files are decoded as UTF-8
after an optional byte-order mark, with csv's own line splitting.

``float_rows`` writes float64 columns as CSV rows whose fields are exactly
``repr(float(v))``, whole columns at a time; ``formatted`` formats a column
alone, for one that several tables share.  ``repr`` is CPython's
correctly rounded shortest conversion (Gay's dtoa, mode 0): the fewest
significant digits that read back to the same float, and of those the
nearest to it.  Ryu (Adams, PLDI 2018) finds the same digits with
fixed-width integers: the value's rounding interval is scaled by an entry
of a 5^i table (a 64x128-bit product, summed here from 32-bit halves in
uint64 columns), then digits are cut while the interval still holds a
number with fewer of them, rounding the last cut up from 5.  That common
path is exact for every double except the ones it leaves to Ryu's general
path, and those go to ``repr`` one at a time: +-0, subnormals, inf, nan,
|x| >= 2^54 (e2 >= 0), q <= 1 and a scaled value that is itself a whole
number (mv a multiple of 2^q), where a tie or an interval end may be
exact.  The layout is repr's: exponent notation below 1e-4 and from 1e16
up, with a sign and at least two exponent digits, and ``.0`` after a
whole number.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ParseError


def _open_text(source) -> io.TextIOBase:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8-sig"), newline="")
    if isinstance(source, io.BytesIO) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        return io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    return source


def _rows(reader, width: int) -> Iterator[list[str]]:
    for row in reader:
        if len(row) != width:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank line
            raise ParseError(f"expected {width} fields, got {len(row)}")
        yield row


@contextmanager
def csv_rows(source, header: Sequence[str] | Callable[[int], Sequence[str]], spec: str = ""):
    """Open ``source`` (a path, bytes, or a text or binary file) and check its
    header; give the lower-cased header and an iterator over the other rows'
    fields, which reads each row as it is reached.  A ParseError raised in the
    block is raised again naming the line being read, so raise it without one.
    ``header`` is the column names, or a function from the header's width to
    them; messages name it ``spec``, by default the names joined with commas."""
    fh = _open_text(source)
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
        if isinstance(source, (str, Path)):
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
    naming its line.  Any other source goes straight to ``csv_rows``.
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


def float_texts(values: np.ndarray) -> np.ndarray:
    """``repr`` of every float, as an object array of the same shape.

    Each distinct bit pattern is formatted once and shared by every cell
    holding it, which pays off where values repeat (overlapping feature
    windows, prices moving in ticks).
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    return text[inverse.reshape(values.shape)]


# ---------------------------------------------------------------------------
# float64 columns -> CSV rows whose fields are repr's text, a column at a time

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_HALF = np.array([1] + [5 * 10**(r - 1) for r in range(1, 20)], dtype=np.uint64)  # 10^r / 2; 1 cuts none
_W = 24  # the longest repr, -2.2250738585072014e-308


def _pow5_limbs() -> np.ndarray:
    """5^i for i < 326 scaled to exactly 125 bits, truncated (Ryu's
    DOUBLE_POW5_SPLIT), as four 32-bit limbs, the lowest first: shape (4, 326)."""
    rows = []
    for i in range(326):
        shift = (5**i).bit_length() - 125
        p = 5**i >> shift if shift >= 0 else 5**i << -shift
        rows.append([p >> (32 * k) & 0xFFFFFFFF for k in range(4)])
    return np.array(rows, dtype=np.uint64).T.copy()


_POW5 = _pow5_limbs()


def _split(bits: np.ndarray):
    """Biased exponent, mantissa field, -e2 (clipped to the normal range) and
    q = floor(log10 5^-e2) - (-e2 > 1) of float64 bit patterns."""
    exps = bits >> _U(52) & _U(0x7FF)
    mant = bits & _U((1 << 52) - 1)
    e2neg = np.clip(1077 - exps.astype(np.int64), 2, 1076)
    q = (e2neg * 732923 >> 20) - (e2neg > 1)
    return exps, mant, e2neg, q


# computed in place of a value left to repr: Ryu's common path takes it, and
# its text is no longer than any repr, so it stays inside the field it fills
_SUBSTITUTE = _split(np.array([0.1]).view(np.uint64))


def _mul_shift(m, limbs, j):
    """floor(m * 5^i-table / 2^j), exactly, for m < 2^56 and 118 <= j <= 121,
    summing the eight 32x32-bit partial products column by column."""
    m0 = m & _M32
    m1 = m >> _U(32)
    t0, t1, t2, t3 = limbs
    c1 = m0 * t0 >> _U(32)
    p = m0 * t1
    c2 = p >> _U(32)
    c1 += p & _M32
    p = m1 * t0
    c2 += p >> _U(32)
    c1 += p & _M32
    c2 += c1 >> _U(32)
    p = m0 * t2
    c3 = p >> _U(32)
    c2 += p & _M32
    p = m1 * t1
    c3 += p >> _U(32)
    c2 += p & _M32
    c3 += c2 >> _U(32)
    p = m0 * t3
    c4 = p >> _U(32)
    c3 += p & _M32
    p = m1 * t2
    c4 += p >> _U(32)
    c3 += p & _M32
    c4 += c3 >> _U(32)
    p = m1 * t3
    c5 = p >> _U(32)
    c4 += p & _M32
    c5 += c4 >> _U(32)
    return (c3 & _M32) >> (j - _U(96)) | (c4 & _M32) << (_U(128) - j) | c5 << (_U(160) - j)


def _shortest(bits: np.ndarray):
    """Ryu's shortest digits of float64 bit patterns: ``(out, e, odd)`` with
    each value equal to ``out * 10^e`` when printed, and ``odd`` the indices
    of the values outside Ryu's common path (see the module docstring); their
    ``out`` and ``e`` are those of 0.1."""
    exps, mant, e2neg, q = _split(bits)
    mv = (mant | _U(1 << 52)) << _U(2)
    trailing = mv & ((_U(1) << np.minimum(q, 63).astype(np.uint64)) - _U(1)) == 0
    odd = np.flatnonzero((exps == 0) | (exps >= 1077) | (q <= 1) | trailing)
    if odd.size:
        for part, sub in zip((exps, mant, e2neg, q), _SUBSTITUTE):
            part[odd] = sub[0]
        mv = (mant | _U(1 << 52)) << _U(2)
    i = e2neg - q  # 5^i scales the interval to q decimal digits, e10 = -i
    j = (q - (i * 1217359 >> 19) + 124).astype(np.uint64)
    limbs = _POW5.take(i, axis=1)
    vr = _mul_shift(mv, limbs, j)
    vp = _mul_shift(mv + _U(2), limbs, j)
    vm = _mul_shift(mv - _U(1) - ((mant != 0) | (exps == 1)).astype(np.uint64), limbs, j)
    width = vp - vm
    # r digits go while a multiple of 10^r lies in (vm, vp]: that holds from
    # r = 0 up to the answer, which is at most 19 (vr has at most 20 digits),
    # and for every r with 10^r <= width; it holds one step further for some
    # of the values, and two or more for a few, often short decimals
    lo = np.searchsorted(_POW10, width, side="right") - 1
    up = np.minimum(lo + 1, 19)
    lo = np.where(vp % _POW10.take(up) < width, up, lo)
    rare = np.flatnonzero(vp % _POW10.take(np.minimum(lo + 1, 19)) < width)
    if rare.size:  # count the r that hold
        lo[rare] = (vp[rare, None] % _POW10 < width[rare, None]).sum(axis=1) - 1
    d = _POW10.take(lo)
    out = vr // d
    low = out * d
    # round up from a cut 5, or off vm, which the interval leaves out on this path
    out += ((vr - low >= _HALF.take(lo)) | (vm >= low)).astype(np.uint64)
    return out, lo - i, odd


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
    minus = np.flatnonzero(neg)
    img[minus] ^= _MINUS.take(_W - length[minus], axis=0)
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
    if n == 0:
        return b""
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


def write_rows(fileobj, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header, then each row, as ``\\n``-terminated CSV lines."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _nan_to_none(value):
    if isinstance(value, dict):
        return {key: _nan_to_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_none(item) for item in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def dumps(payload) -> str:
    """``payload`` as strict JSON: sorted keys, indent 2, NaN as ``null``,
    and a final newline."""
    return json.dumps(_nan_to_none(payload), sort_keys=True, indent=2) + "\n"
