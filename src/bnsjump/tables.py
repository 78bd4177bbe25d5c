"""The one dialect of every CSV and JSON file the toolkit reads or writes.

A CSV file opens with a header, matched after strip and lower-case; blank
lines are skipped and every other row has one field per header column, or
ParseError names its line.  Floats are written as round-trip ``repr``, NaN
as an empty cell.  JSON has sorted keys, indent 2, a final newline, and
NaN as ``null``, so every file is strict JSON.

``csv_rows`` reads a file row by row.  ``read_table`` reads its text once
and parses every row at once with ``np.loadtxt``; it re-reads the file row
by row only when the bulk parse refuses it, so every error, and the line
it names, is the row loop's.  The bulk parse takes only text that it reads
exactly as the row loop does: ASCII without a double quote (csv quoting),
a carriage return (so that only csv decides where a line ends; a CRLF file
is read row by row), a NUL (numpy drops it from the end of a text) or
\\x1c-\\x1f (numpy strips them around a number; ``float`` and ``int`` refuse
them).  Non-ASCII text is refused because ``float`` reads non-ASCII digits
and numpy's integer parse misreads some letters as digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError


def _open_text(source) -> io.TextIOBase:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.BytesIO) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        return io.TextIOWrapper(source, encoding="utf-8")
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


def _read_text(source) -> tuple[str | None, object]:
    """The text of ``source`` (None where it does not decode), and a source
    that ``csv_rows`` reads as it would have read ``source`` itself."""
    if isinstance(source, (str, Path, bytes)):
        try:
            if isinstance(source, bytes):
                return source.decode("utf-8"), source
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return fh.read(), source
        except UnicodeDecodeError:  # csv_rows raises it after the rows before it
            return None, source
    lines: list[str] = []  # a file is read through its own line splitting
    try:
        lines.extend(_open_text(source))
    except UnicodeDecodeError as exc:
        return None, _lines_then(lines, exc)
    return "".join(lines), lines


def _lines_then(lines: list[str], exc: Exception) -> Iterator[str]:
    yield from lines
    raise exc


_NOT_BULK = '"\r\x00\x1c\x1d\x1e\x1f'  # see the module docstring


def _lines(text: str, start: int) -> Iterator[str]:
    """The lines of ``text[start:]``, split 64 KiB at a time, so that loadtxt
    reads them without a second copy of the whole text (a StringIO of it
    would take four bytes a character)."""
    while start < len(text):
        end = text.find("\n", start + 65536) + 1 or len(text)
        yield from text[start:end].split("\n")
        start = end


def _loadtxt(text: str | None, header, dtype) -> np.ndarray:
    """The rows under the header, as one structured array; ValueError where
    the parse might differ from the row loop's."""
    if text is None or not text.isascii() or any(c in text for c in _NOT_BULK):
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
    """Read ``source`` as ``csv_rows`` would, parsing its rows in bulk.

    ``np.loadtxt`` parses the rows under the header as ``dtype`` (a
    structured dtype, or a function from the header's width to one), and
    ``bulk`` makes the result from that array, raising ValueError for any
    row it would not accept.  Where either refuses, the file is read again
    through ``csv_rows`` and ``by_row(names, rows)`` makes the same result,
    or raises the error the row loop finds first, naming its line.
    """
    text, again = _read_text(source)
    try:
        table = _loadtxt(text, header, dtype)
        del text  # freed while bulk runs: a refused file is re-read from ``again``
        return bulk(table)
    except (ValueError, Warning):
        pass
    with csv_rows(again, header, spec) as (names, rows):
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
