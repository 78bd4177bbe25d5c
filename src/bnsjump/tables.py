"""The one dialect of every CSV and JSON file the toolkit reads or writes.

A CSV file opens with a header, matched after strip and lower-case; blank
lines are skipped and every other row has one field per header column, or
ParseError names its line.  Floats are written as round-trip ``repr``, NaN
as an empty cell.  JSON has sorted keys, indent 2, a final newline, and
NaN as ``null``, so every file is strict JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
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
