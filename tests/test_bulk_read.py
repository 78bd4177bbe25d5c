"""The bulk read of ``bnsjump.tables`` against the row loop it falls back to.

Each awkward file is read twice: as the readers read it (in bulk, or row by
row where the bulk parse refuses the file), and by the row loop alone, from
the source itself through ``csv_rows``.  The two reads give the same array
bytes, or the same exception type, message and line.  Each case also names
the path it is read by, so a refusal that stops firing, or one that fires
on clean files, shows.
"""

import io

import numpy as np
import pytest

from bnsjump import tables
from bnsjump.errors import ParseError
from bnsjump.labeling import LabeledDataset, read_dataset_csv, write_dataset_csv
from bnsjump.market_data import load_bars, write_bars_csv
from bnsjump.synthetic import synthetic_bars

BAR_HEADER = "timestamp,close"
BARS = ["2021-01-04 09:31:00,5000", "2021-01-04 09:32:00,5001.5", "2021-01-04 09:33:00,4999.25"]

# case -> (lines under the header, the path that reads them)
BAR_CASES = {
    "plain": (BARS, "bulk"),
    "outside-session": (["2021-01-04 09:00:00,4990"] + BARS, "bulk"),
    "iso-t-and-micros": (["2021-01-04T09:31:00.123456,5000", "2021-01-04T09:32,5001"], "bulk"),
    "blank-line": ([BARS[0], "", BARS[1]], "bulk"),
    "spaced-close": ([BARS[0], "2021-01-04 09:32:00, 5001 ", "2021-01-04 09:33:00,\t+5002"], "bulk"),
    "whitespace-only-line": ([BARS[0], "   ", BARS[1]], "rows"),
    "quoted-stamp": ([BARS[0], '"2021-01-04 09:32:00",5001'], "rows"),
    "quoted-close-with-comma": ([BARS[0], '2021-01-04 09:32:00,"5,001"'], "rows"),
    "hash-in-close": ([BARS[0], "2021-01-04 09:32:00,5001#5", BARS[2]], "rows"),
    "hash-in-stamp": ([BARS[0], "2021-01-04 09:32:00#x,5001"], "rows"),
    "underscore-close": ([BARS[0], "2021-01-04 09:32:00,5_001"], "rows"),
    "arabic-indic-close": ([BARS[0], "2021-01-04 09:32:00,١"], "rows"),
    "nan-close": ([BARS[0], "2021-01-04 09:32:00,nan", BARS[2]], "rows"),
    "inf-close": ([BARS[0], "2021-01-04 09:32:00,-inf"], "rows"),
    "nat-stamp": ([BARS[0], "NaT,5001"], "rows"),
    "today-stamp": ([BARS[0], "today,5001"], "rows"),
    "aware-stamp": ([BARS[0], "2021-01-04 09:32:00+08:00,5001"], "rows"),
    "spaced-stamp": ([BARS[0], " 2021-01-04 09:32:00 ,5001"], "rows"),
    "long-stamp": ([BARS[0], "2021-01-04 09:32:00." + "0" * 10 + "x,5001"], "rows"),
    "long-fraction": ([BARS[0], "2021-01-04 09:32:00.1234567,5001"], "bulk"),
    "equal-stamps": ([BARS[0], BARS[1], BARS[1].replace("5001.5", "5002")], "rows"),
    "decreasing-stamps": ([BARS[1], BARS[0]], "rows"),
    "extra-field": ([BARS[0], BARS[1] + ",7"], "rows"),
    "short-row": ([BARS[0], "2021-01-04 09:32:00"], "rows"),
    "nul": ([BARS[0], "2021-01-04 09:32:00\x00,5001"], "rows"),
    "separator-control": ([BARS[0], "2021-01-04 09:32:00,5001\x1c"], "rows"),
    "bare-cr": ([BARS[0] + "\r" + BARS[1]], "rows"),
    "header-only": ([], "rows"),
}

DATASET_HEADER = "index,f1,f2,theta"
ROWS = ["9,0.5,-0.25,1", "10,0.25,1e-3,0", "11,-0.0,7,1"]

DATASET_CASES = {
    "plain": (ROWS, "bulk"),
    "one-row": (ROWS[:1], "bulk"),
    "blank-line": ([ROWS[0], "", ROWS[1]], "bulk"),
    "spaced-and-signed-index": ([" 5 ,0.5,0.25,1", "+6,0.5,0.25,+0", "-7,1,2, 1"], "bulk"),
    "nan-and-inf-features": (["9,nan,inf,1", "10,-nan,-Infinity,0"], "bulk"),
    "float-index": (["5.0,0.5,0.25,1"], "rows"),
    "float-theta": (["5,0.5,0.25,1.0"], "rows"),
    "whitespace-only-line": ([ROWS[0], " \t ", ROWS[1]], "rows"),
    "quoted-field": ([ROWS[0], '10,"0.25",0.5,0'], "rows"),
    "hash-in-field": ([ROWS[0], "10,0.25#1,0.5,0", ROWS[2]], "rows"),
    "underscore-feature": ([ROWS[0], "10,1_000,0.5,0"], "rows"),
    "underscore-index": (["1_0,0.5,0.25,1"], "rows"),
    "latin-letter-index": (["\u01fe5,0.5,0.25,1"], "rows"),
    "arabic-indic-digits": (["١,٢,0.5,0"], "rows"),
    "index-beyond-int64": ([ROWS[0], f"{2**63},0.5,0.25,1"], "rows"),
    "short-row": ([ROWS[0], "10,0.5,1"], "rows"),
    "header-only": ([], "rows"),
}


def bar_arrays(result):
    series, rejected = result
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (series.stamps, series.closes, series.session)] + [rejected]


def dataset_arrays(ds):
    return [(a.dtype.str, a.shape, a.tobytes(), a.flags.c_contiguous)
            for a in (ds.anchor_index, ds.features, ds.theta)]


READERS = {"load_bars": (load_bars, bar_arrays, BAR_HEADER, BAR_CASES),
           "read_dataset_csv": (read_dataset_csv, dataset_arrays, DATASET_HEADER, DATASET_CASES)}


def outcome(read, arrays, source):
    try:
        result = read(source)
    except Exception as exc:  # compared, not swallowed
        return ("error", type(exc), str(exc), getattr(exc, "line_number", None))
    return ("ok", arrays(result))


def both_ways(monkeypatch, reader, source_of):
    """The outcome as read, the path that read it, and the outcome row by row only."""
    read, arrays, _, _ = READERS[reader]
    row_reads = []
    csv_rows = tables.csv_rows

    def spy(*args, **kwargs):
        row_reads.append(args[0])
        return csv_rows(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(tables, "csv_rows", spy)
        as_read = outcome(read, arrays, source_of())

    def rows_only(source, header, dtype, bulk, by_row, spec=""):
        with csv_rows(source, header, spec) as (names, rows):
            return by_row(names, rows)

    with monkeypatch.context() as patch:
        patch.setattr(tables, "read_table", rows_only)
        row_by_row = outcome(read, arrays, source_of())
    return as_read, "rows" if row_reads else "bulk", row_by_row


def text_of(header, lines, newline="\n"):
    return "".join(line + newline for line in [header, *lines])


def text_file(data: bytes) -> io.TextIOWrapper:
    """A binary file of ``data`` opened as text, as a path is opened."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


CASES = [(reader, case) for reader, (_, _, _, cases) in READERS.items() for case in cases]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("reader,case", CASES, ids=[f"{r}-{c}" for r, c in CASES])
def test_bulk_read_matches_row_loop(tmp_path, monkeypatch, reader, case, newline):
    _, _, header, cases = READERS[reader]
    lines, path = cases[case]
    file = tmp_path / "table.csv"
    file.write_bytes(text_of(header, lines, newline).encode("utf-8"))
    as_read, read_by, row_by_row = both_ways(monkeypatch, reader, lambda: str(file))
    assert as_read == row_by_row
    assert read_by == ("rows" if newline == "\r\n" else path)


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("kind", ["text-file", "binary-file"])
def test_every_source_kind_reads_the_same(tmp_path, monkeypatch, reader, kind):
    """Text files, a binary one wrapped as text by its caller included, are
    read row by row, as the same bytes read from a path."""
    _, _, header, cases = READERS[reader]
    for case, (lines, _) in cases.items():
        data = text_of(header, lines).encode("utf-8")
        file = tmp_path / "table.csv"
        file.write_bytes(data)
        from_path, _, _ = both_ways(monkeypatch, reader, lambda: str(file))
        source_of = {"text-file": lambda: io.StringIO(data.decode("utf-8"), newline=""),
                     "binary-file": lambda: text_file(data)}[kind]
        as_read, read_by, row_by_row = both_ways(monkeypatch, reader, source_of)
        assert as_read == row_by_row == from_path, case
        assert read_by == "rows", case


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("kind", ["path", "binary-file"])
def test_undecodable_file_fails_as_the_row_loop_does(tmp_path, monkeypatch, reader, kind):
    """A malformed row before a byte that is not UTF-8 is still the error
    found first in a file; a clean file with such a byte fails as csv_rows fails."""
    _, _, header, cases = READERS[reader]
    good = {"load_bars": [f"2021-01-04 09:31:00.{i:06d},5000" for i in range(1, 5000)],
            "read_dataset_csv": [f"{i},0.5,0.25,1" for i in range(5000)]}[reader]
    for lines, error in (([good[0], cases["short-row"][0][1]] + good[1:], ParseError),
                         (good, UnicodeDecodeError)):
        data = text_of(header, lines).encode("utf-8") + b"\xff\n"
        file = tmp_path / "table.csv"
        file.write_bytes(data)
        source_of = {"path": lambda: str(file), "binary-file": lambda: text_file(data)}[kind]
        as_read, read_by, row_by_row = both_ways(monkeypatch, reader, source_of)
        assert as_read == row_by_row
        assert as_read[:2] == ("error", error) and read_by == "rows"


def test_zero_feature_dataset_reads_in_bulk(tmp_path, monkeypatch):
    file = tmp_path / "table.csv"
    file.write_bytes(b"index,theta\n3,1\n4,0\n")
    as_read, read_by, row_by_row = both_ways(monkeypatch, "read_dataset_csv", lambda: str(file))
    assert as_read == row_by_row
    assert read_by == "bulk"
    assert as_read[1][1][:2] == ("<f8", (2, 0))


@pytest.mark.parametrize("reader", list(READERS))
def test_files_of_many_blocks_read_in_bulk(tmp_path, monkeypatch, reader):
    """Files far longer than one 64 KiB block of lines read in bulk, as the row loop reads them."""
    file = tmp_path / "table.csv"
    with open(file, "w", encoding="utf-8", newline="") as fh:
        if reader == "load_bars":
            write_bars_csv(fh, synthetic_bars(days=20, seed=7))
        else:
            rng = np.random.default_rng(3)
            write_dataset_csv(fh, LabeledDataset(anchor_index=np.arange(3000) + 9,
                                                 features=rng.normal(size=(3000, 10)),
                                                 theta=rng.integers(0, 2, size=3000)))
    assert file.stat().st_size > 2 * 65536
    as_read, read_by, row_by_row = both_ways(monkeypatch, reader, lambda: str(file))
    assert read_by == "bulk"
    assert as_read == row_by_row
    assert as_read[0] == "ok" and as_read[1][0][1][0] > 2900
