"""The file dialect that every CSV reader shares (``bnsjump.tables``).

Each reader is given the same malformed and well-formed files: an empty
file and a wrong header fail at line 1, a short row or a non-numeric field
fails at its own line, blank lines are skipped and the header is matched
case-insensitively.
"""

import json
import math

import pytest

from bnsjump import tables
from bnsjump.classifiers import load_external_predictions
from bnsjump.dynamics import read_path_csv
from bnsjump.errors import ParseError
from bnsjump.labeling import read_dataset_csv
from bnsjump.market_data import load_bars

# reader -> (function of a path, header, two good rows, a short row, a row with a
# non-numeric field, rows read from its result)
READERS = {
    "load_bars": (load_bars, "timestamp,close",
                  ["2021-01-04 09:31:00,5000", "2021-01-04 09:32:00,5001"], "2021-01-04 09:33:00",
                  "2021-01-04 09:33:00,x", lambda result: len(result[0])),
    "read_dataset_csv": (read_dataset_csv, "index,f1,theta", ["9,0.5,1", "10,0.25,0"], "11,0.5",
                         "11,x,0", len),
    "read_path_csv": (read_path_csv, "t,sigma_sq,x_true,x_observed,noise",
                      ["0.0,1.0,0.0,,", "0.01,1.0,0.5,,"], "0.02,1.0,0.0", "0.01,x,0.0,,",
                      lambda result: len(result["t"])),
    "load_external_predictions": (load_external_predictions, "index,predicted_theta",
                                  ["9,1", "10,0"], "11", "11,x", len),
}


def read(tmp_path, reader: str, *lines: str):
    path = tmp_path / "table.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return READERS[reader][0](str(path))


@pytest.mark.parametrize("reader", list(READERS))
class TestDialect:
    @pytest.mark.parametrize("case", ["empty", "header", "short-row", "non-numeric"])
    def test_malformed_file_names_its_line(self, tmp_path, reader, case):
        _, header, good, short, non_numeric, _ = READERS[reader]
        lines, line = {"empty": ((), 1),
                       "header": (("a,b", *good), 1),
                       "short-row": ((header, good[0], short, good[1]), 3),
                       "non-numeric": ((header, good[0], non_numeric, good[1]), 3)}[case]
        with pytest.raises(ParseError) as exc:
            read(tmp_path, reader, *lines)
        assert exc.value.line_number == line
        assert str(exc.value).startswith(f"line {line}: ")

    def test_blank_lines_are_skipped(self, tmp_path, reader):
        _, header, good, _, _, count = READERS[reader]
        assert count(read(tmp_path, reader, header, "", good[0], "  ", good[1], "")) == 2

    def test_header_is_case_insensitive(self, tmp_path, reader):
        _, header, good, _, _, count = READERS[reader]
        shouted = ",".join(f" {name.upper()} " for name in header.split(","))
        assert count(read(tmp_path, reader, shouted, *good)) == 2


def test_float_cell_and_json_nan():
    assert [tables.cell(x) for x in (0.1, 3, math.nan, -0.0)] == ["0.1", "3.0", "", "-0.0"]
    text = tables.dumps({"b": [math.nan, 1.5], "a": {"x": (math.nan,)}})
    assert text == json.dumps({"a": {"x": [None]}, "b": [None, 1.5]}, indent=2) + "\n"
