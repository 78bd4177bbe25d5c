"""The file dialect that every CSV reader shares (``bnsjump.tables``), and
the kernel that writes float columns as ``repr``'s text.

Each reader is given the same malformed and well-formed files: an empty
file and a wrong header fail at line 1, a short row or a non-numeric field
fails at its own line, blank lines are skipped and the header is matched
case-insensitively.
"""

import codecs
import dataclasses
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bnsjump import dynamics, tables
from bnsjump.classifiers import load_external_predictions
from bnsjump.dynamics import read_path_csv
from bnsjump.errors import ParseError
from bnsjump.labeling import read_dataset_csv
from bnsjump.market_data import load_bars
from bnsjump.subordinators import SubordinatorSpec, TimeGrid, sample_subordinator_path
from brute_force import brute_force_write_path_csv

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



def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b if a is not None else b is None


@pytest.mark.parametrize("reader", list(READERS))
def test_utf8_byte_order_mark_is_skipped(tmp_path, reader):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet "CSV
    UTF-8" exports write it, reads as the same file without one: as a path,
    bytes and a binary file."""
    fn, header, good, _, _, _ = READERS[reader]
    text = "".join(line + "\n" for line in (header, *good)).encode("utf-8")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    want = fn(str(plain))
    for source in (str(marked), marked, marked.read_bytes(), io.BytesIO(marked.read_bytes())):
        assert _same(fn(source), want)


def _expect_rows(columns) -> str:
    n = len(next(c for c in columns if c is not None))
    return "".join(",".join("" if c is None else repr(float(c[k])) for c in columns) + "\n"
                   for k in range(n))


def test_float_rows_match_repr():
    """The kernel's fields are ``repr``'s, byte for byte, on each side of
    every branch: random bit patterns, magnitudes over 50 decades, grid
    times, powers of two and ten and their neighbours, the notation switches
    at 1e-4 and 1e16, integers, subnormals, zeros, infinities and nan."""
    rng = np.random.default_rng(14)
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([p2, p10])
    switches = np.concatenate([np.linspace(9.99e-5, 1.001e-4, 5000), np.linspace(9.99e15, 1.001e16, 5000),
                               [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0)]])
    special = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.0, np.inf, np.nan])
    values = np.concatenate([
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
        (rng.standard_normal((51, 600)) * 10.0 ** np.arange(-30, 21)[:, None]).ravel(),
        *(TimeGrid(0.0, dt, round(1 / dt)).times() for dt in (0.0002, 0.001, 0.005, 0.01)),
        powers, -np.nextafter(powers, np.inf), np.nextafter(powers, 0.0), switches, -switches,
        np.arange(5000.0), rng.integers(0, 2**53, 5000).astype(float), [2.0**53], special, -special,
    ])
    got = tables.float_rows([values]).decode().split("\n")
    want = [repr(v) for v in values.tolist()] + [""]
    assert len(got) == len(want)
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert not wrong, f"{len(wrong)} fields differ from repr, the first ones (got, repr): {wrong[:5]}"
    cols = [values[:999], None, values[999:1998][::-1], None]
    assert tables.float_rows(cols).decode() == _expect_rows(cols)
    assert tables.float_rows([values[:1], None]).decode() == _expect_rows([values[:1], None])
    assert tables.float_rows([values[:0]]) == b""


def _simulated(n_steps: int, noise: bool, grid: TimeGrid | None = None):
    params = dynamics.ModelParams(rho=-0.3, sigma0_sq=0.5, theta=0.4)
    grid = grid or TimeGrid(0.0, 0.0002, n_steps)
    z = sample_subordinator_path(SubordinatorSpec(1.0, 1.0), params.lam, grid, seed=(5, 0))
    zb = sample_subordinator_path(SubordinatorSpec(2.0, 1.0), params.lam, grid, seed=(5, 1))
    var_path = dynamics.simulate_variance_path(params, z, zb)
    price = dynamics.simulate_log_price(params, var_path, z, zb, seed=5)
    if noise:
        price = dynamics.apply_noise(price, dynamics.NoiseSpec(std=0.01), seed=5)
    return var_path, price


def test_kernel_certifies_nearly_every_path_value():
    var_path, price = _simulated(5000, noise=True)
    values = np.concatenate([var_path.grid.times(), var_path.values, price.x_true, price.x_observed,
                             price.noise])
    _, _, odd = tables._shortest(values.view(np.uint64))
    assert odd.size < 0.01 * values.size


@pytest.mark.parametrize("rows", [2, 1023, 1024, 1025])
@pytest.mark.parametrize("noise", [False, True])
def test_path_csv_at_chunk_edges(rows, noise):
    """Whole path CSVs one row short of, at and one past a chunk, against
    the one-repr-a-cell writer (a grid has at least two rows)."""
    var_path, price = _simulated(rows - 1, noise)
    got, want = io.StringIO(), io.StringIO()
    dynamics.write_path_csv(got, var_path, price)
    brute_force_write_path_csv(want, var_path, price)
    assert got.getvalue() == want.getvalue()
    assert dynamics.dumps_path_csv(var_path, price) == want.getvalue()


def _assert_same_text(got: str, want: str) -> None:
    """Fail naming the first line that differs, where pytest's own diff of
    two path CSVs would run for minutes."""
    if got != want:
        pairs = enumerate(zip(got.split("\n"), want.split("\n")), 1)
        pytest.fail(f"first difference (line, got, want): "
                    f"{next((p for p in pairs if p[1][0] != p[1][1]), 'one text ends early')}")


def test_path_csv_on_grids_in_turn():
    """The ``t`` column kept for one grid is never written for another: paths
    on two grids that differ only in their origin, in turn, then on a grid
    equal to the first but built again, all against the one-repr-a-cell
    writer."""
    first = TimeGrid(0.0, 0.0002, 1500)
    for grid in (first, TimeGrid(0.5, 0.0002, 1500), first, TimeGrid(0.0, 0.0002, 1500)):
        for noise in (False, True):
            var_path, price = _simulated(grid.n_steps, noise, grid)
            want = io.StringIO()
            brute_force_write_path_csv(want, var_path, price)
            _assert_same_text(dynamics.dumps_path_csv(var_path, price), want.getvalue())


def test_path_csv_on_grids_from_threads():
    """Threads writing paths on two grids at once, with the interpreter
    switching between them every microsecond, each write their own grid's
    ``t`` column."""
    grids = (TimeGrid(0.0, 0.0002, 1500), TimeGrid(0.5, 0.0002, 1500))
    paths = [_simulated(grid.n_steps, True, grid) for grid in grids]
    wants = []
    for var_path, price in paths:
        wants.append(io.StringIO())
        brute_force_write_path_csv(wants[-1], var_path, price)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            right = list(pool.map(lambda k: dynamics.dumps_path_csv(*paths[k % 2]) == wants[k % 2].getvalue(),
                                  range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert right == [True] * 24
