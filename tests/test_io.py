import csv
import io
import math

import numpy as np
import pytest

from kgpoint.cli import main
from kgpoint.io import fmt, read_state_csv, read_trace_csv, write_csv

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308 / 3, 1e308, -1.7976931348623157e308,
           1.0 / 3.0, 0.1, np.float64(-2.5e-300), np.float32(0.1), 1, -7, 10**20, np.int64(-(2**62)), True, np.True_]


def reference_bytes(header, rows) -> bytes:
    """What csv.writer writes with fmt applied to every value: the byte contract of write_csv."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode()


def test_write_csv_bytes_match_csv_writer_and_fmt(tmp_path):
    rows = [SPECIAL[i:i + 4] for i in range(0, len(SPECIAL), 4)]  # ragged last row included
    path = tmp_path / "mixed.csv"
    write_csv(path, ["a", "b", "c", "d"], rows)
    assert path.read_bytes() == reference_bytes(["a", "b", "c", "d"], rows)


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_write_csv_array_rows_match_csv_writer_and_fmt(tmp_path, dtype):
    rng = np.random.default_rng(0)
    if dtype is float:
        rows = rng.normal(size=(50, 5)) * 10.0 ** rng.integers(-300, 300, size=(50, 5))
        rows[0] = [-0.0, math.nan, math.inf, -math.inf, 5e-324]
    else:
        rows = rng.integers(-(2**62), 2**62, size=(50, 5))
    path = tmp_path / "array.csv"
    write_csv(path, ["x", "a", "b", "c", "d"], rows)
    assert path.read_bytes() == reference_bytes(["x", "a", "b", "c", "d"], rows)
    write_csv(path, ["x", "a"], np.empty((0, 2)))
    assert path.read_bytes() == b"x,a\r\n"


def test_read_back_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    special = [v for v in SPECIAL if isinstance(v, float)]
    values = np.array(special + list(rng.normal(size=40) * 10.0 ** rng.integers(-320, 300, 40)))
    columns = (values, -values, values[::-1], values[::-1] * 0.5, values / 7.0)
    path = tmp_path / "state.csv"
    write_csv(path, ["x", "psi_re", "psi_im", "pi_re", "pi_im"], np.column_stack(columns))
    x, psi, pi = read_state_csv(path)
    text = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for got, j in ((x, 0), (psi.real, 1), (psi.imag, 2), (pi.real, 3), (pi.imag, 4)):
        expected = np.array([float(fields[j]) for fields in text])  # float() is the reference parser
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
        # and the text round-trips the written values, NaN aside
        finite = ~np.isnan(columns[j])
        assert got[finite].view(np.int64).tolist() == columns[j][finite].view(np.int64).tolist()


def test_header_only_trace_is_too_short(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "psi1_re", "psi1_im"], [])
    times, trace = read_trace_csv(path)
    assert times.shape == (0,) and trace.shape == (0,)
    assert main(["spectrum", "--trace", str(path), "--windows", "0:1", "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert "trace is too short" in err


@pytest.mark.parametrize("body", [
    "0,1,0,7\r\n0.5,1,0\r\n",   # the second row lacks only the unread column
    "0,1,0,7\r\n0.5,1,0,7,9\r\n",
    "0,1,0\r\n0.5,1,0\r\n",     # every row is one value short of the header
])
def test_ragged_trace_exits_two_with_one_line_reason(tmp_path, capsys, body):
    path = tmp_path / "trace.csv"
    path.write_bytes(("t,psi1_re,psi1_im,extra\r\n" + body).encode())
    with pytest.raises(ValueError):
        read_trace_csv(path)
    assert main(["spectrum", "--trace", str(path), "--windows", "0:1", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and str(path) in err and err.count("\n") == 1


def test_ragged_state_file_is_rejected(tmp_path):
    path = tmp_path / "state.csv"
    path.write_bytes(b"x,psi_re,psi_im,pi_re,pi_im\r\n0,1,0,0,0\r\n0.1,1,0,0\r\n")
    with pytest.raises(ValueError, match="columns changed"):
        read_state_csv(path)
