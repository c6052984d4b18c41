import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgpoint import _passes
from kgpoint.cli import main
from kgpoint.io import fmt, read_state_csv, read_trace_csv, write_csv

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308 / 3, 1e308, -1.7976931348623157e308,
           1.0 / 3.0, 0.1, np.float64(-2.5e-300), np.float32(0.1)]


def reference_bytes(header, rows) -> bytes:
    """What csv.writer writes with fmt applied to every value: the byte contract of write_csv."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode()


def test_write_csv_bytes_match_csv_writer_and_fmt(tmp_path):
    rows = np.column_stack((SPECIAL, SPECIAL[::-1]))
    path = tmp_path / "special.csv"
    write_csv(path, ["a", "b"], rows)
    assert path.read_bytes() == reference_bytes(["a", "b"], rows)


@pytest.mark.parametrize("rows", [[[0.5, 1.0]], np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.float32),
                                  np.ones(2), zip([0.5], [1.0])], ids=["list", "int64", "float32", "1-d", "zip"])
def test_write_csv_refuses_rows_other_than_a_2d_float64_array_before_writing(tmp_path, rows):
    with pytest.raises(ValueError, match="^the CSV formatter needs a 2-d float64 array, not "):
        write_csv(tmp_path / "out" / "rows.csv", ["a", "b"], rows)
    assert not (tmp_path / "out").exists()


def test_write_csv_array_rows_match_csv_writer_and_fmt(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(50, 5)) * 10.0 ** rng.integers(-300, 300, size=(50, 5))
    rows[0] = [-0.0, math.nan, math.inf, -math.inf, 5e-324]
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
    write_csv(path, ["t", "psi1_re", "psi1_im"], np.empty((0, 3)))
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


def compiled_text(values) -> list[str]:
    """Each value's text from the compiled formatter, formatted as rows of up to five values."""
    flat = np.asarray(values, dtype=float).ravel()
    rows = np.concatenate([flat, np.zeros(-len(flat) % 5)]).reshape(-1, 5)
    buf = io.BytesIO()
    _passes.csv_writer(rows)(buf)
    return buf.getvalue().decode().replace("\r\n", ",").split(",")[:len(flat)]


def mismatches(values) -> list[tuple[str, str]]:
    values = np.asarray(values, dtype=float).ravel()
    expected = ["%.17g" % v for v in values.tolist()]
    return [(got, want) for got, want in zip(compiled_text(values), expected) if got != want]


def test_formatter_matches_python_on_random_bit_patterns():
    # both signs, every exponent, subnormals (1 in 2048) and NaN payloads alike
    bits = np.random.default_rng(25).integers(0, 2**64, size=2**20, dtype=np.uint64)
    assert mismatches(bits.view(np.float64)) == []


def test_formatter_matches_python_on_powers_of_two_and_ten():
    twos = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    tens = [float(f"1e{k}") for k in range(-323, 309)]  # every power of ten that rounds to a nonzero float
    neighbours = np.concatenate([np.nextafter(tens, 0.0), np.nextafter(tens, math.inf)])
    assert mismatches(twos + [-v for v in twos]) == []
    assert mismatches(tens + list(neighbours)) == []


def test_formatter_matches_python_on_integers_and_quarter_steps():
    assert mismatches(np.arange(-10**5, 10**5 + 1)) == []
    # 17 digits of 2^50 + j / 4 end at the tenths: each .25 and .75 is an exact tie, rounded half to even,
    # which the integer digits cannot tell from a value next to it and leave to the exact fallback
    quarters = 2.0**50 + np.arange(4 * 10**4) / 4
    assert mismatches(quarters) == [] and mismatches(-quarters) == []
    assert compiled_text([1234567890123456.75, 1125899906842624.25]) == ["1234567890123456.8", "1125899906842624.2"]


def test_formatter_prints_signed_zeros_infinities_and_every_nan_as_python():
    negative_nan = -np.abs(np.float64(math.nan))
    assert np.signbit(negative_nan)
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, negative_nan, 5e-324, -5e-324, 1.7976931348623157e308]
    assert compiled_text(values) == ["0", "-0", "inf", "-inf", "nan", "nan", "4.9406564584124654e-324",
                                     "-4.9406564584124654e-324", "1.7976931348623157e+308"]


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_formatter_matches_python_on_any_floats(values):
    assert mismatches(values) == []


def test_the_power_table_is_ten_to_each_k():
    table = _passes._powers_of_ten()
    assert len(table) == len(_passes.POW10_K)
    for k, entry in zip(_passes.POW10_K, table):
        t = entry.hi << 64 | entry.lo
        assert 2**127 <= t < 2**128, k
        # t 2^exp2 <= 10^k < (t + 1) 2^exp2, each power written as a fraction of integers and cross-multiplied
        ten, ten_den = (10**k, 1) if k >= 0 else (1, 10**-k)
        two, two_den = (2**entry.exp2, 1) if entry.exp2 >= 0 else (1, 2**-entry.exp2)
        assert t * two * ten_den <= ten * two_den < (t + 1) * two * ten_den, k


def test_write_csv_formats_a_float_array_in_blocks_whatever_its_layout(tmp_path):
    # more rows than one block holds, a Fortran-ordered and a strided array, and rows of no values
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(5000, 3)) * 10.0 ** rng.integers(-30, 30, size=(5000, 3))
    path = tmp_path / "blocks.csv"
    for array in (rows, np.asfortranarray(rows), rows[::-2, ::2], np.empty((3, 0))):
        header = [f"c{j}" for j in range(array.shape[1])]
        write_csv(path, header, array)
        assert path.read_bytes() == reference_bytes(header, array)
