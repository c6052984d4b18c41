"""CSV and JSON writers with full-precision floats, and the CSV readers.

All floats are printed with 17 significant digits so every emitted value
round-trips exactly through text, making runs reproducible across tools.

Byte contract: ``write_csv`` writes the bytes of ``csv.writer`` fed with
``fmt`` of every value (``%.17g``, CRLF line ends).  Its rows are a 2-d
float64 array, formatted in the compiled library (``_passes.csv_writer``),
which loads before the file or its directory is made.  The readers parse
with ``np.loadtxt`` to the values ``float()`` gives, and reject a row whose
length differs from the header's.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .simulator import FieldState, Grid, ObserverSeries
from .spectral import SpectrumEstimate

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "series_to_csv",
    "state_to_csv",
    "spectrum_to_csv",
    "read_trace_csv",
    "read_state_csv",
]


def fmt(value) -> str:
    """The CSV text of one value: an integer in decimal, any other number as ``%.17g``."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    """Header, then one line per row of rows, a 2-d float64 array such as the column stacks below.

    The rows are formatted in the compiled library; other rows are a
    ValueError, and a library that cannot be built an OSError, before
    anything is written.
    """
    from . import _passes  # on the first write, so importing io loads no library

    write_floats = _passes.csv_writer(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()
        write_floats(fh.buffer)


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def series_to_csv(series: ObserverSeries, path):
    radii = sorted(series.seminorms)
    n_osc = series.traces_psi.shape[1] if series.traces_psi.size else 0
    header = ["t", "H", "Q"]
    header += [f"seminorm_R{r:g}" for r in radii]
    columns = [series.times, series.energy, series.charge] + [series.seminorms[r] for r in radii]
    for j in range(n_osc):
        header += [f"psi{j + 1}_re", f"psi{j + 1}_im", f"pi{j + 1}_re", f"pi{j + 1}_im"]
        zp, zq = series.traces_psi[:, j], series.traces_pi[:, j]
        columns += [zp.real, zp.imag, zq.real, zq.imag]
    write_csv(path, header, np.column_stack(columns))


def state_to_csv(grid: Grid, state: FieldState, path):
    columns = (grid.x, state.psi.real, state.psi.imag, state.pi.real, state.pi.imag)
    write_csv(path, ["x", "psi_re", "psi_im", "pi_re", "pi_im"], np.column_stack(columns))


def spectrum_to_csv(estimate: SpectrumEstimate, path):
    write_csv(path, ["freq", "magnitude"], np.column_stack((estimate.freqs, estimate.magnitudes)))


def _read_columns(path) -> dict[str, np.ndarray]:
    """The columns of a CSV by header name; a malformed file raises ValueError with a one-line reason."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"CSV {path} is empty")
        with warnings.catch_warnings():
            # a header-only file is an empty table, not a problem
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as err:
                raise ValueError(f"CSV {path}: {str(err).split(';')[0]}") from None
    if not data.size:
        data = np.empty((0, len(header)))
    elif data.shape[1] != len(header):
        raise ValueError(f"CSV {path}: rows have {data.shape[1]} values, the header names {len(header)}")
    return dict(zip(header, data.T))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with both parts exactly as given.

    re + 1j * im would turn a -0.0 real part into 0.0, and an infinite
    imaginary part into a NaN real part.
    """
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def read_trace_csv(path, re_col: str = "psi1_re", im_col: str = "psi1_im"):
    """(times, complex trace) from a CSV with a time column named 't'."""
    cols = _read_columns(path)
    if "t" not in cols or re_col not in cols or im_col not in cols:
        raise ValueError(f"trace CSV must have columns 't', '{re_col}', '{im_col}'")
    return cols["t"], _complex(cols[re_col], cols[im_col])


def read_state_csv(path):
    """(x, psi, pi) arrays from a field snapshot CSV."""
    cols = _read_columns(path)
    for name in ("x", "psi_re", "psi_im", "pi_re", "pi_im"):
        if name not in cols:
            raise ValueError(f"state CSV missing column '{name}'")
    return cols["x"], _complex(cols["psi_re"], cols["psi_im"]), _complex(cols["pi_re"], cols["pi_im"])
