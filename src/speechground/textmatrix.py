"""Text matrix files: a "T K" header line, then T rows of K reals at %.17g."""

import numpy as np

from .errors import DataError


def write_text_matrix(path: str, data: np.ndarray) -> None:
    row_format = " ".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{data.shape[0]} {data.shape[1]}\n")
        fh.writelines(row_format % tuple(row) for row in data.tolist())


def read_text_matrix(path: str, kind: str) -> np.ndarray:
    """Parse a (T, K) matrix with K >= 1; `kind` names the file in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{kind} header must be two integers 'T K'")
        try:
            t_total, k = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"bad {kind} header: {exc}") from exc
        if t_total < 0 or k < 1:
            raise DataError(f"bad {kind} shape {t_total} x {k}")
        lines = fh.readlines()  # each ends in a newline but perhaps the last: none is empty
    trailing = "".join(lines[t_total:]).strip()
    if lines and lines[0].split() and not trailing:  # loadtxt warns on a body with no token
        try:  # numpy's C reader skips blank lines and refuses some tokens float() takes
            data = np.loadtxt(lines[:t_total], comments=None, ndmin=2)
            if data.shape == (t_total, k):
                return data
        except ValueError:
            pass
    rows = []
    for i in range(t_total):  # the array loadtxt refused, or the file's first fault
        if i == len(lines):
            raise DataError(f"{kind} file ends after {i} of {t_total} rows")
        try:
            rows.append([float(v) for v in lines[i].split()])
        except ValueError as exc:
            raise DataError(f"{kind} row {i}: {exc}") from exc
        if len(rows[i]) != k:
            raise DataError(f"{kind} row {i} has {len(rows[i])} values, expected {k}")
    if trailing:
        raise DataError(f"{kind} file has content after its {t_total} rows")
    return np.array(rows, dtype=float).reshape(t_total, k)
