"""Reference text-matrix reader: one numpy row per line, then a stack.

This is `speechground.textmatrix.read_text_matrix` as it was before the
reader that parses the whole body in one call.  It is kept as the exact
oracle for that reader: every file gives the same array or the same
`DataError` message.
"""

import numpy as np

from speechground.errors import DataError


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
        rows = []
        for i in range(t_total):
            line = fh.readline()
            if not line:
                raise DataError(f"{kind} file ends after {i} of {t_total} rows")
            try:
                row = np.array([float(v) for v in line.split()])
            except ValueError as exc:
                raise DataError(f"{kind} row {i}: {exc}") from exc
            if row.size != k:
                raise DataError(f"{kind} row {i} has {row.size} values, expected {k}")
            rows.append(row)
        if fh.read().strip():
            raise DataError(f"{kind} file has content after its {t_total} rows")
    return np.vstack(rows) if rows else np.zeros((0, k))
