"""Four-step FFT in double precision, along the last axis.

Transform length must be a power of two; the framing config enforces
that upstream, so the check here is a guard against direct misuse.
With n = n1*n2, each row is viewed as an (n1, n2) matrix A with
A[a, b] = x[a*n2 + b].  Then X[k1 + n1*k2] = C[k1, k2] for
C = ((F_n1 @ A) * T) @ F_n2, where F_m is the m-point DFT matrix and
T[k1, b] = exp(-2i*pi*k1*b/n) (Bailey, "FFTs in external or
hierarchical memory", 1990).  Swapping the last two axes of C gives
natural order.

Neither factor exceeds `_MAX_FACTOR` points: a longer right factor is
applied by a recursive `fft` along the last axis, so every length costs
O(n log n) and no table is larger than `_MAX_FACTOR` squared.  Every
table entry is read from a root table exp(-2i*pi*r/m), r < m, at
r = (j*k) mod m, so no angle is formed from a large product.

The left factor is a stacked product, one (n1, n1) @ (n1, n2) product
per row.  The right factor is one (rows*n1, n2) @ F_n2 gemm, whose
entries do not depend on the row count, so each row of a (..., n) call
still equals the 1-D transform of that row bit for bit (the tests check
it).  At n <= 2 (n1 = 1) a 1-D call's right factor is a one-row
product, which numpy sends to gemv and which rounds unlike gemm, so
there that factor stays one product per row.
"""

import numpy as np

from .errors import UsageError

_MAX_FACTOR = 64

# n -> (n1, n2, F_n1, T, F_n2 or None when n2 recurses)
_tables: dict[int, tuple] = {}


def _roots(m: int) -> np.ndarray:
    """exp(-2i*pi*r/m) for r = 0..m-1."""
    return np.exp(-2j * np.pi * np.arange(m) / m)


def _dft_matrix(m: int) -> np.ndarray:
    """The m-point DFT matrix, F[j, k] = exp(-2i*pi*j*k/m)."""
    idx = np.arange(m)
    return _roots(m)[np.outer(idx, idx) % m]


def _four_step_tables(n: int) -> tuple:
    tables = _tables.get(n)
    if tables is None:
        n1 = min(1 << (n.bit_length() - 1) // 2, _MAX_FACTOR)
        n2 = n // n1
        twiddle = _roots(n)[np.outer(np.arange(n1), np.arange(n2)) % n]
        tables = (n1, n2, _dft_matrix(n1), twiddle,
                  _dft_matrix(n2) if n2 <= _MAX_FACTOR else None)
        _tables[n] = tables
    return tables


def fft(x: np.ndarray) -> np.ndarray:
    """Discrete Fourier transform along the last axis, length a power of two.

    Args:
        x: real or complex samples, shape (..., n).

    Returns:
        Complex spectra, shape (..., n), X[k] = sum_t x[t] exp(-2i*pi*k*t/n)
        for each row.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise UsageError(f"fft length must be a power of two, got {n}")
    n1, n2, f1, twiddle, f2 = _four_step_tables(n)
    lead = x.shape[:-1]
    c = (f1 @ x.reshape(*lead, n1, n2)) * twiddle
    if f2 is None:
        c = fft(c)
    elif n1 == 1:
        c = c @ f2
    else:
        c = (c.reshape(-1, n2) @ f2).reshape(*lead, n1, n2)
    return c.swapaxes(-1, -2).reshape(*lead, n)
