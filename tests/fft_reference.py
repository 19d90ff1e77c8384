"""Two earlier FFTs: the references for the four-step transform.

`fft` is `speechground.fft.fft` as it was before the four-step
transform replaced it: a bit-reversal gather, then log2(n) butterfly
stages, each one numpy op over every leading-axis row.

`stacked_fft` is the four-step transform as it was before its right
factor became one product over all rows: there it was a stacked
product, one (n1, n2) @ F_n2 product per row.  The current transform
must give its bits exactly.

Both are kept unchanged so the tests can compare them with the current
code.  Nothing in `src/` imports this module.
"""

import numpy as np

from speechground.errors import UsageError
from speechground.fft import _four_step_tables

_bitrev_cache: dict[int, np.ndarray] = {}


def _bit_reversal(n: int) -> np.ndarray:
    """Permutation that orders indices by reversed bit pattern."""
    perm = _bitrev_cache.get(n)
    if perm is None:
        bits = n.bit_length() - 1
        idx = np.arange(n, dtype=np.int64)
        rev = np.zeros(n, dtype=np.int64)
        for _ in range(bits):
            rev = (rev << 1) | (idx & 1)
            idx >>= 1
        perm = rev
        _bitrev_cache[n] = perm
    return perm


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
    out = x[..., _bit_reversal(n)].astype(np.complex128)
    lead = out.shape[:-1]
    span = 2
    while span <= n:
        half = span // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / span)
        view = out.reshape(*lead, -1, span)
        even = view[..., :half].copy()
        odd = view[..., half:] * twiddle
        view[..., :half] = even + odd
        view[..., half:] = even - odd
        span *= 2
    return out


def stacked_fft(x: np.ndarray) -> np.ndarray:
    """The four-step transform with its right factor stacked, one product per row."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise UsageError(f"fft length must be a power of two, got {n}")
    n1, n2, f1, twiddle, f2 = _four_step_tables(n)
    lead = x.shape[:-1]
    c = (f1 @ x.reshape(*lead, n1, n2)) * twiddle
    c = c @ f2 if f2 is not None else stacked_fft(c)
    return c.swapaxes(-1, -2).reshape(*lead, n)
