"""Iterative radix-2 FFT: the reference for the four-step transform.

This is `speechground.fft.fft` as it was before the four-step
transform replaced it: a bit-reversal gather, then log2(n) butterfly
stages, each one numpy op over every leading-axis row.  It is kept
unchanged so the tests can compare the two.  Nothing in `src/` imports
this module.
"""

import numpy as np

from speechground.errors import UsageError

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
