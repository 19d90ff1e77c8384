"""Iterative radix-2 FFT in double precision, along the last axis.

Transform length must be a power of two; the framing config enforces
that upstream, so the check here is a guard against direct misuse.
Leading axes are independent rows that share each butterfly stage, so
a (B, n) block costs one numpy op per stage rather than B of them.  On
1-D input every operation is the plain single-signal transform.
"""

import numpy as np

from .errors import UsageError

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
