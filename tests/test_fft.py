"""Radix-2 FFT against a naive DFT oracle and closed-form cases."""

import numpy as np
import pytest

from speechground.errors import UsageError
from speechground.fft import fft


def naive_dft(x):
    """Direct O(n^2) evaluation of the transform definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


def test_impulse_is_flat():
    x = np.zeros(8)
    x[0] = 1.0
    np.testing.assert_allclose(fft(x), np.ones(8), atol=1e-12)


def test_constant_concentrates_at_dc():
    x = np.ones(16)
    expected = np.zeros(16, dtype=complex)
    expected[0] = 16.0
    np.testing.assert_allclose(fft(x), expected, atol=1e-12)


def test_single_tone_hits_one_bin():
    n = 64
    for k in (1, 5, 31):
        x = np.exp(2j * np.pi * k * np.arange(n) / n)
        spec = np.abs(fft(x))
        assert abs(spec[k] - n) < 1e-9
        spec[k] = 0.0
        assert np.max(spec) < 1e-9


def test_matches_naive_dft_across_sizes():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), naive_dft(x),
                                   rtol=1e-10, atol=1e-9)


def test_matches_naive_dft_real_signals():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = 2 ** rng.integers(1, 9)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), naive_dft(x),
                                   rtol=1e-10, atol=1e-9)


def test_linearity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(128)
    y = rng.standard_normal(128)
    lhs = fft(2.5 * x - 0.75 * y)
    rhs = 2.5 * fft(x) - 0.75 * fft(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_parseval_energy():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256)
    spec = fft(x)
    time_energy = np.sum(x ** 2)
    freq_energy = np.sum(np.abs(spec) ** 2) / 256
    assert abs(time_energy - freq_energy) < 1e-9


def test_real_input_conjugate_symmetry():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64)
    spec = fft(x)
    for k in range(1, 64):
        assert abs(spec[k] - np.conj(spec[64 - k])) < 1e-10


def test_leading_axes_transform_each_row():
    rng = np.random.default_rng(5)
    for shape in ((7, 64), (3, 4, 32), (1, 1), (2, 5, 1)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = fft(x)
        assert got.shape == shape
        for idx in np.ndindex(*shape[:-1]):
            assert np.array_equal(got[idx], fft(x[idx]))
            np.testing.assert_allclose(got[idx], naive_dft(x[idx]),
                                       rtol=1e-10, atol=1e-9)


def test_rejects_non_power_of_two():
    for n in (0, 3, 6, 100):
        with pytest.raises(UsageError):
            fft(np.zeros(n))


def test_length_check_reads_the_last_axis():
    for shape in ((4, 6), (2, 8, 3), (8, 0)):
        with pytest.raises(UsageError):
            fft(np.zeros(shape))
    assert fft(np.zeros((6, 4))).shape == (6, 4)
