"""Four-step FFT against the radix-2 reference, numpy, a naive DFT and closed forms.

`numpy.fft` appears here only as an oracle; `src/` must not use it.
"""

import pathlib
import re

import numpy as np
import pytest

from speechground import fft as fft_module
from speechground.errors import UsageError
from speechground.fft import fft
from tests.fft_reference import fft as radix2_fft
from tests.fft_reference import stacked_fft

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LENGTHS = [2 ** bits for bits in range(15)]


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


@pytest.mark.parametrize("n, rows", [(256, 1), (256, 2), (256, 31), (256, 32), (256, 33),
                                     (2 ** 14, 3), (2, 33)])
def test_each_row_equals_its_1d_transform_bit_for_bit(n, rows):
    # n = 2^14 recurses on its right factor; n = 2 keeps one product per row
    rng = np.random.default_rng(n + rows)
    x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    got = fft(x)
    assert np.array_equal(got, stacked_fft(x))
    for row in range(rows):
        assert np.array_equal(got[row], fft(x[row]))


def test_rejects_non_power_of_two():
    for n in (0, 3, 6, 100):
        with pytest.raises(UsageError):
            fft(np.zeros(n))


def test_length_check_reads_the_last_axis():
    for shape in ((4, 6), (2, 8, 3), (8, 0)):
        with pytest.raises(UsageError):
            fft(np.zeros(shape))
    assert fft(np.zeros((6, 4))).shape == (6, 4)


def assert_rows_close(got, want, x):
    """max |got - want| <= 1e-12 * max(1, max |x|) on every row."""
    assert got.shape == want.shape == x.shape
    err = np.max(np.abs(got - want), axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(x), axis=-1))
    assert np.all(err <= 1e-12 * scale), np.max(err / scale)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["B", "B1xB2"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_matches_radix2_and_numpy_across_lengths(kind, lead):
    rng = np.random.default_rng(6)
    # up and back down, so each length is also served from the table cache
    for n in LENGTHS + LENGTHS[::-1]:
        x = rng.standard_normal((*lead, n))
        if kind == "complex":
            x = x + 1j * rng.standard_normal((*lead, n))
        got = fft(x)
        assert got.dtype == np.complex128
        assert_rows_close(got, radix2_fft(x), x)
        assert_rows_close(got, np.fft.fft(x), x)


def test_as_accurate_as_radix2():
    # entries read from an exact-angle root table keep the error near
    # the butterfly's: over 30 seeds the ratio stays below 1.6 from
    # n = 64 up, while tables built from raw j*k angles give 6.5x at
    # n = 64 and more beyond
    rng = np.random.default_rng(7)
    for n in LENGTHS[6:]:
        x = rng.uniform(-1, 1, (4, n)) + 1j * rng.uniform(-1, 1, (4, n))
        want = np.fft.fft(x)
        err = np.max(np.abs(fft(x) - want))
        assert err <= 2.5 * np.max(np.abs(radix2_fft(x) - want)), n


def test_dft_tables_stay_small():
    fft(np.zeros(2 ** 14))
    for n1, n2, f1, twiddle, f2 in fft_module._tables.values():
        assert f1.shape == (n1, n1) and twiddle.shape == (n1, n2)
        assert n1 <= 64 and (f2 is None or f2.shape == (n2, n2) and n2 <= 64)


# np.fft / numpy.fft in any form, or fft imported from numpy
NUMPY_FFT = re.compile(r"\b(np|numpy)\.fft\b"
                       r"|from\s+numpy\s+import\s+(\([^)]*|[^\n]*)\bfft\b")


def test_numpy_fft_pattern():
    for used in ("np.fft.rfft(x)", "import numpy.fft", "from numpy.fft import rfft",
                 "from numpy import fft", "from numpy import linalg, fft as f",
                 "from numpy import (\n    linalg,\n    fft,\n)"):
        assert NUMPY_FFT.search(used), used
    for clean in ("from .fft import fft", "from numpy import linalg\nfft(x)",
                  "np.fftshift", "mynp.fft"):
        assert not NUMPY_FFT.search(clean), clean


def test_src_does_not_use_numpy_fft():
    # numpy's FFT is the benchmark's independent rfft oracle
    offenders = [str(path) for path in SRC.rglob("*.py")
                 if NUMPY_FFT.search(path.read_text(encoding="utf-8"))]
    assert list(SRC.rglob("fft.py")) and offenders == []
