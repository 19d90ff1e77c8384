"""Two earlier front ends: the references for the blocked, in-place one.

`amplitude_spectrum` and `mfcc` are the front end as it was before
`speechground.dsp._frame_spectra` and the block loop replaced it: one
full-length 1-D `fft` per Hann-weighted, zero-padded frame, then one
mel matvec, log10 and DCT matvec per frame.  `fft` here is the radix-2
transform of `tests.fft_reference`, so the blocked path is never checked
against its own FFT.

`blocked_mfcc` and `blocked_frame_spectra` are the blocked front end as
it was before its frames became a strided view and its real split ran
in place: an index gather per block, a fresh padded array and a fresh
array per split operation, and the four-step FFT with its right factor
as a stacked product (`tests.fft_reference.stacked_fft`).  The current
code must give their bits exactly.

All are kept unchanged so the tests can compare them with the current
code.  Nothing in `src/` imports this module.
"""

import numpy as np

from speechground.dsp import (_BLOCK_FRAMES, EPS_AMP, FeatureMatrix, FrameSpec,
                              MelFilterbank, Waveform, _dct_basis, _hann_vector,
                              frame_count, pre_emphasize)
from speechground.errors import DataError, UsageError
from tests.fft_reference import fft, stacked_fft


def amplitude_spectrum(frame: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """One-sided FFT magnitudes of a Hann-weighted, zero-padded frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (spec.window_samples,):
        raise DataError(
            f"frame length {frame.shape} does not match window_samples "
            f"{spec.window_samples}"
        )
    padded = np.zeros(spec.fft_size, dtype=np.float64)
    padded[: spec.window_samples] = frame * _hann_vector(spec.fft_size)[: spec.window_samples]
    return np.abs(fft(padded)[: spec.num_bins])


def mfcc(w: Waveform, spec: FrameSpec, fb: MelFilterbank, num_cepstra: int = 13) -> FeatureMatrix:
    """Mel-frequency cepstra of an utterance, one row per frame."""
    if w.sample_rate != 16000:
        raise DataError(f"front-end expects 16000 Hz input, got {w.sample_rate}")
    if fb.fft_size != spec.fft_size:
        raise UsageError("filterbank geometry does not match the frame spec")
    if num_cepstra < 1 or num_cepstra > fb.num_filters:
        raise UsageError(
            f"num_cepstra must be in 1..{fb.num_filters}, got {num_cepstra}"
        )
    x = pre_emphasize(w).samples
    t_total = frame_count(x.size, spec)
    basis = _dct_basis(num_cepstra, fb.num_filters)
    out = np.empty((t_total, num_cepstra))
    for t in range(t_total):
        start = t * spec.step_samples
        spectrum = amplitude_spectrum(x[start: start + spec.window_samples], spec)
        energies = np.maximum(fb.weights @ spectrum, EPS_AMP)
        out[t] = basis @ np.log10(energies)
    return FeatureMatrix(out)


def _split_tables(fft_size: int, window_samples: int) -> tuple[np.ndarray, ...]:
    """Hann slice, gather indices k mod m and -k mod m, and the twiddle W^k."""
    half = fft_size // 2
    k = np.arange(half + 1)
    return (_hann_vector(fft_size)[:window_samples], k % half, -k % half,
            np.exp(-2j * np.pi * k / fft_size))


def blocked_frame_spectra(frames: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """One-sided FFT magnitudes of Hann-weighted, zero-padded frames, by the real split."""
    window, fwd, rev, twiddle = _split_tables(spec.fft_size, spec.window_samples)
    padded = np.zeros((frames.shape[0], spec.fft_size))
    padded[:, : spec.window_samples] = frames * window
    z = stacked_fft(padded.view(np.complex128))
    zk = z[:, fwd]
    zr = np.conj(z[:, rev])
    return np.abs(0.5 * (zk + zr) - 0.5j * twiddle * (zk - zr))


def blocked_mfcc(w: Waveform, spec: FrameSpec, fb: MelFilterbank,
                 num_cepstra: int = 13) -> FeatureMatrix:
    """Mel-frequency cepstra of an utterance, `_BLOCK_FRAMES` frames per block."""
    if w.sample_rate != 16000:
        raise DataError(f"front-end expects 16000 Hz input, got {w.sample_rate}")
    if fb.fft_size != spec.fft_size:
        raise UsageError("filterbank geometry does not match the frame spec")
    if num_cepstra < 1 or num_cepstra > fb.num_filters:
        raise UsageError(
            f"num_cepstra must be in 1..{fb.num_filters}, got {num_cepstra}"
        )
    x = pre_emphasize(w).samples
    t_total = frame_count(x.size, spec)
    basis = _dct_basis(num_cepstra, fb.num_filters)
    offsets = np.arange(spec.window_samples)
    out = np.empty((t_total, num_cepstra))
    for first in range(0, t_total, _BLOCK_FRAMES):
        starts = np.arange(first, min(first + _BLOCK_FRAMES, t_total)) * spec.step_samples
        spectra = blocked_frame_spectra(x[starts[:, None] + offsets], spec)
        energies = np.maximum(spectra @ fb.weights.T, EPS_AMP)
        out[first: first + starts.size] = np.log10(energies) @ basis.T
    return FeatureMatrix(out)
