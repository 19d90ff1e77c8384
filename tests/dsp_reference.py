"""Per-frame MFCC loop: the reference for the blocked front end.

These are `amplitude_spectrum` and `mfcc` as they were before
`speechground.dsp._frame_spectra` and the block loop replaced them: one
full-length 1-D `fft` per Hann-weighted, zero-padded frame, then one
mel matvec, log10 and DCT matvec per frame.  They are kept unchanged so
the tests can compare the two; `fft` is the radix-2 transform of
`tests.fft_reference`, so the blocked path is never checked against its
own FFT.  Nothing in `src/` imports this module.
"""

import numpy as np

from speechground.dsp import (EPS_AMP, FeatureMatrix, FrameSpec, MelFilterbank,
                              Waveform, _dct_basis, _hann_vector, frame_count,
                              pre_emphasize)
from speechground.errors import DataError, UsageError
from tests.fft_reference import fft


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
    if fb.sample_rate != w.sample_rate or fb.fft_size != spec.fft_size:
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
