"""Walk a waveform through the cepstral front end, step by step."""

import numpy as np

from speechground.dsp import (SAMPLE_RATE, FrameSpec, MaskSpec, Waveform,
                              amplitude_spectrum, hz_to_mel, mel_filterbank, mfcc,
                              normalize_wave, pre_emphasize, spec_augment)

rng = np.random.default_rng(0)

# One second of a 440 Hz tone with a little noise, at the front end's
# fixed 16 kHz rate.
sr = SAMPLE_RATE
t = np.arange(sr) / sr
wave = Waveform(0.6 * np.sin(2 * np.pi * 440.0 * t)
                + 0.01 * rng.standard_normal(sr), sr)

# Default geometry: 25 ms windows, 10 ms hops, 512-point transform.
spec = FrameSpec()
print(f"frames of {spec.window_samples} samples every {spec.step_samples}, "
      f"{spec.num_bins} spectrum bins")

# The first analysis frame: normalize, pre-emphasize, then look at the
# Hann-weighted amplitude spectrum.  The 440 Hz tone should dominate a
# bin near 440 / (sr / fft_size) = 14.
frame = pre_emphasize(normalize_wave(wave)).samples[:spec.window_samples]
amps = amplitude_spectrum(frame, spec)
peak = int(np.argmax(amps))
print(f"spectral peak at bin {peak} = {peak * sr / spec.fft_size:.0f} Hz")

# The mel axis compresses high frequencies; equal mel steps get wider
# in hertz as you go up.
for hz in (100.0, 440.0, 1000.0, 4000.0, 8000.0):
    print(f"  {hz:6.0f} Hz -> {hz_to_mel(hz):8.2f} mel")

# Full pipeline: 26 triangular filters, 13 cepstra per frame.
fb = mel_filterbank(spec, num_filters=26)
feats = mfcc(wave, spec, fb, num_cepstra=13)
print(f"mfcc matrix: {feats.num_frames} frames x {feats.dim} coefficients")
print(f"c0 range {feats.data[:, 0].min():.2f} .. {feats.data[:, 0].max():.2f}")

# Masking for augmentation is a pure function of (features, MaskSpec),
# so the same seed always produces the same masked matrix.
masks = MaskSpec(max_time_mask=12, max_freq_mask=3,
                 num_time_masks=2, num_freq_masks=2, seed=7)
once = spec_augment(feats, masks)
again = spec_augment(feats, masks)
print(f"masked cells: {int(np.sum(once.data != feats.data))}, "
      f"reproducible: {np.array_equal(once.data, again.data)}")
