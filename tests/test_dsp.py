"""Front-end oracles: naive DFT, naive MFCC mirror, masking, file IO."""

import math

import numpy as np
import pytest

from speechground.dsp import (EPS_AMP, FeatureMatrix, FrameSpec, MaskSpec,
                              Waveform, amplitude_spectrum, frame_count,
                              hann_window, hz_to_mel, load_features,
                              mel_filterbank, mfcc, normalize_wave,
                              pre_emphasize, read_feature_binary,
                              read_feature_text, read_wav, spec_augment,
                              write_feature_binary, write_feature_text,
                              write_wav)
from speechground.errors import DataError, UsageError
from tests import dsp_reference
from tests.test_fft import naive_dft


def naive_amplitude_spectrum(frame, spec):
    """Mirror pipeline built from the scalar window and the naive DFT."""
    padded = np.zeros(spec.fft_size)
    for n in range(len(frame)):
        padded[n] = frame[n] * hann_window(n + 1, spec.fft_size)
    return np.abs(naive_dft(padded)[: spec.fft_size // 2 + 1])


def naive_mfcc(wave, spec, fb, num_cepstra):
    """Straight-line re-derivation of the cepstral pipeline."""
    x = np.diff(wave.samples)
    t_total = 0
    if x.size >= spec.window_samples:
        t_total = (x.size - spec.window_samples) // spec.step_samples + 1
    rows = []
    for t in range(t_total):
        seg = x[t * spec.step_samples: t * spec.step_samples + spec.window_samples]
        spectrum = naive_amplitude_spectrum(seg, spec)
        energies = fb.weights @ spectrum
        logs = np.log10(np.maximum(energies, EPS_AMP))
        row = np.empty(num_cepstra)
        for m in range(num_cepstra):
            row[m] = sum(logs[i] * math.cos(math.pi * m * (i + 0.5) / fb.num_filters)
                         for i in range(fb.num_filters))
        rows.append(row)
    return np.array(rows) if rows else np.zeros((0, num_cepstra))


class TestTypeValidation:
    def test_waveform(self):
        with pytest.raises(UsageError, match="waveform samples must be 1-D"):
            Waveform(np.zeros((2, 3)), 16000)
        with pytest.raises(DataError, match="waveform contains non-finite samples"):
            Waveform(np.array([0.0, np.nan]), 16000)
        with pytest.raises(UsageError, match="sample_rate must be positive, got 0"):
            Waveform(np.zeros(4), 0)

    def test_frame_and_mask_specs(self):
        with pytest.raises(UsageError, match="0 < step_samples <= window_samples"):
            FrameSpec(step_samples=500)
        with pytest.raises(UsageError, match="mask fields must be non-negative"):
            MaskSpec(max_time_mask=-1)

    def test_feature_matrix(self):
        with pytest.raises(UsageError, match="feature matrix must be 2-D"):
            FeatureMatrix(np.zeros(3))
        with pytest.raises(UsageError, match="at least one column"):
            FeatureMatrix(np.zeros((3, 0)))
        with pytest.raises(DataError, match="feature matrix contains non-finite values"):
            FeatureMatrix(np.array([[1.0, np.inf]]))


class TestNormalize:
    def test_constant_maps_to_zero(self):
        out = normalize_wave(Waveform(np.array([1.0, 1.0, 1.0, 1.0]), 16000))
        np.testing.assert_array_equal(out.samples, np.zeros(4))

    def test_two_point_case(self):
        out = normalize_wave(Waveform(np.array([0.0, 2.0]), 16000))
        np.testing.assert_allclose(out.samples, [-1.0, 1.0], atol=1e-12)

    def test_moments_after_normalization(self):
        rng = np.random.default_rng(42)
        out = normalize_wave(Waveform(rng.standard_normal(1000) * 3 + 7, 16000))
        assert abs(out.samples.mean()) < 1e-12
        assert abs(out.samples.var() - 1.0) < 1e-9

    def test_preserves_rate(self):
        out = normalize_wave(Waveform(np.array([0.0, 1.0]), 8000))
        assert out.sample_rate == 8000


class TestPreEmphasis:
    def test_constant_vanishes(self):
        out = pre_emphasize(Waveform(np.array([5.0, 5.0, 5.0]), 16000))
        np.testing.assert_array_equal(out.samples, [0.0, 0.0])

    def test_direct_difference(self):
        out = pre_emphasize(Waveform(np.array([0.0, 1.0, 3.0]), 16000))
        np.testing.assert_array_equal(out.samples, [1.0, 2.0])

    def test_alternating(self):
        out = pre_emphasize(Waveform(np.array([1.0, -1.0, 1.0, -1.0]), 16000))
        np.testing.assert_array_equal(out.samples, [-2.0, 2.0, -2.0])

    def test_too_short(self):
        with pytest.raises(DataError):
            pre_emphasize(Waveform(np.array([1.0]), 16000))


class TestHannWindow:
    def test_endpoints_are_zero(self):
        assert hann_window(1, 512) == 0.0
        assert abs(hann_window(512, 512)) < 1e-12

    def test_interior_matches_closed_form(self):
        expected = 0.5 - 0.5 * math.cos(2.0 * math.pi * 255 / 511)
        assert abs(hann_window(256, 512) - expected) < 1e-9
        assert abs(expected - 1.0) < 1e-4  # near the window peak

    def test_range_and_bounds(self):
        vals = [hann_window(n, 64) for n in range(1, 65)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        with pytest.raises(UsageError):
            hann_window(0, 64)
        with pytest.raises(UsageError):
            hann_window(65, 64)
        with pytest.raises(UsageError, match="window length must be >= 2, got 1"):
            hann_window(1, 1)


class TestAmplitudeSpectrum:
    def test_zero_frame(self):
        spec = FrameSpec()
        out = amplitude_spectrum(np.zeros(400), spec)
        assert out.shape == (257,)
        np.testing.assert_array_equal(out, np.zeros(257))

    def test_matches_naive_dft_on_random_frames(self):
        spec = FrameSpec(step_samples=32, window_samples=48, fft_size=64)
        rng = np.random.default_rng(7)
        for _ in range(200):
            frame = rng.standard_normal(48)
            got = amplitude_spectrum(frame, spec)
            want = naive_amplitude_spectrum(frame, spec)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_compensated_cosine_concentrates(self):
        spec = FrameSpec(step_samples=64, window_samples=128, fft_size=128)
        window = np.array([hann_window(n + 1, 128) for n in range(128)])
        tone = np.cos(2 * np.pi * 8 * np.arange(128) / 128)
        frame = np.where(window > 1e-6, tone / np.maximum(window, 1e-6), 0.0)
        got = amplitude_spectrum(frame, spec)
        want = naive_amplitude_spectrum(frame, spec)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        assert np.argmax(got) == 8

    def test_impulse_at_start(self):
        spec = FrameSpec(step_samples=16, window_samples=32, fft_size=32)
        frame = np.zeros(32)
        frame[0] = 1.0
        got = amplitude_spectrum(frame, spec)
        want = naive_amplitude_spectrum(frame, spec)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            amplitude_spectrum(np.zeros(399), FrameSpec())

    def test_one_point_transform_rejected(self):
        # the Hann window and the real split both need fft_size >= 2
        with pytest.raises(UsageError):
            FrameSpec(step_samples=1, window_samples=1, fft_size=1)


class TestMelScale:
    def test_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_700_hz_matches_log2(self):
        assert abs(hz_to_mel(700.0) - 2595.0 * math.log10(2.0)) < 1e-6

    def test_1000_hz_anchor(self):
        assert abs(hz_to_mel(1000.0) - 999.99) <= 0.01

    def test_strictly_increasing(self):
        grid = np.arange(0, 8001, dtype=np.float64)
        mels = np.array([hz_to_mel(f) for f in grid])
        assert np.all(np.diff(mels) > 0)

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            hz_to_mel(-1.0)


class TestFilterbank:
    def test_centers_equidistant(self):
        fb = mel_filterbank(FrameSpec(), 26)
        gaps = np.diff(fb.centers_mel)
        np.testing.assert_allclose(gaps, gaps[0], atol=1e-9)
        assert abs(fb.centers_mel[-1] + gaps[0] - hz_to_mel(8000.0)) < 1e-9

    def test_rows_nonnegative_and_peak_one(self):
        fb = mel_filterbank(FrameSpec(), 26)
        assert np.all(fb.weights >= 0.0)
        assert np.all(fb.weights.max(axis=1) <= 1.0 + 1e-12)

    def test_too_many_filters_rejected(self):
        with pytest.raises(UsageError):
            mel_filterbank(FrameSpec(step_samples=8, window_samples=16,
                                     fft_size=16), 40)

    def test_bad_filter_count_or_rate_rejected(self):
        with pytest.raises(UsageError, match="num_filters must be >= 1, got 0"):
            mel_filterbank(FrameSpec(), 0)

    def test_filter_count_bound(self):
        # a bin lies under at most two triangles: 2 * 257 bins is the cheap cap,
        # and the per-filter check then finds 114 the largest usable count
        spec = FrameSpec()
        assert mel_filterbank(spec, 114).num_filters == 114
        for count, message in ((115, "filter 0 catches no FFT bin"),
                               (514, "filter 0 catches no FFT bin"),
                               (515, "515 filters exceed twice the 257 FFT bins"),
                               (10**11, "exceed twice the 257 FFT bins")):
            with pytest.raises(UsageError, match=message):
                mel_filterbank(spec, count)


class TestMfcc:
    def test_silence_concentrates_in_c0(self):
        wave = Waveform(np.zeros(16000), 16000)
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        feats = mfcc(wave, spec, fb, 13)
        assert feats.num_frames == frame_count(15999, spec)
        np.testing.assert_allclose(feats.data[:, 0], 26 * math.log10(EPS_AMP),
                                   atol=1e-9)
        np.testing.assert_allclose(feats.data[:, 1:], 0.0, atol=1e-9)

    def test_one_second_frame_count(self):
        # 16000 samples -> 15999 after the difference -> 98 full windows
        assert frame_count(15999, FrameSpec()) == 98

    def test_matches_naive_pipeline_on_tones(self):
        spec = FrameSpec(step_samples=40, window_samples=100, fft_size=128)
        fb = mel_filterbank(spec, 10)
        rng = np.random.default_rng(11)
        for _ in range(20):
            freq = rng.uniform(100, 7000)
            amp = rng.uniform(0.1, 0.9)
            n = int(rng.integers(200, 400))
            t = np.arange(n) / 16000.0
            wave = Waveform(amp * np.sin(2 * np.pi * freq * t), 16000)
            got = mfcc(wave, spec, fb, 6)
            want = naive_mfcc(wave, spec, fb, 6)
            np.testing.assert_allclose(got.data, want, rtol=1e-9, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        wave = Waveform(rng.standard_normal(2000), 16000)
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        a = mfcc(wave, spec, fb, 13)
        b = mfcc(wave, spec, fb, 13)
        np.testing.assert_array_equal(a.data, b.data)

    def test_short_input_gives_empty(self):
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        feats = mfcc(Waveform(np.zeros(300), 16000), spec, fb, 13)
        assert feats.num_frames == 0

    def test_rejects_wrong_rate(self):
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        with pytest.raises(DataError):
            mfcc(Waveform(np.zeros(16000), 8000), spec, fb, 13)

    def test_rejects_too_many_cepstra(self):
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        with pytest.raises(UsageError):
            mfcc(Waveform(np.zeros(16000), 16000), spec, fb, 40)

    def test_rejects_filterbank_of_another_fft_size(self):
        fb = mel_filterbank(FrameSpec(fft_size=1024), 26)
        with pytest.raises(UsageError, match="filterbank geometry does not match"):
            mfcc(Waveform(np.zeros(16000), 16000), FrameSpec(), fb, 13)


class TestBlockedMfccMatchesReference:
    """`mfcc` against the per-frame 1-D FFT loop, and bit for bit against
    the blocked front end that formed a fresh array per operation."""

    SPECS = (FrameSpec(40, 100, 128), FrameSpec(), FrameSpec(256, 1024, 1024))
    # block edges at multiples of 32 frames, plus empty, single and long utterances
    FRAME_COUNTS = (0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000)

    @staticmethod
    def samples_for(frames, spec):
        """Waveform length that pre-emphasis and framing turn into `frames` rows."""
        if frames == 0:
            return spec.window_samples
        return spec.window_samples + (frames - 1) * spec.step_samples + 1

    def assert_matches(self, wave, spec, fb):
        got = mfcc(wave, spec, fb, 13).data
        want = dsp_reference.mfcc(wave, spec, fb, 13).data
        assert got.shape == want.shape
        if got.size:
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(got, dsp_reference.blocked_mfcc(wave, spec, fb, 13).data)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"fft{s.fft_size}")
    def test_seeded_waveforms(self, spec):
        fb = mel_filterbank(spec, 26)
        rng = np.random.default_rng(spec.fft_size)
        for frames in self.FRAME_COUNTS:
            n = self.samples_for(frames, spec)
            wave = Waveform(rng.standard_normal(n), 16000)
            assert frame_count(n - 1, spec) == frames
            self.assert_matches(wave, spec, fb)

    def test_click_then_quiet_tail(self):
        # the click lies in frames 1 and 2 only, so packing frames two to a
        # row (0 with 1, 2 with 3) would leak its rounding into the quiet
        # frames 0 and 3: about 3e-9 in the cepstra
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        rng = np.random.default_rng(71)
        samples = 1e-7 * rng.standard_normal(16000)
        samples[420:430] = [1.0, -1.0] * 5
        self.assert_matches(Waveform(samples, 16000), spec, fb)

    def test_digital_silence_gives_floor_in_c0(self):
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        wave = Waveform(np.zeros(16000), 16000)
        got = mfcc(wave, spec, fb, 13).data
        assert np.all(got[:, 0] == 26 * math.log10(EPS_AMP))
        self.assert_matches(wave, spec, fb)


    def test_input_samples_unchanged(self):
        spec = FrameSpec()
        fb = mel_filterbank(spec, 26)
        samples = np.random.default_rng(72).standard_normal(16000)
        wave = Waveform(samples.copy(), 16000)
        mfcc(wave, spec, fb, 13)
        assert np.array_equal(wave.samples, samples)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"fft{s.fft_size}")
    def test_alternating_inputs_match_each_alone(self, spec):
        # nothing a call leaves behind reaches the next one
        fb = mel_filterbank(spec, 26)
        rng = np.random.default_rng(73)
        waves = [Waveform(scale * rng.standard_normal(self.samples_for(frames, spec)), 16000)
                 for scale, frames in ((1.0, 33), (1e-6, 40))]
        alone = [mfcc(wave, spec, fb, 13).data for wave in waves]
        for _ in range(2):
            for wave, want in zip(waves, alone):
                assert np.array_equal(mfcc(wave, spec, fb, 13).data, want)


class TestSpecAugment:
    def test_zero_widths_are_identity(self):
        rng = np.random.default_rng(0)
        feats = FeatureMatrix(rng.standard_normal((20, 13)))
        out = spec_augment(feats, MaskSpec(0, 0, seed=5))
        np.testing.assert_array_equal(out.data, feats.data)

    def test_predicted_band_from_replayed_generator(self):
        feats = FeatureMatrix(np.ones((10, 4)))
        masks = MaskSpec(max_time_mask=3, max_freq_mask=0,
                         num_time_masks=1, num_freq_masks=0, seed=7)
        out = spec_augment(feats, masks)
        rng = np.random.default_rng(7)
        width = int(rng.integers(0, 4))
        start = int(rng.integers(0, 10))
        expected = np.ones((10, 4))
        expected[start: min(start + width, 10), :] = 0.0
        np.testing.assert_array_equal(out.data, expected)

    def test_seed_reproducible_and_masked_rules(self):
        rng = np.random.default_rng(9)
        feats = FeatureMatrix(rng.uniform(1.0, 2.0, size=(50, 13)))
        masks = MaskSpec(max_time_mask=10, max_freq_mask=5,
                         num_time_masks=2, num_freq_masks=2, seed=21)
        a = spec_augment(feats, masks)
        b = spec_augment(feats, masks)
        assert a.data.tobytes() == b.data.tobytes()
        changed = a.data != feats.data
        assert np.all(a.data[changed] == 0.0)
        # unmasked entries bit-identical
        assert np.all(a.data[~changed] == feats.data[~changed])

    def test_clipping_at_edges(self):
        feats = FeatureMatrix(np.ones((4, 3)))
        for seed in range(30):
            out = spec_augment(feats, MaskSpec(100, 100, seed=seed))
            assert out.data.shape == (4, 3)

    def test_empty_input_passthrough(self):
        feats = FeatureMatrix(np.zeros((0, 13)))
        out = spec_augment(feats, MaskSpec(5, 5, seed=3))
        assert out.num_frames == 0


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        wave = Waveform(rng.uniform(-0.5, 0.5, size=1600), 16000)
        path = str(tmp_path / "a.wav")
        write_wav(path, wave)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, wave.samples, atol=1.0 / 32768)

    def test_stereo_rejected_naming_channels(self, tmp_path):
        import wave as wavemod
        path = str(tmp_path / "stereo.wav")
        with wavemod.open(path, "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00" * 200)
        with pytest.raises(DataError, match="channels"):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "junk.wav")
        with open(path, "wb") as fh:
            fh.write(b"not a riff file at all")
        with pytest.raises(DataError):
            read_wav(path)


class TestFeatureIO:
    def test_text_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        feats = FeatureMatrix(rng.standard_normal((7, 5)))
        path = str(tmp_path / "f.txt")
        write_feature_text(path, feats)
        back = read_feature_text(path)
        np.testing.assert_array_equal(back.data, feats.data)

    def test_text_bytes_of_edge_values(self, tmp_path):
        feats = FeatureMatrix([[-0.0, 5e-324, 1e308], [1e16, 0.1, -2.5]])
        path = tmp_path / "f.txt"
        write_feature_text(str(path), feats)
        assert path.read_bytes() == (
            b"2 3\n"
            b"-0 4.9406564584124654e-324 1e+308\n"
            b"10000000000000000 0.10000000000000001 -2.5\n")

    def test_binary_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        feats = FeatureMatrix(rng.standard_normal((7, 5)))
        path = str(tmp_path / "f.bin")
        write_feature_binary(path, feats)
        back = read_feature_binary(path)
        np.testing.assert_array_equal(back.data, feats.data)

    def test_sniffing_loader(self, tmp_path):
        feats = FeatureMatrix(np.arange(6.0).reshape(2, 3))
        tpath, bpath = str(tmp_path / "t.txt"), str(tmp_path / "b.bin")
        write_feature_text(tpath, feats)
        write_feature_binary(bpath, feats)
        np.testing.assert_array_equal(load_features(tpath).data, feats.data)
        np.testing.assert_array_equal(load_features(bpath).data, feats.data)

    def test_malformed_text(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("3 2\n1 2\n3 4\n")  # claims 3 rows, has 2
        with pytest.raises(DataError):
            read_feature_text(path)

    def test_rows_beyond_the_header(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("2 2\n1 2\n3 4\n5 6\n")
        with pytest.raises(DataError, match="content after its 2 rows"):
            read_feature_text(str(path))
        path.write_text("2 2\n1 2\n3 4\n\n  \n")  # trailing blank lines are fine
        np.testing.assert_array_equal(read_feature_text(str(path)).data, [[1, 2], [3, 4]])

    def test_truncated_binary(self, tmp_path):
        feats = FeatureMatrix(np.ones((4, 4)))
        path = str(tmp_path / "trunc.bin")
        write_feature_binary(path, feats)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(DataError):
            read_feature_binary(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(DataError, match="bad magic b'XXXX'"):
            read_feature_binary(str(path))
