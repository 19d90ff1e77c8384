"""Waveform front-end: normalization, framing, spectra, MFCC, SpecAugment.

The chain is normalize -> pre-emphasis -> overlapping frames -> Hann
weighting -> zero-padded FFT amplitude spectrum -> triangular mel
filterbank -> log10 -> DCT.  `mfcc` runs the chain from pre-emphasis
onwards; per-utterance normalization is a separate op so callers can
compose or skip it.

`mfcc` works on blocks of `_BLOCK_FRAMES` frames: one read-only
strided view of the frames, one spectrum call and two matmuls (mel
weights, then DCT basis) per block.  A block bounds the working set, so
memory does not grow with the utterance.  Each real frame is
transformed by the real split: its even and odd samples form one
complex row of half the length, and the conjugate-symmetry identity
recovers the one-sided spectrum from that row's four-step FFT
(`fft.py`).  The Hann slice, gather indices and half twiddle of the
split are built once per frame geometry.  Pairing a frame with itself,
not with its neighbour, keeps every frame's rounding relative to its
own spectrum.

Each `mfcc` call Hann-weights every block into one zeroed padded buffer
whose tail columns stay zero, and forms the split in its two gathered
arrays, so a block allocates no fresh (frames, bins) complex temporary
per operation.  Each product keeps its operand order (`c * d`, written
`np.multiply(c, d, out=d)`): numpy's complex loop rounds `d * c`, as
`d *= c` computes it, differently.
"""

import struct
import wave
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, UsageError
from .fft import fft
from .textmatrix import read_text_matrix, write_text_matrix

SAMPLE_RATE = 16000  # Hz; the one input rate of the front end
EPS_AMP = 1e-10   # floor on filterbank energies before log10
EPS_VAR = 1e-12   # floor on per-utterance variance before division

_BLOCK_FRAMES = 32  # frames per block in `mfcc`: bounds memory; 32 ran fastest of 8 to 128

FEATURE_MAGIC = b"FTRX"


@dataclass
class Waveform:
    """Mono audio samples with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise UsageError("waveform samples must be 1-D")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise UsageError(f"sample_rate must be positive, got {self.sample_rate}")


@dataclass(frozen=True)
class FrameSpec:
    """Framing and transform geometry for the short-time analysis."""

    step_samples: int = 160
    window_samples: int = 400
    fft_size: int = 512

    def __post_init__(self):
        if not 0 < self.step_samples <= self.window_samples <= self.fft_size:
            raise UsageError(
                "need 0 < step_samples <= window_samples <= fft_size, got "
                f"{self.step_samples}/{self.window_samples}/{self.fft_size}"
            )
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise UsageError(f"fft_size must be a power of two >= 2, got {self.fft_size}")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class MaskSpec:
    """SpecAugment mask widths, counts and the draw seed."""

    max_time_mask: int = 0
    max_freq_mask: int = 0
    num_time_masks: int = 1
    num_freq_masks: int = 1
    seed: int = 0

    def __post_init__(self):
        if min(self.max_time_mask, self.max_freq_mask,
               self.num_time_masks, self.num_freq_masks, self.seed) < 0:
            raise UsageError("mask fields must be non-negative")


@dataclass
class FeatureMatrix:
    """T x D feature rows, one row per analysis frame."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise UsageError("feature matrix must be 2-D")
        if self.data.shape[1] < 1:
            raise UsageError("feature matrix needs at least one column")
        if not np.all(np.isfinite(self.data)):
            raise DataError("feature matrix contains non-finite values")

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class MelFilterbank:
    """Triangular filters with equidistant centers on the mel axis.

    The first filter's left edge sits at 0 mel and the last filter's
    right edge at mel(SAMPLE_RATE/2); adjacent filters overlap 50%.
    """

    weights: np.ndarray
    fft_size: int
    centers_mel: np.ndarray = field(repr=False)

    @property
    def num_filters(self) -> int:
        return self.weights.shape[0]


def normalize_wave(w: Waveform) -> Waveform:
    """Scale an utterance to zero mean and unit variance.

    The variance is floored at EPS_VAR before division, so constant
    input comes back as all zeros rather than NaN.
    """
    x = w.samples
    if x.size == 0:
        return Waveform(x.copy(), w.sample_rate)
    mu = float(np.mean(x))
    var = float(np.mean((x - mu) ** 2))
    return Waveform((x - mu) / np.sqrt(max(var, EPS_VAR)), w.sample_rate)


def pre_emphasize(w: Waveform) -> Waveform:
    """First difference x'[t] = x[t+1] - x[t]; output is one sample shorter."""
    if w.samples.size < 2:
        raise DataError(
            f"pre-emphasis needs at least 2 samples, got {w.samples.size}")
    return Waveform(np.diff(w.samples), w.sample_rate)


def hann_window(n: int, length: int) -> float:
    """Hann weight at 1-indexed position n of an N-point window."""
    if length < 2:
        raise UsageError(f"window length must be >= 2, got {length}")
    if not 1 <= n <= length:
        raise UsageError(f"position {n} outside window of length {length}")
    # its own formula: the spectrum oracle tests/test_dsp.py::naive_amplitude_spectrum uses it
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * (n - 1) / (length - 1))


def _hann_vector(length: int) -> np.ndarray:
    idx = np.arange(length, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / (length - 1))


@lru_cache(maxsize=8)
def _split_tables(fft_size: int, window_samples: int) -> tuple[np.ndarray, ...]:
    """Constants of `_frame_spectra` for one geometry, read-only.

    Returns the Hann slice that weights the samples, the gather indices
    k mod m and -k mod m of Z[k] and conj Z[m-k] for k = 0..m, and the
    real-split factor (i/2) W^k, where m = fft_size/2.
    """
    half = fft_size // 2
    k = np.arange(half + 1)
    tables = (_hann_vector(fft_size)[:window_samples], k % half, -k % half,
              0.5j * np.exp(-2j * np.pi * k / fft_size))
    for table in tables:
        table.flags.writeable = False
    return tables


def _frame_spectra(frames: np.ndarray, spec: FrameSpec, padded: np.ndarray) -> np.ndarray:
    """One-sided FFT magnitudes of Hann-weighted, zero-padded frames.

    Each row's fft_size real samples are read as fft_size/2 complex
    values z[t] = x[2t] + i*x[2t+1].  With Z = FFT(z), m = fft_size/2
    and W = exp(-2i*pi/fft_size), the real transform is
    X[k] = (Z[k] + conj Z[m-k])/2 - (i/2) W^k (Z[k] - conj Z[m-k]),
    indices mod m (Sorensen et al., IEEE TASSP 1987).  The split is
    formed in the two gathered arrays, left to right as written.

    Args:
        frames: raw samples, shape (B, window_samples); only read.
        spec: framing geometry; fft_size fixes the transform length.
        padded: float64 buffer of at least B rows and fft_size columns
            whose columns from window_samples on are zero; the first
            window_samples columns of its first B rows are overwritten.

    Returns:
        Magnitudes for bins 0..fft_size/2, shape (B, fft_size//2 + 1).
    """
    window, fwd, rev, half_twiddle = _split_tables(spec.fft_size, spec.window_samples)
    rows = padded[: frames.shape[0]]
    np.multiply(frames, window, out=rows[:, : spec.window_samples])
    z = fft(rows.view(np.complex128))
    zk = z[:, fwd]
    zr = z[:, rev]
    np.conjugate(zr, out=zr)
    s = zk + zr
    np.multiply(0.5, s, out=s)
    np.subtract(zk, zr, out=zk)
    np.multiply(half_twiddle, zk, out=zk)
    np.subtract(s, zk, out=s)
    return np.abs(s)


def amplitude_spectrum(frame: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """One-sided FFT magnitudes of a Hann-weighted, zero-padded frame.

    The Hann window spans the padded fft_size-length vector, so only
    its first window_samples values touch real samples.

    Args:
        frame: raw samples, shape (window_samples,).
        spec: framing geometry; fft_size fixes the transform length.

    Returns:
        Magnitudes for bins 0..fft_size/2, shape (fft_size//2 + 1,).
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (spec.window_samples,):
        raise DataError(
            f"frame length {frame.shape} does not match window_samples "
            f"{spec.window_samples}"
        )
    return _frame_spectra(frame[None], spec, np.zeros((1, spec.fft_size)))[0]


def hz_to_mel(freq_hz: float | np.ndarray) -> float | np.ndarray:
    """Map a frequency in Hz, or an array of them, onto the mel axis."""
    if np.any(np.asarray(freq_hz) < 0):
        raise UsageError(f"frequency must be non-negative, got {freq_hz}")
    return 2595.0 * np.log10(1.0 + freq_hz / 700.0)


def mel_filterbank(spec: FrameSpec, num_filters: int = 26) -> MelFilterbank:
    """Triangular mel filters sampled at the FFT bins of SAMPLE_RATE input."""
    if num_filters < 1:
        raise UsageError(f"num_filters must be >= 1, got {num_filters}")
    # a bin lies under at most two triangles, so more filters leave one empty
    if num_filters > 2 * spec.num_bins:
        raise UsageError(f"{num_filters} filters exceed twice the {spec.num_bins} FFT bins; "
                         f"reduce num_filters or raise fft_size")
    mel_max = hz_to_mel(SAMPLE_RATE / 2.0)
    spacing = mel_max / (num_filters + 1)
    centers = spacing * np.arange(1, num_filters + 1)
    bin_freqs = np.arange(spec.num_bins) * (SAMPLE_RATE / spec.fft_size)
    bin_mels = hz_to_mel(bin_freqs)
    weights = np.maximum(0.0, 1.0 - np.abs(bin_mels[None, :] - centers[:, None]) / spacing)
    empty = np.where(~(weights > 0).any(axis=1))[0]
    if empty.size:
        raise UsageError(
            f"filter {empty[0]} catches no FFT bin; reduce num_filters "
            f"or raise fft_size"
        )
    return MelFilterbank(weights, spec.fft_size, centers)


def _dct_basis(num_cepstra: int, num_filters: int) -> np.ndarray:
    m = np.arange(num_cepstra)[:, None]
    i = np.arange(num_filters)[None, :]
    return np.cos(np.pi * m * (i + 0.5) / num_filters)


def frame_count(num_samples_after_preemph: int, spec: FrameSpec) -> int:
    """Number of full analysis windows that fit the signal."""
    if num_samples_after_preemph < spec.window_samples:
        return 0
    return (num_samples_after_preemph - spec.window_samples) // spec.step_samples + 1


def mfcc(w: Waveform, spec: FrameSpec, fb: MelFilterbank, num_cepstra: int = 13) -> FeatureMatrix:
    """Mel-frequency cepstra of an utterance, one row per frame.

    Runs pre-emphasis, framing, Hann-weighted amplitude spectra, the
    mel filterbank, log10 with an EPS_AMP floor, and the DCT.  The
    caller decides whether to normalize the waveform first.

    Args:
        w: input waveform; its rate must be SAMPLE_RATE.
        spec: framing geometry.
        fb: filterbank built for the same fft_size.
        num_cepstra: DCT outputs kept per frame; at most fb.num_filters.

    Returns:
        FeatureMatrix of shape (T, num_cepstra); T may be 0.
    """
    if w.sample_rate != SAMPLE_RATE:
        raise DataError(f"front-end expects {SAMPLE_RATE} Hz input, got {w.sample_rate}")
    if fb.fft_size != spec.fft_size:
        raise UsageError("filterbank geometry does not match the frame spec")
    if num_cepstra < 1 or num_cepstra > fb.num_filters:
        raise UsageError(
            f"num_cepstra must be in 1..{fb.num_filters}, got {num_cepstra}"
        )
    x = pre_emphasize(w).samples
    t_total = frame_count(x.size, spec)
    out = np.empty((t_total, num_cepstra))
    if t_total == 0:  # the view below needs one full window
        return FeatureMatrix(out)
    basis = _dct_basis(num_cepstra, fb.num_filters)
    frames = sliding_window_view(x, spec.window_samples)[:: spec.step_samples]
    padded = np.zeros((min(_BLOCK_FRAMES, t_total), spec.fft_size))
    for first in range(0, t_total, _BLOCK_FRAMES):
        block = frames[first: first + _BLOCK_FRAMES]
        spectra = _frame_spectra(block, spec, padded)
        energies = np.maximum(spectra @ fb.weights.T, EPS_AMP)
        out[first: first + block.shape[0]] = np.log10(energies) @ basis.T
    return FeatureMatrix(out)


def spec_augment(features: FeatureMatrix, masks: MaskSpec) -> FeatureMatrix:
    """Zero out random time and frequency bands, seeded by masks.seed.

    Draw order is fixed so runs replay byte-identically: each time mask
    draws width then start, then each frequency mask does the same.
    Widths are uniform on {0..max}, starts uniform over the axis, and
    bands are clipped at the matrix edge.  Empty input is returned as-is.
    """
    data = features.data.copy()
    t_total, dim = data.shape
    if t_total == 0:
        return FeatureMatrix(data)
    rng = np.random.default_rng(masks.seed)
    for _ in range(masks.num_time_masks):
        width = int(rng.integers(0, masks.max_time_mask + 1))
        start = int(rng.integers(0, t_total))
        data[start: min(start + width, t_total), :] = 0.0
    for _ in range(masks.num_freq_masks):
        width = int(rng.integers(0, masks.max_freq_mask + 1))
        start = int(rng.integers(0, dim))
        data[:, start: min(start + width, dim)] = 0.0
    return FeatureMatrix(data)


def read_wav(path: str) -> Waveform:
    """Read a mono 16-bit PCM RIFF/WAVE file into [-1, 1) samples."""
    try:
        with wave.open(path, "rb") as fh:
            channels = fh.getnchannels()
            if channels != 1:
                raise DataError(f"channels: expected mono (1), got {channels}")
            width = fh.getsampwidth()
            if width != 2:
                raise DataError(
                    f"bits per sample: expected 16 (width 2), got width {width}"
                )
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
            if len(raw) != 2 * fh.getnframes():
                raise DataError("truncated RIFF/WAVE file")
    except wave.Error as exc:
        raise DataError(f"not a readable RIFF/WAVE file: {exc}") from exc
    except EOFError as exc:
        raise DataError("truncated RIFF/WAVE file") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path: str, w: Waveform) -> None:
    """Write a waveform as mono 16-bit PCM, clipping to the sample range."""
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def write_feature_text(path: str, features: FeatureMatrix) -> None:
    """Text form: header line "T D", then T rows of 17-significant-digit reals."""
    write_text_matrix(path, features.data)


def read_feature_text(path: str) -> FeatureMatrix:
    """Parse the text feature format; shape header must match the rows."""
    return FeatureMatrix(read_text_matrix(path, "feature"))


def write_feature_binary(path: str, features: FeatureMatrix) -> None:
    """Binary form: magic FTRX, u32 T, u32 D, then T*D little-endian f64."""
    data = features.data
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", data.shape[0], data.shape[1]))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_feature_binary(path: str) -> FeatureMatrix:
    """Parse the binary feature format, checking magic and payload size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FEATURE_MAGIC:
        raise DataError(f"bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(blob) < 12:
        raise DataError("binary feature file truncated before shape")
    t_total, dim = struct.unpack("<II", blob[4:12])
    if dim < 1:
        raise DataError(f"bad feature shape {t_total} x {dim}")
    expected = 12 + 8 * t_total * dim
    if len(blob) != expected:
        raise DataError(
            f"payload is {len(blob) - 12} bytes, expected {expected - 12}"
        )
    data = np.frombuffer(blob[12:], dtype="<f8").reshape(t_total, dim)
    return FeatureMatrix(data.copy())


def load_features(path: str) -> FeatureMatrix:
    """Load either feature format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == FEATURE_MAGIC:
        return read_feature_binary(path)
    return read_feature_text(path)
