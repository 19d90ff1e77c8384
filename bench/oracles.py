"""Independent references the benchmark checks the CLI's outputs against.

None of this imports the package under test.  Each reference follows
the documented contract (file formats, the MFCC chain, the SpecAugment
draw order, the CTC definition) by a different route than the package:
numpy's rfft instead of the radix-2 FFT, and the 2S+1 extended-label
lattice instead of the split blank/label tables.
"""

import struct
import wave

import numpy as np

# FrameSpec and featurize defaults of the CLI
STEP, WINDOW, NFFT = 160, 400, 512
SAMPLE_RATE = 16000


def read_wav_samples(path: str) -> np.ndarray:
    with wave.open(path, "rb") as fh:
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def reference_mfcc(samples: np.ndarray, num_filters: int = 26,
                   num_cepstra: int = 13) -> np.ndarray:
    """Normalize, pre-emphasize, frame, Hann, |rfft|, mel, log10, DCT-II."""
    x = samples - samples.mean()
    x = x / np.sqrt(max(float(np.mean(x ** 2)), 1e-12))
    x = np.diff(x)
    count = 0 if x.size < WINDOW else (x.size - WINDOW) // STEP + 1
    starts = STEP * np.arange(count)
    frames = x[starts[:, None] + np.arange(WINDOW)[None, :]]
    # the Hann window spans the zero-padded transform length
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(NFFT) / (NFFT - 1))
    spectra = np.abs(np.fft.rfft(frames * hann[:WINDOW], n=NFFT, axis=1))
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)  # noqa: E731
    spacing = mel(SAMPLE_RATE / 2.0) / (num_filters + 1)
    centers = spacing * np.arange(1, num_filters + 1)
    bin_mels = mel(np.arange(NFFT // 2 + 1) * SAMPLE_RATE / NFFT)
    weights = np.maximum(0.0, 1.0 - np.abs(bin_mels[None, :] - centers[:, None]) / spacing)
    energies = np.maximum(spectra @ weights.T, 1e-10)
    m = np.arange(num_cepstra)[:, None]
    i = np.arange(num_filters)[None, :]
    dct = np.cos(np.pi * m * (i + 0.5) / num_filters)
    return np.log10(energies) @ dct.T


def apply_masks(features: np.ndarray, seed: int, max_time: int, max_freq: int,
                time_masks: int, freq_masks: int) -> np.ndarray:
    """SpecAugment draw order: each time mask (width, start), then each freq mask."""
    out = features.copy()
    t_total, dim = out.shape
    if t_total == 0:
        return out
    rng = np.random.default_rng(seed)
    for _ in range(time_masks):
        width = int(rng.integers(0, max_time + 1))
        start = int(rng.integers(0, t_total))
        out[start:start + width, :] = 0.0
    for _ in range(freq_masks):
        width = int(rng.integers(0, max_freq + 1))
        start = int(rng.integers(0, dim))
        out[:, start:start + width] = 0.0
    return out


def read_feature_file(path: str) -> np.ndarray:
    """Either feature format: binary 'FTRX' + u32 T, u32 D + f64, or text."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == b"FTRX":
        t_total, dim = struct.unpack("<II", blob[4:12])
        return np.frombuffer(blob[12:], dtype="<f8").reshape(t_total, dim)
    lines = blob.decode("utf-8").splitlines()
    t_total, dim = (int(v) for v in lines[0].split())
    rows = [[float(v) for v in line.split()] for line in lines[1:1 + t_total]]
    return np.array(rows, dtype=np.float64).reshape(t_total, dim)


def ctc_logprob(log_probs: np.ndarray, target) -> float:
    """log P(target) over the extended label sequence blank,l1,blank,...,lS,blank."""
    target = list(target)
    ext = np.zeros(2 * len(target) + 1, dtype=int)
    ext[1::2] = target
    size = ext.size
    # s-2 transitions are allowed into a label that differs from the label before
    skip = np.zeros(size, dtype=bool)
    skip[3::2] = ext[3::2] != ext[1:-2:2]
    alpha = np.full(size, -np.inf)
    alpha[0] = log_probs[0, 0]
    if size > 1:
        alpha[1] = log_probs[0, ext[1]]
    for t in range(1, log_probs.shape[0]):
        prev1 = np.concatenate([[-np.inf], alpha[:-1]])
        prev2 = np.where(skip, np.concatenate([[-np.inf, -np.inf], alpha[:-2]]), -np.inf)
        alpha = np.logaddexp(np.logaddexp(alpha, prev1), prev2) + log_probs[t, ext]
    return float(np.logaddexp(alpha[-1], alpha[-2]) if size > 1 else alpha[-1])


def greedy_labels(log_probs: np.ndarray) -> list[int]:
    """Collapse repeats of the per-frame argmax path, then drop blanks."""
    best = np.argmax(log_probs, axis=1)
    keep = np.ones(best.size, dtype=bool)
    keep[1:] = best[1:] != best[:-1]
    return [int(v) for v in best[keep] if v != 0]


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        prev_diag, row[0] = row[0], i
        for j, h in enumerate(hyp, start=1):
            cur = min(row[j] + 1, row[j - 1] + 1, prev_diag + (r != h))
            prev_diag, row[j] = row[j], cur
    return row[-1]
