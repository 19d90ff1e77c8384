"""Seeded input synthesis: WAVs, posteriorgrams, vocabularies, LM counts.

Everything here is written with the benchmark's own writers so the
program under test only ever sees files.  Lengths follow a shifted
golden-ratio sequence, so every prefix of a corpus covers the length
range evenly and two seeds give the same length mix; the seed moves the
offset of that sequence and all content.
"""

import math
import wave

import numpy as np

SAMPLE_RATE = 16000
BLANK_TOKEN = "<blank>"
EOS = "</s>"
BOS = "<s>"
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread(rng, count: int, low: float, high: float) -> np.ndarray:
    """Low-discrepancy values in [low, high]: shifted golden-ratio sequence."""
    frac = (rng.random() + _GOLDEN * np.arange(count)) % 1.0
    return low + (high - low) * frac


# --- audio -----------------------------------------------------------------

def voiced_signal(rng, seconds: float) -> np.ndarray:
    """Harmonic tone with vibrato, syllable-rate envelope and white noise."""
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(100.0, 280.0) * (1.0 + 0.04 * np.sin(
        2 * np.pi * rng.uniform(3.0, 6.0) * t + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    x = np.zeros(n)
    for h in range(1, 7):
        x += np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h
    envelope = 0.55 + 0.45 * np.sin(
        2 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0, 2 * np.pi)) ** 2
    x = x * envelope
    x = x / np.max(np.abs(x))
    x = x + 10 ** (-25 / 20) * rng.standard_normal(n)
    return 0.5 * x / np.max(np.abs(x))


def write_wav(path: str, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


# --- grammars --------------------------------------------------------------

# A robot-command bigram grammar over 29 words (K = 30 with the blank).
COMMAND_GRAMMAR = {
    BOS: "move turn pick place put go stop",
    "move": "the a left right up down slowly",
    "turn": "left right slowly",
    "pick": "up the a",
    "place": "the a",
    "put": "the a down",
    "the": "red green blue small large box ball cup table shelf",
    "a": "red green blue small large box ball cup table shelf",
    "red": "box ball cup", "green": "box ball cup", "blue": "box ball cup",
    "small": "red green blue box ball cup",
    "large": "red green blue box ball cup",
    "box": "on to near from then </s>",
    "ball": "on to near from then </s>",
    "cup": "on to near from then </s>",
    "table": "then left right </s>", "shelf": "then left right </s>",
    "left": "then slowly </s>", "right": "then slowly </s>",
    "to": "the a", "on": "the a", "from": "the a", "near": "the a",
    "up": "the a then </s>", "down": "the a then </s>",
    "slowly": "then </s>",
    "then": "move turn pick place put go stop",
    "stop": "then </s>",
    "go": "left right up down to",
}

# Short spoken commands over 7 words (K = 8 with the blank).
SHORT_GRAMMAR = {
    BOS: "go turn stop",
    "go": "left right back now",
    "turn": "left right back",
    "stop": "now </s>",
    "left": "now go turn </s>",
    "right": "now go turn </s>",
    "back": "now go turn </s>",
    "now": "go turn stop </s>",
}


def grammar_vocab(grammar) -> tuple[str, ...]:
    return tuple(w for w in grammar if w != BOS)


def _successors(grammar, word):
    return grammar[word].split()


def sentence_of_length(rng, grammar, n: int) -> list[str]:
    """Random walk of exactly n words, never taking the end-of-sentence edge."""
    words, prev = [], BOS
    while len(words) < n:
        options = [w for w in _successors(grammar, prev) if w != EOS]
        prev = options[int(rng.integers(len(options)))]
        words.append(prev)
    return words


def free_sentence(rng, grammar, max_len: int = 30) -> list[str]:
    """Random walk that may stop at any end-of-sentence edge."""
    words, prev = [], BOS
    while len(words) < max_len:
        options = _successors(grammar, prev)
        prev = options[int(rng.integers(len(options)))]
        if prev == EOS:
            break
        words.append(prev)
    return words


def lm_counts(rng, grammar, sentences: int) -> dict[str, int]:
    """Unigram and bigram counts from a text sample that covers every word."""
    vocab = set(grammar_vocab(grammar))
    counts: dict[str, int] = {}
    seen: set[str] = set()
    made = 0
    while made < sentences or seen != vocab:
        words = free_sentence(rng, grammar)
        if not words:
            continue
        made += 1
        seen.update(words)
        prev = BOS
        for tok in words + [EOS]:
            counts[tok] = counts.get(tok, 0) + 1
            counts[f"{prev} {tok}"] = counts.get(f"{prev} {tok}", 0) + 1
            prev = tok
    return counts


def write_lm_counts(path: str, counts: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for gram in sorted(counts):
            fh.write(f"{gram}\t{counts[gram]}\n")


def write_vocab(path: str, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BLANK_TOKEN + "\n")
        for lab in labels:
            fh.write(lab + "\n")


# --- posteriorgrams --------------------------------------------------------

def _alignment(rng, labels: list[int], t_total: int) -> np.ndarray:
    """Frame symbols: leading blanks, then a label run and a blank gap per label.

    Every label gets one frame and every gap but the last one blank
    frame (so repeats stay separable); the rest is spread at random.
    """
    n = len(labels)
    runs = np.ones(n, dtype=int)
    gaps = np.ones(n + 1, dtype=int)
    gaps[0] = gaps[-1] = 0
    spare = t_total - runs.sum() - gaps.sum()
    if spare < 0:
        raise ValueError(f"{n} labels do not fit {t_total} frames")
    slots = rng.multinomial(spare, np.full(2 * n + 1, 1.0 / (2 * n + 1)))
    runs += slots[:n]
    gaps += slots[n:]
    out = []
    for i, lab in enumerate(labels):
        out += [0] * gaps[i] + [lab] * runs[i]
    out += [0] * gaps[n]
    return np.array(out)


def confusable_posteriorgram(rng, labels: list[int], t_total: int, k: int,
                             p_sub: float = 0.18, p_del: float = 0.05,
                             p_ins: float = 0.03) -> np.ndarray:
    """Log posteriors that favour the reference alignment, with seeded errors.

    Per label: with p_sub its frames favour one other label (the true one
    keeps a weaker bump, so LM fusion can still recover it); with p_del
    they favour the blank.  Each blank frame becomes a spurious label
    with p_ins.  Rows are log-softmax normalized.
    """
    frames = _alignment(rng, labels, t_total)
    logits = 1.2 * rng.standard_normal((t_total, k))
    favoured = 0
    for t, sym in enumerate(frames):
        if sym == 0:
            spurious = rng.random() < p_ins
            logits[t, int(rng.integers(1, k)) if spurious else 0] += 4.5
            continue
        if t == 0 or frames[t - 1] == 0:
            # first frame of a label run: draw its fate once
            u = rng.random()
            if u < p_sub:
                other = int(rng.integers(1, k - 1))
                favoured = other if other < sym else other + 1
            elif u < p_sub + p_del:
                favoured = 0
            else:
                favoured = sym
        logits[t, favoured] += 4.5
        if favoured != sym and favoured != 0:
            logits[t, sym] += 3.0
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))


def write_posteriorgram(path: str, log_probs: np.ndarray, nan_row: int = -1) -> None:
    """Text format 'T K' then one row per frame; nan_row plants a NaN row."""
    t_total, k = log_probs.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{t_total} {k}\n")
        for t, row in enumerate(log_probs):
            if t == nan_row:
                fh.write(" ".join(["nan"] * k) + "\n")
            else:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
