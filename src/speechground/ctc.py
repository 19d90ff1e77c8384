"""CTC alignment numerics: collapse, forward/backward, prefix mass, brute force.

Label sequences and alignment paths are tuples of vocabulary indices;
index 0 is always the blank.  All dynamic programs run in natural-log
space; an infeasible target yields -inf log probability (and +inf
loss), never an exception.  One lattice recurrence serves every pass:
the backward tables are the forward tables of the time-reversed frames
and target, and prefix mass is read off the forward tables.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .textmatrix import read_text_matrix, write_text_matrix

BLANK = 0
BLANK_TOKEN = "<blank>"

BRUTEFORCE_MAX_PATHS = 10_000_000

LabelSequence = tuple[int, ...]
AlignmentPath = tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Output alphabet: blank at index 0 followed by the real labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for lab in self.labels:
            if not lab or lab.split() != [lab]:
                raise DataError(f"bad label {lab!r}: empty or contains whitespace")
            if lab == BLANK_TOKEN:
                raise DataError(f"{BLANK_TOKEN} is reserved for index 0")
            if lab in seen:
                raise DataError(f"duplicate label {lab!r}")
            seen.add(lab)

    @property
    def size(self) -> int:
        """Alphabet size including the blank."""
        return len(self.labels) + 1

    def token(self, index: int) -> str:
        if index == BLANK:
            return BLANK_TOKEN
        return self.labels[index - 1]

    def index(self, token: str) -> int:
        if token == BLANK_TOKEN:
            return BLANK
        try:
            return self.labels.index(token) + 1
        except ValueError:
            raise DataError(f"unknown label {token!r}") from None


@dataclass
class Posteriorgram:
    """Per-frame label log-probabilities, shape (num_frames, num_symbols).

    Column 0 is the blank.  Unless validation is disabled each row must
    log-sum-exp to 0 within 1e-6.
    """

    log_probs: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.log_probs = np.asarray(self.log_probs, dtype=np.float64)
        if self.log_probs.ndim != 2 or self.log_probs.shape[1] < 1:
            raise DataError("posteriorgram must be 2-D with at least one column")
        if np.any(np.isnan(self.log_probs)) or np.any(self.log_probs == np.inf):
            raise DataError("posteriorgram rows must be finite or -inf")
        if self.validate and self.log_probs.shape[0]:
            slack = np.abs(_logsumexp_rows(self.log_probs))
            worst = int(np.argmax(slack))
            if slack[worst] > 1e-6:
                raise DataError(
                    f"row {worst} does not normalize: |logsumexp| = {slack[worst]:.3g}"
                )

    @property
    def num_frames(self) -> int:
        return self.log_probs.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.log_probs.shape[1]


@dataclass
class ForwardBackwardTable:
    """Lattice tables over (frame, target position), in log space.

    Forward tables have one column per position 0..N; backward tables
    one per position 0..N+1 with column 0 unused.  A table not filled
    by the producing pass is None.
    """

    forward_blank: np.ndarray | None = None
    forward_label: np.ndarray | None = None
    backward_blank: np.ndarray | None = None
    backward_label: np.ndarray | None = None


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = np.max(a, axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    return safe + np.log(np.sum(np.exp(a - safe[:, None]), axis=1))


def collapse(path) -> LabelSequence:
    """Merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for sym in path:
        if sym != prev and sym != BLANK:
            out.append(int(sym))
        prev = sym
    return tuple(out)


def _check_target(p: Posteriorgram, target) -> LabelSequence:
    w = tuple(int(v) for v in target)
    for v in w:
        if v == BLANK:
            raise UsageError("target sequences cannot contain the blank")
        if not 0 < v < p.num_symbols:
            raise UsageError(f"label {v} outside alphabet of size {p.num_symbols}")
    return w


def _forward_tables(lp: np.ndarray, w: LabelSequence
                    ) -> tuple[np.ndarray, np.ndarray, float]:
    """Blank and label tables over (frame, labels emitted), and log P(w)."""
    t_total = lp.shape[0]
    n = len(w)
    q_blank = np.full((t_total, n + 1), -np.inf)
    q_label = np.full((t_total, n + 1), -np.inf)
    if t_total == 0:
        return q_blank, q_label, 0.0 if n == 0 else -np.inf
    q_blank[:, 0] = np.cumsum(lp[:, BLANK])
    if n:
        q_label[0, 1] = lp[0, w[0]]
    for t in range(1, t_total):
        prev_b, prev_l = q_blank[t - 1], q_label[t - 1]
        for pos in range(1, n + 1):
            q_blank[t, pos] = lp[t, BLANK] + np.logaddexp(prev_b[pos], prev_l[pos])
            grow = prev_b[pos - 1]
            # entering label pos from the previous label is illegal on a repeat
            if pos >= 2 and w[pos - 1] != w[pos - 2]:
                grow = np.logaddexp(grow, prev_l[pos - 1])
            q_label[t, pos] = lp[t, w[pos - 1]] + np.logaddexp(prev_l[pos], grow)
    return q_blank, q_label, float(np.logaddexp(q_blank[-1, n], q_label[-1, n]))


def _prefix_mass(lp: np.ndarray, w: LabelSequence,
                 q_blank: np.ndarray, q_label: np.ndarray) -> float:
    """Log probability that the emission starts with `w`, from w's forward tables.

    Sums, over frames t, the mass that enters the final position at t
    from column n-1 at t-1; every continuation after t is free.
    """
    n = len(w)
    if n == 0:
        return 0.0
    if n > lp.shape[0]:
        return -np.inf
    may_chain = n == 1 or w[-1] != w[-2]
    total = lp[0, w[-1]] if n == 1 else -np.inf
    for t in range(1, lp.shape[0]):
        grow = q_blank[t - 1, n - 1]
        if may_chain:
            grow = np.logaddexp(grow, q_label[t - 1, n - 1])
        total = np.logaddexp(total, lp[t, w[-1]] + grow)
    return float(total)


def ctc_forward(p: Posteriorgram, target) -> tuple[ForwardBackwardTable, float]:
    """Total log probability of emitting exactly `target`.

    Returns the filled forward tables and the log probability; an
    infeasible target (too long, or repeats without room for blanks)
    comes back as -inf.
    """
    w = _check_target(p, target)
    q_blank, q_label, total = _forward_tables(p.log_probs, w)
    return ForwardBackwardTable(forward_blank=q_blank, forward_label=q_label), total


def ctc_backward(p: Posteriorgram, target) -> tuple[ForwardBackwardTable, float]:
    """Suffix-side tables: the forward pass over reversed frames and target.

    Column pos of the backward tables holds the mass of frames t..T-1
    emitting labels pos..N, so it is column N+1-pos of the forward
    tables of the reversed problem at frame T-1-t.  Column 0 is unused.
    """
    w = _check_target(p, target)
    q_blank, q_label, total = _forward_tables(p.log_probs[::-1], w[::-1])
    r_blank = np.full((p.num_frames, len(w) + 2), -np.inf)
    r_label = np.full((p.num_frames, len(w) + 2), -np.inf)
    r_blank[:, 1:] = q_blank[::-1, ::-1]
    r_label[:, 1:] = q_label[::-1, ::-1]
    return ForwardBackwardTable(backward_blank=r_blank, backward_label=r_label), total


def ctc_loss(p: Posteriorgram, target) -> float:
    """Negative log probability of the target; +inf when infeasible."""
    _, logp = ctc_forward(p, target)
    return -logp


def ctc_prefix_logprob(p: Posteriorgram, prefix) -> float:
    """Log probability that the emitted sequence starts with `prefix`.

    The empty prefix has log probability 0 by definition.
    """
    w = _check_target(p, prefix)
    q_blank, q_label, _ = _forward_tables(p.log_probs, w)
    return _prefix_mass(p.log_probs, w, q_blank, q_label)


def bruteforce_distribution(p: Posteriorgram) -> dict[LabelSequence, float]:
    """Probability of every label sequence, by enumerating all paths.

    Guarded at BRUTEFORCE_MAX_PATHS enumerated paths; intended for
    desk-size instances only.
    """
    t_total, k = p.num_frames, p.num_symbols
    if k ** t_total > BRUTEFORCE_MAX_PATHS:
        raise UsageError(
            f"{k}^{t_total} paths exceeds the {BRUTEFORCE_MAX_PATHS} cap"
        )
    if t_total == 0:
        return {(): 1.0}
    paths = np.array(list(itertools.product(range(k), repeat=t_total)), dtype=np.int64)
    logp = p.log_probs[np.arange(t_total)[None, :], paths].sum(axis=1)
    probs = np.exp(logp)
    keep = np.ones_like(paths, dtype=bool)
    keep[:, 1:] = paths[:, 1:] != paths[:, :-1]
    keep &= paths != BLANK
    dist: dict[LabelSequence, float] = {}
    for row, mask, prob in zip(paths, keep, probs):
        seq = tuple(int(v) for v in row[mask])
        dist[seq] = dist.get(seq, 0.0) + float(prob)
    return dist


def ctc_bruteforce(p: Posteriorgram, target) -> float:
    """Probability of `target` summed over explicit paths (linear space)."""
    w = _check_target(p, target)
    return bruteforce_distribution(p).get(w, 0.0)


def write_vocab(path: str, vocab: Vocabulary) -> None:
    """Vocabulary file: first line the blank token, then one label per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BLANK_TOKEN + "\n")
        for lab in vocab.labels:
            fh.write(lab + "\n")


def read_vocab(path: str) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    lines = [line for line in lines if line != ""]
    if not lines or lines[0] != BLANK_TOKEN:
        raise DataError(f"vocabulary must start with literal {BLANK_TOKEN}")
    return Vocabulary(tuple(lines[1:]))


def write_posteriorgram(path: str, p: Posteriorgram) -> None:
    """Text format: header "T K", then one row of natural-log probs per frame."""
    write_text_matrix(path, p.log_probs)


def read_posteriorgram(path: str) -> Posteriorgram:
    return Posteriorgram(read_text_matrix(path, "posteriorgram"))


def parse_label_string(text: str, vocab: Vocabulary) -> LabelSequence:
    """Whitespace-separated tokens -> vocabulary indices."""
    return tuple(vocab.index(tok) for tok in text.split())


def format_label_sequence(seq, vocab: Vocabulary) -> str:
    return " ".join(vocab.token(v) for v in seq)
