"""CTC alignment numerics: collapse, forward/backward, prefix mass, brute force.

Label sequences and alignment paths are tuples of vocabulary indices;
index 0 is always the blank.  All dynamic programs run in natural-log
space; an infeasible target yields -inf log probability (and +inf
loss), never an exception.  One lattice step, `_lattice`, serves every
pass: it grows a child prefix's (T+1,) blank and label columns and its
prefix mass from its parent's columns, where row 0 is the virtual row
"before frame 0" (0 for the empty prefix, -inf otherwise), and returns
only the columns it grows, each frame's row written in place.  A
target's tables join the empty prefix's column to one grown column per
label, the backward tables are the forward tables of the time-reversed
frames and target, and a beam grows all its children at once without
copying its own columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .textmatrix import read_text_matrix, write_text_matrix

BLANK = 0
BLANK_TOKEN = "<blank>"

BRUTEFORCE_MAX_PATHS = 10_000_000
_BRUTEFORCE_BLOCK = 1 << 16  # paths enumerated at once

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
    """Blank and label lattice tables over (frame, target position), in log space.

    Forward tables have one column per position 0..N; backward tables
    one per position 0..N+1 with column 0 unused.
    """

    blank: np.ndarray
    label: np.ndarray


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


def _lattice(lp: np.ndarray, blank: np.ndarray, label: np.ndarray, labels: np.ndarray,
             parents: np.ndarray, chain: np.ndarray) -> tuple[np.ndarray, ...]:
    """Grow one prefix column per label from its parent column, frame by frame.

    Given P (T+1, P) prefix columns, new column j extends column
    `parents[j]` (a given column below P, else new column
    `parents[j] - P`, grown earlier in the same pass) by `labels[j]`,
    entering from the parent's label state only where `chain[j]` (the
    label does not repeat the parent's last).  Returns only the n new
    columns, as (T+1, n) blank and label tables, and each one's log
    prefix mass, every continuation left free.  Each frame's row is
    written in place: the log-sum of the row before, then the frame's
    emission added to it.

    Only the live band runs.  The loop starts at `t0`, the first row
    where a given parent column is finite: before it every entry term
    is -inf, and logaddexp(-inf, -inf) = -inf leaves each new entry and
    the mass at their -inf fill, so no bit changes and a beam's depth d
    runs T-d+1 frames.  When every parent is a given column, as at a
    beam's depth, only the new columns are allocated, and the loop
    never writes what the entry terms read, so they are formed from the
    given tables as one block by the same elementwise operations;
    `np.logaddexp.reduce` over axis 0 adds the frames in the loop's
    order from the same -inf start, so the mass is bit-identical too.
    A target's chain reads each entry term as its parent column grows,
    so it grows its new columns inside one [given | new] table.
    """
    t_total, given, n = lp.shape[0], blank.shape[1], len(labels)
    emit = lp[:, labels]
    entry = parents[parents < given]
    live = np.flatnonzero((np.maximum(blank[:, entry], label[:, entry]) > -np.inf).any(axis=1))
    t0 = int(live[0]) if len(live) else t_total
    block = len(entry) == n
    if block:
        new_blank, new_label = np.full((2, t_total + 1, n), -np.inf)
        grows = _entry_terms(blank, label, slice(t0, t_total), parents, chain)
        mass = np.logaddexp.reduce(emit[t0:] + grows, axis=0)
    else:
        q_blank = np.hstack([blank, np.full((t_total + 1, n), -np.inf)])
        q_label = np.hstack([label, np.full((t_total + 1, n), -np.inf)])
        new_blank, new_label = q_blank[:, given:], q_label[:, given:]
        mass = np.full(n, -np.inf)
    for t in range(t0, t_total):
        if block:
            grow = grows[t - t0]
        else:
            grow = _entry_terms(q_blank, q_label, t, parents, chain)
            mass = np.logaddexp(mass, emit[t] + grow)
        row = np.logaddexp(new_blank[t], new_label[t], out=new_blank[t + 1])
        row += lp[t, BLANK]
        row = np.logaddexp(new_label[t], grow, out=new_label[t + 1])
        row += emit[t]
    return new_blank, new_label, mass


def _entry_terms(q_blank: np.ndarray, q_label: np.ndarray, rows, parents: np.ndarray,
                 chain: np.ndarray) -> np.ndarray:
    """Mass entering each new column from its parent at `rows` (a row or a slice)."""
    grow = q_blank[rows, parents]
    return np.where(chain, np.logaddexp(grow, q_label[rows, parents]), grow)


def _target_lattice(lp: np.ndarray, w: LabelSequence
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(T+1, N+1) tables of `w` from the empty prefix, its prefix masses and log P(w).

    Column 0, the empty prefix, is joined to the N columns `_lattice` grows.
    """
    root_blank = np.concatenate([[0.0], np.cumsum(lp[:, BLANK])])[:, None]
    root_label = np.full_like(root_blank, -np.inf)
    labels = np.array(w, dtype=np.intp)
    new_blank, new_label, mass = _lattice(lp, root_blank, root_label, labels,
                                          np.arange(len(w)), labels != np.r_[BLANK, labels][:-1])
    q_blank, q_label = np.hstack([root_blank, new_blank]), np.hstack([root_label, new_label])
    return q_blank, q_label, mass, float(np.logaddexp(q_blank[-1, -1], q_label[-1, -1]))


def ctc_forward(p: Posteriorgram, target) -> tuple[ForwardBackwardTable, float]:
    """Total log probability of emitting exactly `target`.

    Returns the (T, N+1) forward tables and the log probability; an
    infeasible target (too long, or repeats without room for blanks)
    comes back as -inf.
    """
    w = _check_target(p, target)
    q_blank, q_label, _, total = _target_lattice(p.log_probs, w)
    return ForwardBackwardTable(q_blank[1:], q_label[1:]), total


def ctc_backward(p: Posteriorgram, target) -> tuple[ForwardBackwardTable, float]:
    """Suffix-side tables: the forward pass over reversed frames and target.

    Column pos of the backward tables holds the mass of frames t..T-1
    emitting labels pos..N, so it is column N+1-pos of the forward
    tables of the reversed problem at frame T-1-t.  Column 0 is unused.
    """
    w = _check_target(p, target)
    q_blank, q_label, _, total = _target_lattice(p.log_probs[::-1], w[::-1])
    unused = np.full((p.num_frames, 1), -np.inf)
    return ForwardBackwardTable(np.hstack([unused, q_blank[:0:-1, ::-1]]),
                                np.hstack([unused, q_label[:0:-1, ::-1]])), total


def ctc_loss(p: Posteriorgram, target) -> float:
    """Negative log probability of the target; +inf when infeasible."""
    _, logp = ctc_forward(p, target)
    return 0.0 - logp  # not -logp, which is -0.0 for a certain target


def ctc_prefix_logprob(p: Posteriorgram, prefix) -> float:
    """Log probability that the emitted sequence starts with `prefix`.

    The empty prefix has log probability 0 by definition.
    """
    w = _check_target(p, prefix)
    return float(_target_lattice(p.log_probs, w)[2][-1]) if w else 0.0


def bruteforce_distribution(p: Posteriorgram) -> dict[LabelSequence, float]:
    """Probability of every label sequence, by enumerating all paths.

    Guarded at BRUTEFORCE_MAX_PATHS enumerated paths; intended for
    desk-size instances only.  Path i is i written in T base-K digits
    (`itertools.product` order), enumerated `_BRUTEFORCE_BLOCK` at a
    time.  A path's key packs its collapsed labels into the leading
    digits.  Each sequence adds its paths one by one in path order from
    0.0, and sequences are listed in the order their first path appears.
    """
    t_total, k = p.num_frames, p.num_symbols
    if k ** t_total > BRUTEFORCE_MAX_PATHS:
        raise UsageError(
            f"{k}^{t_total} paths exceeds the {BRUTEFORCE_MAX_PATHS} cap"
        )
    place = k ** np.arange(t_total - 1, -1, -1, dtype=np.int64)
    frames = np.arange(t_total)
    slot: dict[int, int] = {}  # key -> index into seqs and totals
    seqs: list[LabelSequence] = []
    totals = np.zeros(0)
    for start in range(0, k ** t_total, _BRUTEFORCE_BLOCK):
        paths = np.arange(start, min(start + _BRUTEFORCE_BLOCK, k ** t_total))[:, None]
        paths = paths // place % k
        probs = np.exp(p.log_probs[frames, paths].sum(axis=1))
        keep = paths != BLANK
        keep[:, 1:] &= paths[:, 1:] != paths[:, :-1]
        # the n-th kept label of a path is its n-th digit
        digit = place[np.cumsum(keep, axis=1) - 1]
        keys, first, inverse = np.unique(np.where(keep, paths * digit, 0).sum(axis=1),
                                         return_index=True, return_inverse=True)
        for key in keys[np.argsort(first)].tolist():
            if key not in slot:
                slot[key] = len(seqs)
                seqs.append(tuple(v for v in (key // place % k).tolist() if v != BLANK))
        totals = np.concatenate([totals, np.zeros(len(seqs) - len(totals))])
        index = np.array([slot[key] for key in keys.tolist()])[inverse]
        np.add.at(totals, index, probs)  # path by path, onto the running totals
    return dict(zip(seqs, totals.tolist()))


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
