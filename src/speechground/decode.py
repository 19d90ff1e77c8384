"""Decoders over posteriorgrams: greedy, and time-synchronous and
label-synchronous beam search with shallow fusion and prior correction.

Both beams take one numpy step per frame or depth over a block of
(hypothesis, symbol) candidates.  The time-sync beam scores a (B, K)
block of alignment extensions per frame.  The label-sync beam carries
each hypothesis's CTC prefix columns (row 0 the virtual "before frame
0") and its LM total, so each depth grows only its children's columns
in one `ctc._lattice` pass and scores the (B, K-1) block at once.  Both read
the LM through rows of label conditionals and EOS conditionals cached
per `LanguageModel.context`, so a bigram is asked at most once per
outcome and previous token; without fusion the same readers read zeros.

The label-sync beam stops once no kept prefix can still reach the best
complete score (Graves' bound, with a `slack` for rows that sum above 1
and a stated rounding margin), so it returns what the full search would.

Tie handling is fixed everywhere: order by higher score, then by
lexicographically smaller sequence, so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .ctc import (BLANK, LabelSequence, Posteriorgram, Vocabulary, _lattice,
                  _target_lattice, collapse)
from .errors import DataError, NumericError, UsageError
from .lm import EOS, LanguageModel


@dataclass(frozen=True)
class DecodeConfig:
    """Beam width and fusion scales shared by the search algorithms."""

    beam_width: int = 8
    lm_scale: float = 0.0
    prior_scale: float = 0.0

    def __post_init__(self):
        if self.beam_width < 1:
            raise UsageError(f"beam_width must be >= 1, got {self.beam_width}")
        if not all(0 <= scale < np.inf for scale in (self.lm_scale, self.prior_scale)):
            raise UsageError("fusion scales must be finite and non-negative")


@dataclass(frozen=True)
class Hypothesis:
    """A decoded sequence with its (fused) log score."""

    sequence: tuple
    score: float


def estimate_prior(posteriorgrams) -> np.ndarray:
    """The (K,) log label prior: the per-frame posteriors averaged over all frames."""
    posteriorgrams = list(posteriorgrams)
    if not posteriorgrams:
        raise UsageError("prior estimation needs at least one posteriorgram")
    k = posteriorgrams[0].num_symbols
    total = np.zeros(k)
    frames = 0
    for p in posteriorgrams:
        if p.num_symbols != k:
            raise UsageError("posteriorgrams disagree on alphabet size")
        total += np.exp(p.log_probs).sum(axis=0)
        frames += p.num_frames
    if frames == 0:
        raise UsageError("prior estimation needs at least one frame")
    with np.errstate(divide="ignore"):
        return np.log(total / frames)


def greedy_decode(p: Posteriorgram) -> LabelSequence:
    """Collapse the per-frame argmax path; ties go to the lowest index."""
    return collapse(np.argmax(p.log_probs, axis=1))


def _best_first(items):
    """Sort (score, sequence, ...) tuples: higher score first, then lex order."""
    return sorted(items, key=lambda h: (-h[0], h[1]))


def _at_or_above_cut(scores: np.ndarray, width: int) -> np.ndarray:
    """Indices of the scores at or above the `width`-th best, ties at the cut kept."""
    if len(scores) <= width:
        return np.arange(len(scores))
    return np.flatnonzero(scores >= np.partition(scores, -width)[-width])


def _lm_readers(config: DecodeConfig, lm: LanguageModel | None,
                vocab: Vocabulary | None, num_symbols: int):
    """Check the fusion arguments; return the LM readers `row` and `eos`, and `token`.

    `row(history)` is the (K,) array of unscaled label conditionals
    after `history`, 0.0 in the blank column (the blank is never an LM
    token); `eos(history)` is the EOS conditional.  Each is asked the
    first time it is read and cached for the decode under
    `lm.context(history)`, so an input that reads nothing never asks
    the LM.  `token[v]` is what label `v` appends to a history.  With
    fusion, a label the LM does not know is a `DataError` at any T.
    Without fusion the readers return zeros and 0.0, histories stay
    empty, and the LM is never asked.
    """
    if config.lm_scale > 0 and lm is None:
        raise UsageError("lm_scale > 0 requires a language model")
    if lm is not None and vocab is None:
        raise UsageError("fusion needs the vocabulary to name LM tokens")
    if lm is None or config.lm_scale == 0:
        zeros = np.zeros(num_symbols)
        return (lambda history: zeros), (lambda history: 0.0), ((),) * num_symbols
    labels = [vocab.token(v) for v in range(1, num_symbols)]
    for tok in labels:  # in the order the first row would ask them
        if tok != EOS and tok not in lm.tokens:
            raise DataError(f"token {tok!r} outside the model vocabulary")

    def cached(ask):
        cache = {}

        def read(history):
            context = lm.context(history)
            if context not in cache:
                cache[context] = ask(context)
            return cache[context]
        return read
    return (cached(lambda c: np.array([0.0] + [lm.cond_logprob(tok, c) for tok in labels])),
            cached(lambda c: lm.cond_logprob(EOS, c)), ((),) + tuple((tok,) for tok in labels))


@np.errstate(over="ignore")
def timesync_beam(p: Posteriorgram, config: DecodeConfig,
                  lm: LanguageModel | None = None,
                  prior: np.ndarray | None = None,
                  vocab: Vocabulary | None = None) -> Hypothesis:
    """Frame-by-frame beam over alignments with max recombination.

    Each frame extends every hypothesis by every symbol in one (B, K)
    step: the frame log probability minus the scaled log prior (`prior`,
    the (K,) array of `estimate_prior`), plus the scaled LM conditional
    exactly where the symbol creates a new label (non-blank and
    different from the previous alignment symbol).
    A hypothesis that stays on its sequence keeps the better of blank
    and its last symbol, blank on a tie.  An extension equal to a
    sequence already in the beam merges into it if it scores strictly
    higher, or equal from an earlier parent: the first maximum in
    (parent, symbol) order wins, as in a plain loop.  `np.partition`
    finds the score of the `beam_width`-th best candidate, and only
    the candidates at or above it are sorted best first.

    The LM conditionals come from the cached rows of `_lm_readers`,
    which have no EOS column because the blank never grows a label; a
    T=0 input never asks the LM at all.

    Log probabilities and LM terms are <= 0, so no score exceeds T times
    the largest prior correction; a correction that could overflow over
    the T frames raises `NumericError`.  A scaled LM term that overflows
    is -inf, as for a zero-probability token.

    Returns the collapsed sequence of the best surviving hypothesis.
    """
    row, _, token = _lm_readers(config, lm, vocab, p.num_symbols)
    if config.prior_scale > 0:
        if prior is None:
            raise UsageError("prior_scale > 0 requires a prior")
        if prior.shape[0] != p.num_symbols:
            raise UsageError("prior size does not match the alphabet")
        if not np.all(np.isfinite(prior)):
            raise NumericError("prior has zero-mass symbols; cannot correct")
    shift = config.prior_scale * prior if config.prior_scale > 0 else 0.0
    if not np.all(np.isfinite(p.num_frames * shift)):
        raise NumericError(f"prior correction overflows over {p.num_frames} frames; "
                           "lower the prior scale")
    lp = p.log_probs
    symbols = np.arange(p.num_symbols)
    # the beam, best first: scores, last alignment symbols, collapsed
    # sequences and LM token histories
    scores = np.zeros(1)
    last = np.full(1, BLANK)
    seqs: tuple[LabelSequence, ...] = ((),)
    histories: tuple[tuple[str, ...], ...] = ((),)
    width = config.beam_width
    for t in range(p.num_frames):
        # (score + lp) - shift: folding the shift into lp first rounds differently
        cand = scores[:, None] + lp[t] - shift
        grow = (symbols != BLANK) & (symbols != last[:, None])
        rows = config.lm_scale * np.array([row(h) for h in histories])
        np.add(cand, rows, out=cand, where=grow)
        held = cand[np.arange(len(seqs)), last]
        keep_last = held > cand[:, BLANK]
        stay = np.where(keep_last, held, cand[:, BLANK])
        stay_last = np.where(keep_last, last, BLANK)
        # an extension that equals a sequence in the beam competes with its stay
        position = {seq: i for i, seq in enumerate(seqs)}
        for i, seq in enumerate(seqs):
            j = position.get(seq[:-1]) if seq else None
            if j is None or not grow[j, seq[-1]]:
                continue
            grow[j, seq[-1]] = False
            s = cand[j, seq[-1]]
            if s > stay[i] or (s == stay[i] and j < i):
                stay[i], stay_last[i] = s, seq[-1]
        parents, labels = np.nonzero(grow)
        pool = np.concatenate([stay, cand[parents, labels]])
        ranked = []
        for c in _at_or_above_cut(pool, width).tolist():
            if c < len(seqs):
                ranked.append((pool[c], seqs[c], stay_last[c], histories[c]))
            else:
                j, v = int(parents[c - len(seqs)]), int(labels[c - len(seqs)])
                ranked.append((pool[c], seqs[j] + (v,), v, histories[j] + token[v]))
        scores, seqs, last, histories = zip(*_best_first(ranked)[:width])
        scores, last = np.array(scores), np.array(last)
    return Hypothesis(seqs[0], float(scores[0]))


@np.errstate(over="ignore")
def labelsync_beam(p: Posteriorgram, config: DecodeConfig,
                   lm: LanguageModel | None = None,
                   vocab: Vocabulary | None = None) -> Hypothesis:
    """Depth-by-depth beam over label sequences via CTC prefix mass.

    This is Graves' CTC prefix search run as a beam.  Each depth grows
    every (hypothesis, label) child in one `ctc._lattice` pass, which
    allocates only the children's columns, and scores the (B, K-1)
    block at once: a partial score is the prefix log probability plus
    the scaled LM total of the labels, and a complete score swaps in
    the full-sequence log probability and adds the scaled LM EOS term.
    The block's parent and label arrays, and their lists, are built
    once per beam size B in a decode and only read after that.
    Children with a -inf partial score are dropped; when none is, the
    depth keeps the whole block and gathers nothing.  The best complete
    child replaces the best so far if it scores strictly higher, or
    equal with a smaller sequence; among children tied at the top the
    smallest sequence stands for them.  `np.partition` finds the
    `beam_width`-th best partial score, and only the children at or
    above it are sorted best first.  Depth is capped at the frame count,
    past which nothing is feasible.

    The search stops at Graves' bound once no kept child can lead to a
    better complete score.  Prefix mass leaves the frames after the
    prefix free, so the full mass of a child or of any extension exceeds
    its prefix mass by at most `slack` = sum over t of
    max(0, logsumexp(lp[t])), 0 on normalized rows; and LM terms are
    <= 0, so an extension's scaled LM total is at most the child's.
    After the best is updated and the children ranked, the depth stops
    if every kept child's (mass + reach) + scaled LM total is strictly
    below the best complete score (a tie could still go to a smaller
    sequence), where `reach` is `slack` plus a rounding margin.  Rounded
    sums and products are monotone and every score adds its LM part
    last, so only the masses' rounding needs the margin: each finite log
    mass lies within +-`size` = T(max finite |lp| + log K + 1) + 1 and
    comes through at most 3T+2 steps, each adding under 4u size
    (u = 2^-53) with weights <= 1, so with `slack` and `reach` the error
    stays under 32(T+K)u size; the margin, 2^-40 (T+K) size, is 256
    times that.

    LM terms come from the cached readers of `_lm_readers`: a row of
    label conditionals for each parent and one EOS conditional for each
    child, so a T=0 input asks for the root's EOS and builds no row.
    """
    row, eos, token = _lm_readers(config, lm, vocab, p.num_symbols)
    lp = p.log_probs
    labels = np.arange(1, p.num_symbols)
    width = config.beam_width
    # the beam, best first: (T+1, B) prefix columns, unscaled LM totals,
    # label sequences and LM token histories
    q_blank, q_label, _, _ = _target_lattice(lp, ())
    totals = np.zeros(1)
    seqs: tuple[LabelSequence, ...] = ((),)
    histories: tuple[tuple[str, ...], ...] = ((),)
    best = Hypothesis((), float(np.logaddexp(q_blank[-1, 0], q_label[-1, 0])
                                + config.lm_scale * eos(())))
    # Graves' stop: a child's prefix mass plus `reach` bounds the full mass of
    # it and of every extension, the rounding included (see above)
    slack = float(np.maximum(np.logaddexp.reduce(lp, axis=1), 0.0).sum())
    size = p.num_frames * (np.max(np.abs(lp), where=lp > -np.inf, initial=0.0)
                           + np.log(p.num_symbols) + 1.0) + 1.0
    margin = 2.0 ** -40 * (p.num_frames + p.num_symbols) * size
    reach = slack + margin
    # beam size -> its children's parent and label arrays and their lists, read only
    blocks = {}
    for _depth in range(p.num_frames):
        given = len(seqs)
        block = blocks.get(given)
        if block is None:
            parents, grown = np.repeat(np.arange(given), len(labels)), np.tile(labels, given)
            block = blocks[given] = parents, grown, parents.tolist(), grown.tolist()
        parents, grown, parent_list, grown_list = block
        last = np.array([seq[-1] if seq else BLANK for seq in seqs])
        q_blank, q_label, mass = _lattice(lp, q_blank, q_label, grown, parents,
                                          grown != last[parents])
        rows = np.array([row(h) for h in histories])
        child_totals = (totals[:, None] + rows[:, 1:]).ravel()
        scaled = config.lm_scale * child_totals
        partial, reached = mass + scaled, mass + reach + scaled
        if len(partial) and -np.inf < partial.min():  # nothing died: nothing to gather
            parents, grown = parent_list, grown_list
        else:
            live = np.flatnonzero(partial != -np.inf)
            if not len(live):
                break
            parents, grown = parents[live].tolist(), grown[live].tolist()
            partial, reached, child_totals = partial[live], reached[live], child_totals[live]
            q_blank, q_label = q_blank[:, live], q_label[:, live]
        histories = [histories[j] + token[v] for j, v in zip(parents, grown)]
        complete = (np.logaddexp(q_blank[-1], q_label[-1])
                    + config.lm_scale * (child_totals + [eos(h) for h in histories]))
        top = complete.max()
        if top >= best.score:
            seq = min(seqs[parents[c]] + (grown[c],) for c in np.flatnonzero(complete == top))
            if top > best.score or seq < best.sequence:
                best = Hypothesis(seq, float(top))
        ranked = _best_first((partial[c], seqs[parents[c]] + (grown[c],), c)
                             for c in _at_or_above_cut(partial, width).tolist())[:width]
        _, seqs, kept = zip(*ranked)
        kept = np.array(kept)
        if reached[kept].max() < best.score:
            break
        q_blank, q_label, totals = q_blank[:, kept], q_label[:, kept], child_totals[kept]
        histories = [histories[c] for c in kept]
    return best
