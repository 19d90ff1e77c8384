"""Decoders over posteriorgrams: greedy, time-synchronous and
label-synchronous beam search with shallow fusion, plus the additive
attention primitives for attention-based sequence decoding.

The label-sync and autoregressive beams share one depth loop.  A
label-sync hypothesis carries its CTC prefix columns (row 0 the virtual
"before frame 0") and its LM total, so each depth grows every child in
one `ctc._lattice` pass and asks the LM only for the new conditional.

The time-sync beam takes one numpy step per frame over a (B, K) block
of (hypothesis, symbol) candidates, and reads the LM through rows of
scaled conditionals cached per `LanguageModel.context`, so a bigram
is asked at most once per label and previous token in a decode.

Tie handling is fixed everywhere: order by higher score, then by
lexicographically smaller sequence, so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .ctc import (BLANK, LabelSequence, Posteriorgram, Vocabulary, _lattice,
                  _target_lattice, collapse)
from .errors import NumericError, UsageError
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


@dataclass
class LabelPrior:
    """Marginal label distribution used for prior-corrected scoring."""

    log_prior: np.ndarray
    num_frames: int


def estimate_prior(posteriorgrams) -> LabelPrior:
    """Average the per-frame posteriors, weighting each frame equally."""
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
        return LabelPrior(np.log(total / frames), frames)


def greedy_decode(p: Posteriorgram) -> LabelSequence:
    """Collapse the per-frame argmax path; ties go to the lowest index."""
    if p.num_frames == 0:
        return ()
    return collapse(np.argmax(p.log_probs, axis=1))


def shallow_fusion_score(am_logprob: float, lm_logprob: float, lm_scale: float) -> float:
    """Acoustic score plus scaled language-model score."""
    return am_logprob + lm_scale * lm_logprob


def _best_first(items):
    """Sort (score, sequence, ...) tuples: higher score first, then lex order."""
    return sorted(items, key=lambda h: (-h[0], h[1]))


def _depth_beam(root_state, children, complete, width: int, max_depth: int) -> Hypothesis:
    """Depth-by-depth beam over (partial score, sequence, state) hypotheses.

    `children(active)` yields every one-label extension of `active`, and
    `complete(partial, sequence, state)` scores ending a hypothesis.
    Children with a -inf partial score are dropped; each other child may
    become the best complete hypothesis, and the best `width` go on.
    """
    best = Hypothesis((), complete(0.0, (), root_state))
    active = [(0.0, (), root_state)]
    for _depth in range(max_depth):
        expansions = [child for child in children(active) if child[0] != -np.inf]
        if not expansions:
            break
        for partial, seq, state in expansions:
            total = complete(partial, seq, state)
            if total > best.score or (total == best.score and seq < best.sequence):
                best = Hypothesis(seq, total)
        active = _best_first(expansions)[:width]
    return best


def timesync_beam(p: Posteriorgram, config: DecodeConfig,
                  lm: LanguageModel | None = None,
                  prior: LabelPrior | None = None,
                  vocab: Vocabulary | None = None) -> Hypothesis:
    """Frame-by-frame beam over alignments with max recombination.

    Each frame extends every hypothesis by every symbol in one (B, K)
    step: the frame log probability minus the scaled log prior, plus
    the scaled LM conditional exactly where the symbol creates a new
    label (non-blank and different from the previous alignment symbol).
    A hypothesis that stays on its sequence keeps the better of blank
    and its last symbol, blank on a tie.  An extension equal to a
    sequence already in the beam merges into it if it scores strictly
    higher, or equal from an earlier parent: the first maximum in
    (parent, symbol) order wins, as in a plain loop.  `np.partition`
    finds the score of the `beam_width`-th best candidate, and only
    the candidates at or above it are sorted best first.

    The LM row of a hypothesis (the scaled conditional of every label)
    is built the first time a frame needs it and cached for the call
    under `lm.context(history)`, so a bigram asks for one row per
    previous token and a T=0 input never asks at all.

    Returns the collapsed sequence of the best surviving hypothesis.
    """
    if config.lm_scale > 0 and lm is None:
        raise UsageError("lm_scale > 0 requires a language model")
    if lm is not None and vocab is None:
        raise UsageError("fusion needs the vocabulary to name LM tokens")
    if config.prior_scale > 0:
        if prior is None:
            raise UsageError("prior_scale > 0 requires a prior")
        if prior.log_prior.shape[0] != p.num_symbols:
            raise UsageError("prior size does not match the alphabet")
        if not np.all(np.isfinite(prior.log_prior)):
            raise NumericError("prior has zero-mass symbols; cannot correct")
    fuse = lm is not None and config.lm_scale > 0
    lp = p.log_probs
    symbols = np.arange(p.num_symbols)
    lm_rows: dict[tuple[str, ...], np.ndarray] = {}

    def lm_row(history):
        context = lm.context(history)
        row = lm_rows.get(context)
        if row is None:
            row = lm_rows[context] = np.array([0.0] + [
                config.lm_scale * lm.cond_logprob(vocab.token(v), context)
                for v in range(1, p.num_symbols)])
        return row

    # the beam, best first: scores, last alignment symbols, collapsed
    # sequences and LM token histories
    scores = np.zeros(1)
    last = np.full(1, BLANK)
    seqs: tuple[LabelSequence, ...] = ((),)
    histories: tuple[tuple[str, ...], ...] = ((),)
    width = config.beam_width
    for t in range(p.num_frames):
        cand = scores[:, None] + lp[t]
        if config.prior_scale > 0:
            cand -= config.prior_scale * prior.log_prior
        grow = (symbols != BLANK) & (symbols != last[:, None])
        if fuse:
            np.add(cand, np.array([lm_row(h) for h in histories]), out=cand, where=grow)
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
        cut = np.partition(pool, -width)[-width] if len(pool) > width else -np.inf
        ranked = []
        for c in np.flatnonzero(pool >= cut).tolist():
            if c < len(seqs):
                ranked.append((pool[c], seqs[c], stay_last[c], histories[c]))
            else:
                j, v = int(parents[c - len(seqs)]), int(labels[c - len(seqs)])
                ranked.append((pool[c], seqs[j] + (v,), v,
                               histories[j] + (vocab.token(v),) if fuse else ()))
        scores, seqs, last, histories = zip(*_best_first(ranked)[:width])
        scores, last = np.array(scores), np.array(last)
    return Hypothesis(seqs[0], float(scores[0]))


def labelsync_beam(p: Posteriorgram, config: DecodeConfig,
                   lm: LanguageModel | None = None,
                   vocab: Vocabulary | None = None) -> Hypothesis:
    """Depth-by-depth beam over label sequences via CTC prefix mass.

    Partial hypotheses are ranked by prefix log probability plus the
    scaled LM score of the labels; completing a hypothesis swaps in
    the full-sequence log probability and adds the scaled LM EOS term.
    Depth is capped at the frame count, past which nothing is feasible.
    """
    if config.lm_scale > 0 and lm is None:
        raise UsageError("lm_scale > 0 requires a language model")
    if lm is not None and vocab is None:
        raise UsageError("fusion needs the vocabulary to name LM tokens")
    fuse = lm is not None and config.lm_scale > 0
    lp = p.log_probs
    labels = np.arange(1, p.num_symbols)

    def children(active):
        # every active hypothesis grows by every label in one lattice pass
        parents = np.repeat(np.arange(len(active)), len(labels))
        grown = np.tile(labels, len(active))
        last = np.array([seq[-1] if seq else BLANK for _, seq, _ in active])
        columns = [np.stack(c, axis=1) for c in zip(*(st[:2] for _, _, st in active))]
        q_blank, q_label, mass = _lattice(lp, *columns, grown, parents,
                                          grown != last[parents])
        first = len(active)  # column of the first child
        for j, (parent, v) in enumerate(zip(parents, grown.tolist())):
            _, seq, (_, _, lm_total, toks) = active[parent]
            if fuse:
                tok = vocab.token(v)
                lm_total += lm.cond_logprob(tok, toks)
                toks += (tok,)
            # without fusion lm_total stays 0.0, so this adds exactly 0.0
            yield (float(mass[j]) + config.lm_scale * lm_total, seq + (v,),
                   (q_blank[:, first + j], q_label[:, first + j], lm_total, toks))

    def complete(_partial, _seq, state):
        q_blank, q_label, lm_total, toks = state
        lm_term = config.lm_scale * (lm_total + lm.cond_logprob(EOS, toks)) if fuse else 0.0
        return float(np.logaddexp(q_blank[-1], q_label[-1])) + lm_term

    root_blank, root_label, _, _ = _target_lattice(lp, ())
    return _depth_beam((root_blank[:, 0], root_label[:, 0], 0.0, ()), children,
                       complete, config.beam_width, p.num_frames)


def aed_attention(state: np.ndarray, encodings: np.ndarray,
                  w_hidden: np.ndarray, w_energy: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Additive attention of a decoder state over encoder frames.

    Energy per frame is w_energy . tanh(w_hidden @ [state; frame]);
    weights are the softmax over frames and the context their weighted
    sum.

    Args:
        state: decoder state, shape (d_state,).
        encodings: encoder outputs, shape (T, d_enc), T >= 1.
        w_hidden: mixing matrix, shape (d_att, d_state + d_enc).
        w_energy: energy vector, shape (d_att,).

    Returns:
        (context, weights): shapes (d_enc,) and (T,); weights sum to 1.
    """
    state = np.asarray(state, dtype=np.float64)
    encodings = np.asarray(encodings, dtype=np.float64)
    if encodings.ndim != 2 or encodings.shape[0] == 0:
        raise UsageError("encodings must be a non-empty (T, d) array")
    if state.ndim != 1:
        raise UsageError("decoder state must be 1-D")
    d_total = state.shape[0] + encodings.shape[1]
    if w_hidden.ndim != 2 or w_hidden.shape[1] != d_total:
        raise UsageError(
            f"w_hidden must have {d_total} columns, got {w_hidden.shape}")
    if w_energy.shape != (w_hidden.shape[0],):
        raise UsageError("w_energy length must match w_hidden rows")
    stacked = np.concatenate(
        [np.broadcast_to(state, (encodings.shape[0], state.shape[0])), encodings],
        axis=1)
    energies = np.tanh(stacked @ w_hidden.T) @ w_energy
    energies = energies - np.max(energies)
    weights = np.exp(energies)
    weights /= weights.sum()
    return weights @ encodings, weights


def aed_beam(model: LanguageModel, config: DecodeConfig, max_len: int) -> Hypothesis:
    """Beam search over an autoregressive conditional model.

    Tracks the running product of conditionals; a hypothesis completes
    by taking the EOS conditional, and every hypothesis still active at
    max_len is completed the same way.  The returned sequence excludes
    EOS.  Width 1 reproduces greedy autoregressive decoding.
    """
    if max_len < 0:
        raise UsageError(f"max_len must be non-negative, got {max_len}")

    def children(active):
        for score, seq, _ in active:
            for tok in model.tokens:
                yield score + model.cond_logprob(tok, seq), seq + (tok,), None

    def complete(score, seq, _state):
        return score + model.cond_logprob(EOS, seq)

    return _depth_beam(None, children, complete, config.beam_width, max_len)
