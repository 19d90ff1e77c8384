"""Decoders over posteriorgrams: greedy, time-synchronous and
label-synchronous beam search with shallow fusion, plus the additive
attention primitives for attention-based sequence decoding.

Tie handling is fixed everywhere: order by higher score, then by
lexicographically smaller sequence, so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .ctc import (BLANK, LabelSequence, Posteriorgram, Vocabulary, _prefix_mass,
                  collapse, ctc_forward)
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
        if self.lm_scale < 0 or self.prior_scale < 0:
            raise UsageError("fusion scales must be non-negative")


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


def _tokens_of(seq: LabelSequence, vocab: Vocabulary) -> tuple[str, ...]:
    return tuple(vocab.token(v) for v in seq)


def _best_first(items):
    """Sort (score, sequence) pairs: higher score first, then lex order."""
    return sorted(items, key=lambda h: (-h[0], h[1]))


def timesync_beam(p: Posteriorgram, config: DecodeConfig,
                  lm: LanguageModel | None = None,
                  prior: LabelPrior | None = None,
                  vocab: Vocabulary | None = None) -> Hypothesis:
    """Frame-by-frame beam over alignments with max recombination.

    Each step extends every hypothesis by every symbol, adding the
    frame log probability minus the scaled log prior; the scaled LM
    conditional is added exactly when the symbol creates a new label
    (non-blank and different from the previous alignment symbol).
    Hypotheses are recombined by collapsed sequence keeping the max,
    then pruned to the beam width.

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
    lp = p.log_probs
    # state: collapsed sequence -> (score, last alignment symbol)
    beam: dict[LabelSequence, tuple[float, int]] = {(): (0.0, BLANK)}
    order: list[LabelSequence] = [()]
    for t in range(p.num_frames):
        merged: dict[LabelSequence, tuple[float, int]] = {}
        for seq in order:
            score, last = beam[seq]
            for v in range(p.num_symbols):
                s = score + lp[t, v]
                if config.prior_scale > 0:
                    s -= config.prior_scale * prior.log_prior[v]
                if v == BLANK or v == last:
                    new_seq = seq
                else:
                    new_seq = seq + (v,)
                    if lm is not None and config.lm_scale > 0:
                        s += config.lm_scale * lm.cond_logprob(
                            vocab.token(v), _tokens_of(seq, vocab))
                held = merged.get(new_seq)
                if held is None or s > held[0]:
                    merged[new_seq] = (s, v)
        ranked = _best_first((sc, seq) for seq, (sc, _) in merged.items())
        order = [seq for _, seq in ranked[: config.beam_width]]
        beam = {seq: merged[seq] for seq in order}
    best_seq = order[0]
    return Hypothesis(best_seq, beam[best_seq][0])


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

    def lm_score(seq: LabelSequence, with_eos: bool) -> float:
        if lm is None or config.lm_scale == 0:
            return 0.0
        toks = _tokens_of(seq, vocab)
        total = 0.0
        for i, tok in enumerate(toks):
            total += lm.cond_logprob(tok, toks[:i])
        if with_eos:
            total += lm.cond_logprob(EOS, toks)
        return config.lm_scale * total

    best = Hypothesis((), ctc_forward(p, ())[1] + lm_score((), with_eos=True))
    active: list[tuple[float, LabelSequence]] = [(0.0, ())]
    labels = range(1, p.num_symbols)
    for _depth in range(p.num_frames):
        expansions: list[tuple[float, LabelSequence]] = []
        for _, seq in active:
            for v in labels:
                new_seq = seq + (v,)
                table, logp = ctc_forward(p, new_seq)
                partial = _prefix_mass(p.log_probs, new_seq, table.forward_blank,
                                       table.forward_label)
                partial += lm_score(new_seq, with_eos=False)
                if partial == -np.inf:
                    continue
                expansions.append((partial, new_seq))
                total = logp + lm_score(new_seq, with_eos=True)
                if total > best.score or (total == best.score
                                          and new_seq < best.sequence):
                    best = Hypothesis(new_seq, total)
        if not expansions:
            break
        active = _best_first(expansions)[: config.beam_width]
    return best


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
    best = Hypothesis((), model.cond_logprob(EOS, ()))
    active: list[tuple[float, tuple[str, ...]]] = [(0.0, ())]
    for _depth in range(max_len):
        expansions: list[tuple[float, tuple[str, ...]]] = []
        for score, seq in active:
            for tok in model.tokens:
                s = score + model.cond_logprob(tok, seq)
                if s == -np.inf:
                    continue
                new_seq = seq + (tok,)
                expansions.append((s, new_seq))
                total = s + model.cond_logprob(EOS, new_seq)
                if total > best.score or (total == best.score
                                          and new_seq < best.sequence):
                    best = Hypothesis(new_seq, total)
        if not expansions:
            break
        active = _best_first(expansions)[: config.beam_width]
    return best
