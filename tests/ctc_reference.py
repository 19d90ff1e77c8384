"""Scalar CTC lattice and beam loops: the reference for the vectorized paths.

These are the (t, pos) forward recurrence, the prefix-mass read-off
and the label-synchronous beam that rebuilt a whole lattice and
re-scored the LM history for every child, as they were before
`speechground.ctc._lattice` and the batched depth step in
`speechground.decode` replaced them, and the time-synchronous beam
that looped over every (hypothesis, symbol) pair and asked the LM for
every expansion, as it was before the (B, K) frame step replaced it,
and the brute-force enumeration that collapsed every path in one
Python loop, as it was before the blocked enumeration replaced it.
They are kept unchanged so the tests can compare the two; the only
edits are that the label-sync beam reads its tables from
`_forward_tables` directly and the three wrappers below return bare
tables.  Nothing in `src/` imports this module.
"""

import itertools

import numpy as np

from speechground.ctc import (BLANK, BRUTEFORCE_MAX_PATHS, LabelSequence, Posteriorgram,
                              Vocabulary, _check_target)
from speechground.decode import DecodeConfig, Hypothesis
from speechground.errors import NumericError, UsageError
from speechground.lm import EOS, LanguageModel


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


def ctc_forward(p: Posteriorgram, target) -> tuple[np.ndarray, np.ndarray, float]:
    """(T, N+1) blank and label tables of `target`, and its log probability."""
    return _forward_tables(p.log_probs, _check_target(p, target))


def ctc_backward(p: Posteriorgram, target) -> tuple[np.ndarray, np.ndarray, float]:
    """(T, N+2) suffix-side tables, column 0 unused, and the log probability."""
    w = _check_target(p, target)
    q_blank, q_label, total = _forward_tables(p.log_probs[::-1], w[::-1])
    r_blank = np.full((p.num_frames, len(w) + 2), -np.inf)
    r_label = np.full((p.num_frames, len(w) + 2), -np.inf)
    r_blank[:, 1:] = q_blank[::-1, ::-1]
    r_label[:, 1:] = q_label[::-1, ::-1]
    return r_blank, r_label, total


def ctc_prefix_logprob(p: Posteriorgram, prefix) -> float:
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


def _tokens_of(seq: LabelSequence, vocab: Vocabulary) -> tuple[str, ...]:
    return tuple(vocab.token(v) for v in seq)


def _best_first(items):
    """Sort (score, sequence) pairs: higher score first, then lex order."""
    return sorted(items, key=lambda h: (-h[0], h[1]))


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

    best = Hypothesis((), ctc_forward(p, ())[2] + lm_score((), with_eos=True))
    active: list[tuple[float, LabelSequence]] = [(0.0, ())]
    labels = range(1, p.num_symbols)
    for _depth in range(p.num_frames):
        expansions: list[tuple[float, LabelSequence]] = []
        for _, seq in active:
            for v in labels:
                new_seq = seq + (v,)
                q_blank, q_label, logp = _forward_tables(p.log_probs, new_seq)
                partial = _prefix_mass(p.log_probs, new_seq, q_blank, q_label)
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


def timesync_beam(p: Posteriorgram, config: DecodeConfig,
                  lm: LanguageModel | None = None,
                  prior: np.ndarray | None = None,
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
        if prior.shape[0] != p.num_symbols:
            raise UsageError("prior size does not match the alphabet")
        if not np.all(np.isfinite(prior)):
            raise NumericError("prior has zero-mass symbols; cannot correct")
    lp = p.log_probs
    # best first: collapsed sequence -> (score, last alignment symbol, LM tokens)
    beam: dict[LabelSequence, tuple[float, int, tuple[str, ...]]] = {(): (0.0, BLANK, ())}
    for t in range(p.num_frames):
        merged: dict[LabelSequence, tuple[float, int, tuple[str, ...]]] = {}
        for seq, (score, last, toks) in beam.items():
            for v in range(p.num_symbols):
                s = score + lp[t, v]
                if config.prior_scale > 0:
                    s -= config.prior_scale * prior[v]
                new_toks = toks
                if v == BLANK or v == last:
                    new_seq = seq
                else:
                    new_seq = seq + (v,)
                    if lm is not None and config.lm_scale > 0:
                        tok = vocab.token(v)
                        s += config.lm_scale * lm.cond_logprob(tok, toks)
                        new_toks = toks + (tok,)
                held = merged.get(new_seq)
                if held is None or s > held[0]:
                    merged[new_seq] = (s, v, new_toks)
        ranked = _best_first((sc, seq) for seq, (sc, _, _) in merged.items())
        beam = {seq: merged[seq] for _, seq in ranked[: config.beam_width]}
    best_seq = next(iter(beam))
    return Hypothesis(best_seq, beam[best_seq][0])
