"""Autoregressive token models for fusion scoring and perplexity.

A language model assigns conditional log probabilities over its
vocabulary plus the end-of-sentence outcome; for every history those
probabilities sum to one.  Histories are tuples of previous tokens
within the sentence.  `context(history)` names the part of a history
the conditionals depend on: any two histories with equal contexts get
equal conditionals, so a decoder may cache them under that key.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError

BOS = "<s>"
EOS = "</s>"


class LanguageModel:
    """Interface: vocabulary plus conditional log probabilities.

    Every conditional is a log probability, so it is <= 0 (or -inf for
    an impossible outcome).  Label-sync decoding relies on this: its
    early stop bounds a sequence's scaled LM total by its prefix's.
    """

    tokens: tuple[str, ...]

    def cond_logprob(self, token: str, history: tuple[str, ...]) -> float:
        raise NotImplementedError

    def context(self, history: tuple[str, ...]) -> tuple[str, ...]:
        """The part of `history` the conditionals depend on; all of it by default."""
        return history

    def sentence_logprob(self, sentence) -> float:
        """Log probability of a sentence including its EOS event."""
        total = 0.0
        hist: tuple[str, ...] = ()
        for tok in sentence:
            total += self.cond_logprob(tok, hist)
            hist = hist + (tok,)
        return total + self.cond_logprob(EOS, hist)


@dataclass
class UniformLM(LanguageModel):
    """Every outcome in V plus EOS is equally likely, any history."""

    tokens: tuple[str, ...]

    def cond_logprob(self, token: str, history=()) -> float:
        if token != EOS and token not in self.tokens:
            raise DataError(f"token {token!r} outside the model vocabulary")
        return -np.log(len(self.tokens) + 1)

    def context(self, history=()) -> tuple[str, ...]:
        """No history matters."""
        return ()


@dataclass
class CountLM(LanguageModel):
    """Add-alpha smoothed count model, of order 2 if it holds bigrams, else 1.

    Order 2 conditions on the previous token (BOS at sentence start)
    and backs off to the smoothed unigram distribution when the
    history was never observed.  Its context is the last token, or
    nothing for order 1.
    """

    alpha: float
    unigrams: dict[str, int]
    bigrams: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        self.order = 2 if self.bigrams else 1
        if not 0 <= self.alpha < np.inf:
            raise UsageError(f"alpha must be finite and non-negative, got {self.alpha}")
        if BOS in self.unigrams or any(w == BOS for (_, w) in self.bigrams):
            raise DataError(f"{BOS} cannot be a predicted outcome")
        seen = set(self.unigrams)
        for (ctx, tok) in self.bigrams:
            seen.add(ctx)
            seen.add(tok)
        self.tokens = tuple(sorted(seen - {BOS, EOS}))
        self._uni_total = sum(self.unigrams.values())
        self._ctx_totals: dict[str, int] = {}
        for (ctx, _), c in self.bigrams.items():
            self._ctx_totals[ctx] = self._ctx_totals.get(ctx, 0) + c
        # counts are non-negative, so the totals bound every count, and the
        # largest total's denominator bounds every numerator and denominator
        totals = [self._uni_total, *self._ctx_totals.values()]
        try:
            finite = np.isfinite(np.array(totals, dtype=np.float64)).all()
        except OverflowError:
            finite = False
        if not finite:
            raise DataError("count totals do not fit a finite float")
        if not np.isfinite(max(totals) + self.alpha * (len(self.tokens) + 1)):
            raise UsageError(f"alpha {self.alpha} overflows the LM denominator")
        if self.alpha == 0 and self._uni_total == 0:
            raise DataError("no counts and no smoothing leaves nothing to predict")
        self._known = frozenset(self.tokens)
        # log denominator per nonzero total: the unigram table's, and each context's
        self._log_den = {t: np.log(t + self.alpha * (len(self.tokens) + 1)) for t in totals if t}
        self._log_den[0] = np.log(self._uni_total + self.alpha * (len(self.tokens) + 1))

    @classmethod
    def from_corpus(cls, sentences, order: int = 2, alpha: float = 1.0) -> "CountLM":
        """Count events over whitespace-split or pre-tokenized sentences."""
        if order not in (1, 2):
            raise UsageError(f"order must be 1 or 2, got {order}")
        unigrams: dict[str, int] = {}
        bigrams: dict[tuple[str, str], int] = {}
        for sent in sentences:
            toks = sent.split() if isinstance(sent, str) else list(sent)
            prev = BOS
            for tok in toks + [EOS]:
                unigrams[tok] = unigrams.get(tok, 0) + 1
                bigrams[(prev, tok)] = bigrams.get((prev, tok), 0) + 1
                prev = tok
        return cls(alpha, unigrams, bigrams if order == 2 else {})

    def context(self, history: tuple[str, ...] = ()) -> tuple[str, ...]:
        """The last token for order 2 (empty at sentence start), else nothing."""
        return history[-1:] if self.order == 2 else ()

    def cond_logprob(self, token: str, history: tuple[str, ...] = ()) -> float:
        if token != EOS and token not in self._known:
            raise DataError(f"token {token!r} outside the model vocabulary")
        ctx = history[-1] if history else BOS
        # an unseen context (every context, at order 1) reads the unigram table (key 0)
        total = self._ctx_totals.get(ctx, 0)
        count = self.bigrams.get((ctx, token), 0) if total else self.unigrams.get(token, 0)
        num = count + self.alpha
        if num == 0:
            return -np.inf
        return float(np.log(num) - self._log_den[total])


def lm_perplexity(lm: LanguageModel, sentences) -> float:
    """Corpus perplexity: exp of mean NLL per token, EOS counted.

    Pools log probability and token counts over all sentences before
    exponentiating, so the result is the corpus-level value rather
    than a mean of per-sentence perplexities.
    """
    sentences = list(sentences)
    total_tokens = 0
    total_logprob = 0.0
    for sent in sentences:
        toks = sent.split() if isinstance(sent, str) else list(sent)
        total_logprob += lm.sentence_logprob(toks)
        total_tokens += len(toks) + 1
    if total_tokens == 0:
        raise UsageError("perplexity needs at least one sentence")
    return float(np.exp(-total_logprob / total_tokens))


def write_lm(path: str, lm: CountLM) -> None:
    """Count file: one 'n-gram<TAB>count' line per event, order inferred."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in sorted(lm.unigrams):
            fh.write(f"{tok}\t{lm.unigrams[tok]}\n")
        for (ctx, tok) in sorted(lm.bigrams):
            fh.write(f"{ctx} {tok}\t{lm.bigrams[(ctx, tok)]}\n")


def read_lm(path: str, alpha: float = 1.0) -> CountLM:
    """Load a count file; the widest n-gram on any line sets the order."""
    unigrams: dict[str, int] = {}
    bigrams: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise DataError(f"line {lineno}: expected 'n-gram<TAB>count'")
            grams = parts[0].split()
            try:
                count = int(parts[1])
            except ValueError as exc:
                raise DataError(f"line {lineno}: bad count: {exc}") from exc
            if count < 0:
                raise DataError(f"line {lineno}: negative count {count}")
            if len(grams) == 1:
                unigrams[grams[0]] = unigrams.get(grams[0], 0) + count
            elif len(grams) == 2:
                key = (grams[0], grams[1])
                bigrams[key] = bigrams.get(key, 0) + count
            else:
                raise DataError(f"line {lineno}: only orders 1 and 2 are supported")
    if not unigrams and not bigrams:
        raise DataError("count file holds no events")
    return CountLM(alpha, unigrams, bigrams)
