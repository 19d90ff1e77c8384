"""Watch a language model overturn the acoustic decision as its scale grows."""

import numpy as np

from speechground.ctc import Posteriorgram, Vocabulary
from speechground.decode import (DecodeConfig, estimate_prior, greedy_decode,
                                 labelsync_beam, timesync_beam)
from speechground.lm import CountLM

# Acoustically "a a" and "a b" are nearly tied: the best alignment for
# "a a" is a-blank-a (.8*.85*.54) and for "a b" a-blank-b (.8*.85*.45).
rows = np.array([
    [0.10, 0.80, 0.10],
    [0.85, 0.10, 0.05],
    [0.01, 0.54, 0.45],
])
p = Posteriorgram(np.log(rows))
vocab = Vocabulary(("a", "b"))

def pretty(seq):
    return " ".join(vocab.token(v) for v in seq) or "(empty)"

print(f"greedy:          {pretty(greedy_decode(p))}")
print(f"timesync, no LM: {pretty(timesync_beam(p, DecodeConfig()).sequence)}")
print(f"labelsync, no LM: {pretty(labelsync_beam(p, DecodeConfig()).sequence)}")

# A bigram model that has seen "a b" far more often than "a a".
lm = CountLM.from_corpus(["a b", "a b", "a b a b", "b a b"], order=2, alpha=0.5)
print(f"LM says p(b|a)/p(a|a) = "
      f"{np.exp(lm.cond_logprob('b', ('a',)) - lm.cond_logprob('a', ('a',))):.2f}")

# Sweep the fusion scale: the acoustic winner holds until the scaled
# LM preference for "a b" outweighs the ln(.54/.45) acoustic gap.
print("scale  timesync  labelsync")
last = None
for lam in np.arange(0.0, 0.31, 0.05):
    config = DecodeConfig(beam_width=64, lm_scale=float(lam))
    ts = timesync_beam(p, config, lm=lm, vocab=vocab).sequence
    ls = labelsync_beam(p, config, lm=lm, vocab=vocab).sequence
    marker = "  <- flip" if last is not None and ts != last else ""
    print(f" {lam:.2f}   {pretty(ts):8s} {pretty(ls):8s}{marker}")
    last = ts

# Prior correction divides out the average label distribution, which
# counteracts blank-heavy posteriorgrams.
prior = estimate_prior([p])
corrected = timesync_beam(p, DecodeConfig(beam_width=64, prior_scale=0.3),
                          prior=prior)
print(f"prior-corrected: {pretty(corrected.sequence)} "
      f"(blank prior {np.exp(prior[0]):.2f})")
