"""Decoder tests against brute-force path enumeration oracles."""

import itertools
import warnings

import numpy as np
import pytest

from speechground import decode
from speechground.ctc import (BLANK, Posteriorgram, Vocabulary,
                              bruteforce_distribution, collapse)
from speechground.decode import (DecodeConfig, estimate_prior, greedy_decode,
                                 labelsync_beam, timesync_beam)
from speechground.errors import NumericError, UsageError
from speechground.lm import BOS, EOS, CountLM, LanguageModel
from tests import ctc_reference as reference


def random_posteriorgram(rng, num_frames, num_symbols):
    """Strictly positive rows drawn from a gamma, normalized."""
    probs = rng.gamma(1.0, 1.0, size=(num_frames, num_symbols)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    return Posteriorgram(np.log(probs))


def oracle_maxpath(p, prior_scale=0.0, prior=None):
    """Best collapsed sequence by exhaustive max over alignment paths."""
    lp = p.log_probs
    best = {}
    for path in itertools.product(range(p.num_symbols), repeat=p.num_frames):
        s = float(sum(lp[t, v] for t, v in enumerate(path)))
        if prior_scale > 0:
            s -= prior_scale * float(sum(prior[v] for v in path))
        seq = collapse(path)
        if seq not in best or s > best[seq]:
            best[seq] = s
    winner = min(best, key=lambda seq: (-best[seq], seq))
    return winner, best


def oracle_sum_argmax(p, lm_scale=0.0, lm=None, vocab=None):
    """Best sequence by exhaustive path sums plus the scaled LM score."""
    best_seq, best_score = None, -np.inf
    for seq, mass in sorted(bruteforce_distribution(p).items()):
        if mass == 0.0:
            continue
        s = float(np.log(mass))
        if lm is not None and lm_scale > 0:
            toks = tuple(vocab.token(v) for v in seq)
            for i, tok in enumerate(toks):
                s += lm_scale * lm.cond_logprob(tok, toks[:i])
            s += lm_scale * lm.cond_logprob(EOS, toks)
        if s > best_score:
            best_seq, best_score = seq, s
    return best_seq, best_score


class TableLM(LanguageModel):
    """Bigram lookup table; each row is a distribution over tokens and EOS."""

    def __init__(self, table):
        self.table = table
        self.tokens = tuple(sorted(set(table) - {BOS}))

    def cond_logprob(self, token, history=()):
        prev = history[-1] if history else BOS
        prob = self.table[prev].get(token, 0.0)
        with np.errstate(divide="ignore"):
            return float(np.log(prob))


class GridLM(LanguageModel):
    """Bigram table of log scores used as given; the context is the whole history."""

    def __init__(self, table):
        self.table = table
        self.tokens = tuple(sorted(set(table) - {BOS}))

    def cond_logprob(self, token, history=()):
        return self.table[history[-1] if history else BOS][token]


class CountingLM(LanguageModel):
    """Wraps a model and records what it is asked; `whole` makes every history its own context."""

    def __init__(self, lm, whole=False):
        self.lm, self.whole = lm, whole
        self.tokens = lm.tokens
        self.asked = []
        self.contexts = 0

    def context(self, history=()):
        self.contexts += 1
        return history if self.whole else self.lm.context(history)

    def cond_logprob(self, token, history=()):
        self.asked.append(token)
        return self.lm.cond_logprob(token, history)


class EosRecorder(CountingLM):
    """Every history is its own context; records each history asked for its EOS term."""

    def __init__(self, lm):
        super().__init__(lm, whole=True)
        self.ended = []

    def cond_logprob(self, token, history=()):
        if token == EOS:
            self.ended.append(history)
        return super().cond_logprob(token, history)


def random_table_lm(rng, tokens):
    table = {}
    for hist in (BOS, *tokens):
        row = rng.gamma(1.0, 1.0, size=len(tokens) + 1) + 0.05
        row /= row.sum()
        table[hist] = dict(zip((*tokens, EOS), row))
    return TableLM(table)


def corpus_lm(letters):
    """Small smoothed bigram model whose vocabulary is exactly `letters`."""
    corpus = {
        ("a", "b"): ["a b", "a b a b", "b a a", "a"],
        ("a", "b", "c"): ["a b c", "c a b", "b b c a", "a c"],
    }[letters]
    return CountLM.from_corpus(corpus, order=2, alpha=0.7)


# Columns are (blank, a, b).  The best alignment for "a a" is a-blank-a
# with mass .8*.85*.54 and for "a b" it is a-blank-b with .8*.85*.45, so
# under max-path fusion the decision flips where
#   ln(.54/.45) + lam*(ln p(a|a) - ln p(b|a)) = 0
# which for p(a|a)=.1, p(b|a)=.6 gives lam* = ln(1.2)/ln(6) ~ 0.1017.
FLIP_ROWS = np.array([
    [0.10, 0.80, 0.10],
    [0.85, 0.10, 0.05],
    [0.01, 0.54, 0.45],
])
FLIP_VOCAB = Vocabulary(("a", "b"))


def flip_instance():
    return Posteriorgram(np.log(FLIP_ROWS))


def flip_lm():
    return TableLM({
        BOS: {"a": 0.7, "b": 0.2, EOS: 0.1},
        "a": {"a": 0.1, "b": 0.6, EOS: 0.3},
        "b": {"a": 0.45, "b": 0.45, EOS: 0.1},
    })


class TestDecodeConfig:
    def test_zero_width_rejected(self):
        with pytest.raises(UsageError, match="beam_width"):
            DecodeConfig(beam_width=0)

    def test_negative_scales_rejected(self):
        with pytest.raises(UsageError):
            DecodeConfig(lm_scale=-0.1)
        with pytest.raises(UsageError):
            DecodeConfig(prior_scale=-1.0)

    def test_non_finite_scales_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(UsageError, match="finite"):
                DecodeConfig(lm_scale=bad)
            with pytest.raises(UsageError, match="finite"):
                DecodeConfig(prior_scale=bad)


class TestGreedy:
    def test_collapses_argmax_path(self):
        rows = [[.2, .5, .3], [.2, .5, .3], [.6, .2, .2],
                [.1, .2, .7], [.1, .2, .7]]
        p = Posteriorgram(np.log(rows))
        assert greedy_decode(p) == (1, 2)

    def test_ties_go_to_lowest_index(self):
        assert greedy_decode(Posteriorgram(np.log([[.4, .4, .2]]))) == ()
        assert greedy_decode(Posteriorgram(np.log([[.2, .4, .4]]))) == (1,)

    def test_blank_dominant_is_empty(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            probs = rng.uniform(0.0, 0.05, size=(6, 4))
            probs[:, 0] = 0.0
            probs[:, 0] = 1.0 - probs.sum(axis=1)
            assert greedy_decode(Posteriorgram(np.log(probs))) == ()

    def test_empty_posteriorgram(self):
        assert greedy_decode(Posteriorgram(np.zeros((0, 3)))) == ()


class TestPrior:
    def test_frame_weighted_average(self):
        p1 = Posteriorgram(np.log([[.5, .5]]))
        p2 = Posteriorgram(np.log([[.25, .75], [.1, .9]]))
        prior = estimate_prior([p1, p2])
        assert type(prior) is np.ndarray
        assert prior.dtype == np.float64 and prior.shape == (2,)
        np.testing.assert_allclose(np.exp(prior), [.85 / 3, 2.15 / 3], rtol=1e-12)

    def test_needs_input(self):
        with pytest.raises(UsageError):
            estimate_prior([])
        with pytest.raises(UsageError, match="frame"):
            estimate_prior([Posteriorgram(np.zeros((0, 2)))])

    def test_alphabet_mismatch(self):
        p1 = Posteriorgram(np.log([[.5, .5]]))
        p2 = Posteriorgram(np.log([[.2, .3, .5]]))
        with pytest.raises(UsageError, match="alphabet"):
            estimate_prior([p1, p2])

    def test_zero_mass_symbol_rejected_in_search(self):
        p = Posteriorgram(np.log([[.6, .4]]))
        prior = np.array([0.0, -np.inf])
        with pytest.raises(NumericError, match="zero-mass"):
            timesync_beam(p, DecodeConfig(prior_scale=0.5), prior=prior)

    def test_wrong_size_prior_rejected(self):
        p = Posteriorgram(np.log([[.6, .4]]))
        prior = np.log([.5, .3, .2])
        with pytest.raises(UsageError, match="alphabet"):
            timesync_beam(p, DecodeConfig(prior_scale=0.5), prior=prior)

    def test_uniform_prior_changes_nothing(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, int(rng.integers(1, 6)), k)
            prior = np.full(k, -np.log(k))
            plain = timesync_beam(p, DecodeConfig(beam_width=64))
            corrected = timesync_beam(
                p, DecodeConfig(beam_width=64, prior_scale=0.7), prior=prior)
            assert corrected.sequence == plain.sequence

    def test_skewed_prior_flips_decision(self):
        # Correction boosts the label the prior says is rare.
        p = Posteriorgram(np.log([[.6, .4]]))
        prior = np.log([.9, .1])
        assert timesync_beam(p, DecodeConfig()).sequence == ()
        flipped = timesync_beam(
            p, DecodeConfig(prior_scale=1.0), prior=prior)
        assert flipped.sequence == (1,)


class TestTimesync:
    def test_exhaustive_width_matches_bruteforce(self):
        rng = np.random.default_rng(404)
        config = DecodeConfig(beam_width=5000)
        for _ in range(100):
            t = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, t, k)
            winner, best = oracle_maxpath(p)
            hyp = timesync_beam(p, config)
            assert hyp.sequence == winner
            np.testing.assert_allclose(hyp.score, best[winner], rtol=1e-10)

    def test_exhaustive_width_matches_bruteforce_with_prior(self):
        rng = np.random.default_rng(405)
        config = DecodeConfig(beam_width=5000, prior_scale=0.3)
        for _ in range(60):
            t = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, t, k)
            prior = estimate_prior(
                [random_posteriorgram(rng, 4, k) for _ in range(3)])
            winner, best = oracle_maxpath(p, prior_scale=0.3, prior=prior)
            hyp = timesync_beam(p, config, prior=prior)
            assert hyp.sequence == winner
            np.testing.assert_allclose(hyp.score, best[winner], rtol=1e-10)

    def test_width_one_equals_greedy(self):
        rng = np.random.default_rng(406)
        config = DecodeConfig(beam_width=1)
        for _ in range(1000):
            p = random_posteriorgram(
                rng, int(rng.integers(1, 7)), int(rng.integers(2, 6)))
            assert timesync_beam(p, config).sequence == greedy_decode(p)

    def test_score_monotone_in_width(self):
        rng = np.random.default_rng(407)
        for _ in range(20):
            p = random_posteriorgram(rng, 6, 4)
            scores = [timesync_beam(p, DecodeConfig(beam_width=w)).score
                      for w in (1, 2, 4, 8, 16, 64)]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_tie_break_prefers_lex_smaller(self):
        p = Posteriorgram(np.log([[.1, .45, .45]]))
        assert timesync_beam(p, DecodeConfig()).sequence == (1,)

    def test_all_ties_prefer_empty(self):
        # Every sequence reachable in two uniform frames has max-path
        # mass 1/9, so the lexicographically smallest one wins.
        p = Posteriorgram(np.full((2, 3), -np.log(3.0)))
        assert timesync_beam(p, DecodeConfig(beam_width=64)).sequence == ()

    def test_empty_posteriorgram(self):
        hyp = timesync_beam(Posteriorgram(np.zeros((0, 3))), DecodeConfig())
        assert hyp.sequence == ()
        assert hyp.score == 0.0

    def test_fusion_requirements(self):
        p = random_posteriorgram(np.random.default_rng(0), 3, 3)
        with pytest.raises(UsageError, match="language model"):
            timesync_beam(p, DecodeConfig(lm_scale=0.5))
        with pytest.raises(UsageError, match="vocabulary"):
            timesync_beam(p, DecodeConfig(lm_scale=0.5), lm=flip_lm())
        with pytest.raises(UsageError, match="prior"):
            timesync_beam(p, DecodeConfig(prior_scale=0.5))


class TestLabelsync:
    def test_exhaustive_width_matches_sum_argmax(self):
        rng = np.random.default_rng(515)
        config = DecodeConfig(beam_width=300)
        for _ in range(100):
            t = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, t, k)
            winner, score = oracle_sum_argmax(p)
            hyp = labelsync_beam(p, config)
            assert hyp.sequence == winner
            np.testing.assert_allclose(hyp.score, score, rtol=1e-10)

    def test_exhaustive_width_matches_sum_argmax_with_lm(self):
        rng = np.random.default_rng(516)
        config = DecodeConfig(beam_width=300, lm_scale=0.4)
        for _ in range(60):
            t = int(rng.integers(1, 5))
            k = int(rng.integers(3, 5))
            letters = ("a", "b", "c")[: k - 1]
            vocab = Vocabulary(letters)
            lm = corpus_lm(letters)
            p = random_posteriorgram(rng, t, k)
            winner, score = oracle_sum_argmax(p, lm_scale=0.4, lm=lm, vocab=vocab)
            hyp = labelsync_beam(p, config, lm=lm, vocab=vocab)
            assert hyp.sequence == winner
            np.testing.assert_allclose(hyp.score, score, rtol=1e-10)

    def test_narrow_widths_never_beat_exhaustive(self):
        # Pruned runs can miss the winner but every returned score is a
        # real completion total, so none may exceed the exhaustive one.
        rng = np.random.default_rng(517)
        vocab = Vocabulary(("a", "b"))
        lm = corpus_lm(("a", "b"))
        for _ in range(20):
            p = random_posteriorgram(rng, 5, 3)
            scores = [labelsync_beam(
                p, DecodeConfig(beam_width=w, lm_scale=0.3),
                lm=lm, vocab=vocab).score for w in (1, 2, 4, 16, 300)]
            assert all(s <= scores[-1] + 1e-12 for s in scores)

    def test_blank_dominant_is_empty(self):
        rng = np.random.default_rng(518)
        probs = rng.uniform(0.0, 0.02, size=(5, 3))
        probs[:, 0] = 0.0
        probs[:, 0] = 1.0 - probs.sum(axis=1)
        hyp = labelsync_beam(Posteriorgram(np.log(probs)), DecodeConfig())
        assert hyp.sequence == ()

    def test_tie_break_prefers_lex_smaller(self):
        p = Posteriorgram(np.log([[.1, .45, .45]]))
        assert labelsync_beam(p, DecodeConfig()).sequence == (1,)

    def test_empty_posteriorgram(self):
        hyp = labelsync_beam(Posteriorgram(np.zeros((0, 3))), DecodeConfig())
        assert hyp.sequence == ()
        assert hyp.score == 0.0

    def test_sum_and_max_rules_genuinely_differ(self):
        # Uniform frames: the single-label sequence has three alignment
        # paths against one for the empty sequence, so the sum rule
        # picks (1,) while the max rule ties and takes the empty one.
        p = Posteriorgram(np.full((2, 3), -np.log(3.0)))
        assert labelsync_beam(p, DecodeConfig(beam_width=64)).sequence == (1,)
        assert timesync_beam(p, DecodeConfig(beam_width=64)).sequence == ()

    def test_fusion_requirements(self):
        p = random_posteriorgram(np.random.default_rng(1), 3, 3)
        with pytest.raises(UsageError, match="language model"):
            labelsync_beam(p, DecodeConfig(lm_scale=0.5))
        with pytest.raises(UsageError, match="vocabulary"):
            labelsync_beam(p, DecodeConfig(lm_scale=0.5), lm=flip_lm())


class TestBeamsMatchReference:
    """The batched beam steps against the per-candidate loops they replaced, bit for bit."""

    @staticmethod
    def sparse_table_lm(rng, tokens):
        """A random bigram table where some continuations have probability 0."""
        model = random_table_lm(rng, tokens)
        for row in model.table.values():
            for tok in tokens:
                if rng.random() < 0.15:
                    row[tok] = 0.0
        return model

    @classmethod
    def search_cases(cls, seed):
        """Forty seeded (case, posteriorgram, vocabulary, LM) inputs for the beams."""
        rng = np.random.default_rng(seed)
        for case in range(40):
            t = int(rng.integers(0, 9))
            k = int(rng.integers(2, 5))
            probs = rng.gamma(1.0, 1.0, size=(t, k)) + 1e-3
            if case % 5 == 4:  # uniform rows: ties everywhere
                probs[:] = 1.0
            elif case % 3 == 0:  # -inf entries, each row keeping one live symbol
                zero = rng.random(probs.shape) < 0.3
                zero[np.arange(t), rng.integers(0, k, size=t)] = False
                probs[zero] = 0.0
            with np.errstate(divide="ignore"):
                p = Posteriorgram(np.log(probs / probs.sum(axis=1, keepdims=True)))
            letters = ("a", "b", "c", "d")[: k - 1]
            vocab = Vocabulary(letters)
            lm = cls.sparse_table_lm(rng, letters) if case % 2 else corpus_lm(
                ("a", "b", "c")[: max(k - 1, 2)])
            yield case, p, vocab, lm

    def test_labelsync_sequences_and_scores(self):
        for case, p, vocab, lm in self.search_cases(519):
            for width in range(1, 7):
                for model, scale in ((None, 0.0), (lm, 0.0), (lm, 0.3)):
                    config = DecodeConfig(beam_width=width, lm_scale=scale)
                    got = labelsync_beam(p, config, lm=model, vocab=vocab)
                    want = reference.labelsync_beam(p, config, lm=model, vocab=vocab)
                    assert got.sequence == want.sequence, (case, width, scale)
                    assert got.score == want.score, (case, width, scale)

    def test_timesync_sequences_and_scores(self):
        for case, p, vocab, lm in self.search_cases(520):
            weights = np.random.default_rng([520, case]).uniform(0.2, 1.0, p.num_symbols)
            prior = np.log(weights / weights.sum())
            fusions = ((None, 0.0, 0.0), (lm, 0.0, 0.0), (lm, 0.3, 0.0),
                       (None, 0.0, 0.3), (lm, 0.3, 0.3))
            for width in range(1, 7):
                for model, scale, prior_scale in fusions:
                    config = DecodeConfig(beam_width=width, lm_scale=scale,
                                          prior_scale=prior_scale)
                    got = timesync_beam(p, config, lm=model, prior=prior, vocab=vocab)
                    want = reference.timesync_beam(p, config, lm=model, prior=prior,
                                                   vocab=vocab)
                    assert got.sequence == want.sequence, (case, width, scale, prior_scale)
                    assert got.score == want.score, (case, width, scale, prior_scale)

    def test_timesync_on_exact_ties(self):
        # Scores on a grid of 1/2 add exactly, so equal scores are common
        # and only the tie rules (blank before the last symbol, and the
        # first maximum over (parent, symbol) in a merge) pick the winner.
        rng = np.random.default_rng(522)
        for case in range(200):
            t = int(rng.integers(1, 10))
            k = int(rng.integers(2, 5))
            lp = -0.5 * rng.integers(0, 4, size=(t, k))
            lp[rng.random((t, k)) < 0.1] = -np.inf
            p = Posteriorgram(lp, validate=False)
            letters = ("a", "b", "c", "d")[: k - 1]
            vocab = Vocabulary(letters)
            lm = GridLM({prev: dict(zip((*letters, EOS), -0.5 * rng.integers(0, 3, size=k)))
                         for prev in (BOS, *letters)})
            prior = -0.5 * rng.integers(0, 3, size=k)
            for width in range(1, 7):
                for scale, prior_scale in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.5)):
                    config = DecodeConfig(beam_width=width, lm_scale=scale,
                                          prior_scale=prior_scale)
                    got = timesync_beam(p, config, lm=lm, prior=prior, vocab=vocab)
                    want = reference.timesync_beam(p, config, lm=lm, prior=prior,
                                                   vocab=vocab)
                    assert got.sequence == want.sequence, (case, width, scale, prior_scale)
                    assert got.score == want.score, (case, width, scale, prior_scale)

    def test_labelsync_on_exact_ties(self):
        # About half of each row is -inf, so most prefixes have one
        # alignment and their masses are sums on a grid of 1/2 (a single
        # level in some cases): equal scores are common, and only the tie
        # rules (the smaller sequence wins a tied best, and ranks first
        # among tied partial scores, ties at the width cut kept) pick the
        # winner.
        rng = np.random.default_rng(523)
        for case in range(300):
            t = int(rng.integers(1, 8))
            k = int(rng.integers(2, 5))
            lp = -0.5 * rng.integers(0, int(rng.integers(1, 5)), size=(t, k))
            lp[rng.random((t, k)) < 0.5] = -np.inf
            p = Posteriorgram(lp, validate=False)
            letters = ("a", "b", "c", "d")[: k - 1]
            vocab = Vocabulary(letters)
            lm = GridLM({prev: dict(zip((*letters, EOS), -0.5 * rng.integers(0, 3, size=k)))
                         for prev in (BOS, *letters)})
            for width in range(1, 7):
                for scale in (0.0, 1.0):
                    config = DecodeConfig(beam_width=width, lm_scale=scale)
                    got = labelsync_beam(p, config, lm=lm, vocab=vocab)
                    want = reference.labelsync_beam(p, config, lm=lm, vocab=vocab)
                    assert got.sequence == want.sequence, (case, width, scale)
                    assert got.score == want.score, (case, width, scale)
        # Width 2: (c) outranks (a) at depth 1, and at depth 2 (c,a) and
        # (a,c) tie at the cut behind (c,b).  The smaller sequence (a,c)
        # goes on and wins at -1.307; had (c,a) gone on, (c,a,c) would
        # have won at -0.901.
        lp = np.zeros((4, 4))
        lp[1:, BLANK] = lp[2, 3] = -np.inf
        p = Posteriorgram(lp, validate=False)
        vocab = Vocabulary(("a", "b", "c"))
        table = {BOS: (-1.0, -1.0, 0.0, 0.0), "a": (-0.5, -np.inf, 0.0, -np.inf),
                 "b": (-0.5, -1.0, -np.inf, -np.inf), "c": (-1.0, 0.0, -1.0, -1.0)}
        lm = GridLM({prev: dict(zip(("a", "b", "c", EOS), row))
                     for prev, row in table.items()})
        config = DecodeConfig(beam_width=2, lm_scale=1.0)
        got = labelsync_beam(p, config, lm=lm, vocab=vocab)
        want = reference.labelsync_beam(p, config, lm=lm, vocab=vocab)
        assert want.sequence == (1, 3)
        assert (got.sequence, got.score) == (want.sequence, want.score)

    def test_labelsync_on_holed_posteriorgrams(self, monkeypatch):
        # -inf entries kill some children of a depth and spare others, so
        # depths take both the all-live step and the gather of the live
        # children; the beam shrinks and grows back through every size
        # from 1 to the width, and each size's parent and label block is
        # read again at later depths.  A killed child is dropped before
        # its EOS term is asked for.
        steps = []

        def recorded(lp, blank, *rest):
            new_blank, new_label, mass = lattice(lp, blank, *rest)
            steps.append((blank.shape[1], bool(np.isfinite(mass).all()),
                          bool(np.isfinite(mass).any())))
            return new_blank, new_label, mass
        lattice = decode._lattice
        monkeypatch.setattr(decode, "_lattice", recorded)
        rng = np.random.default_rng(524)
        for width in (1, 2, 4, 8):
            steps.clear()
            for case in range(40):
                t = int(rng.integers(3, 11))
                k = int(rng.integers(3, 7))
                probs = rng.gamma(rng.uniform(0.3, 3.0), 1.0, size=(t, k)) + 1e-12
                zero = rng.random(probs.shape) < rng.uniform(0.1, 0.5)
                zero[np.arange(t), rng.integers(0, k, size=t)] = False
                probs[zero] = 0.0
                with np.errstate(divide="ignore"):
                    p = Posteriorgram(np.log(probs / probs.sum(axis=1, keepdims=True)))
                letters = tuple("abcde")[: k - 1]
                vocab = Vocabulary(letters)
                lm = random_table_lm(rng, letters)  # no zeros: only the lattice kills
                for scale in (0.0, 0.3):
                    config = DecodeConfig(beam_width=width, lm_scale=scale)
                    asked = EosRecorder(lm)
                    got = labelsync_beam(p, config, lm=asked, vocab=vocab)
                    want = reference.labelsync_beam(p, config, lm=lm, vocab=vocab)
                    assert got.sequence == want.sequence, (width, case, scale)
                    assert got.score == want.score, (width, case, scale)
                    for history in asked.ended[1:]:  # the first is the empty sequence's
                        child = tuple(vocab.index(tok) for tok in history)
                        assert reference.ctc_prefix_logprob(p, child) > -np.inf, child
            assert {size for size, _, _ in steps} == set(range(1, width + 1)), width
            assert any(every for _, every, _ in steps), width
            assert any(some and not every for _, every, some in steps), width

    def test_timesync_on_a_decode_sized_input(self):
        # K=30, T=150, width 8, bigram LM and prior at 0.3: the shape of
        # a spoken command decoded with fusion and prior correction
        rng = np.random.default_rng(521)
        words = tuple(f"w{i}" for i in range(29))
        lm = CountLM.from_corpus(
            [list(rng.choice(words, size=rng.integers(3, 9))) for _ in range(60)],
            order=2, alpha=0.5)
        target = rng.integers(1, 30, size=40)
        aligned = np.repeat(np.insert(target, np.arange(0, 40, 2), 0), 3)[:150]
        probs = rng.gamma(1.0, 1.0, size=(150, 30)) + 1e-3
        probs[np.arange(150), aligned] += rng.uniform(0.0, 8.0, size=150)
        p = Posteriorgram(np.log(probs / probs.sum(axis=1, keepdims=True)))
        prior = estimate_prior([p])
        config = DecodeConfig(beam_width=8, lm_scale=0.3, prior_scale=0.3)
        vocab = Vocabulary(words)
        got = timesync_beam(p, config, lm=lm, prior=prior, vocab=vocab)
        want = reference.timesync_beam(p, config, lm=lm, prior=prior, vocab=vocab)
        assert len(want.sequence) > 10
        assert got.sequence == want.sequence
        assert got.score == want.score


class TestGravesStop:
    """Label-sync's early stop against the full search of `tests/ctc_reference.py`, bit for bit."""

    @staticmethod
    def depths(monkeypatch):
        """The list that records one entry per depth label-sync runs."""
        steps = []
        lattice = decode._lattice

        def recorded(*args):
            steps.append(len(args[3]))
            return lattice(*args)
        monkeypatch.setattr(decode, "_lattice", recorded)
        return steps

    @staticmethod
    def peaked(aligned, num_symbols, top=0.9):
        """Rows that put `top` on the aligned symbol and share the rest evenly."""
        probs = np.full((len(aligned), num_symbols), (1.0 - top) / (num_symbols - 1))
        probs[np.arange(len(aligned)), aligned] = top
        return Posteriorgram(np.log(probs))

    def test_stop_fires_on_a_peaked_input(self, monkeypatch):
        # (a, b, c) completes best at depth 3, and no child kept at depth
        # 4 can reach it, so every width stops after 4 of the 8 depths.
        steps = self.depths(monkeypatch)
        p = self.peaked([1, 1, BLANK, 2, 2, BLANK, 3, 3], 4)
        vocab = Vocabulary(("a", "b", "c"))
        lm = corpus_lm(("a", "b", "c"))
        for width in (1, 2, 4, 8):
            for model, scale in ((None, 0.0), (lm, 0.3)):
                config = DecodeConfig(beam_width=width, lm_scale=scale)
                steps.clear()
                got = labelsync_beam(p, config, lm=model, vocab=vocab)
                want = reference.labelsync_beam(p, config, lm=model, vocab=vocab)
                assert want.sequence == (1, 2, 3), (width, scale)
                assert (got.sequence, got.score) == (want.sequence, want.score), (width, scale)
                assert len(steps) == 4, (width, scale)

    def test_exhaustive_width_stops_at_the_sum_argmax(self, monkeypatch):
        steps = self.depths(monkeypatch)
        rng = np.random.default_rng(525)
        config = DecodeConfig(beam_width=300)
        for case in range(12):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(3, 5))
            labels = rng.integers(1, k, size=n)  # each followed by a blank frame
            p = self.peaked(np.column_stack([labels, np.zeros(n, int)]).ravel(), k,
                            top=rng.uniform(0.85, 0.95))
            steps.clear()
            got = labelsync_beam(p, config)
            winner, score = oracle_sum_argmax(p)
            want = reference.labelsync_beam(p, config)
            assert got.sequence == winner, case
            np.testing.assert_allclose(got.score, score, rtol=1e-10)
            assert (got.sequence, got.score) == (want.sequence, want.score), case
            assert len(steps) < p.num_frames, case

    def test_slack_covers_rows_that_sum_above_one(self):
        # Columns (blank, a, b); the rows sum to .01, 3 and 6.  At depth 1
        # the best is (b), at .005 * 3 * 2 = .03 (blank, b, blank), above
        # every prefix mass ((b) .015, (a) .005), so a stop on the prefix
        # masses alone returns (b).  Frames 1 and 2 can raise a mass 18
        # times, and (b, a) and (a, b, a) reach .06 at depths 2 and 3.  A
        # row that sums below 1 must not lower that slack.
        with np.errstate(divide="ignore"):
            p = Posteriorgram(np.log([[.005, .005, 0.0], [0.0, 0.0, 3.0], [2.0, 4.0, 0.0]]),
                              validate=False)
        stopped = reference.ctc_forward(p, (2,))[2]
        assert max(reference.ctc_prefix_logprob(p, (v,)) for v in (1, 2)) < stopped
        for width in (1, 2, 3):
            config = DecodeConfig(beam_width=width)
            got = labelsync_beam(p, config)
            want = reference.labelsync_beam(p, config)
            assert want.score > stopped, width
            assert (got.sequence, got.score) == (want.sequence, want.score), width

    def test_a_tie_at_the_bound_does_not_stop(self):
        # LM terms of -2^60 absorb every acoustic mass, the slack and the
        # margin in rounding: (a) and (b) both score -2^60 at depth 1,
        # and (b) holds the best, since EOS cannot follow a.  The bound of
        # the kept (a) ties it exactly; (a, b) ties it again at depth 2 and
        # wins as the smaller sequence, where a stop on <= returns (b).
        p = Posteriorgram(np.full((2, 3), -np.log(3.0)))
        vocab = Vocabulary(("a", "b"))
        lm = GridLM({BOS: {"a": -2.0 ** 60, "b": -2.0 ** 60, EOS: -np.inf},
                     "a": {"a": -np.inf, "b": 0.0, EOS: -np.inf},
                     "b": {"a": -np.inf, "b": -np.inf, EOS: 0.0}})
        for width in (1, 2, 3):
            config = DecodeConfig(beam_width=width, lm_scale=1.0)
            got = labelsync_beam(p, config, lm=lm, vocab=vocab)
            want = reference.labelsync_beam(p, config, lm=lm, vocab=vocab)
            assert (want.sequence, want.score) == ((1, 2), -2.0 ** 60), width
            assert (got.sequence, got.score) == (want.sequence, want.score), width


    def test_zero_entries_stay_out_of_the_margin(self, monkeypatch):
        # Row 5 gives blank and b nothing, so lp holds -inf.  The margin's
        # size reads only the finite entries: with |-inf| in it the margin is
        # inf, the stop never fires and all 12 depths run.
        steps = self.depths(monkeypatch)
        aligned = [1, 1, BLANK, 2, 2, BLANK, 3, 3, BLANK, 1, 1, BLANK]
        probs = np.exp(self.peaked(aligned, 4).log_probs)
        probs[5] = [0.5, 0.5, 0.0, 0.0]
        with np.errstate(divide="ignore"):
            p = Posteriorgram(np.log(probs))
        config = DecodeConfig(beam_width=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = labelsync_beam(p, config)
        want = reference.labelsync_beam(p, config)
        assert (got.sequence, got.score) == (want.sequence, want.score)
        assert len(steps) == 6


class TestLmCalls:
    """What the beams ask the LM: a label row per parent context, an EOS term per child."""

    @staticmethod
    def command_case():
        """K=8, T=12 with a bigram: the shape of a short spoken command."""
        rng = np.random.default_rng(0)
        words = tuple(f"w{i}" for i in range(7))
        lm = CountLM.from_corpus([list(rng.choice(words, size=rng.integers(2, 6)))
                                  for _ in range(30)], order=2, alpha=0.5)
        return random_posteriorgram(rng, 12, 8), Vocabulary(words), lm

    @pytest.mark.parametrize("whole, most", [(True, 519), (False, 57)])
    def test_labelsync_asks_eos_on_its_own(self, whole, most):
        # A whole-history context misses the cache for every child, so a
        # child's EOS term costs one call, not a whole row of K.
        p, vocab, lm = self.command_case()
        config = DecodeConfig(beam_width=4, lm_scale=0.3)
        counting = CountingLM(lm, whole)
        got = labelsync_beam(p, config, lm=counting, vocab=vocab)
        assert got == labelsync_beam(p, config, lm=lm, vocab=vocab)
        assert 0 < len(counting.asked) <= most

    @pytest.mark.parametrize("whole", [True, False])
    def test_timesync_never_asks_for_eos(self, whole):
        p, vocab, lm = self.command_case()
        config = DecodeConfig(beam_width=4, lm_scale=0.3)
        counting = CountingLM(lm, whole)
        got = timesync_beam(p, config, lm=counting, vocab=vocab)
        assert got == timesync_beam(p, config, lm=lm, vocab=vocab)
        assert counting.asked and EOS not in counting.asked

    def test_empty_input_asks_no_label_row(self):
        # time-sync asks nothing; label-sync asks only the empty sequence's EOS term
        _, vocab, lm = self.command_case()
        empty = Posteriorgram(np.zeros((0, 8)), validate=False)
        for beam, asked in ((timesync_beam, []), (labelsync_beam, [EOS])):
            counting = CountingLM(lm)
            got = beam(empty, DecodeConfig(beam_width=4, lm_scale=0.3), lm=counting, vocab=vocab)
            assert (got.sequence, counting.asked) == ((), asked)

    def test_lm_at_scale_zero_is_never_asked(self):
        p, vocab, lm = self.command_case()
        counting = CountingLM(lm)
        for beam in (timesync_beam, labelsync_beam):
            got = beam(p, DecodeConfig(beam_width=4), lm=counting, vocab=vocab)
            assert got == beam(p, DecodeConfig(beam_width=4))
        assert counting.asked == [] and counting.contexts == 0


class TestScalingInvariance:
    def test_per_frame_positive_scaling_keeps_decisions(self):
        # Scaling frame rows by positive constants shifts every path
        # score by the same amount, so no decoder's choice may change.
        rng = np.random.default_rng(616)
        for _ in range(30):
            t = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, t, k)
            scales = rng.uniform(0.2, 5.0, size=(t, 1))
            q = Posteriorgram(p.log_probs + np.log(scales), validate=False)
            assert greedy_decode(q) == greedy_decode(p)
            for width in (2, 64):
                config = DecodeConfig(beam_width=width)
                assert (timesync_beam(q, config).sequence
                        == timesync_beam(p, config).sequence)
            # Prefix mass leaves continuations free, so partial scores
            # shift unevenly across depths and pruning may reorder;
            # only the unpruned label search is scale-invariant.
            config = DecodeConfig(beam_width=300)
            assert (labelsync_beam(q, config).sequence
                    == labelsync_beam(p, config).sequence)


class TestLmFlip:
    def test_timesync_flips_at_derived_threshold(self):
        p = flip_instance()
        lm = flip_lm()
        grid = np.round(np.arange(0.0, 0.2001, 0.01), 10)
        winners = []
        for lam in grid:
            config = DecodeConfig(beam_width=64, lm_scale=float(lam))
            winners.append(
                timesync_beam(p, config, lm=lm, vocab=FLIP_VOCAB).sequence)
        assert winners[0] == (1, 1)
        assert winners[-1] == (1, 2)
        flips = [i for i in range(1, len(winners))
                 if winners[i] != winners[i - 1]]
        assert len(flips) == 1
        threshold = np.log(1.2) / np.log(6.0)
        assert grid[flips[0] - 1] < threshold < grid[flips[0]]
        assert abs(grid[flips[0]] - threshold) <= 0.01

    def test_labelsync_flips_at_its_own_threshold(self):
        # Path sums give P(aa)=.3672 and P(ab)=.3649, and the EOS terms
        # change the LM gap to -lam*ln 2, so the sum rule already flips
        # at ln(.3672/.3649)/ln(2) ~ 0.0091, below the max-path point.
        p = flip_instance()
        lm = flip_lm()
        low = labelsync_beam(
            p, DecodeConfig(beam_width=64, lm_scale=0.005),
            lm=lm, vocab=FLIP_VOCAB)
        high = labelsync_beam(
            p, DecodeConfig(beam_width=64, lm_scale=0.015),
            lm=lm, vocab=FLIP_VOCAB)
        assert low.sequence == (1, 1)
        assert high.sequence == (1, 2)

    def test_acoustic_only_scores(self):
        p = flip_instance()
        hyp = timesync_beam(p, DecodeConfig(beam_width=64))
        assert hyp.sequence == (1, 1)
        np.testing.assert_allclose(hyp.score, np.log(.8 * .85 * .54), rtol=1e-12)

    def test_decoders_agree_outside_the_disputed_band(self):
        p = flip_instance()
        lm = flip_lm()
        for lam, expected in ((0.0, (1, 1)), (0.15, (1, 2))):
            config = DecodeConfig(beam_width=64, lm_scale=lam)
            ts = timesync_beam(p, config, lm=lm, vocab=FLIP_VOCAB)
            ls = labelsync_beam(p, config, lm=lm, vocab=FLIP_VOCAB)
            assert ts.sequence == expected
            assert ls.sequence == expected


class TestCrossDecoder:
    def test_agreement_where_both_oracles_agree(self):
        rng = np.random.default_rng(717)
        config = DecodeConfig(beam_width=2000)
        agreements = 0
        for _ in range(100):
            t = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            p = random_posteriorgram(rng, t, k)
            w_max, _ = oracle_maxpath(p)
            w_sum, _ = oracle_sum_argmax(p)
            if w_max != w_sum:
                continue
            agreements += 1
            assert timesync_beam(p, config).sequence == w_max
            assert labelsync_beam(p, config).sequence == w_max
        assert agreements >= 20
