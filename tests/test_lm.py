"""Count LM smoothing, normalization, perplexity anchors, file format."""

import math

import numpy as np
import pytest

from speechground.errors import DataError, UsageError
from speechground.lm import (BOS, EOS, CountLM, LanguageModel, UniformLM,
                             lm_perplexity, read_lm, write_lm)


class TestUniform:
    def test_flat_over_vocab_plus_eos(self):
        lm = UniformLM(("a", "b", "c"))
        for tok in ("a", "b", "c", EOS):
            assert abs(lm.cond_logprob(tok) + math.log(4)) < 1e-12

    def test_sentence_includes_eos(self):
        lm = UniformLM(("a", "b", "c"))
        assert abs(lm.sentence_logprob(["a", "b"]) + 3 * math.log(4)) < 1e-12

    def test_unknown_token_rejected(self):
        with pytest.raises(DataError, match="'z' outside the model vocabulary"):
            UniformLM(("a", "b")).cond_logprob("z")


class TestCountLM:
    def test_from_corpus_counts(self):
        lm = CountLM.from_corpus(["a b", "a a", "b"], order=2, alpha=1.0)
        assert lm.unigrams == {"a": 3, "b": 2, EOS: 3}
        assert lm.bigrams[(BOS, "a")] == 2
        assert lm.bigrams[(BOS, "b")] == 1
        assert lm.bigrams[("a", "a")] == 1
        assert lm.bigrams[("b", EOS)] == 2
        assert lm.tokens == ("a", "b")

    def test_conditionals_normalize(self):
        rng = np.random.default_rng(0)
        corpus = [" ".join(rng.choice(["a", "b", "c", "d"],
                                      size=rng.integers(1, 8)))
                  for _ in range(30)]
        for order in (1, 2):
            lm = CountLM.from_corpus(corpus, order=order, alpha=0.37)
            outcomes = list(lm.tokens) + [EOS]
            for _ in range(1000):
                hist = tuple(rng.choice(["a", "b", "c", "d", "zzz"],
                                        size=rng.integers(0, 3)))
                total = sum(math.exp(lm.cond_logprob(tok, hist))
                            for tok in outcomes)
                assert abs(total - 1.0) < 1e-9

    def test_hand_computed_bigram_product(self):
        corpus = ["a b", "a a", "b"]
        lm = CountLM.from_corpus(corpus, order=2, alpha=0.5)
        # outcomes per context: {a, b, EOS}, so denominators add 3*alpha
        def cond(num, total):
            return (num + 0.5) / (total + 1.5)
        hand = (
            cond(2, 3) * cond(1, 3) * cond(2, 2)      # a b </s>
            * cond(2, 3) * cond(1, 3) * cond(1, 3)    # a a </s>
            * cond(1, 3) * cond(2, 2)                 # b </s>
        )
        total_logp = sum(lm.sentence_logprob(s.split()) for s in corpus)
        assert abs(total_logp - math.log(hand)) < 1e-12
        ppl = lm_perplexity(lm, corpus)
        assert abs(ppl - math.exp(-math.log(hand) / 8)) < 1e-12

    def test_backoff_to_unigram_on_unseen_context(self):
        lm = CountLM.from_corpus(["a b"], order=2, alpha=1.0)
        uni = CountLM(alpha=1.0, unigrams=dict(lm.unigrams))
        assert lm.cond_logprob("a", ("zzz",)) == uni.cond_logprob("a")
        # empty history means sentence start, which was observed
        assert lm.cond_logprob("a", ()) != uni.cond_logprob("a")

    def test_context_only_tokens_join_vocabulary(self):
        lm = CountLM(alpha=1.0, unigrams={"a": 1},
                     bigrams={("x", "a"): 1})
        assert lm.tokens == ("a", "x")
        assert math.isfinite(lm.cond_logprob("x", ("a",)))

    def test_bos_cannot_be_outcome(self):
        with pytest.raises(DataError):
            CountLM(alpha=1.0, unigrams={BOS: 1})
        with pytest.raises(DataError):
            CountLM(alpha=1.0, unigrams={"a": 1},
                    bigrams={("a", BOS): 1})

    def test_oov_token_rejected(self):
        lm = CountLM.from_corpus(["a b"], order=1, alpha=1.0)
        with pytest.raises(DataError):
            lm.cond_logprob("zzz")

    def test_bad_order_and_alpha(self):
        with pytest.raises(UsageError, match="order must be 1 or 2, got 3"):
            CountLM.from_corpus(["a"], order=3)
        with pytest.raises(UsageError):
            CountLM(alpha=-0.1, unigrams={"a": 1})
        for alpha in (math.nan, math.inf):
            with pytest.raises(UsageError, match="alpha must be finite"):
                CountLM(alpha=alpha, unigrams={"a": 1})

    def test_alpha_overflowing_the_denominator(self):
        # two tokens plus EOS: 1e308 * 3 overflows, 1e307 * 3 does not
        unigrams = {"a": 1, "b": 1}
        with pytest.raises(UsageError, match="alpha 1e\\+308 overflows the LM denominator"):
            CountLM(alpha=1e308, unigrams=unigrams)
        lm = CountLM(alpha=1e307, unigrams=unigrams)
        assert math.isfinite(lm.cond_logprob("a"))


class TestContext:
    """`context(h)` must give every conditional that `h` itself gives."""

    @staticmethod
    def assert_context_is_exact(lm, histories):
        for history in histories:
            context = lm.context(history)
            for tok in (*lm.tokens, EOS):
                assert lm.cond_logprob(tok, history) == lm.cond_logprob(tok, context), (
                    tok, history, context)

    def test_count_models(self):
        rng = np.random.default_rng(31)
        # "c" and "d" are never contexts, so their histories back off to unigrams
        unigrams = {"a": 3, "b": 2, "c": 1, "d": 0, EOS: 2}
        bigrams = {(BOS, "a"): 2, (BOS, "b"): 1, ("a", "b"): 2, ("a", EOS): 1,
                   ("b", "a"): 1, ("b", "c"): 1}
        for order in (1, 2):
            for alpha in (0.0, 0.5, 1.0):
                lm = CountLM(alpha, unigrams, bigrams if order == 2 else {})
                assert lm.order == order
                histories = [(), ("a",), ("c",), ("d",), ("zzz",)] + [
                    tuple(rng.choice(lm.tokens, size=rng.integers(1, 6)).tolist())
                    for _ in range(20)]
                self.assert_context_is_exact(lm, histories)
                assert lm.context(("a", "b")) == (("b",) if order == 2 else ())
                assert lm.context(()) == ()

    def test_unseen_context_with_zero_alpha_keeps_minus_inf(self):
        lm = CountLM(0.0, {"a": 1, "b": 1, EOS: 1}, {(BOS, "a"): 1, ("a", "b"): 1})
        assert lm.cond_logprob("a", ("b", "a")) == -np.inf
        self.assert_context_is_exact(lm, [("b", "a"), ("a", "b"), ()])

    def test_uniform_model(self):
        lm = UniformLM(("a", "b", "c"))
        assert lm.context(("a", "b")) == ()
        self.assert_context_is_exact(lm, [(), ("a",), ("c", "b", "a")])

    def test_default_context_is_the_whole_history(self):
        class Whole(LanguageModel):
            tokens = ("a",)

        assert Whole().context(("a", "a", "a")) == ("a", "a", "a")
        assert Whole().context(()) == ()

    def test_the_interface_has_no_conditionals(self):
        with pytest.raises(NotImplementedError):
            LanguageModel().cond_logprob("a", ())


class TestPerplexity:
    def test_uniform_four_outcomes_is_four(self):
        # three tokens plus EOS at equal counts: every outcome is 1/4
        lm = CountLM(alpha=1.0,
                     unigrams={"a": 1, "b": 1, "c": 1, EOS: 1})
        for alpha in (0.0, 0.5, 1.0, 7.0):
            lm = CountLM(alpha=alpha,
                         unigrams={"a": 2, "b": 2, "c": 2, EOS: 2})
            assert lm_perplexity(lm, ["a b c", "c a"]) == pytest.approx(4.0, abs=1e-12)

    def test_deterministic_forced_sequence_is_one(self):
        lm = CountLM.from_corpus(["a b"], order=2, alpha=0.0)
        assert lm_perplexity(lm, ["a b"]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_event_is_infinite(self):
        lm = CountLM.from_corpus(["a b", "b a"], order=2, alpha=0.0)
        assert lm_perplexity(lm, ["a a"]) == math.inf

    def test_pooled_not_averaged(self):
        lm = UniformLM(("a", "b", "c"))
        # 2 + 1 + 3 tokens with EOS: 6 + ... pooled mean over 9 events
        ppl = lm_perplexity(lm, ["a b", "", "a b c"])
        assert abs(ppl - 4.0) < 1e-12

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            lm_perplexity(UniformLM(("a",)), [])


class TestLmIO:
    def test_roundtrip(self, tmp_path):
        lm = CountLM.from_corpus(["a b b", "b a"], order=2, alpha=0.25)
        path = str(tmp_path / "lm.txt")
        write_lm(path, lm)
        back = read_lm(path, alpha=0.25)
        assert back.order == 2
        assert back.unigrams == lm.unigrams
        assert back.bigrams == lm.bigrams

    def test_order_inferred_from_widest_line(self, tmp_path):
        path = str(tmp_path / "uni.txt")
        with open(path, "w") as fh:
            fh.write("a\t3\nb\t1\n")
        assert read_lm(path).order == 1

    def test_duplicate_lines_sum(self, tmp_path):
        path = str(tmp_path / "dup.txt")
        with open(path, "w") as fh:
            fh.write("a\t2\na\t3\n")
        assert read_lm(path).unigrams["a"] == 5

    def test_malformed_lines(self, tmp_path):
        for content in ("a b c\t1\n", "a\tnope\n", "a 1\n", "a\t-2\n"):
            path = str(tmp_path / "bad.txt")
            with open(path, "w") as fh:
                fh.write(content)
            with pytest.raises(DataError):
                read_lm(path)
