"""Word error rate tests with an independent edit-distance oracle."""

from functools import lru_cache

import numpy as np
import pytest

from speechground.errors import UsageError
from speechground.metrics import EditCounts, corpus_wer, wer
from tests import metrics_reference as reference


def naive_distance(ref, hyp):
    """Recursive Levenshtein distance, memoized."""
    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if ref[i - 1] == hyp[j - 1] else 1
        return min(dist(i - 1, j - 1) + cost,
                   dist(i - 1, j) + 1,
                   dist(i, j - 1) + 1)

    return dist(len(ref), len(hyp))


def random_tokens(rng, max_len=8):
    return [str(v) for v in rng.integers(0, 4, size=int(rng.integers(0, max_len)))]


class TestWer:
    def test_identical_sequences(self):
        counts, rate = wer("a b c", "a b c")
        assert counts == EditCounts(0, 0, 0, 3)
        assert rate == 0.0

    def test_single_deletion(self):
        counts, rate = wer("the cat sat", "the cat")
        assert counts == EditCounts(0, 1, 0, 3)
        np.testing.assert_allclose(rate, 1 / 3)

    def test_rate_can_exceed_one(self):
        counts, rate = wer("a", "b c")
        assert counts.substitutions == 1
        assert counts.insertions == 1
        assert counts.deletions == 0
        assert rate == 2.0

    def test_tie_break_prefers_substitution_over_deletion(self):
        counts, _ = wer("a b", "c")
        assert (counts.substitutions, counts.deletions) == (1, 1)
        assert counts.insertions == 0

    def test_empty_hypothesis_is_all_deletions(self):
        counts, rate = wer("w x y z", "")
        assert counts == EditCounts(0, 4, 0, 4)
        assert rate == 1.0

    def test_empty_reference(self):
        counts, rate = wer("", "a b")
        assert counts == EditCounts(0, 0, 2, 0)
        assert rate == float("inf")
        counts, rate = wer("", "")
        assert counts.total == 0
        assert rate == 0.0

    def test_token_sequences_match_strings(self):
        assert wer(["the", "cat"], "the cat") == wer("the cat", ["the", "cat"])

    def test_total_matches_levenshtein_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ref = random_tokens(rng)
            hyp = random_tokens(rng)
            counts, _ = wer(ref, hyp)
            assert counts.total == naive_distance(ref, hyp)
            # alignment identity: hyp length = ref - dels + ins
            assert len(hyp) == len(ref) - counts.deletions + counts.insertions

    def test_distance_is_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a = random_tokens(rng)
            b = random_tokens(rng)
            assert wer(a, b)[0].total == wer(b, a)[0].total

    def test_triangle_inequality(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            a = random_tokens(rng)
            b = random_tokens(rng)
            c = random_tokens(rng)
            assert (wer(a, c)[0].total
                    <= wer(a, b)[0].total + wer(b, c)[0].total)

    def test_distance_to_self_and_empty(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            a = random_tokens(rng)
            assert wer(a, a)[0].total == 0
            assert wer(a, [])[0].total == len(a)


class TestWerMatchesReference:
    """The one-pass wer against the full-table backtrace it replaced."""

    def test_counts_and_rate_are_identical_on_ties(self):
        # 0-8 tokens from 1-4 symbols: short alphabets make many equal-cost
        # alignments, so every step of the tie order is exercised
        rng = np.random.default_rng(46)
        for _ in range(20000):
            ref, hyp = ([str(v) for v in rng.integers(0, int(rng.integers(1, 5)),
                                                      size=int(rng.integers(0, 9)))]
                        for _ in range(2))
            assert wer(ref, hyp) == reference.wer(ref, hyp), (ref, hyp)

    def test_long_sequences_are_identical(self):
        rng = np.random.default_rng(47)
        for n, m in ((120, 80), (60, 150), (200, 200)):
            ref = [str(v) for v in rng.integers(0, 3, size=n)]
            hyp = [str(v) for v in rng.integers(0, 3, size=m)]
            assert wer(ref, hyp) == reference.wer(ref, hyp)


class TestEditCounts:
    def test_addition_pools_fields(self):
        a = EditCounts(1, 2, 3, 10)
        b = EditCounts(4, 0, 1, 7)
        assert a + b == EditCounts(5, 2, 4, 17)

    def test_total(self):
        assert EditCounts(1, 2, 3, 10).total == 6


class TestCorpusWer:
    def test_pools_counts_not_rates(self):
        # 1 error over 2 words plus 0 errors over 8 words pools to
        # 1/10, not the 0.25 mean of the per-pair rates.
        long_ref = "q r s t u v w x"
        pairs = [("x y", "x z"), (long_ref, long_ref)]
        counts, rate = corpus_wer(pairs)
        assert counts.total == 1
        assert counts.ref_length == 10
        np.testing.assert_allclose(rate, 0.1)

    def test_identical_pairs_are_zero(self):
        _, rate = corpus_wer([("a b", "a b"), ("c", "c")])
        assert rate == 0.0

    def test_single_pair_reduces_to_wer(self):
        counts, rate = corpus_wer([("the cat sat", "the cat")])
        assert (counts, rate) == wer("the cat sat", "the cat")

    def test_accepts_generators(self):
        _, rate = corpus_wer(iter([("a", "a"), ("b", "c")]))
        np.testing.assert_allclose(rate, 0.5)

    def test_zero_total_reference_rejected(self):
        with pytest.raises(UsageError, match="reference"):
            corpus_wer([("", "a"), ("", "")])
