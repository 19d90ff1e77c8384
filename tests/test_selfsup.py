"""Tests for the self-supervised objectives and representation probes."""

import json

import numpy as np
import pytest

from speechground.cli import main
from speechground.dsp import FeatureMatrix, write_feature_text
from speechground.errors import DataError, NumericError, UsageError
from speechground.selfsup import (Codebooks, CodebookUsage, ContrastiveBatch,
                                  cca_corrs, contrastive_loss, diversity_loss,
                                  mutual_information, quantize_concat)


class TestQuantizeConcat:
    def test_single_group_returns_entry_verbatim(self):
        cb = Codebooks(np.arange(12.0).reshape(1, 4, 3))
        np.testing.assert_array_equal(quantize_concat([2], cb), [6.0, 7.0, 8.0])

    def test_two_groups_concatenate_in_order(self):
        entries = np.array([[[1.0, 2.0], [3.0, 4.0]],
                            [[5.0, 6.0], [7.0, 8.0]]])
        cb = Codebooks(entries)
        np.testing.assert_array_equal(
            quantize_concat([1, 0], cb), [3.0, 4.0, 5.0, 6.0])

    def test_output_dimension_law(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = int(rng.integers(1, 5))
            v = int(rng.integers(1, 6))
            d = int(rng.integers(1, 7))
            cb = Codebooks(rng.normal(size=(g, v, d)))
            sel = rng.integers(0, v, size=g)
            assert quantize_concat(sel, cb).shape == (g * d,)

    def test_selection_validation(self):
        cb = Codebooks(np.zeros((2, 3, 4)))
        with pytest.raises(UsageError, match="groups"):
            quantize_concat([0], cb)
        with pytest.raises(UsageError, match="entry"):
            quantize_concat([0, 3], cb)
        with pytest.raises(UsageError, match="entry"):
            quantize_concat([-1, 0], cb)

    def test_codebook_shape_validation(self):
        with pytest.raises(UsageError, match="shape"):
            Codebooks(np.zeros((3, 4)))


class TestContrastiveLoss:
    def test_no_negatives_is_exactly_zero(self):
        batch = ContrastiveBatch([1.0, 2.0], [0.5, -1.0], np.zeros((0, 2)))
        assert contrastive_loss(batch) == 0.0

    def test_orthogonal_negative_anchor(self):
        # Two candidates with cosines 1 and 0 at unit temperature:
        # -log(e/(e+1)) = ln(1+e^-1) ~ 0.3133.
        batch = ContrastiveBatch([2.0, 0.0], [0.5, 0.0], [[0.0, 3.0]],
                                 temperature=1.0)
        np.testing.assert_allclose(
            contrastive_loss(batch), np.log(1 + np.exp(-1)), rtol=1e-12)

    def test_orthogonal_negative_default_temperature(self):
        batch = ContrastiveBatch([1.0, 0.0], [1.0, 0.0], [[0.0, 1.0]])
        np.testing.assert_allclose(
            contrastive_loss(batch), np.log(1 + np.exp(-10.0)), rtol=1e-12)

    def test_negative_identical_to_target(self):
        batch = ContrastiveBatch([1.0, 1.0], [2.0, 0.5],
                                 [[2.0, 0.5], [4.0, 1.0]])
        np.testing.assert_allclose(contrastive_loss(batch), np.log(3.0),
                                   rtol=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(0, 5))
            batch = ContrastiveBatch(rng.normal(size=d), rng.normal(size=d),
                                     rng.normal(size=(m, d)),
                                     temperature=float(rng.uniform(0.05, 2.0)))
            assert contrastive_loss(batch) >= 0.0

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.normal(size=4)
            t = rng.normal(size=4)
            negs = rng.normal(size=(3, 4))
            base = contrastive_loss(ContrastiveBatch(c, t, negs))
            scaled = contrastive_loss(ContrastiveBatch(
                5.0 * c, 0.3 * t, negs * rng.uniform(0.1, 9.0, size=(3, 1))))
            np.testing.assert_allclose(scaled, base, rtol=1e-12)
            # far from 1 the norms would overflow or underflow unscaled
            for factor in (1e170, 1e-170):
                for batch in (ContrastiveBatch(factor * c, t, negs),
                              ContrastiveBatch(factor * c, factor * t, factor * negs)):
                    np.testing.assert_allclose(contrastive_loss(batch), base, rtol=1e-12)

    def test_monotone_in_target_similarity(self):
        # Rotating the target toward the context raises its cosine while
        # every negative's similarity stays fixed, so the loss must drop.
        negs = [[0.0, 1.0], [-1.0, 0.5]]
        losses = []
        for theta in np.linspace(1.5, 0.1, 8):
            batch = ContrastiveBatch(
                [1.0, 0.0], [np.cos(theta), np.sin(theta)], negs)
            losses.append(contrastive_loss(batch))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError, match="zero-norm"):
            contrastive_loss(ContrastiveBatch([0.0, 0.0], [1.0, 0.0],
                                              np.zeros((0, 2))))
        with pytest.raises(DataError, match="zero-norm"):
            contrastive_loss(ContrastiveBatch([1.0, 0.0], [1.0, 0.0],
                                              [[0.0, 0.0]]))

    def test_batch_validation(self):
        with pytest.raises(UsageError, match="equal-length"):
            ContrastiveBatch([1.0, 2.0], [1.0], np.zeros((0, 1)))
        with pytest.raises(UsageError, match="negatives"):
            ContrastiveBatch([1.0, 2.0], [1.0, 2.0], np.zeros((2, 3)))
        for temperature in (0.0, np.nan, np.inf):
            with pytest.raises(UsageError, match="temperature must be finite and positive"):
                ContrastiveBatch([1.0], [1.0], np.zeros((0, 1)), temperature=temperature)

    def test_empty_negative_list_means_no_distractors(self):
        batch = ContrastiveBatch([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [])
        assert batch.negatives.shape == (0, 3)
        # the target is the only candidate, so it takes all the probability
        assert contrastive_loss(batch) == 0.0


class TestDiversityLoss:
    def test_one_hot_rows_give_zero(self):
        usage = CodebookUsage([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert diversity_loss(usage) == 0.0

    def test_uniform_two_entry_anchor(self):
        usage = CodebookUsage([[0.5, 0.5]])
        np.testing.assert_allclose(diversity_loss(usage), -np.log(2.0) / 2,
                                   rtol=1e-12)

    def test_uniform_rows_hit_the_closed_form_minimum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = int(rng.integers(1, 5))
            v = int(rng.integers(2, 6))
            usage = CodebookUsage(np.full((g, v), 1.0 / v))
            np.testing.assert_allclose(
                diversity_loss(usage), -(g * g) * np.log(v) / v, rtol=1e-12)

    def test_uniform_minimizes_over_random_usages(self):
        rng = np.random.default_rng(9)
        floor = diversity_loss(CodebookUsage(np.full((2, 3), 1 / 3)))
        for _ in range(200):
            probs = rng.dirichlet(np.ones(3), size=2)
            assert diversity_loss(CodebookUsage(probs)) >= floor - 1e-12

    def test_always_non_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            probs = rng.dirichlet(np.full(4, 0.3), size=3)
            assert diversity_loss(CodebookUsage(probs)) <= 0.0

    def test_zero_entries_contribute_nothing(self):
        half = CodebookUsage([[0.5, 0.5, 0.0, 0.0]])
        np.testing.assert_allclose(diversity_loss(half), -np.log(2.0) / 4,
                                   rtol=1e-12)

    def test_usage_validation(self):
        with pytest.raises(DataError, match="non-negative"):
            CodebookUsage([[1.2, -0.2]])
        with pytest.raises(DataError, match="sum"):
            CodebookUsage([[0.7, 0.7]])
        with pytest.raises(UsageError, match="entry"):
            diversity_loss(CodebookUsage(np.zeros((2, 0))))
        with pytest.raises(UsageError, match=r"shape \(G, V\)"):
            CodebookUsage([0.5, 0.5])


class TestCca:
    def test_identical_views(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 3))
        corrs = cca_corrs(x, x, reg=1e-9)
        assert corrs.shape == (3,)
        assert np.all(corrs >= 1 - 1e-8)
        assert np.all(corrs <= 1.0)

    def test_invertible_map_keeps_full_correlation(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.normal(size=(500, 4))
            q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            a = q1 @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ q2
            corrs = cca_corrs(x, x @ a, reg=1e-9)
            assert np.all(corrs >= 1 - 1e-6)

    def test_independent_views_decorrelate(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(10000, 3))
        y = rng.normal(size=(10000, 3))
        assert np.mean(cca_corrs(x, y)) < 0.05

    def test_similarity_is_mean_of_correlations(self, tmp_path, capsys):
        # `analyze cca` reports the mean canonical correlation as its similarity
        rng = np.random.default_rng(14)
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 5))
        paths = [str(tmp_path / name) for name in ("x.feats", "y.feats")]
        for path, data in zip(paths, (x, y)):
            write_feature_text(path, FeatureMatrix(data))
        assert main(["analyze", "cca", "--x", paths[0], "--y", paths[1], "--json"]) == 0
        similarity = json.loads(capsys.readouterr().out.splitlines()[1])["similarity"]
        np.testing.assert_allclose(similarity,
                                   np.mean(cca_corrs(x, y)), rtol=1e-12)

    def test_values_in_unit_interval_sorted_descending(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.normal(size=(60, int(rng.integers(1, 5))))
            y = rng.normal(size=(60, int(rng.integers(1, 5))))
            corrs = cca_corrs(x, y)
            assert corrs.shape == (min(x.shape[1], y.shape[1]),)
            assert np.all((corrs >= 0.0) & (corrs <= 1.0))
            assert np.all(np.diff(corrs) <= 1e-15)

    def test_invariant_to_column_permutation(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(80, 4))
        y = rng.normal(size=(80, 3))
        base = cca_corrs(x, y)
        perm = cca_corrs(x[:, [2, 0, 3, 1]], y)
        np.testing.assert_allclose(perm, base, atol=1e-9)

    def test_singular_covariance_demands_regularization(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(50, 3))
        x[:, 2] = x[:, 0]  # rank-deficient view
        with pytest.raises(NumericError, match="singular"):
            cca_corrs(x, rng.normal(size=(50, 2)), reg=0.0)
        # the advised fix works
        cca_corrs(x, rng.normal(size=(50, 2)), reg=1e-6)

    def test_argument_validation(self):
        rng = np.random.default_rng(18)
        with pytest.raises(UsageError, match="rows"):
            cca_corrs(rng.normal(size=(10, 2)), rng.normal(size=(11, 2)))
        with pytest.raises(UsageError, match="2-D"):
            cca_corrs(rng.normal(size=10), rng.normal(size=(10, 2)))
        with pytest.raises(UsageError, match="observations"):
            cca_corrs(np.zeros((1, 2)), np.zeros((1, 2)))
        for reg in (-1e-3, np.nan, np.inf):
            with pytest.raises(UsageError, match="reg must be finite and non-negative"):
                cca_corrs(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), reg=reg)


class TestMutualInformation:
    def test_one_hot_features_recover_label_entropy(self):
        labels = np.repeat([0, 1, 2], [5, 3, 2])
        features = np.eye(3)[labels]
        freqs = np.array([0.5, 0.3, 0.2])
        entropy = -np.sum(freqs * np.log(freqs))
        mi = mutual_information(features, labels, num_clusters=3)
        np.testing.assert_allclose(mi, entropy, atol=1e-9)

    def test_independent_labels_give_near_zero(self):
        rng = np.random.default_rng(19)
        features = rng.normal(size=(10000, 2))
        labels = rng.integers(0, 2, size=10000)
        assert mutual_information(features, labels, num_clusters=4) <= 0.05

    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(20)
        features = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        assert mutual_information(features, labels, num_clusters=1) == 0.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        features = rng.normal(size=(100, 2))
        labels = rng.integers(0, 3, size=100)
        a = mutual_information(features, labels, num_clusters=5, seed=3)
        b = mutual_information(features, labels, num_clusters=5, seed=3)
        assert a == b

    def test_invariant_to_relabeling(self):
        rng = np.random.default_rng(22)
        features = rng.normal(size=(120, 2))
        labels = rng.integers(0, 4, size=120)
        remap = np.array([2, 0, 3, 1])
        a = mutual_information(features, labels, num_clusters=4, seed=1)
        b = mutual_information(features, remap[labels], num_clusters=4, seed=1)
        assert a == b

    def test_string_labels_accepted(self):
        features = np.eye(2)[[0, 0, 1, 1]]
        mi = mutual_information(features, ["x", "x", "y", "y"], num_clusters=2)
        np.testing.assert_allclose(mi, np.log(2.0), atol=1e-9)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(1, 6))
            num_labels = int(rng.integers(1, 5))
            features = rng.normal(size=(n, 2))
            labels = rng.integers(0, num_labels, size=n)
            mi = mutual_information(features, labels, num_clusters=k)
            assert 0.0 <= mi <= np.log(k) + 1e-9
            assert mi <= np.log(num_labels) + 1e-9

    def test_argument_validation(self):
        rng = np.random.default_rng(25)
        features = rng.normal(size=(10, 2))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(UsageError, match="num_clusters"):
            mutual_information(features, labels, num_clusters=0)
        with pytest.raises(UsageError, match="num_clusters"):
            mutual_information(features, labels, num_clusters=11)
        with pytest.raises(UsageError, match="align"):
            mutual_information(features, np.zeros(9, dtype=int), num_clusters=2)
        with pytest.raises(UsageError, match="seed"):
            mutual_information(features, labels, num_clusters=2, seed=-1)
        with pytest.raises(UsageError, match="non-empty"):
            mutual_information(np.zeros((0, 2)), np.zeros(0, dtype=int),
                               num_clusters=1)
