"""Tests for t-SNE, statistics helpers and similarity search."""

import datetime as dt

import numpy as np
import pytest

from repro.analysis.similarity import (
    cosine_similarity_matrix,
    pairwise_distances,
    top_k_similar,
)
from repro.analysis.stats import (
    bootstrap_confidence_interval,
    mean_confidence_interval,
    sequentiality_test,
)
from repro.analysis.tsne import TSNE
from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber


class TestTSNE:
    def test_preserves_cluster_structure(self, rng):
        # Two well-separated 10-D blobs must stay separated in 2-D.
        a = rng.normal(0, 0.05, size=(15, 10))
        b = rng.normal(3, 0.05, size=(15, 10))
        data = np.vstack([a, b])
        embedding = TSNE(2, perplexity=6.0, n_iter=300, seed=0).fit_transform(data)
        centroid_a = embedding[:15].mean(axis=0)
        centroid_b = embedding[15:].mean(axis=0)
        spread_a = np.linalg.norm(embedding[:15] - centroid_a, axis=1).mean()
        spread_b = np.linalg.norm(embedding[15:] - centroid_b, axis=1).mean()
        gap = np.linalg.norm(centroid_a - centroid_b)
        assert gap > 2 * max(spread_a, spread_b)

    def test_output_shape_and_centering(self, rng):
        data = rng.normal(size=(12, 5))
        model = TSNE(2, perplexity=3.0, n_iter=100, seed=0)
        out = model.fit_transform(data)
        assert out.shape == (12, 2)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-8)
        assert np.isfinite(model.kl_divergence_)

    def test_deterministic_given_seed(self, rng):
        data = rng.normal(size=(10, 4))
        a = TSNE(2, perplexity=3.0, n_iter=50, seed=1).fit_transform(data)
        b = TSNE(2, perplexity=3.0, n_iter=50, seed=1).fit_transform(data)
        assert np.allclose(a, b)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            TSNE(2, perplexity=1.5).fit_transform(np.zeros((3, 2)))

    def test_perplexity_too_large_rejected(self, rng):
        with pytest.raises(ValueError, match="perplexity"):
            TSNE(2, perplexity=20.0).fit_transform(rng.normal(size=(10, 3)))


class TestConfidenceIntervals:
    def test_mean_ci_contains_mean(self, rng):
        data = rng.normal(5.0, 1.0, size=40)
        mean, low, high = mean_confidence_interval(data)
        assert low < mean < high
        assert mean == pytest.approx(data.mean())

    def test_mean_ci_narrows_with_samples(self, rng):
        small = rng.normal(size=20)
        large = np.concatenate([small] * 25)
        __, lo_s, hi_s = mean_confidence_interval(small)
        __, lo_l, hi_l = mean_confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_single_observation_degenerate(self):
        mean, low, high = mean_confidence_interval(np.array([3.0]))
        assert mean == low == high == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval(np.array([]))

    def test_bootstrap_close_to_normal_ci(self, rng):
        data = rng.normal(0.0, 1.0, size=200)
        __, lo_n, hi_n = mean_confidence_interval(data)
        __, lo_b, hi_b = bootstrap_confidence_interval(data, seed=0)
        assert lo_b == pytest.approx(lo_n, abs=0.05)
        assert hi_b == pytest.approx(hi_n, abs=0.05)

    def test_bootstrap_deterministic_given_seed(self, rng):
        data = rng.normal(size=30)
        assert bootstrap_confidence_interval(data, seed=1) == bootstrap_confidence_interval(
            data, seed=1
        )

    @staticmethod
    def _scipy_interval(data, confidence):
        # The interval as scipy's normal quantile gives it (test-only import).
        from scipy.stats import norm

        z = float(norm.ppf(0.5 + confidence / 2.0))
        half = z * float(data.std(ddof=1)) / float(np.sqrt(data.size))
        return float(data.mean()), float(data.mean()) - half, float(data.mean()) + half

    def test_quantile_matches_scipy(self):
        # Mean 0, std 1 and sqrt(n) = 2 exactly, so ``high`` is z / 2 exactly.
        # The standard-library quantile and scipy's differ by at most 3 ulp
        # on this grid (2 at 0.95); each is within ~1 ulp of the exact 0.975
        # quantile.
        data = np.array([-1.5, 0.5, 0.5, 0.5])
        for confidence in np.linspace(0.01, 0.99, 99):
            mean, low, high = mean_confidence_interval(data, confidence=confidence)
            __, __, want_high = self._scipy_interval(data, confidence)
            assert mean == 0.0 and low == -high
            assert abs(2 * high - 2 * want_high) <= 4 * np.spacing(2 * want_high)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    @pytest.mark.parametrize("data", [[1.0, 2.0, 4.0], [3.0, 3.0]])
    def test_end_points_match_scipy(self, confidence, data):
        # A zero-width interval at 0; an infinite one at 1 (NaN with no spread).
        data = np.asarray(data)
        got = mean_confidence_interval(data, confidence=confidence)
        np.testing.assert_array_equal(got, self._scipy_interval(data, confidence))


class TestSequentialityTest:
    @staticmethod
    def _corpus(sequences, vocab=("a", "b", "c", "d")):
        companies = []
        for i, seq in enumerate(sequences):
            first_seen = {
                vocab[t]: dt.date(2000, 1, 1) + dt.timedelta(days=31 * j)
                for j, t in enumerate(seq)
            }
            companies.append(
                Company(
                    duns=DunsNumber.from_sequence(i), name=f"C{i}", country="US",
                    sic2=80, first_seen=first_seen,
                )
            )
        return Corpus(companies, vocab)

    def test_deterministic_order_highly_significant(self):
        corpus = self._corpus([[0, 1, 2, 3]] * 40)
        report = sequentiality_test(corpus, order=2)
        assert report.significant_fraction == 1.0

    def test_shuffled_order_rarely_significant(self, rng):
        sequences = []
        for __ in range(60):
            seq = [0, 1, 2, 3]
            rng.shuffle(seq)
            sequences.append(seq)
        corpus = self._corpus(sequences)
        report = sequentiality_test(corpus, order=2, alpha=0.01)
        assert report.significant_fraction < 0.3

    def test_order_one_rejected(self, corpus):
        with pytest.raises(ValueError, match="order >= 2"):
            sequentiality_test(corpus, order=1)

    def test_degenerate_alpha_rejected(self, corpus):
        with pytest.raises(ValueError):
            sequentiality_test(corpus, alpha=0.0)

    def test_report_counts_consistent(self, corpus):
        report = sequentiality_test(corpus, order=2)
        assert 0 <= report.n_significant <= report.n_distinct
        assert report.order == 2


class TestSimilarity:
    def test_cosine_matrix_diagonal_ones(self, rng):
        features = rng.normal(size=(8, 4))
        sim = cosine_similarity_matrix(features)
        assert np.allclose(np.diag(sim), 1.0)
        assert np.allclose(sim, sim.T)

    def test_zero_rows_dissimilar(self):
        features = np.array([[1.0, 0.0], [0.0, 0.0]])
        sim = cosine_similarity_matrix(features)
        assert sim[0, 1] == 0.0
        assert sim[1, 1] == 0.0

    def test_pairwise_euclidean(self):
        features = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_distances(features, metric="euclidean")
        assert distances[0, 1] == pytest.approx(5.0)

    def test_top_k_orders_by_similarity(self):
        features = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [1.0, 0.01]])
        hits = top_k_similar(features, 0, 2)
        assert [i for i, __ in hits] == [3, 1]

    def test_top_k_excludes_query(self, rng):
        features = rng.normal(size=(10, 3))
        hits = top_k_similar(features, 4, 9)
        assert 4 not in [i for i, __ in hits]

    def test_candidate_mask_respected(self):
        features = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        mask = np.array([True, False, True])
        hits = top_k_similar(features, 0, 5, candidate_mask=mask)
        assert [i for i, __ in hits] == [2]

    def test_empty_candidates(self):
        features = np.eye(3)
        mask = np.zeros(3, dtype=bool)
        assert top_k_similar(features, 0, 2, candidate_mask=mask) == []

    def test_euclidean_metric_scores_negated_distance(self):
        features = np.array([[0.0], [1.0], [3.0]])
        hits = top_k_similar(features, 0, 2, metric="euclidean")
        assert hits[0][0] == 1
        assert hits[0][1] == pytest.approx(-1.0)

    def test_invalid_query_index(self, rng):
        with pytest.raises(IndexError):
            top_k_similar(rng.normal(size=(4, 2)), 9, 1)

    def test_mask_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            top_k_similar(rng.normal(size=(4, 2)), 0, 1, candidate_mask=np.ones(3, bool))
