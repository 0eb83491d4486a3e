"""Model-specific tests for Latent Dirichlet Allocation."""

import datetime as dt

import numpy as np
import pytest

from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig
from repro.models.lda import LatentDirichletAllocation
from repro.models.unigram import UnigramModel


class TestConstruction:
    def test_default_alpha_scales_with_topics(self):
        assert LatentDirichletAllocation(n_topics=4).alpha == pytest.approx(0.25)

    def test_gibbs_rejects_tfidf_input(self):
        with pytest.raises(ValueError, match="variational"):
            LatentDirichletAllocation(inference="gibbs", input_type="tfidf")

    def test_invalid_inference(self):
        with pytest.raises(ValueError):
            LatentDirichletAllocation(inference="mcmc")

    def test_invalid_score_mode(self):
        with pytest.raises(ValueError):
            LatentDirichletAllocation(score_mode="magic")


class TestFitting:
    def test_phi_rows_are_distributions(self, fitted_lda):
        phi = fitted_lda.phi
        assert phi.shape == (3, 38)
        assert np.all(phi >= 0.0)
        assert np.allclose(phi.sum(axis=1), 1.0)

    def test_n_parameters_matches_paper_formula(self, fitted_lda):
        # Section 5: nt + nt * M.
        assert fitted_lda.n_parameters == 3 + 3 * 38

    def test_variational_deterministic_given_seed(self, split):
        a = LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=30, seed=9
        ).fit(split.train)
        b = LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=30, seed=9
        ).fit(split.train)
        assert np.allclose(a.phi, b.phi)

    def test_gibbs_deterministic_given_seed(self, split):
        a = LatentDirichletAllocation(n_topics=2, n_iter=20, seed=9).fit(split.train)
        b = LatentDirichletAllocation(n_topics=2, n_iter=20, seed=9).fit(split.train)
        assert np.allclose(a.phi, b.phi)

    def test_fit_matrix_rejects_negative(self):
        model = LatentDirichletAllocation(n_topics=2, inference="variational")
        with pytest.raises(ValueError, match="non-negative"):
            model.fit_matrix(np.array([[1.0, -1.0]]))

    def test_fit_matrix_gibbs_rejects_fractional(self):
        model = LatentDirichletAllocation(n_topics=2, inference="gibbs")
        with pytest.raises(ValueError, match="integer"):
            model.fit_matrix(np.array([[0.5, 1.0]]))

    def test_fit_matrix_variational_accepts_fractional(self):
        model = LatentDirichletAllocation(
            n_topics=2, inference="variational", n_iter=10, seed=0
        )
        model.fit_matrix(np.array([[0.5, 1.0, 0.0], [0.0, 0.3, 0.9]] * 4))
        assert model.is_fitted


class TestInference:
    def test_infer_theta_rows_are_distributions(self, fitted_lda, split):
        theta = fitted_lda.infer_theta(split.test.binary_matrix())
        assert theta.shape == (split.test.n_companies, 3)
        assert np.all(theta >= 0.0)
        assert np.allclose(theta.sum(axis=1), 1.0)

    def test_empty_company_gets_uniform_mixture(self, fitted_lda):
        theta = fitted_lda.infer_theta(np.zeros((1, 38)))
        assert np.allclose(theta, 1.0 / 3.0)

    def test_infer_theta_dimension_mismatch(self, fitted_lda):
        with pytest.raises(ValueError):
            fitted_lda.infer_theta(np.zeros((1, 40)))

    def test_company_features_match_infer_theta(self, fitted_lda, split):
        features = fitted_lda.company_features(split.test)
        direct = fitted_lda.infer_theta(split.test.binary_matrix())
        assert np.allclose(features, direct)

    def test_product_embeddings_are_topic_posteriors(self, fitted_lda):
        embeddings = fitted_lda.product_embeddings()
        assert embeddings.shape == (38, 3)
        assert np.allclose(embeddings.sum(axis=1), 1.0)


class TestRecovery:
    """LDA must recover the simulator's latent structure."""

    @pytest.fixture(scope="class")
    def recovery_setup(self):
        simulator = InstallBaseSimulator(SimulatorConfig(n_companies=600))
        universe = simulator.generate(seed=11)
        corpus = Corpus(universe.companies, simulator.catalog.categories)
        lda = LatentDirichletAllocation(
            n_topics=4, inference="variational", n_iter=120, seed=0
        ).fit(corpus)
        return universe, corpus, lda

    def test_topics_align_with_true_profiles(self, recovery_setup):
        universe, corpus, lda = recovery_setup
        true_phi = universe.ground_truth.profile_product
        learned = lda.phi
        # Greedy-match learned topics to true profiles by cosine similarity;
        # each true profile should have a strong counterpart.
        sims = (true_phi / np.linalg.norm(true_phi, axis=1, keepdims=True)) @ (
            learned / np.linalg.norm(learned, axis=1, keepdims=True)
        ).T
        best = sims.max(axis=1)
        assert np.all(best > 0.85)

    def test_dominant_topic_matches_dominant_profile(self, recovery_setup):
        universe, corpus, lda = recovery_setup
        theta = lda.company_features(corpus)
        true_mixture = universe.ground_truth.company_mixture
        sims = (
            universe.ground_truth.profile_product
            / np.linalg.norm(universe.ground_truth.profile_product, axis=1, keepdims=True)
        ) @ (lda.phi / np.linalg.norm(lda.phi, axis=1, keepdims=True)).T
        mapping = sims.argmax(axis=1)  # true profile -> learned topic
        predicted = theta.argmax(axis=1)
        expected = mapping[true_mixture.argmax(axis=1)]
        agreement = (predicted == expected).mean()
        assert agreement > 0.8

    def test_beats_unigram_on_held_out(self, split):
        lda = LatentDirichletAllocation(
            n_topics=4, inference="variational", n_iter=60, seed=0
        ).fit(split.train)
        unigram = UnigramModel().fit(split.train)
        assert lda.perplexity(split.test) < unigram.perplexity(split.test)

    def test_gibbs_and_variational_agree(self, split):
        gibbs = LatentDirichletAllocation(n_topics=4, n_iter=80, seed=0).fit(split.train)
        variational = LatentDirichletAllocation(
            n_topics=4, inference="variational", n_iter=80, seed=0
        ).fit(split.train)
        a = gibbs.perplexity(split.test)
        b = variational.perplexity(split.test)
        assert abs(a - b) / min(a, b) < 0.15

    def test_blocked_and_token_samplers_agree(self, split):
        """The vectorized blocked sampler matches the reference token
        sampler within the documented tolerance, across seeds."""
        for seed in (0, 1):
            blocked = LatentDirichletAllocation(
                n_topics=4, n_iter=80, seed=seed, gibbs_sampler="blocked"
            ).fit(split.train)
            token = LatentDirichletAllocation(
                n_topics=4, n_iter=80, seed=seed, gibbs_sampler="token"
            ).fit(split.train)
            a = blocked.perplexity(split.test)
            b = token.perplexity(split.test)
            assert abs(a - b) / min(a, b) < 0.05

    def test_blocked_sampler_deterministic_given_seed(self, split):
        a = LatentDirichletAllocation(
            n_topics=3, n_iter=30, seed=4, gibbs_sampler="blocked"
        ).fit(split.train)
        b = LatentDirichletAllocation(
            n_topics=3, n_iter=30, seed=4, gibbs_sampler="blocked"
        ).fit(split.train)
        assert np.array_equal(a.phi, b.phi)

    def test_gibbs_sampler_choice_validated(self):
        with pytest.raises(ValueError, match="gibbs_sampler"):
            LatentDirichletAllocation(n_topics=2, gibbs_sampler="quantum")

    def test_gibbs_sampler_survives_save_load(self, split, tmp_path):
        model = LatentDirichletAllocation(
            n_topics=2, n_iter=10, seed=0, gibbs_sampler="token"
        ).fit(split.train)
        model.save(tmp_path / "lda.npz")
        restored = LatentDirichletAllocation.load(tmp_path / "lda.npz")
        assert restored.gibbs_sampler == "token"
        assert np.array_equal(restored.phi, model.phi)


class TestScoring:
    def test_fold_in_scores_lower_perplexity_than_completion(self, split):
        completion = LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=40, seed=0
        ).fit(split.train)
        fold_in = LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=40,
            score_mode="fold_in", seed=0,
        ).fit(split.train)
        # Fold-in leaks the scored product into the mixture -> optimistic.
        assert fold_in.perplexity(split.test) < completion.perplexity(split.test)

    def test_tfidf_input_roundtrip(self, split):
        model = LatentDirichletAllocation(
            n_topics=3, inference="variational", input_type="tfidf",
            n_iter=40, seed=0,
        ).fit(split.train)
        assert np.isfinite(model.perplexity(split.test))
        features = model.company_features(split.test)
        assert np.allclose(features.sum(axis=1), 1.0)


def per_company_completion_log_prob(model, binary):
    """Reference leave-one-out scorer: one fold-in per company."""
    counts = model._representation_counts(binary)
    total = 0.0
    for d in range(binary.shape[0]):
        owned = np.flatnonzero(binary[d])
        if len(owned) == 0:
            continue
        variants = np.repeat(counts[d][None, :], len(owned), axis=0)
        variants[np.arange(len(owned)), owned] = 0.0
        theta = model.infer_theta(variants)
        probs = np.einsum("ik,ki->i", theta, model.phi[:, owned]) + 1e-100
        total += float(np.log(probs).sum())
    return total


class TestBatchedCompletion:
    """The batched leave-one-out kernel against the per-company loop.

    Batching changes the order of floating-point reductions, so the two
    agree to a stated relative tolerance rather than bit for bit.
    """

    RTOL = 1e-12

    @pytest.fixture(scope="class")
    def edge_corpus(self, split):
        """The test split plus a company with no products and one with one."""
        vocabulary = split.test.vocabulary

        def company(i, first_seen):
            return Company(
                duns=DunsNumber.from_sequence(900_000 + i),
                name=f"Edge {i}",
                country="US",
                sic2=80,
                first_seen=first_seen,
            )

        extra = [company(0, {}), company(1, {vocabulary[4]: dt.date(2010, 1, 1)})]
        return Corpus(extra + list(split.test.companies), vocabulary)

    def _assert_matches_reference(self, model, corpus):
        expected = per_company_completion_log_prob(model, corpus.binary_matrix())
        np.testing.assert_allclose(model.log_prob(corpus), expected, rtol=self.RTOL)

    def test_binary_model(self, fitted_lda, edge_corpus):
        self._assert_matches_reference(fitted_lda, edge_corpus)

    def test_tfidf_model(self, split, edge_corpus):
        model = LatentDirichletAllocation(
            n_topics=3, inference="variational", input_type="tfidf",
            n_iter=40, seed=0,
        ).fit(split.train)
        self._assert_matches_reference(model, edge_corpus)

    def test_edge_companies_scored(self, fitted_lda, edge_corpus, split):
        # The single-product company is scored under the prior mixture;
        # the empty company contributes nothing.
        single = fitted_lda.log_prob(
            Corpus(edge_corpus.companies[1:2], edge_corpus.vocabulary)
        )
        prior = np.full(fitted_lda.n_topics, 1.0 / fitted_lda.n_topics) @ fitted_lda.phi
        assert single == pytest.approx(np.log(prior[4]), rel=self.RTOL)
        assert fitted_lda.log_prob(edge_corpus) == pytest.approx(
            single + fitted_lda.log_prob(split.test), rel=self.RTOL
        )

    def test_company_straddling_a_chunk_boundary(
        self, fitted_lda, edge_corpus, monkeypatch
    ):
        chunk = 5
        companies, _ = np.nonzero(edge_corpus.binary_matrix())
        boundaries = np.arange(chunk, len(companies), chunk)
        assert np.any(companies[boundaries - 1] == companies[boundaries])
        unchunked = fitted_lda.log_prob(edge_corpus)
        monkeypatch.setattr(LatentDirichletAllocation, "COMPLETION_CHUNK", chunk)
        self._assert_matches_reference(fitted_lda, edge_corpus)
        np.testing.assert_allclose(
            fitted_lda.log_prob(edge_corpus), unchunked, rtol=self.RTOL
        )


class TestAutoAlpha:
    def test_auto_alpha_learns_peaked_prior(self, split):
        # The simulator's mixtures are near one-hot, so the learned
        # concentration must drop below the uniform-ish initial 1/K.
        model = LatentDirichletAllocation(
            n_topics=4, alpha="auto", inference="variational", n_iter=60, seed=0
        ).fit(split.train)
        assert model.learn_alpha
        assert 0.0 < model.alpha < 0.25

    def test_auto_alpha_perplexity_competitive(self, split):
        fixed = LatentDirichletAllocation(
            n_topics=4, inference="variational", n_iter=60, seed=0
        ).fit(split.train)
        auto = LatentDirichletAllocation(
            n_topics=4, alpha="auto", inference="variational", n_iter=60, seed=0
        ).fit(split.train)
        assert auto.perplexity(split.test) < fixed.perplexity(split.test) * 1.15

    def test_auto_alpha_requires_variational(self):
        with pytest.raises(ValueError, match="variational"):
            LatentDirichletAllocation(alpha="auto", inference="gibbs")

    def test_auto_alpha_roundtrips(self, split, tmp_path):
        model = LatentDirichletAllocation(
            n_topics=3, alpha="auto", inference="variational", n_iter=30, seed=0
        ).fit(split.train)
        path = tmp_path / "auto.npz"
        model.save(path)
        loaded = LatentDirichletAllocation.load(path)
        assert loaded.alpha == pytest.approx(model.alpha)
        assert loaded.learn_alpha
