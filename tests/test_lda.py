"""Model-specific tests for Latent Dirichlet Allocation."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import as_rng
from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig
from repro.models._special import digamma, trigamma
from repro.models.lda import LatentDirichletAllocation, _distinct_rows
from repro.models.unigram import UnigramModel
from tests.corpus_strategies import corpora_with_repeats


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


def per_row_fit_variational(model, counts):
    """Reference variational fit with the E-step over every row.

    The fit as it was before distinct-row batching.  ``model`` is an
    unfitted model supplying the hyperparameters and seed; it is left
    unchanged.  Returns ``(phi, train_theta, alpha)``.
    """
    rng = as_rng(model._seed)
    alpha = model.alpha
    n_docs, n_words = counts.shape
    k = model.n_topics
    lam = rng.gamma(100.0, 0.01, size=(k, n_words))
    gamma = np.ones((n_docs, k))
    weighted = np.empty((n_docs, n_words))
    for __ in range(model.n_iter):
        exp_log_beta = np.exp(digamma(lam) - digamma(lam.sum(axis=1, keepdims=True)))
        exp_log_theta = np.exp(
            digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
        )
        np.matmul(exp_log_theta, exp_log_beta, out=weighted)
        weighted += 1e-100
        np.divide(counts, weighted, out=weighted)
        gamma = alpha + exp_log_theta * (weighted @ exp_log_beta.T)
        lam = model.beta + exp_log_beta * (exp_log_theta.T @ weighted)
        if model.learn_alpha:
            alpha = per_row_alpha_step(alpha, k, gamma)
    return (
        lam / lam.sum(axis=1, keepdims=True),
        gamma / gamma.sum(axis=1, keepdims=True),
        alpha,
    )


def per_row_alpha_step(alpha, k, gamma):
    """Reference ``alpha="auto"`` Newton step: the mean over every row."""
    log_theta = digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
    logphat_sum = float(log_theta.mean(axis=0).sum())
    gradient = k * digamma(k * alpha) - k * digamma(alpha) + logphat_sum
    hessian = k * k * trigamma(k * alpha) - k * trigamma(alpha)
    if hessian >= 0.0:
        return alpha
    updated = alpha - gradient / hessian
    if not np.isfinite(updated) or updated <= 1e-4:
        return alpha
    return float(np.clip(updated, alpha / 2.0, alpha * 2.0))


def all_pairs_completion_log_prob(model, binary):
    """Reference batched leave-one-out scorer over every (row, product) pair.

    The scorer as it was before distinct-row batching, chunked the same way.
    """
    counts = model._representation_counts(binary)
    companies, products = np.nonzero(binary)
    chunk = model.COMPLETION_CHUNK
    total = 0.0
    for start in range(0, len(companies), chunk):
        rows = companies[start : start + chunk]
        held_out = products[start : start + chunk]
        variants = counts[rows]
        variants[np.arange(len(rows)), held_out] = 0.0
        theta = model.infer_theta(variants)
        probs = np.einsum("ik,ki->i", theta, model.phi[:, held_out]) + 1e-100
        total += float(np.log(probs).sum())
    return total


#: Variational configurations the distinct-row parity tests fit.
PARITY_CONFIGS = {
    "binary": {},
    "tfidf": {"input_type": "tfidf"},
    "auto_alpha": {"alpha": "auto"},
}


class TestDistinctRows:
    def test_rows_round_trip_in_first_seen_order(self):
        matrix = np.array(
            [[0.0, 1.0], [1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [1.0, 0.5], [0.0, 1.0]]
        )
        distinct, inverse, multiplicity = _distinct_rows(matrix)
        np.testing.assert_array_equal(distinct, [[0.0, 1.0], [1.0, 0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 2, 1, 0])
        np.testing.assert_array_equal(multiplicity, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(distinct[inverse], matrix)

    def test_rows_differing_in_the_last_bit_stay_apart(self):
        matrix = np.array([[0.1, 0.2], [0.1, np.nextafter(0.2, 1.0)], [0.1, 0.2]])
        distinct, inverse, multiplicity = _distinct_rows(matrix)
        assert len(distinct) == 2
        np.testing.assert_array_equal(inverse, [0, 1, 0])
        np.testing.assert_array_equal(distinct[inverse], matrix)

    def test_matrix_without_repeats_comes_back_unchanged(self, split):
        binary = split.test.binary_matrix()
        _, first = np.unique(binary, axis=0, return_index=True)
        unique = binary[np.sort(first)]
        distinct, inverse, multiplicity = _distinct_rows(unique)
        np.testing.assert_array_equal(distinct, unique)
        np.testing.assert_array_equal(inverse, np.arange(len(unique)))
        assert np.all(multiplicity == 1.0)


class TestDistinctRowParity:
    """Corpus-level LDA work over distinct rows against the per-row references.

    Folding in fewer rows changes BLAS shapes and the order of the M-step
    and log-probability sums, so the two agree to stated relative
    tolerances rather than bit for bit.
    """

    FIT_RTOL = 1e-10
    FEATURES_RTOL = 1e-13
    LOG_PROB_RTOL = 1e-13

    def _assert_parity(self, corpus, config, n_topics=3):
        params = dict(
            n_topics=n_topics, inference="variational", n_iter=25, seed=3,
            **PARITY_CONFIGS[config],
        )
        model = LatentDirichletAllocation(**params).fit(corpus)
        binary = corpus.binary_matrix()
        counts = model._representation_counts(binary)

        phi, theta, alpha = per_row_fit_variational(
            LatentDirichletAllocation(**params), counts
        )
        np.testing.assert_allclose(model.phi, phi, rtol=self.FIT_RTOL, atol=0)
        np.testing.assert_allclose(model._train_theta, theta, rtol=self.FIT_RTOL, atol=0)
        assert model.alpha == pytest.approx(alpha, rel=self.FIT_RTOL, abs=0)

        np.testing.assert_allclose(
            model.company_features(corpus), model.infer_theta(counts),
            rtol=self.FEATURES_RTOL, atol=0,
        )
        np.testing.assert_allclose(
            model.log_prob(corpus), all_pairs_completion_log_prob(model, binary),
            rtol=self.LOG_PROB_RTOL, atol=0,
        )
        model.score_mode = "fold_in"
        mixture = model.infer_theta(counts) @ model.phi + 1e-100
        np.testing.assert_allclose(
            model.log_prob(corpus), (binary * np.log(mixture)).sum(),
            rtol=self.LOG_PROB_RTOL, atol=0,
        )

    @pytest.mark.parametrize("config", sorted(PARITY_CONFIGS))
    @settings(max_examples=25, deadline=None)
    @given(corpus=corpora_with_repeats(), n_topics=st.integers(1, 3))
    def test_corpora_with_repeated_rows(self, config, corpus, n_topics):
        self._assert_parity(corpus, config, n_topics)

    @pytest.mark.parametrize("config", sorted(PARITY_CONFIGS))
    def test_train_split(self, split, config):
        self._assert_parity(split.train, config)

    @pytest.mark.parametrize("config", sorted(PARITY_CONFIGS))
    def test_one_repeated_row(self, split, config):
        row = int(np.argmax(split.train.binary_matrix().sum(axis=1)))
        self._assert_parity(split.train.subset([row] * 40, allow_duplicates=True), config)

    @pytest.mark.parametrize("config", sorted(PARITY_CONFIGS))
    def test_no_repeated_rows(self, split, config):
        _, first = np.unique(split.train.binary_matrix(), axis=0, return_index=True)
        corpus = split.train.subset(np.sort(first))
        assert len(first) < split.train.n_companies
        self._assert_parity(corpus, config)

    def test_fit_matrix_with_fractional_repeats(self):
        rows = np.array([[0.5, 1.0, 0.0], [0.0, 0.3, 0.9], [0.2, 0.0, 0.7]])
        counts = rows[[0, 1, 0, 2, 1, 0, 0]]
        params = dict(n_topics=2, inference="variational", n_iter=30, seed=0)
        model = LatentDirichletAllocation(**params).fit_matrix(counts)
        phi, theta, _ = per_row_fit_variational(LatentDirichletAllocation(**params), counts)
        np.testing.assert_allclose(model.phi, phi, rtol=self.FIT_RTOL, atol=0)
        np.testing.assert_allclose(model._train_theta, theta, rtol=self.FIT_RTOL, atol=0)
