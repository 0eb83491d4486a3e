"""Micro-benchmarks of the library's hot paths.

Unlike the figure benchmarks (one-shot experiment timings), these run the
classic pytest-benchmark loop so performance regressions in the core
numerical routines are visible across commits.
"""

import datetime as dt

import numpy as np
import pytest

from repro.analysis.kmeans import KMeans
from repro.analysis.silhouette import silhouette_score
from repro.data.corpus import Corpus
from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig
from repro.experiments import make_experiment_data
from repro.models._special import digamma
from repro.models.bpmf import BayesianPMF
from repro.models.lda import LatentDirichletAllocation
from repro.models.ngram import NGramModel
from repro.preprocessing.tfidf import TfidfTransform


@pytest.fixture(scope="module")
def served_data():
    """The served universe: 20k companies at seed 7, as ``repro serve`` builds it."""
    return make_experiment_data(20_000, seed=7)


def _served_lda():
    """The served LDA configuration (``build_demo_models``), unfitted."""
    return LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=60, seed=0
    )


@pytest.fixture(scope="module")
def served_lda(served_data):
    """The served LDA, fitted on the 20k universe's train split."""
    return _served_lda().fit(served_data.split.train)


def test_bench_simulate_batch(benchmark):
    # The served universe (20k companies, seed 7) through the batch kernel,
    # up to its aggregated companies; the raw feed is never built.
    simulator = InstallBaseSimulator(SimulatorConfig(n_companies=20_000))
    companies = benchmark.pedantic(
        lambda: simulator.generate(seed=7, method="batch").companies,
        rounds=5,
        iterations=1,
    )
    assert len(companies) == 20_000


def test_bench_bpmf_fit(benchmark):
    # The Figures 5/6 fit of `paper-pipeline`: the seed-1 universe of 1000
    # companies truncated at the 2013 cutoff, 50 Gibbs sweeps of 8 factors.
    train = make_experiment_data(1000, seed=1).corpus.truncated_before(
        dt.date(2013, 1, 1)
    )
    model = benchmark.pedantic(
        lambda: BayesianPMF(n_factors=8, n_iter=50, seed=0).fit(train),
        rounds=3,
        iterations=1,
    )
    assert (model.recommendation_scores() >= 0.9).mean() > 0.9


def test_bench_corpus_binary_matrix(benchmark, bench_data):
    corpus = bench_data.corpus
    matrix = benchmark(corpus.binary_matrix)
    assert matrix.shape == (corpus.n_companies, 38)


def test_bench_corpus_binary_matrix_cold(benchmark, served_data):
    # A fresh corpus over the served universe: its token columns (and the
    # vocabulary check on the same pass) are built inside the timing.
    companies = served_data.universe.companies
    vocabulary = served_data.corpus.vocabulary
    matrix = benchmark.pedantic(
        lambda: Corpus(companies, vocabulary).binary_matrix(), rounds=5, iterations=1
    )
    assert matrix.shape == (20_000, 38)


def test_bench_tfidf_transform(benchmark, bench_data):
    matrix = bench_data.corpus.binary_matrix()
    transform = TfidfTransform().fit(matrix)
    out = benchmark(transform.transform, matrix)
    assert out.shape == matrix.shape


def test_bench_lda_variational_fit(benchmark, bench_data):
    train = bench_data.split.train

    def fit():
        return LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=30, seed=0
        ).fit(train)

    model = benchmark.pedantic(fit, rounds=3, iterations=1)
    assert model.is_fitted


def test_bench_lda_variational_fit_served(benchmark, served_data):
    # The served fit (`build_demo_models`): 60 VB epochs on the 20k
    # universe's train split, 14,000 rows of which 4,447 are distinct.
    train = served_data.split.train
    model = benchmark.pedantic(
        lambda: _served_lda().fit(train), rounds=5, iterations=1
    )
    assert model.is_fitted


def test_bench_lda_company_features_served(benchmark, served_lda, served_data):
    # The similarity features the sales tool loads at start and on every
    # promotion: a fold-in of all 20k companies (5,869 distinct rows).
    features = benchmark.pedantic(
        lambda: served_lda.company_features(served_data.corpus), rounds=10, iterations=1
    )
    assert features.shape == (20_000, 3)


def test_bench_lda_completion_served(benchmark, served_lda, served_data):
    # The swap gate's reference perplexity: completion scoring of the
    # 2,000-company validation slice (906 distinct rows).
    perplexity = benchmark.pedantic(
        lambda: served_lda.perplexity(served_data.split.validation),
        rounds=10,
        iterations=1,
    )
    assert np.isfinite(perplexity)


@pytest.mark.parametrize("implementation", ["numpy", "scipy"])
def test_bench_digamma_served_shape(benchmark, implementation):
    # One VB iteration's digamma calls on (14000, 3) variational Dirichlet
    # parameters, one per row of the served train split (the served fit
    # itself now runs over its 4,447 distinct rows); SciPy's beside it for
    # reference.
    if implementation == "scipy":
        from scipy.special import digamma as psi
    else:
        psi = digamma
    gamma = np.random.default_rng(0).gamma(2.0, 1.0, size=(14_000, 3))
    values = benchmark(lambda: (psi(gamma), psi(gamma.sum(axis=1, keepdims=True))))
    assert values[0].shape == gamma.shape


def test_bench_lda_fold_in(benchmark, bench_data):
    model = LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=30, seed=0
    ).fit(bench_data.split.train)
    matrix = bench_data.split.test.binary_matrix()
    theta = benchmark(model.infer_theta, matrix)
    assert theta.shape == (matrix.shape[0], 3)


def test_bench_lda_completion_log_prob(benchmark, bench_data):
    model = LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=30, seed=0
    ).fit(bench_data.split.train)
    perplexity = benchmark(model.perplexity, bench_data.split.test)
    assert np.isfinite(perplexity)


def test_bench_ngram_fit(benchmark, bench_data):
    train = bench_data.split.train
    model = benchmark.pedantic(
        lambda: NGramModel(order=2).fit(train), rounds=3, iterations=1
    )
    assert model.is_fitted


def test_bench_ngram_fit_served(benchmark, served_data):
    # The served bigram fit on the 20k universe's train split, as
    # `build_demo_models` runs it at every server start.
    train = served_data.split.train
    model = benchmark.pedantic(
        lambda: NGramModel(order=2).fit(train), rounds=5, iterations=1
    )
    assert model.is_fitted


def test_bench_kmeans(benchmark, bench_data):
    features = bench_data.corpus.binary_matrix()
    labels = benchmark.pedantic(
        lambda: KMeans(10, seed=0).fit_predict(features), rounds=3, iterations=1
    )
    assert len(np.unique(labels)) == 10


def test_bench_silhouette(benchmark, bench_data):
    features = bench_data.corpus.binary_matrix()
    labels = KMeans(10, seed=0).fit_predict(features)
    score = benchmark.pedantic(
        lambda: silhouette_score(features, labels, sample_size=800, seed=0),
        rounds=3,
        iterations=1,
    )
    assert -1.0 <= score <= 1.0
