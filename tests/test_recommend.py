"""Tests for the recommendation harness: windows, recommender, evaluation."""

import datetime as dt
import functools

import numpy as np
import pytest

from repro.models.lda import LatentDirichletAllocation
from repro.models.unigram import UnigramModel
from repro.recommend.baselines import RandomRecommender
from repro.recommend.evaluation import (
    RecommendationEvaluator,
    ThresholdCurve,
    WindowObservation,
    window_tasks,
)
from repro.recommend.recommender import ThresholdRecommender
from repro.recommend.windows import SlidingWindowSpec, Window


class TestWindows:
    def test_paper_layout(self):
        spec = SlidingWindowSpec()
        windows = spec.windows()
        assert len(windows) == 13
        assert windows[0].start == dt.date(2013, 1, 1)
        assert windows[0].end == dt.date(2014, 1, 1)
        assert windows[-1].start == dt.date(2015, 1, 1)
        assert windows[-1].end == dt.date(2016, 1, 1)

    def test_stride(self):
        spec = SlidingWindowSpec(stride_months=2)
        windows = spec.windows()
        assert windows[1].start == dt.date(2013, 3, 1)

    def test_last_end(self):
        assert SlidingWindowSpec().last_end == dt.date(2016, 1, 1)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Window(start=dt.date(2013, 1, 1), end=dt.date(2013, 1, 1))

    def test_invalid_spec(self):
        with pytest.raises((ValueError, TypeError)):
            SlidingWindowSpec(window_months=0)


class TestWindowObservation:
    def test_metrics(self):
        obs = WindowObservation(
            window_start=dt.date(2013, 1, 1), threshold=0.1,
            n_retrieved=10, n_correct=4, n_relevant=8,
        )
        assert obs.precision == pytest.approx(0.4)
        assert obs.recall == pytest.approx(0.5)
        assert obs.f1 == pytest.approx(2 * 0.4 * 0.5 / 0.9)

    def test_zero_retrieved_precision_nan(self):
        obs = WindowObservation(
            window_start=dt.date(2013, 1, 1), threshold=0.9,
            n_retrieved=0, n_correct=0, n_relevant=5,
        )
        assert np.isnan(obs.precision)
        assert obs.recall == 0.0
        assert np.isnan(obs.f1)

    def test_zero_relevant_recall_zero(self):
        obs = WindowObservation(
            window_start=dt.date(2013, 1, 1), threshold=0.1,
            n_retrieved=3, n_correct=0, n_relevant=0,
        )
        assert obs.recall == 0.0


class TestThresholdRecommender:
    @pytest.fixture(scope="class")
    def recommender(self, fitted_lda):
        return ThresholdRecommender(fitted_lda, threshold=0.05)

    def test_requires_fitted_model(self):
        with pytest.raises(ValueError, match="fitted"):
            ThresholdRecommender(UnigramModel())

    def test_requires_generative_model(self):
        with pytest.raises(TypeError):
            ThresholdRecommender(object())

    def test_never_recommends_owned(self, recommender, split):
        history = split.test.sequences()[0]
        recommendations = recommender.recommend(history)
        assert not set(recommendations) & set(history)

    def test_respects_threshold(self, recommender, split):
        history = split.test.sequences()[0][:4]
        scores = recommender.scores(history)
        for token in recommender.recommend(history, threshold=0.1):
            assert scores[token] >= 0.1

    def test_higher_threshold_fewer_recommendations(self, recommender, split):
        history = split.test.sequences()[0][:4]
        low = recommender.recommend(history, threshold=0.02)
        high = recommender.recommend(history, threshold=0.2)
        assert set(high) <= set(low)

    def test_recommendations_sorted_by_score(self, recommender, split):
        history = split.test.sequences()[0][:4]
        recs = recommender.recommend(history, threshold=0.01)
        scores = recommender.scores(history)
        values = [scores[t] for t in recs]
        assert values == sorted(values, reverse=True)

    def test_top_k(self, recommender, split):
        history = split.test.sequences()[0][:4]
        top = recommender.top_k(history, 5)
        assert len(top) == 5
        assert not set(top) & set(history)

    def test_top_k_rejects_nonpositive(self, recommender):
        with pytest.raises(ValueError):
            recommender.top_k([], 0)

    def test_recommend_scored_matches_recommend(self, recommender, split):
        history = split.test.sequences()[0][:4]
        scored = recommender.recommend_scored(history, threshold=0.02)
        assert [token for token, __ in scored] == recommender.recommend(
            history, threshold=0.02
        )
        scores = recommender.scores(history)
        for token, score in scored:
            assert score == pytest.approx(scores[token])
            assert isinstance(token, int) and isinstance(score, float)

    def test_recommend_scored_sorted_descending(self, recommender, split):
        history = split.test.sequences()[0][:4]
        values = [s for __, s in recommender.recommend_scored(history, threshold=0.01)]
        assert values == sorted(values, reverse=True)

    def test_out_of_range_token_raises_value_error(self, recommender):
        # The vectorized path must reject dirty histories up front with a
        # ValueError naming the vocabulary, not an IndexError deep in numpy.
        with pytest.raises(ValueError, match="vocabulary"):
            recommender.scores([0, 38])
        with pytest.raises(ValueError, match="vocabulary"):
            recommender.recommend([-1])

    def test_non_integer_token_raises_type_error(self, recommender):
        with pytest.raises(TypeError, match="non-integer"):
            recommender.scores([0, "server_HW"])
        with pytest.raises(TypeError, match="non-integer"):
            recommender.top_k([True], 3)


class TestRandomRecommender:
    def test_uniform_scores(self, split):
        model = RandomRecommender().fit(split.train)
        proba = model.next_product_proba([0, 1])
        assert np.allclose(proba, 1.0 / 38.0)

    def test_perplexity_equals_vocab_size(self, split):
        model = RandomRecommender().fit(split.train)
        assert model.perplexity(split.test) == pytest.approx(38.0)


class TestEvaluator:
    @pytest.fixture(scope="class")
    def curves(self, corpus):
        evaluator = RecommendationEvaluator(
            corpus,
            spec=SlidingWindowSpec(n_windows=3),
            thresholds=[0.0, 0.05, 0.1, 0.3],
            retrain_per_window=False,
        )
        return evaluator.evaluate(
            {
                "lda": lambda: LatentDirichletAllocation(
                    n_topics=3, inference="variational", n_iter=40, seed=0
                ),
                "random": lambda: RandomRecommender(),
            }
        )

    def test_one_observation_per_window(self, curves):
        for curve in curves.values():
            for threshold in curve.thresholds:
                assert len(curve.observations[threshold]) == 3

    def test_threshold_zero_has_full_recall(self, curves):
        recall, __, __ = curves["lda"].recall(0.0)
        assert recall == pytest.approx(1.0)

    def test_recall_monotone_in_threshold(self, curves):
        recalls = [curves["lda"].recall(t)[0] for t in [0.0, 0.05, 0.1, 0.3]]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_random_baseline_cliff_at_uniform_probability(self, curves):
        # 1/38 ~ 0.026: everything retrieved below, nothing above.
        assert curves["random"].recall(0.0)[0] == pytest.approx(1.0)
        assert curves["random"].retrieved(0.05)[0] == 0.0

    def test_confidence_interval_brackets_mean(self, curves):
        mean, low, high = curves["lda"].recall(0.05)
        assert low <= mean <= high

    def test_lda_beats_random_at_real_thresholds(self, curves):
        assert curves["lda"].recall(0.05)[0] > 0.2

    def test_as_rows_structure(self, curves):
        rows = curves["lda"].as_rows()
        assert len(rows) == 4
        assert {"threshold", "recall", "precision", "f1", "retrieved",
                "correct", "relevant"} <= set(rows[0])

    def test_window_counters_count_companies_with_history(self):
        # Earliest products before, exactly at and after the second
        # window's start (2013-03-01): history is strictly before a start.
        from repro import obs
        from repro.data.company import Company
        from repro.data.corpus import Corpus
        from repro.data.duns import DunsNumber
        from repro.obs import metrics

        firsts = [
            {"a": dt.date(2012, 6, 1), "b": dt.date(2013, 4, 1)},
            {"a": dt.date(2013, 3, 1), "b": dt.date(2013, 8, 1)},
            {"a": dt.date(2013, 6, 1)},
        ]
        corpus = Corpus(
            [
                Company(duns=DunsNumber.from_sequence(i), name=f"C{i}",
                        country="US", sic2=80, first_seen=first_seen)
                for i, first_seen in enumerate(firsts)
            ],
            ("a", "b"),
        )
        spec = SlidingWindowSpec(n_windows=3)
        try:
            obs.reset_all()
            metrics.enable()
            RecommendationEvaluator(
                corpus, spec=spec, thresholds=[0.1], retrain_per_window=False
            ).evaluate({"u": UnigramModel})
            counters = metrics.snapshot()["counters"]
        finally:
            obs.disable_all()
            obs.reset_all()
        sizes = [len(window_tasks(corpus, window)[0]) for window in spec.windows()]
        assert sizes == [1, 1, 2]
        assert counters["recommend.windows"] == 3
        assert counters["recommend.companies"] == sum(sizes)

    def test_train_once_fits_before_the_first_window(self, corpus, tmp_path):
        from repro.runtime import FitCache

        spec = SlidingWindowSpec(n_windows=3)
        first, *__, last = spec.windows()
        assert corpus.truncated_before(first.start).fingerprint() != (
            corpus.truncated_before(last.start).fingerprint()
        )
        cache = FitCache(tmp_path)
        RecommendationEvaluator(
            corpus, spec=spec, thresholds=[0.05], retrain_per_window=False,
            fit_cache=cache,
        ).evaluate({"u": UnigramModel})
        assert (cache.hits, cache.misses) == (0, 1)
        cache.fit(UnigramModel, corpus.truncated_before(first.start))
        assert cache.hits == 1

    def test_requires_factories(self, corpus):
        evaluator = RecommendationEvaluator(corpus, thresholds=[0.1])
        with pytest.raises(ValueError):
            evaluator.evaluate({})

    def test_requires_thresholds(self, corpus):
        with pytest.raises(ValueError):
            RecommendationEvaluator(corpus, thresholds=[])

    def test_retrain_and_train_once_agree_roughly(self, corpus):
        spec = SlidingWindowSpec(n_windows=2)
        results = {}
        for retrain in (True, False):
            evaluator = RecommendationEvaluator(
                corpus, spec=spec, thresholds=[0.05], retrain_per_window=retrain
            )
            curves = evaluator.evaluate(
                {"u": lambda: UnigramModel()}
            )
            results[retrain] = curves["u"].recall(0.05)[0]
        assert results[True] == pytest.approx(results[False], abs=0.1)


def _cheap_factories():
    return {
        "lda": functools.partial(
            LatentDirichletAllocation,
            n_topics=3,
            inference="variational",
            n_iter=20,
            seed=0,
        ),
        "unigram": functools.partial(UnigramModel),
    }


class TestParallelDeterminism:
    """Same seed, any job count: identical observations (the tentpole claim)."""

    @pytest.mark.parametrize("retrain", [True, False])
    def test_parallel_matches_serial_exactly(self, corpus, retrain):
        spec = SlidingWindowSpec(n_windows=3)
        curves = {}
        for n_jobs in (1, 4):
            evaluator = RecommendationEvaluator(
                corpus,
                spec=spec,
                thresholds=[0.0, 0.05, 0.1],
                retrain_per_window=retrain,
                n_jobs=n_jobs,
            )
            curves[n_jobs] = evaluator.evaluate(_cheap_factories())
        for name in curves[1]:
            assert curves[1][name].observations == curves[4][name].observations

    def test_parallel_counters_match_serial(self, corpus):
        from repro import obs
        from repro.obs import metrics

        spec = SlidingWindowSpec(n_windows=2)
        totals = {}
        try:
            for n_jobs in (1, 2):
                obs.reset_all()
                metrics.enable()
                RecommendationEvaluator(
                    corpus,
                    spec=spec,
                    thresholds=[0.05],
                    retrain_per_window=True,
                    n_jobs=n_jobs,
                ).evaluate(_cheap_factories())
                counters = metrics.snapshot()["counters"]
                totals[n_jobs] = {
                    key: counters.get(key, 0)
                    for key in (
                        "recommend.windows",
                        "recommend.companies",
                        "recommend.candidates",
                        "recommend.relevant",
                        "recommend.retrieved",
                        "recommend.hits",
                    )
                }
        finally:
            obs.disable_all()
            obs.reset_all()
        assert totals[1] == totals[2]

    def test_cached_fit_matches_fresh_fit(self, corpus, tmp_path):
        from repro.runtime import FitCache

        spec = SlidingWindowSpec(n_windows=2)

        def run(cache):
            evaluator = RecommendationEvaluator(
                corpus,
                spec=spec,
                thresholds=[0.05],
                retrain_per_window=True,
                fit_cache=cache,
            )
            return evaluator.evaluate(_cheap_factories())

        fresh = run(None)
        cache = FitCache(tmp_path)
        cold = run(cache)
        warm = run(cache)
        assert cache.hits > 0
        for name in fresh:
            assert fresh[name].observations == cold[name].observations
            assert fresh[name].observations == warm[name].observations
