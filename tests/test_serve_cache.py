"""Argpartition top-k, result cache and swap-generation tests.

Covers the serving speed layer's correctness obligations:

* ``top_k_from_scores`` (argpartition selection) is bit-identical to the
  stable full-sort ranking it replaced, including forced score ties;
* the top-k cache is a correct LRU keyed by the registry generation, so
  a hot-swap atomically invalidates every cached answer;
* the registry publishes a monotonic generation and fires promotion
  subscribers (exceptions contained), and a promotion of the feature
  slot refreshes what ``/similar`` answers from;
* ``/similar`` and ``/recommend`` report the answering backend/path in
  their bodies and ``serve.path{...}`` counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.similarity import top_k_from_scores, top_k_similar
from repro.app.tool import SalesRecommendationTool
from repro.data.internal import InternalSalesDatabase
from repro.models.lda import LatentDirichletAllocation
from repro.models.ngram import NGramModel
from repro.serve import (
    ModelRegistry,
    RecommendationService,
    ServiceConfig,
    TopKCache,
)


# ----------------------------------------------------------------------
# argpartition top-k == stable full sort
# ----------------------------------------------------------------------
class TestTopKFromScores:
    def _reference(self, scores, k, exclude=None, candidate_mask=None):
        """The old implementation: stable argsort over the full array."""
        eligible = np.ones(len(scores), dtype=bool)
        if candidate_mask is not None:
            eligible &= candidate_mask
        if exclude is not None:
            eligible[exclude] = False
        candidates = np.flatnonzero(eligible)
        order = np.argsort(-scores[candidates], kind="stable")
        return candidates[order][:k]

    @pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (50, 10), (50, 50), (50, 80)])
    def test_matches_stable_sort_on_random_scores(self, rng, n, k):
        scores = rng.normal(size=n)
        got = top_k_from_scores(scores, k)
        want = self._reference(scores, k)
        assert np.array_equal(got, want)

    def test_matches_stable_sort_with_forced_ties(self, rng):
        # Quantized scores force large tie groups: the boundary of the
        # partition must resolve them smallest-index-first, exactly like
        # the stable sort did.
        for trial in range(20):
            scores = np.round(rng.normal(size=60), 1)
            for k in (1, 5, 17, 59):
                got = top_k_from_scores(scores, k)
                want = self._reference(scores, k)
                assert np.array_equal(got, want), (trial, k)

    def test_all_equal_scores(self):
        scores = np.full(12, 0.5)
        assert np.array_equal(top_k_from_scores(scores, 4), [0, 1, 2, 3])

    def test_exclude_and_mask(self, rng):
        scores = np.round(rng.normal(size=40), 1)
        mask = rng.random(40) < 0.6
        mask[3] = True
        got = top_k_from_scores(scores, 5, exclude=3, candidate_mask=mask)
        want = self._reference(scores, 5, exclude=3, candidate_mask=mask)
        assert np.array_equal(got, want)

    def test_top_k_similar_unchanged_by_rewrite(self, rng):
        # The public helper must rank exactly as before the argpartition
        # rewrite: unit-cosine scores, stable ties, query excluded.
        features = rng.normal(size=(30, 4))
        features[5] = 0.0  # zero-norm row stays dissimilar to everything
        hits = top_k_similar(features, 2, 10)
        norms = np.linalg.norm(features, axis=1)
        unit = features / np.where(norms == 0.0, 1.0, norms)[:, None]
        scores = unit @ unit[2]
        scores[5] = 0.0
        want = self._reference(scores, 10, exclude=2)
        assert [i for i, _ in hits] == list(want)
        for i, score in hits:
            assert score == pytest.approx(float(scores[i]))


# ----------------------------------------------------------------------
# Top-k LRU cache
# ----------------------------------------------------------------------
class TestTopKCache:
    def test_lru_eviction_order(self):
        cache = TopKCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a" to most-recent
        assert cache.put("c", 3) == 1  # evicts "b", the least-recent
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_stats_and_invalidate(self):
        cache = TopKCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("ghost")
        assert cache.stats() == {
            "size": 1, "capacity": 4, "hits": 1, "misses": 1, "evictions": 0,
        }
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_put_existing_key_updates_without_eviction(self):
        cache = TopKCache(1)
        cache.put("a", 1)
        assert cache.put("a", 2) == 0
        assert cache.get("a") == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TopKCache(0)


# ----------------------------------------------------------------------
# Registry generation + promotion subscribers
# ----------------------------------------------------------------------
class TestRegistryGeneration:
    def test_generation_monotonic_over_installs_and_swaps(self, split, fitted_lda):
        registry = ModelRegistry(split.validation, perplexity_tolerance=1.5)
        assert registry.generation == 0
        registry.install("lda", fitted_lda)
        assert registry.generation == 1
        registry.install("ngram", NGramModel(order=2).fit(split.train))
        assert registry.generation == 2
        report = registry.swap("ngram", NGramModel(order=2).fit(split.train))
        assert report.status == "promoted"
        assert report.generation == registry.generation == 3
        rejected = registry.swap("ngram", NGramModel())
        assert rejected.status == "rejected"
        assert registry.generation == 3  # rejections never bump

    def test_subscribers_fire_on_promotion_only(self, split, fitted_lda):
        registry = ModelRegistry(split.validation, perplexity_tolerance=1.5)
        registry.install("lda", fitted_lda)
        seen = []
        registry.subscribe(lambda report: seen.append(report.generation))
        registry.swap("lda", NGramModel())  # rejected: no notification
        assert seen == []
        registry.swap("lda", fitted_lda)
        assert seen == [2]

    def test_subscriber_exception_does_not_break_swap(self, split, fitted_lda):
        registry = ModelRegistry(split.validation, perplexity_tolerance=1.5)
        registry.install("lda", fitted_lda)

        def bad_subscriber(report):
            raise RuntimeError("consumer bug")

        registry.subscribe(bad_subscriber)
        report = registry.swap("lda", fitted_lda)
        assert report.status == "promoted"


# ----------------------------------------------------------------------
# Service: cache keyed by generation, swap invalidation, path audit
# ----------------------------------------------------------------------
class TestServiceCacheAndBackends:
    @pytest.fixture()
    def service(self, corpus, split, fitted_lda):
        registry = ModelRegistry(split.validation, perplexity_tolerance=1.5)
        registry.install("lda", fitted_lda)
        registry.install("ngram", NGramModel(order=2).fit(split.train))
        internal = InternalSalesDatabase(corpus.companies, seed=7)
        tool = SalesRecommendationTool(
            corpus, fitted_lda.company_features(corpus), internal
        )
        tool.model_version = registry.generation
        return RecommendationService(
            corpus=corpus,
            registry=registry,
            tiers=("lda", "ngram"),
            tool=tool,
            feature_slot="lda",
            config=ServiceConfig(topk_cache_size=32),
        )

    def test_repeat_request_is_served_from_cache(self, service, corpus):
        payload = {"history": [corpus.vocabulary[0]], "top_n": 4}
        first = service.handle("POST", "/recommend", payload).body
        second = service.handle("POST", "/recommend", payload).body
        assert first["path"] == "single"
        assert second["path"] == "cached"
        assert second["recommendations"] == first["recommendations"]
        assert second["tier"] == first["tier"]
        counters = service.metrics_snapshot()["counters"]
        assert counters['serve.cache.hit{endpoint="/recommend"}'] == 1
        assert counters['serve.cache.miss{endpoint="/recommend"}'] == 1
        # Cache hits still count as tier answers: the accounting
        # invariant (tier answers == 2xx responses carrying a tier).
        assert counters['serve.tier.answers{tier="lda"}'] == 2

    def test_hotswap_invalidates_cache_atomically(self, service, corpus, fitted_lda):
        payload = {"history": [corpus.vocabulary[1]], "top_n": 3}
        service.handle("POST", "/recommend", payload)
        assert service.handle("POST", "/recommend", payload).body["path"] == "cached"
        generation_before = service.registry.generation
        swap = service.handle(
            "POST", "/admin/hotswap", {"name": "ngram", "path": "unused"}
        )
        # The admin endpoint stages from a path; stage failure is a
        # rejection and must NOT invalidate. Promote through the registry.
        assert swap.status == 409
        assert service.handle("POST", "/recommend", payload).body["path"] == "cached"
        report = service.registry.swap("lda", fitted_lda)
        assert report.status == "promoted"
        assert service.registry.generation == generation_before + 1
        after = service.handle("POST", "/recommend", payload).body
        assert after["path"] == "single"  # generation changed: cache miss
        assert after["model_versions"]["lda"] == 2
        assert len(service.topk_cache) == 1  # old entries were dropped

    def test_promotion_refreshes_tool_features(self, service, corpus, split):
        tool = service.tool
        version_before = tool.model_version
        duns = corpus.companies[0].duns.value
        request = {"duns": duns, "k": 5}
        before = service.handle("POST", "/similar", request).body["similar"]
        promoted = LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=60, seed=1
        ).fit(split.train)
        report = service.registry.swap("lda", promoted)
        assert report.status == "promoted"
        assert tool.model_version == report.generation > version_before
        # At the service boundary: /similar now answers exactly what a
        # tool built fresh on the promoted model's features answers.
        internal = InternalSalesDatabase(corpus.companies, seed=7)
        want = SalesRecommendationTool(
            corpus, promoted.company_features(corpus), internal
        ).similar_companies(duns, k=5)
        after = service.handle("POST", "/similar", request).body["similar"]
        assert after == [
            {"duns": h.duns, "name": h.name, "similarity": round(h.similarity, 6)}
            for h in want
        ]
        assert after != before

    def test_similar_reports_exact_backend_and_path_counter(self, service, corpus):
        duns = corpus.companies[0].duns.value
        body = service.handle("POST", "/similar", {"duns": duns, "k": 5}).body
        assert body["backend"] == "exact"
        assert len(body["similar"]) == 5
        counters = service.metrics_snapshot()["counters"]
        assert counters['serve.path{endpoint="/similar",path="exact"}'] == 1

    def test_degraded_answers_are_not_cached(self, service, corpus, monkeypatch):
        payload = {"history": [corpus.vocabulary[2]], "top_n": 3}
        monkeypatch.setenv(
            "REPRO_FAULTS", "crash:serve/score/lda,crash:serve/score/ngram"
        )
        degraded = service.handle("POST", "/recommend", payload).body
        assert degraded["degraded"] is True
        monkeypatch.delenv("REPRO_FAULTS")
        assert len(service.topk_cache) == 0
        fresh = service.handle("POST", "/recommend", payload).body
        assert fresh["path"] == "single"  # a miss, not a stale degraded hit
        assert fresh["degraded"] is False
