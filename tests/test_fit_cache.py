"""Tests for the content-addressed fit cache and its fingerprints."""

import copy
import datetime as dt
import functools

import numpy as np
import pytest

from repro import obs
from repro.data.corpus import Corpus
from repro.models.lda import LatentDirichletAllocation
from repro.models.unigram import UnigramModel
from repro.runtime import (
    FitCache,
    Uncacheable,
    cache_key,
    canonical_params,
    fit_model,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_all()
    yield
    obs.disable_all()
    obs.reset_all()


def _lda_factory(seed=0, n_topics=3):
    return functools.partial(
        LatentDirichletAllocation,
        n_topics=n_topics,
        inference="variational",
        n_iter=20,
        seed=seed,
    )


class TestFingerprint:
    def test_stable_across_calls(self, corpus):
        assert corpus.fingerprint() == corpus.fingerprint()

    def test_changes_when_install_records_change(self, corpus):
        companies = [copy.deepcopy(c) for c in corpus.companies]
        category, first_seen = next(iter(companies[0].first_seen.items()))
        companies[0].first_seen[category] = first_seen + dt.timedelta(days=1)
        altered = Corpus(companies, corpus.vocabulary)
        assert altered.fingerprint() != corpus.fingerprint()

    def test_changes_when_companies_dropped(self, corpus):
        smaller = Corpus(list(corpus.companies)[:-1], corpus.vocabulary)
        assert smaller.fingerprint() != corpus.fingerprint()

    def test_key_differs_across_hyperparams(self, corpus):
        fp = corpus.fingerprint()
        key3 = cache_key(_lda_factory(n_topics=3)(), fp)
        key4 = cache_key(_lda_factory(n_topics=4)(), fp)
        assert key3 != key4

    def test_key_differs_across_seeds(self, corpus):
        fp = corpus.fingerprint()
        assert cache_key(_lda_factory(seed=0)(), fp) != cache_key(
            _lda_factory(seed=1)(), fp
        )

    def test_key_differs_across_model_classes(self, corpus):
        fp = corpus.fingerprint()
        assert cache_key(UnigramModel(), fp) != cache_key(_lda_factory()(), fp)

    def test_generator_params_are_uncacheable(self):
        model = UnigramModel()
        model.rng_state = np.random.default_rng(0)
        with pytest.raises(Uncacheable):
            canonical_params(model)


class TestFitCache:
    def test_miss_then_hit(self, tmp_path, split):
        cache = FitCache(tmp_path)
        first = cache.fit(_lda_factory(), split.train)
        second = cache.fit(_lda_factory(), split.train)
        assert (cache.misses, cache.hits) == (1, 1)
        assert np.array_equal(first.phi, second.phi)
        assert first.log_prob(split.test) == second.log_prob(split.test)

    def test_hit_matches_fresh_fit_exactly(self, tmp_path, split):
        cache = FitCache(tmp_path)
        cache.fit(_lda_factory(), split.train)
        cached = cache.fit(_lda_factory(), split.train)
        fresh = _lda_factory()().fit(split.train)
        assert np.array_equal(cached.phi, fresh.phi)
        assert cached.log_prob(split.test) == fresh.log_prob(split.test)

    def test_different_hyperparams_never_share_entries(self, tmp_path, split):
        cache = FitCache(tmp_path)
        three = cache.fit(_lda_factory(n_topics=3), split.train)
        four = cache.fit(_lda_factory(n_topics=4), split.train)
        assert cache.hits == 0
        assert three.phi.shape != four.phi.shape

    def test_different_corpus_never_shares_entries(self, tmp_path, corpus, split):
        cache = FitCache(tmp_path)
        cache.fit(_lda_factory(), split.train)
        cache.fit(_lda_factory(), split.test)
        assert (cache.misses, cache.hits) == (2, 0)

    def test_corrupted_entry_is_a_miss_not_an_error(self, tmp_path, split):
        cache = FitCache(tmp_path)
        cache.fit(_lda_factory(), split.train)
        for entry in tmp_path.glob("*.npz"):
            entry.write_bytes(b"not an npz archive")
        refit = cache.fit(_lda_factory(), split.train)
        assert cache.misses == 2
        assert refit.is_fitted

    def test_counters_recorded_when_metrics_enabled(self, tmp_path, split):
        from repro.obs import metrics

        metrics.enable()
        cache = FitCache(tmp_path)
        cache.fit(_lda_factory(), split.train)
        cache.fit(_lda_factory(), split.train)
        counters = metrics.snapshot()["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1

    def test_precomputed_fingerprint_matches_implicit(self, tmp_path, split):
        cache = FitCache(tmp_path)
        cache.fit(_lda_factory(), split.train)
        hit = cache.fit(
            _lda_factory(),
            split.train,
            corpus_fingerprint=split.train.fingerprint(),
        )
        assert cache.hits == 1
        assert hit.is_fitted

    def test_pickle_round_trip_keeps_root_only(self, tmp_path):
        import pickle

        cache = FitCache(tmp_path)
        cache.hits = 5
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert (clone.hits, clone.misses) == (0, 0)

    def test_fit_model_without_cache(self, split):
        model = fit_model(_lda_factory(), split.train)
        assert model.is_fitted


class _UnsavableModel(UnigramModel):
    """A model whose artifact can never be written."""

    def save(self, path):
        raise OSError("disk on fire")


class TestStoreFailures:
    def test_store_failure_is_counted_not_raised(self, tmp_path, split):
        from repro.obs import metrics

        metrics.enable()
        cache = FitCache(tmp_path)
        fitted = cache.fit(_UnsavableModel, split.train)
        assert fitted.is_fitted
        assert metrics.snapshot()["counters"]["cache.store_failed"] == 1
        assert list(tmp_path.glob("*.npz")) == []

    def test_store_failure_still_returns_fresh_fits(self, tmp_path, split):
        cache = FitCache(tmp_path)
        cache.fit(_UnsavableModel, split.train)
        cache.fit(_UnsavableModel, split.train)
        assert (cache.misses, cache.hits) == (2, 0)


class TestOrphanSweep:
    def test_old_temp_files_swept_on_init(self, tmp_path):
        import os
        import time

        old = tmp_path / ".tmp-dead-writer.npz"
        old.write_bytes(b"orphan")
        stale = time.time() - 7200
        os.utime(old, (stale, stale))
        fresh = tmp_path / ".tmp-live-writer.npz"
        fresh.write_bytes(b"in flight")
        FitCache(tmp_path)
        assert not old.exists()
        assert fresh.exists()

    def test_missing_root_is_fine(self, tmp_path):
        cache = FitCache(tmp_path / "nonexistent")
        assert cache.hits == 0

    def test_sweep_ignores_real_entries(self, tmp_path, split):
        import os
        import time

        cache = FitCache(tmp_path)
        cache.fit(_lda_factory(), split.train)
        entries = list(tmp_path.glob("*.npz"))
        assert entries
        stale = time.time() - 7200
        for entry in entries:
            os.utime(entry, (stale, stale))
        FitCache(tmp_path)
        assert sorted(tmp_path.glob("*.npz")) == sorted(entries)
