"""Tests for the time-sliced replay harness and the canary promotion gate."""

import datetime as dt
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.app.drift import jensen_shannon_divergence
from repro.data.corpus import Corpus
from repro.models.lda import LatentDirichletAllocation
from repro.models.ngram import NGramModel
from repro.models.unigram import UnigramModel
from repro.obs import metrics
from repro.recommend.evaluation import WindowObservation, _boolean_masks, window_tasks
from repro.recommend.windows import SlidingWindowSpec
from repro.replay import (
    CanaryGate,
    CanaryVerdict,
    ReplayHarness,
    ReplayReport,
    ReplayWindowResult,
)
from repro.runtime import RunJournal, cell_key
from repro.scenarios import build_scenario
from tests.corpus_strategies import DAYS, company, corpora

SPEC = SlidingWindowSpec(n_windows=3)


@pytest.fixture(scope="module")
def drifted_lda(corpus):
    """An LDA fitted on drift-corrupted data — the canary's reject case."""
    corrupted = build_scenario(corpus, "drift", seed=1).corpus
    return LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=60, seed=1
    ).fit(corrupted)


@pytest.fixture(scope="module")
def clean_refit_lda(split):
    """A clean same-family refit — the canary's promote case."""
    return LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=60, seed=1
    ).fit(split.train)


def _reference_replay(corpus, spec, model, threshold=0.1, divergence_threshold=0.05):
    """The harness's former scorer, window by window: the parity reference.

    Its own window loop, threshold scorer (``_score_window``) and drift
    walk over the truth sets (``_window_divergence``), as the harness ran
    them before a replay became the evaluator's no-retrain protocol.
    """
    windows = spec.windows()
    counts = corpus.truncated_before(windows[0].start).binary_matrix().sum(axis=0)
    counts = counts.astype(np.float64)
    reference_frequency = counts / counts.sum()
    results = []
    for window in windows:
        histories, owned_sets, truths = window_tasks(corpus, window)
        scores = model.batch_next_product_proba(histories)
        owned, truth = _boolean_masks(scores.shape, owned_sets, truths)
        hits = (scores >= threshold) & ~owned
        arrivals = np.zeros(len(reference_frequency), dtype=np.float64)
        for tokens in truths:
            for token in tokens:
                arrivals[token] += 1.0
        if arrivals.sum() == 0:
            divergence, drifted = float("nan"), False
        else:
            divergence = jensen_shannon_divergence(reference_frequency, arrivals)
            drifted = divergence > divergence_threshold
        results.append(
            {
                "window_start": window.start,
                "n_companies": len(histories),
                "n_retrieved": int(hits.sum()),
                "n_correct": int((hits & truth).sum()),
                "n_relevant": int(truth.sum()),
                "js_divergence": divergence,
                "drifted": drifted,
                "recommended": tuple(int(x) for x in hits.sum(axis=0)),
            }
        )
    return results


def _fields(report):
    """Every per-window field of a replay report, as the reference spells it."""
    return [
        {
            "window_start": r.observation.window_start,
            "n_companies": r.observation.n_companies,
            "n_retrieved": r.observation.n_retrieved,
            "n_correct": r.observation.n_correct,
            "n_relevant": r.observation.n_relevant,
            "js_divergence": r.js_divergence,
            "drifted": r.drifted,
            "recommended": r.observation.recommended,
        }
        for r in report.results
    ]


def _comparable(rows):
    """Rows with NaN spelled out, so equal rows compare equal."""
    return [
        {k: "nan" if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
        for row in rows
    ]


def _reference_means(rows):
    """The former report's mean recall and mean precision over windows."""
    recalls = [
        r["n_correct"] / r["n_relevant"] if r["n_relevant"] else 0.0 for r in rows
    ]
    precisions = [
        r["n_correct"] / r["n_retrieved"] for r in rows if r["n_retrieved"]
    ]
    return (
        float(np.mean(recalls)),
        float(np.mean(precisions)) if precisions else float("nan"),
    )


def _assert_parity(corpus, spec, model, threshold):
    report = ReplayHarness(corpus, spec=spec, threshold=threshold).replay(model, "m")
    reference = _reference_replay(corpus, spec, model, threshold)
    assert _comparable(_fields(report)) == _comparable(reference)
    mean_recall, mean_precision = _reference_means(reference)
    assert report.mean_recall() == mean_recall
    assert _comparable([{"p": report.mean_precision()}]) == _comparable(
        [{"p": mean_precision}]
    )


def _no_arrival_corpus():
    """Histories before 2013 and nothing first seen inside any window."""
    vocab = ("a", "b", "c")
    companies = [
        company(
            i, {vocab[i % 3]: dt.date(2011, 1, 1), vocab[(i + 1) % 3]: dt.date(2012, 1, 1)}
        )
        for i in range(6)
    ]
    return Corpus(companies, vocab)


class TestReplayWindowResult:
    def test_empty_retrieval_gives_nan_precision(self, corpus, split):
        # Nothing reaches phi = 1, so every window retrieves nothing.
        report = ReplayHarness(corpus, spec=SPEC, threshold=1.0).replay(
            UnigramModel().fit(split.train), "uni"
        )
        for result in report.results:
            assert result.observation.n_retrieved == 0
            assert math.isnan(result.observation.precision)
            assert math.isnan(result.observation.f1)
        assert math.isnan(report.mean_precision())

    def test_no_relevant_gives_zero_recall(self):
        corpus = _no_arrival_corpus()
        report = ReplayHarness(corpus, spec=SPEC).replay(
            UnigramModel().fit(corpus), "uni"
        )
        assert report.n_windows == 3
        for result in report.results:
            assert result.observation.n_relevant == 0
            assert result.observation.recall == 0.0
            # No arrivals: the drift signal is undefined, never flagged.
            assert math.isnan(result.js_divergence)
            assert not result.drifted
        assert report.mean_recall() == 0.0
        assert report.windows_drifted == 0


class TestReplayParity:
    """A replay equals the former per-window scorer, field for field."""

    @pytest.mark.parametrize("threshold", [0.02, 0.1])
    @pytest.mark.parametrize("family", ["lda", "ngram", "unigram"])
    def test_fixture_corpus(self, corpus, split, fitted_lda, family, threshold):
        model = {
            "lda": lambda: fitted_lda,
            "ngram": lambda: NGramModel(order=2).fit(split.train),
            "unigram": lambda: UnigramModel().fit(split.train),
        }[family]()
        _assert_parity(corpus, SPEC, model, threshold)

    @settings(max_examples=25, deadline=None)
    @given(corpus=corpora(), family=st.sampled_from(["lda", "ngram", "unigram"]))
    def test_generated_corpus(self, corpus, family):
        # Monthly windows over the strategies' 2010 dates; DAYS[0] is the
        # only pre-window traffic, so some windows have no arrivals.
        spec = SlidingWindowSpec(
            first_start=dt.date(2010, 1, 15), window_months=1, stride_months=1,
            n_windows=3,
        )
        assume(any(DAYS[0] in c.first_seen.values() for c in corpus.companies))
        model = {
            "lda": lambda: LatentDirichletAllocation(
                n_topics=2, inference="variational", n_iter=10, seed=0
            ),
            "ngram": lambda: NGramModel(order=2),
            "unigram": UnigramModel,
        }[family]().fit(corpus)
        _assert_parity(corpus, spec, model, 0.1)

    def test_canary_verdict(self, corpus, fitted_lda, drifted_lda):
        gate = CanaryGate(corpus, spec=SPEC)
        verdict = gate.evaluate(fitted_lda, drifted_lda)

        def report(model, label):
            results = tuple(
                ReplayWindowResult(
                    WindowObservation(
                        window_start=row["window_start"],
                        threshold=0.1,
                        n_retrieved=row["n_retrieved"],
                        n_correct=row["n_correct"],
                        n_relevant=row["n_relevant"],
                        recommended=row["recommended"],
                    ),
                    row["js_divergence"],
                    row["drifted"],
                )
                for row in _reference_replay(corpus, SPEC, model)
            )
            return ReplayReport(label=label, threshold=0.1, results=results)

        reference = gate.compare(
            report(fitted_lda, "incumbent"), report(drifted_lda, "candidate")
        )
        assert verdict.as_dict() == reference.as_dict()


class TestReplayHarness:
    def test_replay_produces_one_result_per_window(self, corpus, fitted_lda):
        harness = ReplayHarness(corpus, spec=SPEC)
        report = harness.replay(fitted_lda, "lda")
        assert report.n_windows == 3
        assert report.label == "lda"
        for result in report.results:
            observation = result.observation
            assert observation.n_companies > 0
            assert 0 <= observation.n_correct <= observation.n_retrieved
            assert len(observation.recommended) == corpus.n_products
            assert sum(observation.recommended) == observation.n_retrieved
            assert sum(observation.arrivals) == observation.n_relevant
        assert 0.0 <= report.mean_recall() <= 1.0
        dist = report.recommendation_distribution()
        assert dist.shape == (corpus.n_products,)
        assert dist.sum() > 0

    def test_unfitted_model_rejected(self, corpus):
        harness = ReplayHarness(corpus, spec=SPEC)
        with pytest.raises(ValueError, match="not fitted"):
            harness.replay(UnigramModel(), "uni")

    def test_no_pretraffic_rejected(self, corpus):
        early = SlidingWindowSpec(first_start=dt.date(1990, 1, 1), n_windows=2)
        with pytest.raises(ValueError, match="before 1990-01-01"):
            ReplayHarness(corpus, spec=early)

    def test_invalid_divergence_threshold(self, corpus):
        with pytest.raises(ValueError, match="positive"):
            ReplayHarness(corpus, spec=SPEC, divergence_threshold=0.0)

    def test_journal_resume_skips_scoring(self, corpus, split, tmp_path):
        model = UnigramModel().fit(split.train)
        path = tmp_path / "replay.jsonl"
        first = ReplayHarness(
            corpus, spec=SPEC, journal=RunJournal(path)
        ).replay(model, "uni")

        resumed_harness = ReplayHarness(
            corpus, spec=SPEC, journal=RunJournal(path, resume=True)
        )

        def boom(histories):
            raise AssertionError("resume must not re-score completed windows")

        model.batch_next_product_proba = boom
        resumed = resumed_harness.replay(model, "uni")
        assert resumed == first

    def test_journal_keys_separate_labels(self, corpus, split, tmp_path):
        journal = RunJournal(tmp_path / "replay.jsonl")
        harness = ReplayHarness(corpus, spec=SPEC, journal=journal)
        uni = harness.replay(UnigramModel().fit(split.train), "uni")
        ngram = harness.replay(NGramModel(order=2).fit(split.train), "ngram")
        assert uni.results != ngram.results


class TestReplaySweepLoop:
    """What replay gains from running through the one sweep loop."""

    @pytest.fixture(autouse=True)
    def clean_obs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "fault-state"))
        obs.reset_all()
        yield
        obs.disable_all()
        obs.reset_all()

    @pytest.fixture(scope="class")
    def model(self, split):
        return NGramModel(order=2).fit(split.train)

    def test_transient_crash_retries_to_the_clean_report(
        self, corpus, model, monkeypatch
    ):
        clean = ReplayHarness(corpus, spec=SPEC).replay(model, "ngram")
        monkeypatch.setenv("REPRO_FAULTS", "crash:/s:ngram/:times=1")
        metrics.enable()
        recovered = ReplayHarness(corpus, spec=SPEC, retries=1).replay(model, "ngram")
        assert recovered == clean
        assert metrics.snapshot()["counters"]["runtime.task_retry"] == 1

    def test_failed_cell_is_journaled_and_raises(
        self, corpus, model, monkeypatch, tmp_path
    ):
        path = tmp_path / "replay.jsonl"
        monkeypatch.setenv("REPRO_FAULTS", "crash:/s:2013-03-01/")
        harness = ReplayHarness(corpus, spec=SPEC, journal=RunJournal(path))
        with pytest.raises(RuntimeError, match="'ngram' failed at window.s. 2013-03-01;"):
            harness.replay(model, "ngram")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        statuses = {r["key"].split("/")[3]: r["status"] for r in records}
        assert statuses == {
            "s:2013-01-01": "ok", "s:2013-03-01": "failed", "s:2013-05-01": "ok"
        }

    def test_pool_matches_inline(self, corpus, model):
        inline = ReplayHarness(corpus, spec=SPEC).replay(model, "ngram")
        pooled = ReplayHarness(corpus, spec=SPEC, n_jobs=2).replay(model, "ngram")
        assert pooled == inline

    def test_parent_format_journal_is_rerun_not_read(self, corpus, model, tmp_path):
        # The lines a journal held before replay cells carried per-token
        # counts: the harness's own key and value, and a recommend cell's.
        path = tmp_path / "replay.jsonl"
        start = SPEC.windows()[0].start.isoformat()
        stale = RunJournal(path)
        stale.record_ok(
            cell_key("replay", "ngram", "0.1", start),
            {"window_start": start, "window_end": "2014-01-01", "n_companies": 1,
             "n_retrieved": 0, "n_correct": 0, "n_relevant": 0,
             "js_divergence": None, "drifted": False,
             "recommended": [0] * corpus.n_products},
        )
        stale.record_ok(
            cell_key("recommend", "shared", "ngram", start),
            [{"window_start": start, "threshold": 0.1, "n_retrieved": 0,
              "n_correct": 0, "n_relevant": 0}],
        )
        fresh = ReplayHarness(corpus, spec=SPEC).replay(model, "ngram")
        metrics.enable()
        resumed = ReplayHarness(
            corpus, spec=SPEC, journal=RunJournal(path, resume=True)
        ).replay(model, "ngram")
        assert resumed == fresh
        counters = metrics.snapshot()["counters"]
        assert counters.get("journal.skip", 0) == 0
        assert counters["journal.record"] == 3


class TestCanaryGate:
    def test_clean_refit_promotes(self, split, fitted_lda, clean_refit_lda):
        gate = CanaryGate(split.validation, spec=SPEC)
        verdict = gate.evaluate(fitted_lda, clean_refit_lda)
        assert verdict.passed
        assert verdict.reason == "passed"
        assert verdict.regressed_windows <= gate.max_regressed

    def test_drifted_candidate_rejected(self, split, fitted_lda, drifted_lda):
        gate = CanaryGate(split.validation, spec=SPEC)
        verdict = gate.evaluate(fitted_lda, drifted_lda)
        assert not verdict.passed
        assert verdict.reason in ("quality_regression", "recommendation_divergence")
        assert verdict.detail

    def test_verdict_dict_is_machine_readable(self, split, fitted_lda, drifted_lda):
        gate = CanaryGate(split.validation, spec=SPEC)
        payload = gate.evaluate(fitted_lda, drifted_lda).as_dict()
        assert payload["passed"] is False
        assert payload["n_windows"] == 3
        assert isinstance(payload["regressed_windows"], int)
        assert set(payload) == {
            "passed",
            "reason",
            "detail",
            "regressed_windows",
            "n_windows",
            "recommendation_divergence",
            "incumbent_mean_recall",
            "candidate_mean_recall",
        }
        assert 0.0 <= payload["incumbent_mean_recall"] <= 1.0
        assert 0.0 <= payload["candidate_mean_recall"] <= 1.0

    def test_incumbent_replay_cached_across_evaluations(
        self, split, fitted_lda, clean_refit_lda, monkeypatch
    ):
        gate = CanaryGate(split.validation, spec=SPEC)
        calls = []
        original = gate.harness.replay

        def counting(model, label):
            calls.append(label)
            return original(model, label)

        monkeypatch.setattr(gate.harness, "replay", counting)
        gate.evaluate(fitted_lda, clean_refit_lda)
        gate.evaluate(fitted_lda, clean_refit_lda)
        assert calls.count("incumbent") == 1
        assert calls.count("candidate") == 2

    def test_divergence_gate_rejects_shifted_recommendations(
        self, split, fitted_lda, clean_refit_lda
    ):
        gate = CanaryGate(
            split.validation, spec=SPEC, quality_margin=1.0, divergence_threshold=1e-6
        )
        verdict = gate.evaluate(fitted_lda, clean_refit_lda)
        assert not verdict.passed
        assert verdict.reason == "recommendation_divergence"

    def test_invalid_parameters(self, split):
        with pytest.raises(ValueError):
            CanaryGate(split.validation, spec=SPEC, quality_margin=-0.1)
        with pytest.raises(ValueError):
            CanaryGate(split.validation, spec=SPEC, max_regressed=-1)
        with pytest.raises(ValueError):
            CanaryGate(split.validation, spec=SPEC, divergence_threshold=0.0)

    def test_identical_models_always_pass(self, split, fitted_lda):
        gate = CanaryGate(split.validation, spec=SPEC)
        verdict = gate.evaluate(fitted_lda, fitted_lda)
        assert verdict.passed
        assert verdict.regressed_windows == 0
        assert verdict.recommendation_divergence == pytest.approx(0.0, abs=1e-12)


    def test_drift_is_judged_once_per_window(self, corpus, fitted_lda, drifted_lda):
        verdict = CanaryGate(corpus, spec=SPEC).evaluate(fitted_lda, drifted_lda)
        alone = ReplayHarness(corpus, spec=SPEC).replay(fitted_lda, "lda")
        # Between the harness's drift threshold and the gate's
        # recommendation-divergence ceiling: the two would disagree here.
        assert all(0.05 < r.js_divergence <= 0.2 for r in alone.results)
        for inc, cand, ref in zip(
            verdict.incumbent.results, verdict.candidate.results, alone.results,
            strict=True,
        ):
            assert inc.js_divergence == cand.js_divergence == ref.js_divergence
            assert inc.drifted == cand.drifted == ref.drifted

    def test_compare_refuses_a_partial_replay(self, split, fitted_lda):
        gate = CanaryGate(split.validation, spec=SPEC)
        full = gate.harness.replay(fitted_lda, "incumbent")
        partial = ReplayReport(
            label="candidate", threshold=full.threshold, results=full.results[:2]
        )
        with pytest.raises(ValueError):
            gate.compare(full, partial)


class TestRegistryCanaryGate:
    """The promotion contract: reject-and-keep-serving vs promote."""

    @pytest.fixture()
    def registry(self, split, fitted_lda):
        from repro.serve import ModelRegistry

        registry = ModelRegistry(
            split.validation,
            # Loose enough that the canary — not the perplexity gate — is
            # the deciding check for the drifted candidate.
            perplexity_tolerance=6.0,
            canary=CanaryGate(split.validation, spec=SPEC),
        )
        registry.install("lda", fitted_lda)
        return registry

    def test_drifted_candidate_rejected_with_canary_reason(
        self, registry, split, drifted_lda
    ):
        history = split.test.sequences()[0][:4]
        recs_before = registry.recommender("lda").recommend_scored(history)

        report = registry.swap("lda", drifted_lda)
        assert report.status == "rejected"
        assert "canary rejected" in report.reason
        assert report.canary is not None
        assert report.canary["passed"] is False
        assert registry.version("lda") == 1
        # The incumbent keeps serving bit-identically.
        assert registry.recommender("lda").recommend_scored(history) == recs_before

    def test_clean_candidate_promotes_with_canary_report(
        self, registry, clean_refit_lda
    ):
        report = registry.swap("lda", clean_refit_lda)
        assert report.status == "promoted"
        assert report.canary is not None
        assert report.canary["passed"] is True
        assert registry.version("lda") == 2

    def test_rejection_recorded_in_history_as_dict(self, registry, drifted_lda):
        report = registry.swap("lda", drifted_lda)
        payload = report.as_dict()
        assert payload["status"] == "rejected"
        assert payload["canary"]["reason"] in (
            "quality_regression",
            "recommendation_divergence",
        )
        assert registry.history[-1] is report


    def test_persistent_replay_crash_rejects_and_keeps_serving(
        self, registry, split, clean_refit_lda, monkeypatch
    ):
        history = split.test.sequences()[0][:4]
        recs_before = registry.recommender("lda").recommend_scored(history)
        monkeypatch.setenv("REPRO_FAULTS", "crash:/s:candidate/")

        report = registry.swap("lda", clean_refit_lda)
        assert report.status == "rejected"
        assert "canary evaluation failed" in report.reason
        assert "'candidate' failed at window(s) 2013-01-01, 2013-03-01" in report.reason
        assert registry.version("lda") == 1
        assert registry.recommender("lda").recommend_scored(history) == recs_before


class TestServiceCanaryGate:
    """End-to-end: /admin/hotswap answers 409 and the 200 path is stable."""

    @pytest.fixture()
    def service(self, corpus, split, fitted_lda):
        from repro.serve import ModelRegistry, RecommendationService, ServiceConfig

        registry = ModelRegistry(
            split.validation,
            perplexity_tolerance=6.0,
            canary=CanaryGate(split.validation, spec=SPEC),
        )
        registry.install("lda", fitted_lda)
        return RecommendationService(
            corpus=corpus,
            registry=registry,
            tiers=("lda",),
            config=ServiceConfig(batch_window_ms=0.0, topk_cache_size=0),
        )

    @staticmethod
    def _stable_fields(response):
        return {
            key: response.body[key]
            for key in ("tier", "recommendations", "model_versions")
        }

    def test_hotswap_409_keeps_serving_bit_identically(
        self, service, corpus, drifted_lda, tmp_path
    ):
        payload = {"history": [corpus.vocabulary[0], corpus.vocabulary[2]], "top_n": 5}
        before = service.handle("POST", "/recommend", payload)
        assert before.status == 200

        staged = tmp_path / "drifted.npz"
        drifted_lda.save(staged)
        swap = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged)}
        )
        assert swap.status == 409
        assert "canary rejected" in swap.body["reason"]
        assert swap.body["canary"]["passed"] is False

        after = service.handle("POST", "/recommend", payload)
        assert after.status == 200
        assert self._stable_fields(after) == self._stable_fields(before)

    def test_hotswap_promotes_clean_candidate(
        self, service, corpus, clean_refit_lda, tmp_path
    ):
        staged = tmp_path / "clean.npz"
        clean_refit_lda.save(staged)
        swap = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged)}
        )
        assert swap.status == 200
        assert swap.body["status"] == "promoted"
        assert swap.body["canary"]["passed"] is True
        assert swap.body["version"] == 2
