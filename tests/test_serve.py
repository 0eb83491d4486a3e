"""Fault-matrix tests for the resilient serving layer (`repro.serve`).

Covers the full degradation contract with deterministic clocks and fault
injection: breaker transitions, deadline exhaustion mid-score, hot-swap
validation failure + rollback, load shedding at the in-flight limit,
quarantine accounting — plus property-style tests that admission never
lets an out-of-vocabulary token reach a model.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from repro.models.ngram import NGramModel
from repro.models.unigram import UnigramModel
from repro.runtime import faults
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionError,
    AdmissionPolicy,
    CircuitBreaker,
    DegradationLadder,
    ModelRegistry,
    QuarantineLog,
    RecommendationService,
    ServiceConfig,
    Tier,
    start_server,
)
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.router import start_router


class FakeClock:
    """Injectable monotonic clock advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        defaults = dict(failure_threshold=3, window=5, recovery_time=10.0)
        defaults.update(kwargs)
        return CircuitBreaker("tier", clock=clock, **defaults)

    def test_starts_closed_and_allows(self):
        breaker = self._breaker(FakeClock())
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_stays_closed_below_threshold(self):
        breaker = self._breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_trips_open_at_threshold(self):
        breaker = self._breaker(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_window_slides_old_failures_out(self):
        # After [F, S, S, F] only one failure remains inside a 3-wide
        # window, so a threshold of 2 must not trip until the next failure.
        breaker = self._breaker(FakeClock(), failure_threshold=2, window=3)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_half_open_after_recovery_time(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        assert not breaker.allow()  # probe slot taken

    def test_probe_success_closes_and_clears_window(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["recent_failures"] == 0

    def test_probe_failure_reopens_and_restarts_clock(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.0)
        assert breaker.state == OPEN  # recovery clock restarted at reopen
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN

    def test_cancel_releases_probe_slot_without_outcome(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.cancel()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # slot free again

    def test_slow_success_counts_as_failure(self):
        breaker = self._breaker(FakeClock(), latency_budget=0.1)
        for _ in range(3):
            breaker.record_success(latency=0.5)
        assert breaker.state == OPEN

    def test_fast_success_within_budget_is_success(self):
        breaker = self._breaker(FakeClock(), latency_budget=0.1)
        for _ in range(5):
            breaker.record_success(latency=0.05)
        assert breaker.state == CLOSED

    def test_transition_callback_sequence(self):
        clock = FakeClock()
        seen: list[tuple[str, str, str]] = []
        breaker = CircuitBreaker(
            "t",
            failure_threshold=1,
            window=1,
            recovery_time=1.0,
            clock=clock,
            on_transition=lambda *args: seen.append(args),
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert seen == [
            ("t", CLOSED, OPEN),
            ("t", OPEN, HALF_OPEN),
            ("t", HALF_OPEN, CLOSED),
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"failure_threshold": 5, "window": 3},
            {"recovery_time": 0.0},
            {"latency_budget": -1.0},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker("t", **kwargs)


# ----------------------------------------------------------------------
# Admission control + quarantine
# ----------------------------------------------------------------------
VOCAB = ("catA", "catB", "catC", "catD")
POLICY = AdmissionPolicy(VOCAB, max_history=6, max_top_n=10)


class TestAdmission:
    def test_valid_names_and_ids_mix(self):
        request = POLICY.validate_recommend({"history": ["catA", 2, "catD"]})
        assert request.history == (0, 2, 3)
        assert request.top_n == POLICY.default_top_n
        assert request.deadline_s == POLICY.default_deadline_s

    def test_non_mapping_payload_400(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_recommend([1, 2, 3])
        assert exc.value.status == 400
        assert exc.value.reason == "malformed"

    def test_missing_history_422(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_recommend({"top_n": 3})
        assert exc.value.status == 422
        assert exc.value.reason == "schema"

    def test_unknown_category_422(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_recommend({"history": ["catA", "mainframe-zX"]})
        assert exc.value.status == 422
        assert exc.value.reason == "vocabulary"
        assert "mainframe-zX" in exc.value.detail

    def test_out_of_range_token_422(self):
        for bad in (-1, len(VOCAB)):
            with pytest.raises(AdmissionError) as exc:
                POLICY.validate_recommend({"history": [bad]})
            assert exc.value.reason == "vocabulary"

    def test_bool_token_rejected_as_schema(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_recommend({"history": [True]})
        assert exc.value.reason == "schema"

    def test_oversized_history_413(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_recommend({"history": ["catA"] * 7})
        assert exc.value.status == 413
        assert exc.value.reason == "oversized"

    def test_top_n_bounds(self):
        assert POLICY.validate_recommend({"history": [], "top_n": 10}).top_n == 10
        for bad in (0, 11, "five", 2.5, True):
            with pytest.raises(AdmissionError):
                POLICY.validate_recommend({"history": [], "top_n": bad})

    def test_threshold_bounds(self):
        ok = POLICY.validate_recommend({"history": [], "threshold": 0.3})
        assert ok.threshold == pytest.approx(0.3)
        for bad in (-0.1, 1.5, "high", True):
            with pytest.raises(AdmissionError):
                POLICY.validate_recommend({"history": [], "threshold": bad})

    def test_deadline_clamped_to_max(self):
        request = POLICY.validate_recommend({"history": [], "deadline_ms": 60_000})
        assert request.deadline_s == POLICY.max_deadline_s
        for bad in (0, -5, "fast", True):
            with pytest.raises(AdmissionError):
                POLICY.validate_recommend({"history": [], "deadline_ms": bad})

    def test_malformed_duns_422(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_recommend({"history": [], "duns": "12345"})
        assert exc.value.reason == "duns"

    def test_valid_duns_accepted(self):
        request = POLICY.validate_recommend({"history": [], "duns": "000000000"})
        assert request.duns == "000000000"

    def test_similar_requires_duns(self):
        with pytest.raises(AdmissionError) as exc:
            POLICY.validate_similar({"k": 3})
        assert exc.value.reason == "schema"
        duns, k = POLICY.validate_similar({"duns": "000000000", "k": 3})
        assert (duns, k) == ("000000000", 3)

    def test_similar_rejects_bad_k(self):
        for bad in (0, -2, "many", True):
            with pytest.raises(AdmissionError):
                POLICY.validate_similar({"duns": "000000000", "k": bad})

    def test_admission_error_must_be_4xx(self):
        with pytest.raises(ValueError):
            AdmissionError(500, "oops", "not allowed")

    @given(
        payload=st.recursive(
            st.none()
            | st.booleans()
            | st.integers(-10_000, 10_000)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=12),
            lambda children: st.lists(children, max_size=6)
            | st.dictionaries(st.text(max_size=8), children, max_size=5),
            max_leaves=24,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_arbitrary_payload_never_passes_oov(self, payload):
        """Whatever arrives: either a 4xx AdmissionError or in-vocab tokens."""
        try:
            request = POLICY.validate_recommend(payload)
        except AdmissionError as exc:
            assert 400 <= exc.status < 500
        else:
            assert all(0 <= t < len(VOCAB) for t in request.history)
            assert len(request.history) <= POLICY.max_history

    @given(
        history=st.lists(
            st.one_of(
                st.integers(-5, 10),
                st.sampled_from(["catA", "catB", "router", ""]),
                st.booleans(),
                st.floats(allow_nan=False),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_history_tokens_always_in_vocabulary(self, history):
        try:
            request = POLICY.validate_recommend({"history": history})
        except AdmissionError:
            return
        assert all(0 <= t < len(VOCAB) for t in request.history)


class TestQuarantineLog:
    def test_ring_buffer_drops_oldest(self):
        log = QuarantineLog(capacity=2)
        for i in range(3):
            log.record("schema", f"bad {i}", {"i": i})
        assert log.total == 3
        entries = log.entries()
        assert len(entries) == 2
        assert entries[0]["detail"] == "bad 1"

    def test_jsonl_file_appended(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        log = QuarantineLog(path)
        log.record("vocabulary", "oov", {"history": ["x"]})
        log.record("duns", "bad", {"duns": "1"})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["reason"] for entry in lines] == ["vocabulary", "duns"]

    def test_unserialisable_payload_repr_fallback(self):
        log = QuarantineLog()
        log.record("schema", "bad", object())
        assert "object" in log.entries()[0]["payload"]


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def _answer(token: int):
    def scorer(history, threshold, top_n):
        return [(token, 0.9)]

    return scorer


def _raises(history, threshold, top_n):
    raise RuntimeError("model exploded")


def _sleeps(seconds: float):
    def scorer(history, threshold, top_n):
        time.sleep(seconds)
        return [(7, 0.5)]

    return scorer


class TestDegradationLadder:
    def _ladder(self, tiers):
        return DegradationLadder(tiers, floor=Tier("floor", _answer(99)))

    def test_first_tier_answers_not_degraded(self):
        ladder = self._ladder([Tier("a", _answer(1), CircuitBreaker("a"))])
        result = ladder.score([0], deadline_s=1.0)
        assert result.tier == "a"
        assert not result.degraded
        assert result.recommendations == [(1, 0.9)]
        assert [o.status for o in result.outcomes] == ["ok"]

    def test_error_falls_through_to_next_tier(self):
        ladder = self._ladder(
            [
                Tier("a", _raises, CircuitBreaker("a")),
                Tier("b", _answer(2), CircuitBreaker("b")),
            ]
        )
        result = ladder.score([0], deadline_s=1.0)
        assert result.tier == "b"
        assert result.degraded
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["error", "ok"]
        assert "model exploded" in result.outcomes[0].error

    def test_timeout_mid_score_degrades_to_floor(self):
        ladder = self._ladder([Tier("slow", _sleeps(0.5), CircuitBreaker("slow"))])
        result = ladder.score([0], deadline_s=0.05)
        assert result.tier == "floor"
        assert result.degraded
        assert result.outcomes[0].status == "timeout"
        assert result.recommendations == [(99, 0.9)]

    def test_budget_exhaustion_skips_later_tiers(self):
        ladder = self._ladder(
            [
                Tier("slow", _sleeps(0.4), CircuitBreaker("slow")),
                Tier("never", _answer(3), CircuitBreaker("never")),
            ]
        )
        result = ladder.score([0], deadline_s=0.05)
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["timeout", "no_budget", "ok"]
        assert result.tier == "floor"

    def test_open_breaker_skips_without_calling_scorer(self):
        calls = []

        def spy(history, threshold, top_n):
            calls.append(1)
            return [(1, 0.9)]

        breaker = CircuitBreaker("a", failure_threshold=1, window=1)
        breaker.record_failure()
        ladder = self._ladder([Tier("a", spy, breaker)])
        result = ladder.score([0], deadline_s=1.0)
        assert result.tier == "floor"
        assert result.outcomes[0].status == "breaker_open"
        assert not calls

    def test_failures_trip_breaker_then_skip(self):
        breaker = CircuitBreaker("a", failure_threshold=2, window=4)
        ladder = self._ladder([Tier("a", _raises, breaker)])
        ladder.score([0], deadline_s=1.0)
        ladder.score([0], deadline_s=1.0)
        assert breaker.state == OPEN
        result = ladder.score([0], deadline_s=1.0)
        assert result.outcomes[0].status == "breaker_open"

    def test_top_n_truncates(self):
        def many(history, threshold, top_n):
            return [(i, 1.0 - i / 10) for i in range(10)]

        ladder = self._ladder([Tier("a", many, CircuitBreaker("a"))])
        result = ladder.score([0], deadline_s=1.0, top_n=3)
        assert len(result.recommendations) == 3

    def test_floor_with_breaker_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            DegradationLadder([], floor=Tier("floor", _answer(0), CircuitBreaker("f")))

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DegradationLadder(
                [Tier("x", _answer(0), CircuitBreaker("x"))],
                floor=Tier("x", _answer(1)),
            )

    def test_nonpositive_deadline_rejected(self):
        ladder = self._ladder([])
        with pytest.raises(ValueError):
            ladder.score([0], deadline_s=0.0)

    def test_floor_only_ladder_not_degraded(self):
        ladder = self._ladder([])
        result = ladder.score([0], deadline_s=1.0)
        assert result.tier == "floor"
        assert not result.degraded


# ----------------------------------------------------------------------
# Model registry + hot swap
# ----------------------------------------------------------------------
class _WorseModel(UnigramModel):
    """Fitted model whose reference perplexity flunks any gate."""

    def perplexity(self, corpus):
        return 1e9


class _NaNModel(UnigramModel):
    def perplexity(self, corpus):
        return float("nan")


class _BrokenPerplexity(UnigramModel):
    def perplexity(self, corpus):
        raise RuntimeError("numerics diverged")


class _CountingUnigram(UnigramModel):
    """Unigram model that counts its ``log_prob`` evaluations."""

    def __init__(self) -> None:
        super().__init__()
        self.log_prob_calls = 0

    def log_prob(self, corpus):
        self.log_prob_calls += 1
        return super().log_prob(corpus)


class TestModelRegistry:
    @pytest.fixture()
    def registry(self, split):
        registry = ModelRegistry(split.validation, perplexity_tolerance=1.25)
        registry.install("uni", UnigramModel().fit(split.train))
        return registry

    def test_install_and_lookup(self, registry):
        assert registry.names() == ["uni"]
        assert registry.version("uni") == 1
        assert registry.recommender("uni").model is registry.model("uni")
        snapshot = registry.snapshot()
        assert snapshot["uni"]["version"] == 1
        assert snapshot["uni"]["model"] == "UnigramModel"

    def test_install_rejects_unfitted_and_duplicates(self, registry, split):
        with pytest.raises(ValueError, match="fitted"):
            registry.install("other", UnigramModel())
        with pytest.raises(ValueError, match="already installed"):
            registry.install("uni", UnigramModel().fit(split.train))

    def test_swap_unknown_slot_is_admission_error(self, registry, split):
        with pytest.raises(AdmissionError) as exc:
            registry.swap("ghost", UnigramModel().fit(split.train))
        assert exc.value.status == 404

    def test_equivalent_candidate_promoted(self, registry, split):
        report = registry.swap("uni", UnigramModel().fit(split.train))
        assert report.status == "promoted"
        assert report.version == 2
        assert registry.version("uni") == 2
        assert registry.history[-1] is report

    def test_swap_from_saved_artifact(self, registry, split, tmp_path):
        path = tmp_path / "candidate.npz"
        UnigramModel().fit(split.train).save(path)
        report = registry.swap("uni", path)
        assert report.status == "promoted"

    def test_corrupt_artifact_rejected_model_keeps_serving(
        self, registry, split, tmp_path
    ):
        path = tmp_path / "staged.npz"
        registry.model("uni").save(path)
        path.write_bytes(b"\x00garbage, not a zip archive\x00")
        serving_before = registry.model("uni")
        history = split.test.sequences()[0][:4]
        recs_before = registry.recommender("uni").recommend_scored(history)

        report = registry.swap("uni", path)
        assert report.status == "rejected"
        assert "stage failed" in report.reason
        assert registry.version("uni") == 1
        # Previous model keeps serving bit-identical responses.
        assert registry.model("uni") is serving_before
        assert registry.recommender("uni").recommend_scored(history) == recs_before

    def test_unfitted_candidate_rejected(self, registry):
        report = registry.swap("uni", UnigramModel())
        assert report.status == "rejected"
        assert "not a fitted" in report.reason

    def test_vocabulary_mismatch_rejected(self, registry, split):
        narrow = split.train.restrict_vocabulary(split.train.vocabulary[:10])
        report = registry.swap("uni", UnigramModel().fit(narrow))
        assert report.status == "rejected"
        assert "vocabulary" in report.reason

    def test_perplexity_gate_rejects_worse_candidate(self, registry, split):
        report = registry.swap("uni", _WorseModel().fit(split.train))
        assert report.status == "rejected"
        assert "exceeds the gate" in report.reason
        assert report.candidate_perplexity == pytest.approx(1e9)
        assert registry.version("uni") == 1

    def test_non_finite_candidate_perplexity_rejected(self, registry, split):
        report = registry.swap("uni", _NaNModel().fit(split.train))
        assert report.status == "rejected"
        assert "non-finite" in report.reason

    def test_perplexity_evaluation_failure_degrades_to_rejection(self, registry, split):
        report = registry.swap("uni", _BrokenPerplexity().fit(split.train))
        assert report.status == "rejected"
        assert "numerics diverged" in report.reason

    def test_install_and_promotion_each_measure_the_model_once(self, registry, split):
        installed = _CountingUnigram().fit(split.train)
        registry.install("other", installed)
        assert installed.log_prob_calls == 1
        candidate = _CountingUnigram().fit(split.train)
        report = registry.swap("uni", candidate)
        assert report.status == "promoted"
        # The gate's reference perplexity becomes the promoted monitor's
        # baseline instead of being measured a second time.
        assert candidate.log_prob_calls == 1
        assert registry.serving_perplexity("uni") == report.candidate_perplexity

    def test_rejections_accumulate_in_history(self, registry, split):
        registry.swap("uni", UnigramModel())
        registry.swap("uni", UnigramModel().fit(split.train))
        assert [r.status for r in registry.history] == ["rejected", "promoted"]


# ----------------------------------------------------------------------
# Service core (transport-agnostic)
# ----------------------------------------------------------------------
@pytest.fixture()
def service(corpus, split, fitted_lda):
    registry = ModelRegistry(split.validation, perplexity_tolerance=1.5)
    registry.install("lda", fitted_lda)
    registry.install("ngram", NGramModel(order=2).fit(split.train))
    return RecommendationService(
        corpus=corpus,
        registry=registry,
        tiers=("lda", "ngram"),
        config=ServiceConfig(breaker_recovery_s=30.0),
    )


class TestService:
    def test_healthz_and_readyz(self, service):
        health = service.handle("GET", "/healthz", None)
        assert health.status == 200 and health.body["status"] == "alive"
        ready = service.handle("GET", "/readyz", None)
        assert ready.status == 200 and ready.body["ready"] is True
        assert ready.body["models"]["lda"]["version"] == 1

    def test_recommend_valid_full_tier(self, service, corpus):
        response = service.handle(
            "POST", "/recommend", {"history": [corpus.vocabulary[0]], "top_n": 4}
        )
        assert response.status == 200
        assert response.body["tier"] == "lda"
        assert response.body["degraded"] is False
        assert len(response.body["recommendations"]) <= 4
        for rec in response.body["recommendations"]:
            assert 0 <= rec["token"] < corpus.n_products
            assert rec["category"] == corpus.vocabulary[rec["token"]]
        counters = service.metrics_snapshot()["counters"]
        assert counters['serve.tier.answers{tier="lda"}'] == 1
        assert counters['serve.requests{endpoint="/recommend",outcome="ok"}'] == 1

    def test_recommend_bytes_body(self, service, corpus):
        body = json.dumps({"history": [corpus.vocabulary[1]]}).encode()
        assert service.handle("POST", "/recommend", body).status == 200

    def test_malformed_json_400(self, service):
        response = service.handle("POST", "/recommend", b'{"history": [broken')
        assert response.status == 400
        assert response.body["error"] == "malformed"

    def test_oov_rejected_and_quarantined(self, service):
        response = service.handle(
            "POST", "/recommend", {"history": ["quantum-blockchain-ai"]}
        )
        assert response.status == 422
        assert response.body["error"] == "vocabulary"
        assert service.quarantine.total == 1
        counters = service.metrics_snapshot()["counters"]
        assert counters['serve.rejected{endpoint="/recommend",reason="vocabulary"}'] == 1
        assert (
            counters['serve.requests{endpoint="/recommend",outcome="rejected"}'] == 1
        )

    def test_unknown_path_404_and_wrong_method_405(self, service):
        assert service.handle("GET", "/nope", None).status == 404
        response = service.handle("GET", "/recommend", None)
        assert response.status == 405
        assert response.headers["Allow"] == "POST"
        assert service.handle("POST", "/healthz", b"{}").status == 405

    def test_similar_not_configured_404(self, service):
        response = service.handle("POST", "/similar", {"duns": "000000000"})
        assert response.status == 404
        assert response.body["error"] == "not_configured"

    def test_load_shed_at_inflight_limit(self, corpus, split, fitted_lda):
        registry = ModelRegistry(split.validation)
        registry.install("lda", fitted_lda)
        shedding = RecommendationService(
            corpus=corpus,
            registry=registry,
            tiers=("lda",),
            config=ServiceConfig(max_inflight=0, retry_after_s=2.0),
        )
        response = shedding.handle("POST", "/recommend", {"history": []})
        assert response.status == 429
        assert response.headers["Retry-After"] == "2"
        counters = shedding.metrics_snapshot()["counters"]
        assert counters['serve.shed{endpoint="/recommend"}'] == 1
        assert counters['serve.requests{endpoint="/recommend",outcome="shed"}'] == 1

    def test_concurrent_overload_sheds_excess(self, corpus, split, fitted_lda):
        registry = ModelRegistry(split.validation)
        registry.install("lda", fitted_lda)
        gate = threading.Event()

        service = RecommendationService(
            corpus=corpus,
            registry=registry,
            tiers=("lda",),
            config=ServiceConfig(max_inflight=1, default_deadline_ms=2000.0),
        )
        # First request blocks inside scoring until the gate opens.
        slow_recommender = service.registry.recommender("lda")
        original = slow_recommender.recommend_scored

        def blocking(history, *, threshold=None):
            gate.wait(2.0)
            return original(history, threshold=threshold)

        slow_recommender.recommend_scored = blocking  # type: ignore[method-assign]
        statuses = []

        def call():
            statuses.append(service.handle("POST", "/recommend", {"history": []}).status)

        first = threading.Thread(target=call)
        first.start()
        time.sleep(0.05)  # let the first request occupy the slot
        second = service.handle("POST", "/recommend", {"history": []})
        gate.set()
        first.join(timeout=5.0)
        assert second.status == 429
        assert statuses == [200]

    def test_injected_crash_degrades_and_trips_breaker(self, service, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:serve/score/lda")
        payload = {"history": [corpus.vocabulary[0]]}
        for _ in range(3):
            response = service.handle("POST", "/recommend", payload)
            assert response.status == 200
            assert response.body["tier"] == "ngram"
            assert response.body["degraded"] is True
            assert response.body["outcomes"][0]["status"] == "error"
        # Threshold reached: the lda breaker is now open and skipped.
        response = service.handle("POST", "/recommend", payload)
        assert response.body["outcomes"][0]["status"] == "breaker_open"
        snapshot = service.metrics_snapshot()
        assert snapshot["breakers"]["lda"]["state"] == OPEN
        assert (
            snapshot["counters"]['serve.breaker.transitions{state="open",tier="lda"}']
            == 1
        )
        assert (
            snapshot["counters"]['serve.requests{endpoint="/recommend",outcome="degraded"}']
            == 4
        )

    def test_deadline_exceeded_mid_score_degrades(self, service, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:serve/score/lda:seconds=0.5")
        response = service.handle(
            "POST", "/recommend", {"history": [corpus.vocabulary[0]], "deadline_ms": 80}
        )
        assert response.status == 200
        assert response.body["degraded"] is True
        assert response.body["tier"] in ("ngram", "popularity")
        assert response.body["outcomes"][0]["status"] == "timeout"

    def test_popularity_floor_always_answers(self, service, corpus, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "crash:serve/score/lda,crash:serve/score/ngram"
        )
        response = service.handle("POST", "/recommend", {"history": [0, 1]})
        assert response.status == 200
        assert response.body["tier"] == "popularity"
        owned = {0, 1}
        assert all(rec["token"] not in owned for rec in response.body["recommendations"])

    def test_popularity_floor_breaks_ties_by_ascending_token(self):
        # Product counts [1, 2, 2, 1, 3]: tokens 1/2 and 0/3 tie.  The
        # floor ranks like every other tier — score descending, ties by
        # ascending token — and drops what the history owns.
        vocabulary = ("p0", "p1", "p2", "p3", "p4")
        owned_by = [("p1", "p2", "p4"), ("p0", "p1", "p2", "p3", "p4"), ("p4",)]
        companies = [
            Company(
                duns=DunsNumber.from_sequence(i),
                name=f"C{i}",
                country="US",
                sic2=80,
                first_seen={p: dt.date(2010, 1, 1) for p in products},
            )
            for i, products in enumerate(owned_by)
        ]
        tied = Corpus(companies, vocabulary)
        service = RecommendationService(
            corpus=tied, registry=ModelRegistry(tied), tiers=()
        )
        body = service.handle(
            "POST", "/recommend", {"history": ["p4"], "top_n": 4}
        ).body
        assert body["tier"] == "popularity"
        assert [r["token"] for r in body["recommendations"]] == [1, 2, 0, 3]
        assert [r["score"] for r in body["recommendations"]] == [
            round(c / 9, 6) for c in (2, 2, 1, 1)
        ]

    def test_hotswap_rejection_rolls_back_bit_identically(
        self, service, corpus, tmp_path
    ):
        probe = {"history": [corpus.vocabulary[0], corpus.vocabulary[3]], "top_n": 5}
        before = service.handle("POST", "/recommend", probe).body

        staged = tmp_path / "staged.npz"
        service.registry.model("lda").save(staged)
        staged.write_bytes(b"\x00rotten bits\x00")
        response = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged)}
        )
        assert response.status == 409
        assert response.body["status"] == "rejected"

        after = service.handle("POST", "/recommend", probe).body
        # Latency jitter aside, the served answer must be bit-identical.
        assert after["recommendations"] == before["recommendations"]
        assert after["model_versions"] == before["model_versions"]
        assert after["tier"] == before["tier"]
        counters = service.metrics_snapshot()["counters"]
        assert counters['serve.swap{status="rejected"}'] == 1

    def test_hotswap_promotion_bumps_version(self, service, tmp_path):
        staged = tmp_path / "good.npz"
        service.registry.model("lda").save(staged)
        response = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged)}
        )
        assert response.status == 200
        assert response.body["status"] == "promoted"
        assert response.body["version"] == 2
        ready = service.handle("GET", "/readyz", None)
        assert ready.body["models"]["lda"]["version"] == 2

    def test_hotswap_schema_and_unknown_slot(self, service, tmp_path):
        assert service.handle("POST", "/admin/hotswap", {"name": "lda"}).status == 422
        staged = tmp_path / "m.npz"
        service.registry.model("lda").save(staged)
        response = service.handle(
            "POST", "/admin/hotswap", {"name": "ghost", "path": str(staged)}
        )
        assert response.status == 404

    def test_readiness_drops_during_swap_and_recovers(
        self, service, tmp_path, monkeypatch
    ):
        observed = {}
        original = service.registry.swap

        def spy(name, source):
            observed["ready_mid_swap"] = service.ready
            return original(name, source)

        monkeypatch.setattr(service.registry, "swap", spy)
        staged = tmp_path / "m.npz"
        service.registry.model("lda").save(staged)
        response = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged)}
        )
        assert response.status == 200
        assert observed["ready_mid_swap"] is False
        assert service.ready is True
        assert service.handle("GET", "/readyz", None).status == 200

    def test_readiness_restored_even_when_swap_raises(self, service, monkeypatch):
        def boom(name, source):
            raise AdmissionError(404, "unknown_model", "nope")

        monkeypatch.setattr(service.registry, "swap", boom)
        response = service.handle(
            "POST", "/admin/hotswap", {"name": "x", "path": "/nope"}
        )
        assert response.status == 404
        assert service.ready is True

    def test_metrics_endpoint_shape(self, service):
        service.handle("POST", "/recommend", {"history": []})
        response = service.handle("GET", "/metrics", None)
        assert response.status == 200
        assert "counters" in response.body
        assert response.body["tiers"] == ["lda", "ngram", "popularity"]
        assert response.body["breakers"]["lda"]["state"] == CLOSED
        assert response.body["models"]["lda"]["version"] == 1

    def test_handle_never_raises(self, service):
        """The last-resort guard: even a poisoned route yields a response."""
        response = service.handle("POST", "/recommend", object())
        assert response.status in (400, 422, 500)

    @given(
        payload=st.dictionaries(
            st.sampled_from(["history", "top_n", "threshold", "deadline_ms", "duns"]),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-100, 100),
                st.text(max_size=10),
                st.lists(
                    st.one_of(st.integers(-50, 50), st.text(max_size=10)), max_size=8
                ),
            ),
            max_size=5,
        )
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_service_never_5xx(self, service, corpus, payload):
        response = service.handle("POST", "/recommend", payload)
        assert response.status < 500
        if response.status == 200:
            for rec in response.body["recommendations"]:
                assert 0 <= rec["token"] < corpus.n_products


# ----------------------------------------------------------------------
# HTTP transport end-to-end
# ----------------------------------------------------------------------
class TestServeHTTP:
    @pytest.fixture()
    def live(self, service):
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def _post(self, base, path, data: bytes):
        request = urllib.request.Request(
            base + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    def test_recommend_round_trip(self, live, corpus):
        status, body = self._post(
            live, "/recommend", json.dumps({"history": [corpus.vocabulary[0]]}).encode()
        )
        assert status == 200
        assert body["tier"] == "lda"

    def test_bad_json_400_over_http(self, live):
        status, body = self._post(live, "/recommend", b"{nope")
        assert status == 400
        assert body["error"] == "malformed"

    def test_health_over_http(self, live):
        with urllib.request.urlopen(live + "/healthz", timeout=10.0) as resp:
            assert resp.status == 200

    def test_quarantine_file_written(self, corpus, split, fitted_lda, tmp_path):
        registry = ModelRegistry(split.validation)
        registry.install("lda", fitted_lda)
        quarantine_path = tmp_path / "bad.jsonl"
        service = RecommendationService(
            corpus=corpus,
            registry=registry,
            tiers=("lda",),
            config=ServiceConfig(quarantine_path=str(quarantine_path)),
        )
        service.handle("POST", "/recommend", {"history": ["not-a-product"]})
        entries = [json.loads(l) for l in quarantine_path.read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["reason"] == "vocabulary"


def _keepalive_median_ms(address, method: str, path: str, body=None, n: int = 20) -> float:
    """Median latency of ``n`` sequential requests on one keep-alive connection."""
    connection = http.client.HTTPConnection(*address[:2], timeout=10.0)
    latencies = []
    try:
        for _ in range(n):
            started = time.perf_counter()
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200
    finally:
        connection.close()
    return statistics.median(latencies)


def _raw_exchange(address, request: bytes) -> bytes:
    """Send raw bytes, half-close, and read the reply until the server closes."""
    with socket.create_connection(address[:2], timeout=10.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestOneWriteTransport:
    """Each response leaves in one send, so keep-alive reuse is not delayed.

    Headers and body sent as two writes make the second wait for the
    client's delayed ACK, about 40 ms per request on a reused connection.
    """

    @pytest.fixture()
    def live(self, service):
        server, _thread = start_server(service)
        yield server.server_address
        server.shutdown()
        server.server_close()

    def test_keepalive_requests_not_delayed(self, live, corpus):
        body = json.dumps({"history": [corpus.vocabulary[0]]}).encode()
        assert _keepalive_median_ms(live, "POST", "/recommend", body) < 20.0

    def test_router_keepalive_requests_not_delayed(self, tmp_path):
        server, _thread = start_router(str(tmp_path))
        try:
            assert _keepalive_median_ms(server.server_address, "GET", "/fleet") < 20.0
        finally:
            server.shutdown()
            server.server_close()

    def test_stdlib_error_reply_reaches_client(self, live):
        # Four words: the version parses, the syntax does not.
        reply = _raw_exchange(live, b"GET / extra HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_413_reaches_client(self, live):
        reply = _raw_exchange(
            live,
            b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
        )
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b'"oversized"' in reply

    def test_expect_continue_answered_before_body(self, live, corpus):
        body = json.dumps({"history": [corpus.vocabulary[0]]}).encode()
        with socket.create_connection(live[:2], timeout=10.0) as sock:
            sock.sendall(
                b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            # The interim reply must arrive while the body is withheld.
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")


class TestFaultInjectionReset:
    def test_reset_firing_counts_rearms_specs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:somewhere:times=1")
        monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
        faults.reset_firing_counts()
        with pytest.raises(faults.InjectedFault):
            faults.inject("somewhere/deep")
        faults.inject("somewhere/deep")  # consumed: no raise
        faults.reset_firing_counts()
        with pytest.raises(faults.InjectedFault):
            faults.inject("somewhere/deep")
