"""The resilient recommendation service (transport-agnostic core).

:class:`RecommendationService` wires admission control, the bounded
in-flight limiter, the degradation ladder, the hot-swappable model
registry and the similar-company tool into one ``handle(method, path,
body, headers)`` entry point that the stdlib HTTP layer
(:mod:`repro.serve.http`), the tests and the load harness all drive
identically.

The service's contract: **every degradable failure yields a degraded
answer, a 4xx rejection, or a 429 shed — never a 5xx.**  Bad payloads are
quarantined; slow or broken model tiers degrade down the ladder; an
overloaded service sheds with ``Retry-After``; a bad staged model is
rejected while the previous model keeps serving.

Request-scoped telemetry
------------------------
Every request runs inside a :func:`repro.obs.context.request_scope`: the
service honours an inbound ``X-Request-Id`` header (minting one
otherwise), echoes it on the response, stamps it on structured log lines,
and captures the request's span tree into an isolated per-request
:class:`~repro.obs.trace.TraceBuffer` — no cross-request contamination
even under the threaded transport.  Finished requests feed labelled
metrics (``serve.requests{endpoint,outcome}``, per-endpoint latency
histograms with ``request_id`` exemplars), the multi-window SLO burn-rate
monitor, and the flight recorder of slowest/failed requests.  Telemetry
accounting is fail-safe: an exception inside it is logged, never turned
into a 5xx.

Endpoints
---------
* ``POST /recommend`` — install-base payload → tiered recommendations.
* ``POST /similar``   — ``{"duns", "k"}`` → similar companies.
* ``POST /admin/hotswap`` — ``{"name", "path"}`` → validated promotion.
* ``GET /healthz``    — liveness (always 200 while the process runs).
* ``GET /readyz``     — readiness (503 while a hot-swap is in flight).
* ``GET /metrics``    — Prometheus text by default over HTTP; JSON with
  ``Accept: application/json`` (and when called without headers);
  OpenMetrics (with exemplars) when the Accept header asks for it.
* ``GET /slo``        — burn rates + alert states of every objective.
* ``GET /admin/debug`` — flight recorder: JSONL dump, or one request's
  span tree via ``?request_id=``.
* ``GET /admin/profile?seconds=N`` — sampling wall-clock profile.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.data.corpus import Corpus
from repro.obs import context as obs_context
from repro.obs import prom, trace
from repro.obs.flight import FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import Objective, SLOMonitor
from repro.data.linkage import EntityResolver
from repro.serve.admission import AdmissionError, AdmissionPolicy, QuarantineLog
from repro.serve.batch import MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.ladder import DegradationLadder, Tier
from repro.serve.registry import ModelRegistry, SwapReport
from repro.serve.topk_cache import TopKCache

__all__ = ["ServiceConfig", "ServiceResponse", "RecommendationService"]

#: Paths that get their own ``endpoint`` label; anything else is folded
#: into ``other`` so a URL scanner cannot explode metric cardinality.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/recommend",
        "/similar",
        "/admin/hotswap",
        "/healthz",
        "/readyz",
        "/metrics",
        "/slo",
        "/admin/debug",
        "/admin/profile",
    }
)

#: Endpoints that do model work: only these burn SLO budget and compete
#: for flight-recorder slots (scrapes and health checks stay out).
_WORK_ENDPOINTS = frozenset({"/recommend", "/similar", "/admin/hotswap"})

#: Numeric encoding of breaker states for the ``serve.breaker.state`` gauge.
_BREAKER_STATE_VALUE = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving layer (all enforced per request)."""

    #: Concurrent requests admitted before load-shedding with 429.
    max_inflight: int = 32
    #: ``Retry-After`` seconds advertised on a shed.
    retry_after_s: float = 1.0
    #: Deadline budget for requests that do not carry ``deadline_ms``.
    default_deadline_ms: float = 250.0
    #: Hard ceiling on a request-supplied deadline.
    max_deadline_ms: float = 5000.0
    #: Histories longer than this are rejected with 413.
    max_history: int = 64
    default_top_n: int = 5
    max_top_n: int = 50
    #: Default phi of the tier recommenders.
    default_threshold: float = 0.1
    #: Breaker tuning shared by every model tier.
    breaker_failure_threshold: int = 3
    breaker_window: int = 8
    breaker_recovery_s: float = 2.0
    breaker_latency_budget_s: float | None = None
    #: Perplexity gate for hot-swaps.
    swap_tolerance: float = 1.25
    #: Optional JSONL file quarantined payloads are appended to.
    quarantine_path: str | None = None
    #: Resolve ``name`` fields on /similar through the entity resolver
    #: built over the serving companies' names (linear startup cost in
    #: corpus size; disable for huge corpora that only take D-U-N-S).
    resolve_names: bool = True
    #: Replay windows the canary gate shadow-scores a swap candidate
    #: over before promotion; 0 disables the canary (perplexity gate
    #: only, the historical behaviour).
    canary_windows: int = 0
    #: Per-window recall/precision slack a candidate may lose before a
    #: window counts as regressed.
    canary_quality_margin: float = 0.05
    #: Regressed windows tolerated before the canary rejects.
    canary_max_regressed: int = 1
    #: JS-divergence ceiling between incumbent and candidate
    #: recommendation distributions on replayed traffic (looser than the
    #: DriftMonitor's 0.05: healthy refits are not bit-stable).
    canary_divergence_threshold: float = 0.2

    # -- transport ------------------------------------------------------
    #: Listen backlog of the accept socket.  socketserver's default of 5
    #: resets connections under a burst of simultaneous connects;
    #: admission control (shed with 429) is the overload story, not
    #: TCP-level resets.
    listen_backlog: int = 128
    #: SO_REUSEADDR on the listen socket (fast rebinds across restarts).
    reuse_address: bool = True
    #: SO_REUSEPORT: every worker of a pre-fork fleet binds the same port
    #: and the kernel spreads accepts across processes (shared-nothing).
    reuse_port: bool = False

    # -- serving speed --------------------------------------------------
    #: Micro-batching window for coalescing concurrent /recommend scoring
    #: into one batched GEMM.  0 disables batching entirely: every request
    #: scores on the single path, bit-identical to the historical service.
    batch_window_ms: float = 0.0
    #: Hard cap on coalesced batch size; a full batch executes at once.
    batch_max: int = 16
    #: Fraction of a request's deadline budget it may spend queued waiting
    #: for batch-mates (the rest is reserved for scoring).
    batch_wait_fraction: float = 0.5
    #: Entries in the top-k result cache; 0 disables caching.
    topk_cache_size: int = 0

    # -- request-scoped telemetry --------------------------------------
    #: Master switch for per-request accounting (labelled metrics, SLO
    #: counting, flight recording).  Off is the baseline the telemetry
    #: overhead benchmark compares against; ids are still minted/echoed.
    telemetry: bool = True
    #: Capture a per-request span tree (needed by the flight recorder).
    request_spans: bool = True
    #: Slots per flight-recorder section (failed ring / slowest heap).
    flight_capacity: int = 64
    #: Successful requests at/over this latency always compete for a
    #: flight-recorder slot (None: only the slowest-so-far do).
    flight_slow_threshold_ms: float | None = None
    #: Hard ceiling on ``/admin/profile?seconds=``.
    profile_max_seconds: float = 10.0

    # -- SLOs -----------------------------------------------------------
    #: Good fraction targets per objective.
    slo_availability_target: float = 0.999
    slo_latency_target: float = 0.99
    #: A 2xx answer slower than this burns the latency budget.
    slo_latency_threshold_ms: float = 250.0
    #: Degraded (non-primary-tier) answers burn the quality budget.
    slo_quality_target: float = 0.95
    #: Multi-window burn-rate pair + page threshold.
    slo_fast_window_s: float = 300.0
    slo_slow_window_s: float = 3600.0
    slo_burn_threshold: float = 14.4


@dataclass(frozen=True)
class ServiceResponse:
    """Transport-agnostic response: status, JSON body *or* raw text.

    JSON responses carry ``body`` (a dict); exposition-format responses
    (Prometheus text, flight-recorder JSONL) carry ``text`` with a
    matching ``content_type``.  ``payload()`` is what transports write.
    """

    status: int
    body: dict[str, Any] | None = None
    headers: dict[str, str] = field(default_factory=dict)
    text: str | None = None
    content_type: str = "application/json"

    def to_json(self) -> bytes:
        """The JSON body serialised for the HTTP layer."""
        return json.dumps(self.body if self.body is not None else {}, sort_keys=True).encode("utf-8")

    def payload(self) -> bytes:
        """The bytes a transport should write (text wins over body)."""
        if self.text is not None:
            return self.text.encode("utf-8")
        return self.to_json()


class RecommendationService:
    """Admission-controlled, degradation-laddered recommendation service.

    Parameters
    ----------
    corpus:
        The serving universe (vocabulary + popularity floor source).
    registry:
        Hot-swappable model slots; ``tiers`` names must be installed.
    tiers:
        Slot names forming the ladder, strongest first.  The popularity
        floor is always appended automatically.
    tool:
        Optional :class:`~repro.app.tool.SalesRecommendationTool` backing
        ``/similar``.
    feature_slot:
        Name of the registry slot whose model produced ``tool``'s company
        features.  When that slot is hot-swapped, the tool's features are
        refreshed from the promoted model.
    config, clock, metrics:
        Tunables, injectable monotonic clock, and the metrics registry
        (the service owns its own by default so counters always record).
    """

    def __init__(
        self,
        *,
        corpus: Corpus,
        registry: ModelRegistry,
        tiers: tuple[str, ...] = ("lda", "ngram"),
        tool: Any = None,
        feature_slot: str | None = None,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        aliases: Mapping[str, str] | None = None,
    ) -> None:
        self.corpus = corpus
        self.registry = registry
        self.tool = tool
        self.feature_slot = feature_slot
        self.config = config or ServiceConfig()
        self._clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log = get_logger("serve.service")

        resolver = None
        resolver_duns: list[str] | None = None
        if self.config.resolve_names:
            resolver_duns = corpus.duns_values()
            resolver = EntityResolver(corpus.names())
        self.policy = AdmissionPolicy(
            corpus.vocabulary,
            max_history=self.config.max_history,
            default_top_n=self.config.default_top_n,
            max_top_n=self.config.max_top_n,
            default_deadline_s=self.config.default_deadline_ms / 1000.0,
            max_deadline_s=self.config.max_deadline_ms / 1000.0,
            resolver=resolver,
            resolver_duns=resolver_duns,
            aliases=aliases,
        )
        self.quarantine = QuarantineLog(self.config.quarantine_path)
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity,
            slow_threshold_ms=self.config.flight_slow_threshold_ms,
        )
        self.slo = SLOMonitor(
            [
                Objective(
                    "availability",
                    self.config.slo_availability_target,
                    "request neither shed nor internally failed",
                ),
                Objective(
                    "latency",
                    self.config.slo_latency_target,
                    f"2xx answered within {self.config.slo_latency_threshold_ms:g} ms",
                ),
                Objective(
                    "quality",
                    self.config.slo_quality_target,
                    "recommendation answered by the primary model tier",
                ),
            ],
            fast_window_s=self.config.slo_fast_window_s,
            slow_window_s=self.config.slo_slow_window_s,
            burn_threshold=self.config.slo_burn_threshold,
            clock=clock,
        )

        for name in tiers:
            registry.model(name)  # raises early on a missing slot
        self.ladder = DegradationLadder(
            [
                Tier(
                    name,
                    self._tier_scorer(name),
                    breaker=CircuitBreaker(
                        name,
                        failure_threshold=self.config.breaker_failure_threshold,
                        window=self.config.breaker_window,
                        recovery_time=self.config.breaker_recovery_s,
                        latency_budget=self.config.breaker_latency_budget_s,
                        clock=clock,
                        on_transition=self._on_breaker_transition,
                    ),
                    batch_scorer=self._tier_batch_scorer(name),
                )
                for name in tiers
            ],
            floor=Tier("popularity", self._popularity_scorer()),
            clock=clock,
        )

        self.topk_cache = (
            TopKCache(self.config.topk_cache_size)
            if self.config.topk_cache_size > 0
            else None
        )
        self.batcher = (
            MicroBatcher(
                self._score_single,
                self._score_batched,
                window_s=self.config.batch_window_ms / 1000.0,
                batch_max=self.config.batch_max,
                wait_fraction=self.config.batch_wait_fraction,
                clock=clock,
            )
            if self.config.batch_window_ms > 0
            else None
        )
        registry.subscribe(self._on_model_swap)

        self._instrument_cache: dict[tuple, Any] = {}
        self._inflight = 0
        self._inflight_by_endpoint: dict[str, int] = {}
        self._inflight_lock = threading.Lock()
        self._ready = True
        self._started_at = self._clock()

    def close(self) -> None:
        """Release background resources (the batch collector thread)."""
        if self.batcher is not None:
            self.batcher.close()

    # ------------------------------------------------------------------
    # Metrics plumbing.  Instruments carry their own locks (see
    # repro.obs.metrics), so these helpers are plain lookups — safe to
    # call concurrently from every transport thread.  Resolved
    # instruments are memoized per (name, labels): the service's label
    # values are bounded (normalized endpoints, outcome/tier/reason
    # enums), so the cache is small and the hot path skips the
    # registry's key construction on every request.
    # ------------------------------------------------------------------
    def _instrument(self, kind: str, name: str, labels: Mapping[str, str] | None):
        key = (name, tuple(sorted(labels.items())) if labels else ())
        instrument = self._instrument_cache.get(key)
        if instrument is None:
            if kind == "counter":
                instrument = self.metrics.counter(name, labels)
            elif kind == "gauge":
                instrument = self.metrics.gauge(name, labels)
            else:
                instrument = self.metrics.histogram(
                    name, labels, buckets=DEFAULT_LATENCY_BUCKETS_MS
                )
            self._instrument_cache[key] = instrument
        return instrument

    def _inc(
        self, name: str, labels: Mapping[str, str] | None = None, amount: float = 1.0
    ) -> None:
        self._instrument("counter", name, labels).inc(amount)

    def _set_gauge(
        self, name: str, labels: Mapping[str, str] | None, value: float
    ) -> None:
        self._instrument("gauge", name, labels).set(value)

    def _latency_histogram(self, endpoint: str):
        return self._instrument("histogram", "serve.latency.ms", {"endpoint": endpoint})

    def _on_breaker_transition(self, name: str, old: str, new: str) -> None:
        self._inc("serve.breaker.transitions", {"tier": name, "state": new})
        self._set_gauge(
            "serve.breaker.state",
            {"tier": name},
            _BREAKER_STATE_VALUE.get(new, -1.0),
        )
        self._log.warning(
            "breaker %s: %s -> %s",
            name,
            old,
            new,
            extra={"obs": {"tier": name, "from": old, "to": new}},
        )

    def _refresh_gauges(self) -> None:
        """Bring point-in-time gauges up to date before an export."""
        for tier in self.ladder.tiers:
            if tier.breaker is not None:
                self._set_gauge(
                    "serve.breaker.state",
                    {"tier": tier.name},
                    _BREAKER_STATE_VALUE.get(tier.breaker.state, -1.0),
                )
        with self._inflight_lock:
            by_endpoint = dict(self._inflight_by_endpoint)
        for endpoint, value in by_endpoint.items():
            self._set_gauge("serve.inflight", {"endpoint": endpoint}, value)

    # ------------------------------------------------------------------
    # Tier scorers
    # ------------------------------------------------------------------
    def _tier_scorer(self, name: str):
        def scorer(
            history: list[int], threshold: float | None, top_n: int
        ) -> list[tuple[int, float]]:
            recommender = self.registry.recommender(name)
            scored = recommender.recommend_scored(list(history), threshold=threshold)
            if scored:
                return scored[:top_n]
            # Nothing above phi: still answer with the best unowned
            # candidates so a degraded tier never goes silent.
            scores = recommender.scores(list(history))
            return [
                (token, float(scores[token]))
                for token in recommender.top_k(list(history), top_n)
            ]

        return scorer

    def _tier_batch_scorer(self, name: str):
        """Batched twin of :meth:`_tier_scorer`: one GEMM, per-row ranking.

        ``batch_next_product_proba`` scores every history in a single
        model call (LDA's batched fold-in is one matrix product); the
        per-row thresholding/ranking then mirrors
        ``ThresholdRecommender.recommend_scored`` / ``top_k`` exactly —
        same eligibility rule, same stable tie-break — so a batched answer
        is bit-identical to the single-request path's.
        """

        def batch_scorer(
            histories: list[list[int]],
            thresholds: list[float | None],
            top_ns: list[int],
        ) -> list[list[tuple[int, float]]]:
            recommender = self.registry.recommender(name)
            model = recommender.model
            clean = [model.validate_history(list(h)) for h in histories]
            matrix = model.batch_next_product_proba(clean)
            results: list[list[tuple[int, float]]] = []
            for i, history in enumerate(clean):
                scores = matrix[i]
                phi = (
                    recommender.threshold
                    if thresholds[i] is None
                    else thresholds[i]
                )
                owned = np.zeros(scores.shape[0], dtype=bool)
                if history:
                    owned[np.asarray(history, dtype=np.intp)] = True
                eligible = np.flatnonzero((scores >= phi) & ~owned)
                if len(eligible) == 0:
                    # Nothing above phi: same best-unowned fallback as the
                    # single path, so the tier never goes silent.
                    eligible = np.flatnonzero(~owned)
                order = np.argsort(-scores[eligible], kind="stable")
                ranked = eligible[order][: top_ns[i]]
                results.append([(int(t), float(scores[t])) for t in ranked])
            return results

        return batch_scorer

    # ------------------------------------------------------------------
    # Batching entry points (MicroBatcher callbacks)
    # ------------------------------------------------------------------
    def _score_single(
        self,
        history: list[int],
        threshold: float | None,
        top_n: int,
        deadline_s: float,
    ):
        return self.ladder.score(
            history, deadline_s=deadline_s, threshold=threshold, top_n=top_n
        )

    def _score_batched(
        self,
        histories: list[list[int]],
        thresholds: list[float | None],
        top_ns: list[int],
        budget_s: float,
    ):
        return self.ladder.score_batch(
            histories, deadline_s=budget_s, thresholds=thresholds, top_ns=top_ns
        )

    # ------------------------------------------------------------------
    # Hot-swap consumers
    # ------------------------------------------------------------------
    def _on_model_swap(self, report: SwapReport) -> None:
        """Registry promotion hook: drop stale caches, refresh features.

        The top-k cache is generation-keyed, so stale entries are already
        unreachable — clearing reclaims their memory.  When the promoted
        slot is the one whose model produced the similarity features, the
        tool's feature matrix is rebuilt from the new model, stamped with
        the new generation.
        """
        if self.topk_cache is not None:
            dropped = self.topk_cache.invalidate()
            if dropped:
                self._inc(
                    "serve.cache.invalidate", {"endpoint": "/recommend"}, dropped
                )
        if self.tool is None or report.name != self.feature_slot:
            return
        model = self.registry.model(report.name)
        company_features = getattr(model, "company_features", None)
        refresh = getattr(self.tool, "refresh_features", None)
        if company_features is None or refresh is None:
            self._log.warning(
                "slot %s promoted but its model exposes no company_features; "
                "the similarity tool keeps serving generation %d features",
                report.name,
                self.tool.model_version if hasattr(self.tool, "model_version") else -1,
            )
            return
        refresh(
            company_features(self.tool.corpus), model_version=report.generation
        )
        self._log.info(
            "similarity features refreshed from %s v%d (generation %d)",
            report.name,
            report.version,
            report.generation,
        )

    def _popularity_scorer(self):
        counts = self.corpus.binary_matrix().sum(axis=0)
        popularity = counts / counts.sum()
        # Ranked once, most popular first, ties by ascending token — the
        # stable rule every other tier ranks by.
        ranked = [
            (int(token), float(popularity[token]))
            for token in np.argsort(-popularity, kind="stable")
        ]

        def scorer(
            history: list[int], threshold: float | None, top_n: int
        ) -> list[tuple[int, float]]:
            del threshold  # the floor ignores phi: it always answers
            owned = set(history)
            return [item for item in ranked if item[0] not in owned][:top_n]

        return scorer

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _header(headers: Mapping[str, str] | None, name: str) -> str | None:
        """Case-insensitive header lookup over any mapping (or None)."""
        if not headers:
            return None
        lowered = name.lower()
        for key, value in headers.items():
            if key.lower() == lowered:
                return value
        return None

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | str | dict | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServiceResponse:
        """Serve one request; the single entry point for every transport.

        Runs inside a request scope: an inbound ``X-Request-Id`` header is
        honoured (sanitised) or an id is minted, the id is echoed on the
        response, and the request's spans are captured into an isolated
        buffer feeding the flight recorder.
        """
        method = method.upper()
        path, _, query = path.partition("?")
        params = urllib.parse.parse_qs(query)
        inbound_id = obs_context.sanitize_request_id(
            self._header(headers, obs_context.REQUEST_ID_HEADER)
        )
        started = self._clock()
        capture = self.config.telemetry and self.config.request_spans
        with obs_context.request_scope(inbound_id, capture_spans=capture) as ctx:
            try:
                response = self._route(method, path, params, body, headers)
            except Exception:  # noqa: BLE001 - last-resort guard; must stay unreached
                self._log.error("unhandled service error", exc_info=True)
                response = ServiceResponse(
                    500, {"error": "internal", "detail": "unexpected failure"}
                )
            response.headers.setdefault(obs_context.REQUEST_ID_HEADER, ctx.request_id)
            if self.config.telemetry:
                latency_ms = (self._clock() - started) * 1000.0
                try:
                    self._account(ctx, method, path, response, latency_ms)
                except Exception:  # noqa: BLE001 - telemetry must never cause a 5xx
                    self._log.error("telemetry accounting failed", exc_info=True)
            return response

    def _account(
        self,
        ctx: obs_context.RequestContext,
        method: str,
        path: str,
        response: ServiceResponse,
        latency_ms: float,
    ) -> None:
        """Feed one finished request into metrics, SLOs and the recorder."""
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        status = response.status
        body = response.body if isinstance(response.body, dict) else {}
        if status == 429:
            outcome = "shed"
        elif status == 503:
            # Deliberate unavailability (readiness probe during a swap),
            # not an internal failure — keep "error" meaning uncaught 5xx.
            outcome = "unavailable"
        elif status >= 500:
            outcome = "error"
        elif status >= 400:
            outcome = "rejected"
        elif body.get("degraded"):
            outcome = "degraded"
        else:
            outcome = "ok"
        self._inc("serve.requests", {"endpoint": endpoint, "outcome": outcome})
        self._latency_histogram(endpoint).observe(
            latency_ms,
            exemplar={"request_id": ctx.request_id},
            ts=time.time(),
        )
        if endpoint not in _WORK_ENDPOINTS:
            return
        slo_outcomes: dict[str, bool] = {
            "availability": status != 429 and status < 500
        }
        if 200 <= status < 300:
            slo_outcomes["latency"] = (
                latency_ms <= self.config.slo_latency_threshold_ms
            )
            if endpoint == "/recommend" and "degraded" in body:
                slo_outcomes["quality"] = not body["degraded"]
        self.slo.record(slo_outcomes)
        extra: dict[str, Any] = {"outcome": outcome, "method": method}
        if "tier" in body:
            extra["tier"] = body["tier"]
        self.flight.record(
            request_id=ctx.request_id,
            trace_id=ctx.trace_id,
            endpoint=endpoint,
            status=status,
            latency_ms=latency_ms,
            failed=status >= 400,
            spans=ctx.spans,  # callable: serialized only when kept
            **extra,
        )

    def _route(
        self,
        method: str,
        path: str,
        params: Mapping[str, list[str]],
        body: Any,
        headers: Mapping[str, str] | None,
    ) -> ServiceResponse:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return ServiceResponse(
                200,
                {"status": "alive", "uptime_s": round(self._clock() - self._started_at, 3)},
            )
        if path == "/readyz":
            if method != "GET":
                return self._method_not_allowed("GET")
            if self._ready:
                return ServiceResponse(200, {"ready": True, "models": self.registry.snapshot()})
            return ServiceResponse(503, {"ready": False, "reason": "model swap in progress"})
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._metrics_response(headers)
        if path == "/slo":
            if method != "GET":
                return self._method_not_allowed("GET")
            return ServiceResponse(200, self.slo.evaluate())
        if path == "/admin/debug":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._debug_response(params)
        if path == "/admin/profile":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._profile_response(params)
        if path == "/recommend":
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._with_admission("/recommend", body, self._recommend)
        if path == "/similar":
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._with_admission("/similar", body, self._similar)
        if path == "/admin/hotswap":
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._with_admission("/admin/hotswap", body, self._hotswap)
        return ServiceResponse(404, {"error": "not_found", "detail": f"unknown path {path}"})

    @staticmethod
    def _method_not_allowed(allowed: str) -> ServiceResponse:
        return ServiceResponse(
            405, {"error": "method_not_allowed"}, headers={"Allow": allowed}
        )

    # ------------------------------------------------------------------
    # Telemetry endpoints
    # ------------------------------------------------------------------
    def _metrics_response(self, headers: Mapping[str, str] | None) -> ServiceResponse:
        """Content-negotiated /metrics.

        Called without headers (the embedded/test path) it keeps the
        historical JSON shape.  Over HTTP the default is Prometheus text
        0.0.4; ``Accept: application/json`` selects JSON and an Accept
        mentioning ``openmetrics`` selects OpenMetrics, which is the only
        text format that can carry the ``request_id`` bucket exemplars.
        """
        accept = self._header(headers, "Accept") or ""
        if headers is None or "application/json" in accept:
            return ServiceResponse(200, self.metrics_snapshot())
        self._refresh_gauges()
        openmetrics = "openmetrics" in accept
        text = prom.render(self.metrics, openmetrics=openmetrics)
        content_type = (
            prom.CONTENT_TYPE_OPENMETRICS if openmetrics else prom.CONTENT_TYPE_TEXT
        )
        return ServiceResponse(200, None, text=text, content_type=content_type)

    def _debug_response(self, params: Mapping[str, list[str]]) -> ServiceResponse:
        request_id = params.get("request_id", [None])[0]
        if request_id:
            record = self.flight.lookup(request_id)
            if record is None:
                return ServiceResponse(
                    404,
                    {
                        "error": "not_found",
                        "detail": f"request {request_id!r} is not in the flight recorder",
                    },
                )
            return ServiceResponse(200, dict(record))
        section = params.get("section", ["all"])[0]
        if section not in ("all", "failed", "slow"):
            return ServiceResponse(
                400, {"error": "bad_request", "detail": f"unknown section {section!r}"}
            )
        limit: int | None = None
        raw_limit = params.get("limit", [None])[0]
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                return ServiceResponse(
                    400, {"error": "bad_request", "detail": "limit must be an integer"}
                )
        text = self.flight.dump_jsonl(section=section, limit=limit)
        return ServiceResponse(
            200, None, text=text, content_type="application/x-ndjson"
        )

    def _profile_response(self, params: Mapping[str, list[str]]) -> ServiceResponse:
        raw = params.get("seconds", ["1.0"])[0]
        try:
            seconds = float(raw)
        except ValueError:
            return ServiceResponse(
                400, {"error": "bad_request", "detail": "seconds must be a number"}
            )
        if seconds <= 0:
            return ServiceResponse(
                400, {"error": "bad_request", "detail": "seconds must be positive"}
            )
        seconds = min(seconds, self.config.profile_max_seconds)
        report = SamplingProfiler().run_for(seconds)
        return ServiceResponse(200, report)

    # ------------------------------------------------------------------
    # Admission-scoped endpoints
    # ------------------------------------------------------------------
    def _parse_body(self, body: Any) -> Any:
        if isinstance(body, (bytes, str)):
            try:
                return json.loads(body)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise AdmissionError(400, "malformed", f"body is not valid JSON: {exc}")
        return body if body is not None else {}

    def _with_admission(
        self,
        endpoint: str,
        body: Any,
        handler: Callable[[Any], ServiceResponse],
    ) -> ServiceResponse:
        """Shed on overload, then parse + validate + dispatch one request."""
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                self._inc("serve.shed", {"endpoint": endpoint})
                return ServiceResponse(
                    429,
                    {
                        "error": "overloaded",
                        "detail": f"more than {self.config.max_inflight} requests in flight",
                    },
                    headers={"Retry-After": f"{self.config.retry_after_s:g}"},
                )
            self._inflight += 1
            self._inflight_by_endpoint[endpoint] = (
                self._inflight_by_endpoint.get(endpoint, 0) + 1
            )
            self._set_gauge(
                "serve.inflight", {"endpoint": endpoint},
                self._inflight_by_endpoint[endpoint],
            )
        try:
            with trace.span("serve.request"):
                payload = None
                try:
                    payload = self._parse_body(body)
                    response = handler(payload)
                except AdmissionError as exc:
                    self._inc(
                        "serve.rejected",
                        {"endpoint": endpoint, "reason": exc.reason},
                    )
                    self.quarantine.record(
                        exc.reason, exc.detail, payload if payload is not None else repr(body)
                    )
                    response = ServiceResponse(
                        exc.status, {"error": exc.reason, "detail": exc.detail}
                    )
            return response
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                self._inflight_by_endpoint[endpoint] -= 1
                self._set_gauge(
                    "serve.inflight", {"endpoint": endpoint},
                    self._inflight_by_endpoint[endpoint],
                )

    def _recommend(self, payload: Any) -> ServiceResponse:
        request = self.policy.validate_recommend(payload)
        history = list(request.history)
        cache_key = None
        result = None
        path = "single"
        batch_size = 1
        waited_ms = 0.0
        if self.topk_cache is not None:
            # Generation in the key makes a hot-swap atomically orphan
            # every entry computed against the previous serving set.
            cache_key = (
                self.registry.generation,
                tuple(history),
                request.threshold,
                request.top_n,
            )
            result = self.topk_cache.get(cache_key)
            if result is not None:
                path = "cached"
                self._inc("serve.cache.hit", {"endpoint": "/recommend"})
            else:
                self._inc("serve.cache.miss", {"endpoint": "/recommend"})
        if result is None:
            if self.batcher is not None:
                answer = self.batcher.submit(
                    history, request.threshold, request.top_n, request.deadline_s
                )
                result = answer.result
                path = answer.path
                batch_size = answer.batch_size
                waited_ms = answer.waited_ms
            else:
                result = self.ladder.score(
                    history,
                    deadline_s=request.deadline_s,
                    threshold=request.threshold,
                    top_n=request.top_n,
                )
            if cache_key is not None and not result.degraded:
                # Degraded answers reflect a transient outage, not the
                # model — they must not outlive the condition.
                evicted = self.topk_cache.put(cache_key, result)
                if evicted:
                    self._inc(
                        "serve.cache.evict", {"endpoint": "/recommend"}, evicted
                    )
        self._inc("serve.tier.answers", {"tier": result.tier})
        self._inc("serve.path", {"endpoint": "/recommend", "path": path})
        return ServiceResponse(
            200,
            {
                "tier": result.tier,
                "degraded": result.degraded,
                "path": path,
                "batch_size": batch_size,
                "queue_wait_ms": round(waited_ms, 3),
                "recommendations": [
                    {
                        "token": token,
                        "category": self.corpus.vocabulary[token],
                        "score": round(score, 6),
                    }
                    for token, score in result.recommendations
                ],
                "outcomes": [
                    {
                        "tier": outcome.tier,
                        "status": outcome.status,
                        "latency_ms": round(outcome.latency_s * 1000.0, 3),
                        **({"error": outcome.error} if outcome.error else {}),
                    }
                    for outcome in result.outcomes
                ],
                "model_versions": {
                    name: self.registry.version(name)
                    for name in self.registry.names()
                },
            },
        )

    def _similar(self, payload: Any) -> ServiceResponse:
        if self.tool is None:
            raise AdmissionError(
                404, "not_configured", "this deployment has no similarity index"
            )
        request = self.policy.validate_similar_detail(payload)
        duns, k = request.duns, request.k
        try:
            hits, backend = self.tool.similar_companies_detail(duns, k=k)
        except KeyError:
            raise AdmissionError(404, "unknown_company", f"company {duns} is not in the corpus")
        self._inc("serve.path", {"endpoint": "/similar", "path": backend})
        body_resolution = (
            {"resolution": request.resolution} if request.resolution else {}
        )
        return ServiceResponse(
            200,
            {
                "duns": duns,
                "backend": backend,
                **body_resolution,
                "similar": [
                    {"duns": hit.duns, "name": hit.name, "similarity": round(hit.similarity, 6)}
                    for hit in hits
                ],
            },
        )

    def _hotswap(self, payload: Any) -> ServiceResponse:
        fields = payload if isinstance(payload, dict) else {}
        name = fields.get("name")
        path = fields.get("path")
        if not isinstance(name, str) or not isinstance(path, str):
            raise AdmissionError(
                422, "schema", "hotswap requires string 'name' and 'path' fields"
            )
        # Readiness drops for the duration of validation + promotion; the
        # previous model keeps answering /recommend throughout.
        self._ready = False
        try:
            report = self.registry.swap(name, path)
        finally:
            self._ready = True
        self._inc("serve.swap", {"status": report.status})
        status = 200 if report.status == "promoted" else 409
        return ServiceResponse(status, report.as_dict())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether the service currently reports ready."""
        return self._ready

    def metrics_snapshot(self) -> dict[str, Any]:
        """Counters + breaker states + quarantine depth, JSON-encodable.

        Labelled series appear under ``name{key="value",...}`` keys; this
        is the JSON representation of /metrics (and what ``repro obs top``
        polls).
        """
        self._refresh_gauges()
        snapshot = self.metrics.snapshot()
        snapshot["breakers"] = {
            tier.name: tier.breaker.snapshot()
            for tier in self.ladder.tiers
            if tier.breaker is not None
        }
        snapshot["quarantine"] = {"total": self.quarantine.total}
        snapshot["models"] = self.registry.snapshot()
        snapshot["tiers"] = self.ladder.tier_names
        snapshot["flight"] = self.flight.stats()
        if self.topk_cache is not None:
            snapshot["topk_cache"] = self.topk_cache.stats()
        if self.batcher is not None:
            snapshot["batcher"] = self.batcher.stats()
        return snapshot
