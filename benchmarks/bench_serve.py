"""Load harness for the resilient serving layer (``repro.serve``).

Replays seeded traffic mixes — clean installs, malformed payload bursts,
oversized bodies, unknown vocabulary, bad identifiers — against a live
``ThreadingHTTPServer`` instance, then layers on injected faults (a hanging
model tier, a corrupted staged model, an overload burst) and asserts the
service's core contract end to end:

* **zero HTTP 5xx** on the serving endpoints, under every fault;
* **zero uncaught exceptions** (no ``serve.requests`` series with
  ``outcome="error"``);
* every fault is **accounted for** — sheds match 429s, rejections match
  4xx responses and quarantine entries, tier counters match successes;
* a corrupted staged model is **rejected** while the previous model keeps
  serving bit-identical recommendations;
* readiness flips unready → ready across a hot-swap;
* the ``/metrics`` scrape is **valid Prometheus text** (every ``serve_*``
  family labelled), exemplar request ids **round-trip** into the flight
  recorder via ``/admin/debug``, and a crash burst against the primary
  tier trips the **fast-window SLO burn alert** on ``/slo``;
* request-scoped telemetry costs ≤ 10 % of p50 ``/recommend`` latency
  (the overhead gate, recorded into ``BENCH_METRICS.json``);
* micro-batching **coalesces** under 32-way concurrency: batched p50 <
  single-path p50, with the batched path provably taken
  (``serve.path{path="batched"}`` > 0) and zero degraded answers;
* a hot-swap **invalidates the top-k result cache**: the first request
  after a promotion is recomputed against the new model, then re-cached
  under the new generation;
* the pre-fork **fleet gate**: a sustained closed-loop load phase against
  the shared SO_REUSEPORT port proves fleet RPS ≥ 3× a single worker at
  equal-or-better p99 (the floor derates honestly when the host has
  fewer cores than workers, and smoke mode shortens the phases), every
  worker memory-maps the model artifact (``/proc/<pid>/maps`` evidence),
  a worker SIGKILLed mid-load is restarted with **zero client-visible
  5xx**, a generation published mid-load converges on every worker with
  bit-identical answers, and no worker's flight recorder holds an
  unexplained failed request.

Run directly (CI's serve-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_serve.py --inject-faults \
        --json serve-summary.json

or under pytest along with the other benchmarks.  ``REPRO_BENCH_SMOKE=1``
shrinks the coalescing phase to CI scale.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.data.duns import DunsNumber
from repro.experiments import make_experiment_data
from repro.models.lda import LatentDirichletAllocation
from repro.scenarios import build_scenario
from repro.obs import metrics as obs_metrics
from repro.obs import prom as obs_prom
from repro.obs.top import sum_counters
from repro.runtime import faults
from repro.serve import ServiceConfig, build_demo_service, start_server
from repro.serve.service import RecommendationService

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Sequence far beyond any synthetic corpus size: valid check digit,
#: guaranteed absent from the similarity index.
_UNKNOWN_DUNS = DunsNumber.from_sequence(99_999_990).value


class _Client:
    """Tiny urllib client that returns (status, body, headers) for any code."""

    def __init__(self, base: str) -> None:
        self.base = base

    def _request(self, req: urllib.request.Request) -> tuple[int, dict, dict]:
        try:
            with urllib.request.urlopen(req, timeout=30.0) as resp:
                return resp.status, json.loads(resp.read() or b"{}"), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                body = json.loads(raw or b"{}")
            except ValueError:
                body = {"raw": raw.decode("utf-8", "replace")}
            return exc.code, body, dict(exc.headers)
        except urllib.error.URLError as exc:
            # A server that answers 413 without draining a huge body closes
            # the connection mid-send; urllib surfaces that as a broken
            # pipe.  Report it as status 0 so the ledger can distinguish a
            # connection-level rejection from an HTTP status.
            return 0, {"error": "connection", "detail": str(exc.reason)}, {}

    def get(self, path: str) -> tuple[int, dict, dict]:
        return self._request(urllib.request.Request(self.base + path, method="GET"))

    def get_raw(self, path: str, accept: str | None = None) -> tuple[int, str, dict]:
        """GET returning the body as text — for non-JSON endpoints."""
        headers = {"Accept": accept} if accept else {}
        req = urllib.request.Request(self.base + path, headers=headers, method="GET")
        try:
            with urllib.request.urlopen(req, timeout=30.0) as resp:
                return resp.status, resp.read().decode("utf-8"), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8", "replace"), dict(exc.headers)

    def post(self, path: str, payload) -> tuple[int, dict, dict]:
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        return self._request(
            urllib.request.Request(
                self.base + path,
                data=data,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
        )


class Ledger:
    """Counts every request the harness sent and every status it got back."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.statuses: Counter[int] = Counter()
        self.kinds: Counter[str] = Counter()
        self.tiers: Counter[str] = Counter()
        self.violations: list[str] = []

    def record(self, kind: str, status: int, body: dict, expect: set[int]) -> None:
        with self.lock:
            self.kinds[kind] += 1
            self.statuses[status] += 1
            if isinstance(body, dict) and "tier" in body:
                self.tiers[body["tier"]] += 1
            if status not in expect:
                self.violations.append(
                    f"{kind}: got {status}, expected one of {sorted(expect)}: {body}"
                )


def _traffic(rng, vocabulary: list[str], known_duns: str, max_history: int):
    """One seeded request: (kind, path, payload, expected statuses)."""
    kind = rng.choice(
        ["valid"] * 6
        + ["oov", "badtype", "oversized", "bad_json", "bad_duns", "huge_k", "unknown_company"]
    )
    if kind == "valid":
        history = rng.sample(vocabulary, rng.randint(1, min(6, len(vocabulary))))
        payload = {"history": history, "top_n": rng.randint(1, 10)}
        return kind, "/recommend", payload, {200}
    if kind == "oov":
        payload = {"history": [vocabulary[0], "not-a-real-category"]}
        return kind, "/recommend", payload, {422}
    if kind == "badtype":
        payload = rng.choice([{"history": "not-a-list"}, {"top_n": 3}, [1, 2, 3]])
        return kind, "/recommend", payload, {422}
    if kind == "oversized":
        history = [vocabulary[i % len(vocabulary)] for i in range(max_history + 5)]
        return kind, "/recommend", {"history": history}, {413}
    if kind == "bad_json":
        return kind, "/recommend", b'{"history": [unterminated', {400}
    if kind == "bad_duns":
        return kind, "/similar", {"duns": "12345", "k": 3}, {422}
    if kind == "huge_k":
        return kind, "/similar", {"duns": known_duns, "k": 10_000}, {200}
    return kind, "/similar", {"duns": _UNKNOWN_DUNS, "k": 3}, {404}


def run_harness(
    *,
    companies: int = 200,
    seed: int = 7,
    requests: int = 60,
    inject: bool = True,
    json_path: str | None = None,
) -> dict:
    """Drive the full fault matrix against a live service; returns the summary."""
    rng = random.Random(seed)
    config = ServiceConfig(
        max_inflight=4,
        default_deadline_ms=250.0,
        breaker_failure_threshold=3,
        breaker_recovery_s=0.5,
        # Compressed SLO windows so the burn-alert phase can drain the
        # earlier phases' traffic with a short sleep instead of an hour.
        slo_fast_window_s=1.0,
        slo_slow_window_s=4.0,
    )
    service = build_demo_service(companies, seed=seed, config=config)
    server, _thread = start_server(service)
    host, port = server.server_address[:2]
    client = _Client(f"http://{host}:{port}")
    ledger = Ledger()
    vocabulary = list(service.corpus.vocabulary)
    known_duns = service.corpus.companies[0].duns.value
    saved_env = os.environ.get("REPRO_FAULTS")
    summary: dict = {"phases": {}}

    def fire(kind, path, payload, expect):
        status, body, _headers = client.post(path, payload)
        ledger.record(kind, status, body, expect)
        return status, body

    try:
        # ---- phase 1: seeded clean + malformed traffic mix ----------------
        for _ in range(requests):
            fire(*_traffic(rng, vocabulary, known_duns, config.max_history))
        status, body, _ = client.get("/healthz")
        ledger.record("healthz", status, body, {200})
        summary["phases"]["mixed_traffic"] = {"requests": requests}

        # ---- phase 2: transport-level oversized body ----------------------
        # The handler answers 413 without reading the 2 MiB body and closes
        # the connection; depending on socket buffering the client sees the
        # 413 or a connection reset (status 0) — both are rejections.
        status, body, _ = client.post("/recommend", b" " * (2 << 20))
        ledger.record("huge_body", status, body, {413, 0})

        # ---- phase 3: hanging model tier under deadline -------------------
        if inject:
            os.environ["REPRO_FAULTS"] = "hang:serve/score/lda:seconds=1.0"
            faults.reset_firing_counts()
            hang_tiers: Counter[str] = Counter()
            for _ in range(6):
                status, body = fire(
                    "hang_lda",
                    "/recommend",
                    {"history": [vocabulary[0]], "deadline_ms": 120},
                    {200},
                )
                if status == 200:
                    hang_tiers[body["tier"]] += 1
                    assert body["degraded"], body
            os.environ.pop("REPRO_FAULTS", None)
            breaker_opened = (
                sum_counters(
                    service.metrics_snapshot()["counters"],
                    "serve.breaker.transitions",
                    state="open",
                    tier="lda",
                )
                >= 1
            )
            # Breaker recovery: after the window passes, a half-open probe
            # succeeds (fault cleared) and the ladder answers from LDA again.
            time.sleep(config.breaker_recovery_s + 0.1)
            recovered = False
            for _ in range(4):
                status, body = fire(
                    "recovery", "/recommend", {"history": [vocabulary[0]]}, {200}
                )
                if status == 200 and body["tier"] == "lda":
                    recovered = True
                    break
            summary["phases"]["hang_fault"] = {
                "answering_tiers": dict(hang_tiers),
                "breaker_opened": breaker_opened,
                "recovered_to_lda": recovered,
            }
            assert breaker_opened, "lda breaker never opened under the hang fault"
            assert recovered, "ladder never recovered to the lda tier"
            assert "lda" not in hang_tiers, hang_tiers

        # ---- phase 4: overload burst → load shedding ----------------------
        if inject:
            os.environ["REPRO_FAULTS"] = "hang:serve/score/lda:seconds=0.3"
            faults.reset_firing_counts()
        burst = 24
        with ThreadPoolExecutor(max_workers=burst) as pool:
            futures = [
                pool.submit(
                    fire,
                    "burst",
                    "/recommend",
                    {"history": [vocabulary[i % len(vocabulary)]], "deadline_ms": 400},
                    {200, 429},
                )
                for i in range(burst)
            ]
            burst_statuses = Counter(f.result()[0] for f in futures)
        os.environ.pop("REPRO_FAULTS", None)
        summary["phases"]["overload_burst"] = {
            "requests": burst,
            "statuses": {str(k): v for k, v in burst_statuses.items()},
        }
        if inject:
            assert burst_statuses.get(429, 0) >= 1, (
                f"no load shedding in a {burst}-wide burst: {burst_statuses}"
            )

        # ---- phase 5: hot-swap — corrupt rejected, clean promoted ---------
        with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
            probe = {"history": [vocabulary[0], vocabulary[1]], "top_n": 5}
            _, before = fire("probe", "/recommend", probe, {200})

            corrupt_path = Path(tmp) / "staged-lda.npz"
            service.registry.model("lda").save(corrupt_path)
            if inject:
                os.environ["REPRO_FAULTS"] = "corrupt:serve/stage"
                faults.reset_firing_counts()
                faults.corrupt_artifact(corrupt_path, "serve/stage")
                os.environ.pop("REPRO_FAULTS", None)
            else:
                corrupt_path.write_bytes(b"\x00not a model\x00")
            status, body = fire(
                "hotswap_corrupt",
                "/admin/hotswap",
                {"name": "lda", "path": str(corrupt_path)},
                {409},
            )
            assert body.get("status") == "rejected", body

            _, after = fire("probe", "/recommend", probe, {200})
            bit_identical = (
                before["recommendations"] == after["recommendations"]
                and before["model_versions"] == after["model_versions"]
            )
            assert bit_identical, (before, after)

            good_path = Path(tmp) / "good-lda.npz"
            service.registry.model("lda").save(good_path)

            # Readiness must flip ready → unready → ready across the
            # promotion; a hang on the swap site widens the window so the
            # poller reliably samples the unready phase.
            status, ready_before, _ = client.get("/readyz")
            ledger.record("readyz_before", status, ready_before, {200})
            ready_codes: list[int] = []
            stop = threading.Event()

            def poll_ready() -> None:
                while not stop.is_set():
                    ready_codes.append(client.get("/readyz")[0])
                    time.sleep(0.02)

            poller = threading.Thread(target=poll_ready, daemon=True)
            if inject:
                os.environ["REPRO_FAULTS"] = "hang:serve/swap/lda:seconds=0.4"
                faults.reset_firing_counts()
            poller.start()
            status, body = fire(
                "hotswap_good",
                "/admin/hotswap",
                {"name": "lda", "path": str(good_path)},
                {200},
            )
            os.environ.pop("REPRO_FAULTS", None)
            stop.set()
            poller.join(timeout=2.0)
            assert body.get("status") == "promoted", body
            status, ready_body, _ = client.get("/readyz")
            ledger.record("readyz", status, ready_body, {200})
            summary["phases"]["hotswap"] = {
                "corrupt_rejected": True,
                "bit_identical_after_rejection": bit_identical,
                "promoted_version": body.get("version"),
                "readiness_codes_during_swap": sorted(set(ready_codes)),
                "ready_after": ready_body.get("ready"),
            }
            if inject:
                assert 503 in ready_codes, "readiness never dropped during the swap"
            assert ready_before.get("ready") is True and ready_body.get("ready") is True

        # ---- phase 6: telemetry — strict scrape, exemplars, burn alert ----
        # Default Accept: Prometheus text 0.0.4.  The strict parser also
        # proves no serve.* family is exported unlabelled.
        status, text, headers = client.get_raw("/metrics")
        assert status == 200 and headers["Content-Type"].startswith("text/plain"), (
            status,
            headers,
        )
        scrape = obs_prom.parse(text, require_labels_prefix="serve_")
        for family in ("serve_requests", "serve_latency_ms", "serve_inflight"):
            assert family in scrape["families"], sorted(scrape["families"])

        # OpenMetrics carries exemplars; at least one request id attached
        # to a /recommend latency bucket must resolve in the flight
        # recorder (fast requests may have been evicted by slower ones).
        status, om_text, _ = client.get_raw("/metrics", accept="application/openmetrics-text")
        assert status == 200 and om_text.rstrip().endswith("# EOF"), om_text[-200:]
        exemplar_ids = re.findall(
            r'serve_latency_ms_bucket\{[^}]*endpoint="/recommend"[^}]*\}'
            r'[^#\n]*# \{request_id="([0-9a-f]+)"\}',
            om_text,
        )
        assert exemplar_ids, "no exemplars on the /recommend latency histogram"
        resolved = 0
        for rid in exemplar_ids:
            status, body, _ = client.get(f"/admin/debug?request_id={rid}")
            if status == 200:
                assert body["request_id"] == rid, body
                resolved += 1
        assert resolved >= 1, f"no exemplar id resolved in flight: {exemplar_ids}"

        burn_alerted = None
        burn_rates = None
        if inject:
            # Drain the compressed SLO windows, then burn: a crash fault on
            # the primary tier degrades every answer, so the quality error
            # budget burns at 1/0.05 = 20x — over the fast alert threshold.
            time.sleep(config.slo_slow_window_s + 0.2)
            os.environ["REPRO_FAULTS"] = "crash:serve/score/lda"
            faults.reset_firing_counts()
            for _ in range(20):
                status, body = fire(
                    "burn", "/recommend", {"history": [vocabulary[0]]}, {200}
                )
                if status == 200:
                    assert body["degraded"], body
            os.environ.pop("REPRO_FAULTS", None)
            status, slo_body, _ = client.get("/slo")
            ledger.record("slo", status, slo_body, {200})
            quality = slo_body["objectives"]["quality"]
            assert quality["fast"]["burn_rate"] >= slo_body["burn_threshold"], quality
            assert quality["alerting"], slo_body
            assert "quality" in slo_body["alerts"], slo_body["alerts"]
            assert not slo_body["objectives"]["availability"]["alerting"], slo_body
            burn_alerted = True
            burn_rates = {
                "quality_fast": quality["fast"]["burn_rate"],
                "quality_slow": quality["slow"]["burn_rate"],
                "threshold": slo_body["burn_threshold"],
            }
        summary["phases"]["telemetry"] = {
            "prom_families": len(scrape["families"]),
            "exemplars_on_recommend": len(exemplar_ids),
            "exemplars_resolved_in_flight": resolved,
            "burn_alert_tripped": burn_alerted,
            "burn_rates": burn_rates,
        }
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = saved_env
        server.shutdown()
        server.server_close()

    # ---- accounting: every fault shows up in exactly one counter ----------
    counters = service.metrics_snapshot()["counters"]
    assert not ledger.violations, "\n".join(ledger.violations)
    server_errors = [s for s in ledger.statuses if s >= 500 and s != 503]
    assert not server_errors, f"5xx observed: {dict(ledger.statuses)}"
    assert sum_counters(counters, "serve.requests", outcome="error") == 0, counters
    assert sum_counters(counters, "serve.shed") == ledger.statuses.get(429, 0), counters
    # Transport-level 413s (huge_body) never reach admission; every other
    # 4xx on the serving endpoints is an admission rejection + quarantine.
    rejected_kinds = ("oov", "badtype", "oversized", "bad_json", "bad_duns", "unknown_company")
    rejected_4xx = sum(ledger.kinds.get(kind, 0) for kind in rejected_kinds)
    assert sum_counters(counters, "serve.rejected") == rejected_4xx, (counters, ledger.kinds)
    quarantined = service.quarantine.total
    assert quarantined == rejected_4xx, (quarantined, rejected_4xx)
    tier_total = sum_counters(counters, "serve.tier.answers")
    assert tier_total == sum(ledger.tiers.values()), (counters, ledger.tiers)

    summary["statuses"] = {str(k): v for k, v in sorted(ledger.statuses.items())}
    summary["request_kinds"] = dict(ledger.kinds)
    summary["fallback_tiers"] = dict(ledger.tiers)
    summary["counters"] = {k: v for k, v in sorted(counters.items())}
    summary["quarantined"] = quarantined
    summary["server_5xx"] = 0
    if json_path:
        Path(json_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


def run_overhead_gate(
    *,
    companies: int = 150,
    seed: int = 7,
    rounds: int = 3,
    per_round: int = 120,
    limit: float = 1.10,
    slack_ms: float = 0.25,
) -> dict:
    """Gate: request-scoped telemetry costs ≤ ``limit`` of p50 latency.

    Builds one serving stack and two service shells over the same fitted
    models — full telemetry (span capture, labelled metrics, SLO counting,
    flight recording) versus ``telemetry=False`` — and compares p50
    ``/recommend`` latency via direct ``handle()`` calls.  Rounds are
    interleaved and the best (minimum) round median is kept on each side,
    which discards scheduler noise; ``slack_ms`` absorbs sub-millisecond
    jitter when the handler itself is only a few ms.  The measurements
    are recorded as ``bench.serve.telemetry.*`` gauges so the benchmark
    session's ``BENCH_METRICS.json`` artifact carries them.
    """
    on = build_demo_service(companies, seed=seed)
    off = RecommendationService(
        corpus=on.corpus,
        registry=on.registry,
        tiers=("lda", "ngram"),
        tool=on.tool,
        config=ServiceConfig(telemetry=False, request_spans=False),
    )
    vocabulary = list(on.corpus.vocabulary)
    rng = random.Random(seed)
    payloads = [
        json.dumps(
            {"history": rng.sample(vocabulary, rng.randint(1, min(4, len(vocabulary))))}
        ).encode()
        for _ in range(32)
    ]

    def p50_ms(service: RecommendationService, n: int) -> float:
        latencies = []
        for i in range(n):
            started = time.perf_counter()
            response = service.handle("POST", "/recommend", payloads[i % len(payloads)])
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200, (response.status, response.body)
        return statistics.median(latencies)

    for service in (on, off):  # warm caches before timing
        p50_ms(service, 30)
    on_medians, off_medians = [], []
    for _ in range(rounds):
        on_medians.append(p50_ms(on, per_round))
        off_medians.append(p50_ms(off, per_round))
    p50_on, p50_off = min(on_medians), min(off_medians)
    ratio = p50_on / p50_off if p50_off > 0 else 1.0
    result = {
        "p50_on_ms": round(p50_on, 4),
        "p50_off_ms": round(p50_off, 4),
        "ratio": round(ratio, 4),
        "limit": limit,
        "requests_per_side": rounds * per_round,
    }
    registry = obs_metrics.get_registry()
    for key in ("p50_on_ms", "p50_off_ms", "ratio"):
        registry.gauge(f"bench.serve.telemetry.{key}").set(result[key])
    assert p50_on <= p50_off * limit + slack_ms, (
        f"telemetry overhead over budget: p50 {p50_on:.3f}ms with telemetry vs "
        f"{p50_off:.3f}ms without (ratio {ratio:.3f}, limit {limit})"
    )
    return result


def run_coalescing_gate(
    *,
    companies: int = 150,
    seed: int = 7,
    concurrency: int = 32,
    rounds: int = 3,
    per_round: int = 256,
    window_ms: float = 4.0,
    slack_ms: float = 0.0,
) -> dict:
    """Gate: micro-batched p50 beats the single path at high concurrency.

    One fitted stack, two service shells: batching off versus a
    ``window_ms`` coalescing window sized to the concurrency.  Each side
    serves ``per_round`` ``/recommend`` requests from a ``concurrency``-
    wide pool via direct ``handle()`` calls; rounds are interleaved and
    the best (minimum) round median is kept per side.  Besides the
    latency gate, the phase proves coalescing actually happened
    (``serve.path{path="batched"}`` > 0) and that batching never degraded
    an answer — the no-degradable-5xx contract extends to batches.
    """
    if SMOKE:
        rounds, per_round = 2, 128
    base = build_demo_service(companies, seed=seed)
    quiet = dict(telemetry=False, request_spans=False, max_inflight=4 * concurrency)

    def shell(config: ServiceConfig) -> RecommendationService:
        return RecommendationService(
            corpus=base.corpus,
            registry=base.registry,
            tiers=("lda", "ngram"),
            config=config,
        )

    single = shell(ServiceConfig(**quiet))
    batched = shell(
        ServiceConfig(
            **quiet, batch_window_ms=window_ms, batch_max=concurrency
        )
    )
    vocabulary = list(base.corpus.vocabulary)
    rng = random.Random(seed)
    payloads = [
        json.dumps(
            {
                "history": rng.sample(
                    vocabulary, rng.randint(1, min(5, len(vocabulary)))
                ),
                "deadline_ms": 4000,
            }
        ).encode()
        for _ in range(64)
    ]

    def p50_ms(service: RecommendationService, n: int) -> float:
        def one(i: int) -> float:
            started = time.perf_counter()
            response = service.handle(
                "POST", "/recommend", payloads[i % len(payloads)]
            )
            elapsed = (time.perf_counter() - started) * 1000.0
            assert response.status == 200, (response.status, response.body)
            assert response.body["degraded"] is False, response.body
            return elapsed

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            return statistics.median(pool.map(one, range(n)))

    try:
        for service in (single, batched):  # warm model/instrument caches
            p50_ms(service, concurrency)
        single_medians, batched_medians = [], []
        for _ in range(rounds):
            single_medians.append(p50_ms(single, per_round))
            batched_medians.append(p50_ms(batched, per_round))
    finally:
        batched.close()
    p50_single, p50_batched = min(single_medians), min(batched_medians)
    counters = batched.metrics_snapshot()["counters"]
    batched_answers = sum_counters(counters, "serve.path", path="batched")
    total_answers = sum_counters(counters, "serve.path", endpoint="/recommend")
    result = {
        "concurrency": concurrency,
        "requests_per_side": rounds * per_round,
        "window_ms": window_ms,
        "p50_single_ms": round(p50_single, 4),
        "p50_batched_ms": round(p50_batched, 4),
        "speedup": round(p50_single / p50_batched, 4) if p50_batched else 1.0,
        "batched_answers": int(batched_answers),
        "batched_fraction": round(batched_answers / total_answers, 4)
        if total_answers
        else 0.0,
        "smoke": SMOKE,
    }
    registry = obs_metrics.get_registry()
    for key in ("p50_single_ms", "p50_batched_ms", "speedup", "batched_fraction"):
        registry.gauge(f"bench.serve.batch.{key}").set(result[key])
    assert batched_answers > 0, "no request was ever answered by a batch"
    assert p50_batched < p50_single + slack_ms, (
        f"coalescing gate failed: batched p50 {p50_batched:.3f}ms vs "
        f"single p50 {p50_single:.3f}ms at {concurrency}-way concurrency"
    )
    return result


def run_cache_swap_contract(*, companies: int = 120, seed: int = 7) -> dict:
    """Contract: a promoted hot-swap invalidates the top-k result cache.

    The same payload is served three times around a promotion: computed,
    then cached, then — after the swap bumps the registry generation —
    recomputed against the new model and re-cached under the new
    generation.  Also checks the similarity tool's features were
    refreshed to the promoted model's generation.
    """
    service = build_demo_service(
        companies, seed=seed, config=ServiceConfig(topk_cache_size=64)
    )
    vocabulary = list(service.corpus.vocabulary)
    payload = {"history": [vocabulary[0], vocabulary[1]], "top_n": 5}

    first = service.handle("POST", "/recommend", payload)
    second = service.handle("POST", "/recommend", payload)
    assert first.status == second.status == 200
    assert first.body["path"] == "single", first.body
    assert second.body["path"] == "cached", second.body
    assert second.body["recommendations"] == first.body["recommendations"]

    with tempfile.TemporaryDirectory(prefix="repro-serve-cache-") as tmp:
        path = Path(tmp) / "promoted-lda.npz"
        service.registry.model("lda").save(path)
        swap = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(path)}
        )
        assert swap.status == 200 and swap.body["status"] == "promoted", swap.body

    third = service.handle("POST", "/recommend", payload)
    fourth = service.handle("POST", "/recommend", payload)
    assert third.body["path"] == "single", (
        f"stale cache served across a hot-swap: {third.body['path']}"
    )
    assert third.body["model_versions"]["lda"] == 2, third.body
    assert fourth.body["path"] == "cached", fourth.body
    assert service.tool.model_version == service.registry.generation
    counters = service.metrics_snapshot()["counters"]
    result = {
        "paths": [r.body["path"] for r in (first, second, third, fourth)],
        "promoted_version": swap.body["version"],
        "generation": service.registry.generation,
        "cache": service.topk_cache.stats(),
        "invalidated": sum_counters(counters, "serve.cache.invalidate"),
    }
    assert result["invalidated"] >= 1, counters
    return result


def run_canary_gate(*, companies: int = 300, seed: int = 7, windows: int = 3) -> dict:
    """Contract + cost of replay-gated promotion.

    A canary-enabled service shadow-scores every hot-swap candidate over
    ``windows`` replay windows.  The phase stages a drift-corrupted
    candidate (must come back 409 with a machine-readable canary verdict
    while /recommend keeps serving bit-identically) and a clean refit
    (must promote, with the passing verdict attached), and times both
    gate evaluations — the price of a guarded promotion, recorded as
    ``bench.serve.canary.*`` gauges.
    """
    config = ServiceConfig(
        canary_windows=windows,
        # Loose perplexity gate so the canary is the deciding check.
        swap_tolerance=6.0,
        batch_window_ms=0.0,
        topk_cache_size=0,
    )
    service = build_demo_service(companies, seed=seed, config=config)
    vocabulary = list(service.corpus.vocabulary)
    payload = {"history": [vocabulary[0], vocabulary[1]], "top_n": 5}

    def stable_fields(response) -> dict:
        return {
            key: response.body[key]
            for key in ("tier", "recommendations", "model_versions")
        }

    before = service.handle("POST", "/recommend", payload)
    assert before.status == 200, before.body

    data = make_experiment_data(companies, seed=seed)
    drifted = LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=60, seed=1
    ).fit(build_scenario(data.corpus, "drift", seed=1).corpus)
    clean = LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=60, seed=1
    ).fit(data.split.train)

    with tempfile.TemporaryDirectory(prefix="repro-serve-canary-") as tmp:
        staged = Path(tmp) / "drifted-lda.npz"
        drifted.save(staged)
        reject_s = time.perf_counter()
        rejected = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged)}
        )
        reject_ms = (time.perf_counter() - reject_s) * 1000.0
        assert rejected.status == 409, rejected.body
        assert "canary rejected" in rejected.body["reason"], rejected.body
        verdict = rejected.body["canary"]
        assert verdict["passed"] is False, verdict

        after = service.handle("POST", "/recommend", payload)
        assert stable_fields(after) == stable_fields(before), (
            "incumbent answers changed across a rejected promotion"
        )

        staged_clean = Path(tmp) / "clean-lda.npz"
        clean.save(staged_clean)
        promote_s = time.perf_counter()
        promoted = service.handle(
            "POST", "/admin/hotswap", {"name": "lda", "path": str(staged_clean)}
        )
        promote_ms = (time.perf_counter() - promote_s) * 1000.0
        assert promoted.status == 200, promoted.body
        assert promoted.body["canary"]["passed"] is True, promoted.body

    result = {
        "companies": companies,
        "windows": windows,
        "rejected_reason": verdict["reason"],
        "regressed_windows": verdict["regressed_windows"],
        "rejected_divergence": verdict["recommendation_divergence"],
        "reject_eval_ms": round(reject_ms, 2),
        "promote_eval_ms": round(promote_ms, 2),
        "bit_identical_after_rejection": True,
        "promoted_version": promoted.body["version"],
    }
    registry = obs_metrics.get_registry()
    registry.gauge("bench.serve.canary.reject_eval_ms").set(result["reject_eval_ms"])
    registry.gauge("bench.serve.canary.promote_eval_ms").set(result["promote_eval_ms"])
    registry.gauge("bench.serve.canary.regressed_windows").set(
        float(result["regressed_windows"])
    )
    if result["rejected_divergence"] is not None:
        registry.gauge("bench.serve.canary.rejected_divergence").set(
            result["rejected_divergence"]
        )
    return result


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_ms:
        return 0.0
    rank = max(0, min(len(sorted_ms) - 1, int(round(q * (len(sorted_ms) - 1)))))
    return sorted_ms[rank]


def run_closed_loop(
    base_url: str,
    payloads: list[bytes],
    *,
    threads: int = 8,
    duration_s: float = 5.0,
    extended_percentiles: bool = False,
) -> dict:
    """Sustained closed-loop load: ``threads`` clients, keep-alive, no sleep.

    Each client thread drives its own persistent connection as fast as
    the server answers for ``duration_s`` (closed loop: a new request is
    issued the moment the previous response lands).  A broken connection
    — e.g. its pinned SO_REUSEPORT worker was killed — is reconnected
    and counted as a retry, never as a failure: the contract under fault
    is zero client-visible 5xx, and connection-level resets of idle
    keep-alive sockets are the kernel's business, not the service's.

    Returns RPS, latency percentiles (p99.9/max with
    ``extended_percentiles``), the status histogram and the retry count.
    """
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(base_url)
    host, port = parts.hostname, parts.port
    stop_at = time.monotonic() + duration_s
    lock = threading.Lock()
    latencies: list[float] = []
    statuses: Counter[int] = Counter()
    retries = 0

    def loop(worker_index: int) -> None:
        nonlocal retries
        conn = http.client.HTTPConnection(host, port, timeout=30)
        sent = worker_index  # offset so threads don't sync on one payload
        local_lat: list[float] = []
        local_status: Counter[int] = Counter()
        local_retries = 0
        while time.monotonic() < stop_at:
            body = payloads[sent % len(payloads)]
            sent += 1
            started = time.perf_counter()
            try:
                conn.request(
                    "POST",
                    "/recommend",
                    body,
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                local_retries += 1
                continue
            local_lat.append((time.perf_counter() - started) * 1000.0)
            local_status[response.status] += 1
        conn.close()
        with lock:
            latencies.extend(local_lat)
            statuses.update(local_status)
            retries += local_retries

    pool = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(threads)
    ]
    started = time.monotonic()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=duration_s + 60)
    elapsed = time.monotonic() - started
    latencies.sort()
    report = {
        "requests": len(latencies),
        "duration_s": round(elapsed, 3),
        "rps": round(len(latencies) / elapsed, 2) if elapsed > 0 else 0.0,
        "threads": threads,
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "connection_retries": retries,
    }
    if extended_percentiles:
        report["p999_ms"] = round(_percentile(latencies, 0.999), 3)
        report["max_ms"] = round(latencies[-1] if latencies else 0.0, 3)
    return report


def _worker_memory_evidence(pids: list[int], artifact_root: str) -> dict:
    """Per-worker RSS and artifact-mapping evidence from ``/proc``.

    ``artifact_mapped_bytes`` counts address-space bytes backed by files
    under the artifact store — the same inode in every worker's maps is
    the proof the fleet shares one page-cache copy of the model weights.
    """
    evidence: dict[str, dict] = {}
    for pid in pids:
        info: dict[str, int] = {}
        try:
            for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
                name, _, rest = line.partition(":")
                if name in ("Rss", "Pss", "Shared_Clean"):
                    info[f"{name.lower()}_kb"] = int(rest.split()[0])
        except (OSError, ValueError):
            pass
        mapped = 0
        try:
            for line in Path(f"/proc/{pid}/maps").read_text().splitlines():
                if artifact_root in line:
                    span = line.split()[0]
                    start, _, end = span.partition("-")
                    mapped += int(end, 16) - int(start, 16)
        except (OSError, ValueError):
            pass
        info["artifact_mapped_bytes"] = mapped
        evidence[str(pid)] = info
    return evidence


def _flight_failed_records(direct_url: str) -> list[dict]:
    """Every record in one worker's failed-request flight ring."""
    client = _Client(direct_url)
    status, text, _ = client.get_raw("/admin/debug?section=failed")
    if status != 200:
        return [{"status": -1, "detail": f"debug scrape failed with {status}"}]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def run_fleet_gate(
    *,
    companies: int = 200,
    seed: int = 7,
    workers: int = 4,
    threads: int = 8,
    duration_s: float | None = None,
    min_speedup: float | None = None,
    p99_slack: float | None = None,
    kill_worker: bool = False,
    hotswap_under_load: bool = False,
    extended_percentiles: bool = False,
) -> dict:
    """Gate: the pre-fork fleet sustains ≥ ``min_speedup``× one worker's RPS.

    Publishes the demo models to an artifact store once, then runs the
    same closed-loop load twice — against a 1-worker fleet (the
    single-process baseline, measured in its own process exactly like
    the fleet workers) and against a ``workers``-wide fleet on the
    shared SO_REUSEPORT port.  The full-scale floor is 3×; because N
    workers cannot beat one by 3× without ≥ 3 extra cores, the floor
    derates with the host's effective parallelism
    (``min(workers, cpu_count)``) and is further relaxed — never the
    correctness checks — in ``REPRO_BENCH_SMOKE`` mode.

    Correctness rides along under load: every worker must map the
    artifact file into its address space (shared page cache), no
    client-visible 5xx is tolerated (including while a worker is
    SIGKILLed and restarted with ``kill_worker``), a generation
    published mid-load (``hotswap_under_load``) must converge on every
    worker with bit-identical per-worker answers, and no worker's
    flight recorder may hold an unexplained failed request.
    """
    import signal as _signal

    from repro.serve import (
        ArtifactStore,
        FleetSupervisor,
        build_demo_models,
        demo_service_factory,
        publish_demo_artifacts,
    )

    cores = os.cpu_count() or 1
    effective = min(workers, cores)
    if duration_s is None:
        duration_s = 2.5 if SMOKE else 8.0
    if min_speedup is None:
        min_speedup = 3.0 if effective >= 4 else 0.75 * effective
        if SMOKE:
            min_speedup *= 0.6
    if p99_slack is None:
        p99_slack = 1.0 if effective >= 4 and not SMOKE else 3.0
    if SMOKE:
        companies = min(companies, 120)
    lda_iterations = 15 if SMOKE else 60

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        store = ArtifactStore(Path(tmp) / "artifacts")
        publish_demo_artifacts(
            store, companies, seed=seed, lda_iterations=lda_iterations
        )
        config = ServiceConfig(reuse_port=True, max_inflight=4 * threads)
        factory = demo_service_factory(store, companies, seed=seed, config=config)
        rng = random.Random(seed)
        data_vocab: list[str] | None = None

        def payload_set(service_vocab: list[str]) -> list[bytes]:
            return [
                json.dumps(
                    {
                        "history": rng.sample(
                            service_vocab,
                            rng.randint(1, min(5, len(service_vocab))),
                        ),
                        "deadline_ms": 4000,
                    }
                ).encode()
                for _ in range(64)
            ]

        from repro.experiments.common import make_experiment_data

        data_vocab = list(make_experiment_data(companies, seed=seed).corpus.vocabulary)
        payloads = payload_set(data_vocab)

        # ---- phase 1: single-worker baseline, own process ----------------
        with FleetSupervisor(
            factory,
            n_workers=1,
            state_dir=Path(tmp) / "state-single",
            store=store,
        ) as single:
            single.wait_ready(timeout=120)
            single_report = run_closed_loop(
                single.fleet_url,
                payloads,
                threads=threads,
                duration_s=duration_s,
                extended_percentiles=extended_percentiles,
            )

        # ---- phase 2: the fleet, same load, faults riding along ----------
        supervisor = FleetSupervisor(
            factory,
            n_workers=workers,
            state_dir=Path(tmp) / "state-fleet",
            store=store,
            poll_interval=0.1,
        )
        supervisor.start()
        try:
            supervisor.wait_ready(timeout=120)
            fleet_report: dict = {}
            chaos_notes: dict = {}

            def load() -> None:
                fleet_report.update(
                    run_closed_loop(
                        supervisor.fleet_url,
                        payloads,
                        threads=threads,
                        duration_s=duration_s,
                        extended_percentiles=extended_percentiles,
                    )
                )

            loader = threading.Thread(target=load, daemon=True)
            loader.start()
            time.sleep(duration_s * 0.25)
            memory = _worker_memory_evidence(
                list(supervisor.live_pids().values()), str(store.root)
            )
            if kill_worker:
                victim = next(iter(supervisor.live_pids().values()))
                os.kill(victim, _signal.SIGKILL)
                chaos_notes["killed_pid"] = victim
            if hotswap_under_load:
                _, models = build_demo_models(
                    companies, seed=seed, lda_iterations=lda_iterations
                )
                published = supervisor.publish(models)
                chaos_notes["published_generation"] = published.number
            loader.join(timeout=duration_s + 120)

            if kill_worker:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if (
                        supervisor.restarts >= 1
                        and len(supervisor.live_pids()) == workers
                    ):
                        break
                    time.sleep(0.1)
                chaos_notes["restarts"] = supervisor.restarts
                assert supervisor.restarts >= 1, "killed worker never restarted"
                assert len(supervisor.live_pids()) == workers, supervisor.live_pids()
            if hotswap_under_load:
                states = supervisor.wait_generation(
                    chaos_notes["published_generation"], timeout=60
                )
                probe = payloads[0]
                answers = []
                for state in states:
                    status, body, _ = _Client(state.direct_url).post(
                        "/recommend", probe
                    )
                    assert status == 200, (state.index, status, body)
                    answers.append(
                        (body["recommendations"], body["model_versions"])
                    )
                assert all(a == answers[0] for a in answers), (
                    "post-swap answers diverged across workers"
                )
                chaos_notes["post_swap_bit_identical"] = True

            # Flight-recorder audit: the load sends only valid payloads,
            # so the only explicable failed records are 429 sheds.
            unexplained: list[dict] = []
            for state in supervisor.workers():
                for record in _flight_failed_records(state.direct_url):
                    if record.get("status") != 429:
                        unexplained.append(record)
            assert not unexplained, (
                f"unexplained failed requests in worker flight recorders: "
                f"{unexplained[:5]}"
            )
        finally:
            supervisor.stop()

    speedup = (
        fleet_report["rps"] / single_report["rps"]
        if single_report.get("rps")
        else 0.0
    )
    server_5xx = [
        s
        for report in (single_report, fleet_report)
        for s in report["statuses"]
        if int(s) >= 500
    ]
    result = {
        "workers": workers,
        "threads": threads,
        "cores": cores,
        "effective_parallelism": effective,
        "duration_s": duration_s,
        "single": single_report,
        "fleet": fleet_report,
        "speedup": round(speedup, 3),
        "min_speedup": round(min_speedup, 3),
        "p99_slack": p99_slack,
        "memory": memory,
        "chaos": chaos_notes,
        "smoke": SMOKE,
    }
    registry = obs_metrics.get_registry()
    registry.gauge("bench.serve.fleet.single_rps").set(single_report["rps"])
    registry.gauge("bench.serve.fleet.fleet_rps").set(fleet_report["rps"])
    registry.gauge("bench.serve.fleet.speedup").set(result["speedup"])
    registry.gauge("bench.serve.fleet.min_speedup").set(result["min_speedup"])
    registry.gauge("bench.serve.fleet.single_p99_ms").set(single_report["p99_ms"])
    registry.gauge("bench.serve.fleet.fleet_p99_ms").set(fleet_report["p99_ms"])
    registry.gauge("bench.serve.fleet.workers").set(workers)
    mapped = [m["artifact_mapped_bytes"] for m in memory.values()]
    registry.gauge("bench.serve.fleet.artifact_mapped_mb").set(
        round(sum(mapped) / max(1, len(mapped)) / 1e6, 3)
    )
    rss = [m.get("rss_kb", 0) for m in memory.values() if "rss_kb" in m]
    if rss:
        registry.gauge("bench.serve.fleet.worker_rss_mb_mean").set(
            round(sum(rss) / len(rss) / 1024.0, 2)
        )

    assert not server_5xx, f"client-visible 5xx under fleet load: {server_5xx}"
    assert all(m["artifact_mapped_bytes"] > 0 for m in memory.values()), (
        f"a worker is not memory-mapping the model artifact: {memory}"
    )
    assert speedup >= min_speedup, (
        f"fleet RPS {fleet_report['rps']} is only {speedup:.2f}x the single "
        f"worker's {single_report['rps']} (floor {min_speedup:.2f}x at "
        f"{effective} effective cores)"
    )
    assert fleet_report["p99_ms"] <= single_report["p99_ms"] * p99_slack, (
        f"fleet p99 {fleet_report['p99_ms']}ms worse than single worker's "
        f"{single_report['p99_ms']}ms (slack {p99_slack}x)"
    )
    return result


def test_serve_coalescing_gate():
    """Pytest entry point: batched p50 < single p50 at 32-way concurrency."""
    result = run_coalescing_gate()
    assert result["p50_batched_ms"] < result["p50_single_ms"]
    assert result["batched_answers"] > 0


def test_serve_cache_swap_contract():
    """Pytest entry point: hot-swap invalidates the top-k cache."""
    result = run_cache_swap_contract()
    assert result["paths"] == ["single", "cached", "single", "cached"]


def test_serve_canary_gate():
    """Pytest entry point: drift rejected with 409, clean refit promoted."""
    result = run_canary_gate(companies=300)
    assert result["bit_identical_after_rejection"]
    assert result["promoted_version"] == 2


def test_serve_load_harness():
    """Pytest entry point: the full harness at smoke scale."""
    summary = run_harness(companies=150, requests=30, inject=True)
    assert summary["server_5xx"] == 0
    assert summary["phases"]["hotswap"]["bit_identical_after_rejection"]
    assert summary["phases"]["telemetry"]["burn_alert_tripped"]


def test_serve_telemetry_overhead():
    """Pytest entry point: the p50 telemetry-overhead gate."""
    result = run_overhead_gate()
    assert result["ratio"] <= result["limit"] or result["p50_on_ms"] <= (
        result["p50_off_ms"] * result["limit"] + 0.25
    )


def test_serve_fleet_gate():
    """Pytest entry point: fleet throughput + kill/hot-swap under load."""
    result = run_fleet_gate(
        workers=3,
        kill_worker=True,
        hotswap_under_load=True,
        extended_percentiles=True,
    )
    assert result["speedup"] >= result["min_speedup"]
    assert result["chaos"].get("restarts", 0) >= 1
    assert result["chaos"].get("post_swap_bit_identical") is True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--companies", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=60, help="mixed-traffic phase size")
    parser.add_argument(
        "--inject-faults",
        action="store_true",
        help="arm the hang / corrupt-model / swap-stall fault phases",
    )
    parser.add_argument("--json", metavar="PATH", default=None, help="write the summary here")
    parser.add_argument(
        "--overhead-gate",
        action="store_true",
        help="also run the p50 telemetry-overhead gate (adds ~30s)",
    )
    parser.add_argument(
        "--coalescing-gate",
        action="store_true",
        help="also run the micro-batching p50 gate at 32-way concurrency",
    )
    parser.add_argument(
        "--cache-contract",
        action="store_true",
        help="also assert a hot-swap invalidates the top-k result cache",
    )
    parser.add_argument(
        "--canary-gate",
        action="store_true",
        help="also run the replay-gated promotion contract: drifted "
        "candidate 409s bit-identically, clean refit promotes",
    )
    parser.add_argument(
        "--fleet-gate",
        action="store_true",
        help="also run the pre-fork fleet throughput gate (sustained "
        "closed-loop load against the shared SO_REUSEPORT port)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="fleet width for --fleet-gate"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="seconds per closed-loop load phase (default: mode-dependent)",
    )
    parser.add_argument(
        "--fleet-kill",
        action="store_true",
        help="SIGKILL one worker mid-load and assert restart with 0 5xx",
    )
    parser.add_argument(
        "--fleet-hotswap",
        action="store_true",
        help="publish a model generation mid-load and assert bit-identical "
        "convergence on every worker",
    )
    parser.add_argument(
        "--percentiles",
        action="store_true",
        help="report p99.9 and max alongside p50/p99 in load reports",
    )
    args = parser.parse_args(argv)
    summary = run_harness(
        companies=args.companies,
        seed=args.seed,
        requests=args.requests,
        inject=args.inject_faults,
        json_path=args.json,
    )
    if args.overhead_gate:
        summary["telemetry_overhead"] = run_overhead_gate(
            companies=args.companies, seed=args.seed
        )
    if args.coalescing_gate:
        summary["coalescing"] = run_coalescing_gate(
            companies=args.companies, seed=args.seed
        )
    if args.cache_contract:
        summary["cache_swap"] = run_cache_swap_contract(seed=args.seed)
    if args.canary_gate:
        # The contract needs a validation slice large enough that the
        # drift-corrupted candidate measurably diverges on replay.
        summary["canary"] = run_canary_gate(
            companies=max(args.companies, 300), seed=args.seed
        )
    if args.fleet_gate:
        summary["fleet"] = run_fleet_gate(
            companies=args.companies,
            seed=args.seed,
            workers=args.workers,
            duration_s=args.duration,
            kill_worker=args.fleet_kill,
            hotswap_under_load=args.fleet_hotswap,
            extended_percentiles=args.percentiles,
        )
    if args.json and (
        args.overhead_gate
        or args.coalescing_gate
        or args.cache_contract
        or args.canary_gate
        or args.fleet_gate
    ):
        Path(args.json).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    print(json.dumps(summary, indent=2))
    print("\nserve load harness: all contracts held (0 uncaught, 0 server 5xx)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
