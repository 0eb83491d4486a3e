"""The benchmark's span recorder and the per-layer metrics derived from it.

Spans are recorded from the benchmark's own files only:
:func:`instrument_classes` and :func:`instrument_service` wrap the entry
points of each serving layer -- at class level for models, the
recommender, the response encoder and the HTTP server, at instance level
on the service the CLI built -- and record, for every call, its name, start, end,
parent span and the request id the load generator sent.  Spans stay in
memory and are written out when the server stops.  A span's self time is
its duration minus the part of it that its children cover.

The micro-batcher scores queued requests on its own collector thread,
outside the request's context; such a ladder span is attributed to the
``serve.batch.submit`` span that was waiting for it (the one containing it
in time that has no ladder child of its own).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from stats import percentile_or_zero as pct

_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar("bench_span", default=None)
_RID: contextvars.ContextVar[str | None] = contextvars.ContextVar("bench_rid", default=None)


class Recorder:
    """In-memory span store: ``(id, parent, name, start, end, rid, thread, attrs)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.connections = 0
        self._ids = itertools.count(1)
        self._comparisons = threading.local()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None,
             request_id: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(result, args)`` annotates it."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _SPAN.get()
            span_id = next(self._ids)
            span_token = _SPAN.set(span_id)
            rid_token = _RID.set(request_id(args, kwargs)) if request_id else None
            rid = _RID.get()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                if rid_token is not None:
                    _RID.reset(rid_token)
                _SPAN.reset(span_token)
                extra = attrs(result, args) if attrs is not None and result is not None else {}
                self.spans.append((span_id, parent, name, start, end, rid,
                                   threading.get_ident(), extra))

        return wrapper

    # -- entity-resolution comparison counting ---------------------------
    def count_comparisons(self, fn: Callable) -> Callable:
        """Count calls of the string metric per thread (no span: too fine)."""
        local = self._comparisons

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local.n = getattr(local, "n", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def comparisons(self) -> int:
        """Comparisons made so far on the calling thread."""
        return getattr(self._comparisons, "n", 0)

    def dump(self, path: str, counters: dict[str, float]) -> None:
        """Write every span plus the server's counters to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "connections": self.connections,
                       "counters": counters}, handle)


def _header_rid(args: tuple, kwargs: dict) -> str | None:
    headers = kwargs.get("headers", args[3] if len(args) > 3 else None) or {}
    for key, value in headers.items():
        if key.lower() == "x-request-id":
            return value
    return None


def instrument_classes(recorder: Recorder) -> None:
    """Class- and module-level wrappers, installed before the server is built."""
    import repro.data.linkage as linkage
    import repro.serve as serve
    from repro.models.lda import LatentDirichletAllocation
    from repro.models.ngram import NGramModel
    from repro.recommend.recommender import ThresholdRecommender
    from repro.serve.service import ServiceResponse

    linkage.jaro_winkler_similarity = recorder.count_comparisons(
        linkage.jaro_winkler_similarity)
    ServiceResponse.payload = recorder.wrap(
        "serve.service.encode", ServiceResponse.payload, lambda r, a: {"bytes": len(r)})
    for cls, layer in ((LatentDirichletAllocation, "models.lda"), (NGramModel, "models.ngram")):
        cls.next_product_proba = recorder.wrap(
            f"{layer}.proba", cls.next_product_proba, lambda r, a: {"rows": 1})
        cls.batch_next_product_proba = recorder.wrap(
            f"{layer}.proba", cls.batch_next_product_proba, lambda r, a: {"rows": len(a[1])})
    ThresholdRecommender.recommend_scored = recorder.wrap(
        "recommend.recommender.recommend_scored", ThresholdRecommender.recommend_scored,
        lambda r, a: {"model": a[0].model.name, "empty": not r})
    for method in ("scores", "top_k"):
        setattr(ThresholdRecommender, method, recorder.wrap(
            f"recommend.recommender.{method}", getattr(ThresholdRecommender, method),
            lambda r, a: {"model": a[0].model.name}))

    base = serve.ServiceHTTPServer

    class CountingServer(base):
        """Counts accepted connections (one handler thread each)."""

        def process_request(self, request, client_address):
            recorder.connections += 1
            super().process_request(request, client_address)

    serve.ServiceHTTPServer = CountingServer


def instrument_service(recorder: Recorder, service: Any) -> None:
    """Instance-level wrappers on the service the CLI built."""
    wrap = recorder.wrap
    service.handle = wrap(
        "serve.service.handle", service.handle,
        lambda r, a: {"path": a[1], "status": r.status}, request_id=_header_rid)
    policy = service.policy
    policy.validate_recommend = wrap("serve.admission.validate", policy.validate_recommend)
    policy.validate_similar_detail = wrap("serve.admission.validate",
                                          policy.validate_similar_detail)
    if policy.resolver is not None:
        resolve = policy.resolver.resolve
        last = threading.local()

        def counted_resolve(name: str):
            before = recorder.comparisons()
            decision = resolve(name)
            last.n = recorder.comparisons() - before
            return decision

        policy.resolver.resolve = wrap(
            "data.linkage.resolve", counted_resolve,
            lambda r, a: {"status": r.status, "reason": r.reason, "comparisons": last.n})
    cache = service.topk_cache
    if cache is not None:
        cache.get = wrap("serve.topk_cache.get", cache.get, lambda r, a: {"hit": True})
        cache.put = wrap("serve.topk_cache.put", cache.put, lambda r, a: {"evicted": r})
        cache.invalidate = wrap("serve.topk_cache.invalidate", cache.invalidate,
                                lambda r, a: {"dropped": r})
    if service.batcher is not None:
        service.batcher.submit = wrap(
            "serve.batch.submit", service.batcher.submit,
            lambda r, a: {"batch_size": r.batch_size, "waited_ms": r.waited_ms,
                          "path": r.path})
    ladder = service.ladder
    first = ladder.tiers[0].name if ladder.tiers else None

    def ladder_attrs(results):
        return {"n": len(results),
                "degraded": sum(1 for x in results if x.tier != first),
                "timeouts": sum(1 for x in results for o in x.outcomes if o.status == "timeout")}

    ladder.score = wrap("serve.ladder.score", ladder.score, lambda r, a: ladder_attrs([r]))
    ladder.score_batch = wrap("serve.ladder.score_batch", ladder.score_batch,
                              lambda r, a: ladder_attrs(r))
    for tier in [*ladder.tiers, ladder.floor]:
        tier.scorer = wrap(f"serve.tier.{tier.name}", tier.scorer)
        if tier.batch_scorer is not None:
            tier.batch_scorer = wrap(f"serve.tier.{tier.name}", tier.batch_scorer)
    if service.tool is not None:
        tool = service.tool
        tool.similar_companies_detail = wrap("app.tool.similar", tool.similar_companies_detail)
        tool.refresh_features = wrap("app.tool.refresh", tool.refresh_features)
    registry = service.registry
    registry.swap = wrap("serve.registry.swap", registry.swap,
                         lambda r, a: {"status": r.status})
    registry._gate = wrap("serve.registry.validate", registry._gate)
    service.flight.record = wrap("obs.flight.record", service.flight.record)
    service.slo.record = wrap("obs.slo.record", service.slo.record)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class Span:
    """One recorded span with its resolved children."""

    __slots__ = ("id", "parent", "name", "start", "end", "rid", "thread", "attrs", "children")

    def __init__(self, row: list) -> None:
        (self.id, self.parent, self.name, self.start, self.end, self.rid,
         self.thread, self.attrs) = row
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the union of the children's intervals inside it."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


def load(path: str) -> dict:
    """Read a span dump written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build(dump: dict) -> list[Span]:
    """Spans with parents linked and collector-thread ladder spans attributed."""
    spans = [Span(row) for row in dump["spans"]]
    by_id = {s.id: s for s in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            by_id[span.parent].children.append(span)
    submits = sorted((s for s in spans if s.name == "serve.batch.submit"), key=lambda s: s.start)
    for span in spans:
        if span.parent is None and span.name.startswith("serve.ladder."):
            for submit in submits:
                if submit.start > span.start:
                    break
                if submit.end >= span.end and not any(
                        c.name.startswith("serve.ladder.") for c in submit.children):
                    submit.children.append(span)
                    span.parent = submit.id
                    _inherit_rid(span, submit.rid)
                    break
    return spans


def _inherit_rid(span: Span, rid: str | None) -> None:
    span.rid = rid
    for child in span.children:
        _inherit_rid(child, rid)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


#: Layers whose self times make up a ``/recommend`` request in the server.
RECOMMEND_LAYERS = ("serve.service.handle", "serve.admission.validate", "serve.topk_cache.get",
                    "serve.topk_cache.put", "serve.batch.submit", "serve.ladder.score",
                    "serve.ladder.score_batch", "serve.tier.lda", "serve.tier.ngram",
                    "serve.tier.popularity", "recommend.recommender.recommend_scored",
                    "recommend.recommender.scores", "recommend.recommender.top_k",
                    "models.lda.proba", "models.ngram.proba", "obs.flight.record",
                    "obs.slo.record")


def serving_layers(dump: dict, outcome: dict, overlapping: list) -> tuple[dict, dict]:
    """Per-layer metrics of a traced serving pass, plus the consistency checks."""
    spans = build(dump)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    handles = {s.rid: s for s in named["serve.service.handle"] if s.rid}
    by_path: dict[str, list[Span]] = defaultdict(list)
    for span in named["serve.service.handle"]:
        by_path[span.attrs.get("path", "")].append(span)

    overhead = []
    client = {}
    answered = [r for r in outcome["records"] if r.status is not None]
    for record in answered:
        handle = handles.get(record.request_id)
        if handle is not None:
            client[record.request_id] = record.done - record.sent
            overhead.append(record.done - record.sent - handle.duration)

    # Per-request self time of every layer (request-scoped spans only).
    per_request: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.rid is not None:
            per_request[span.rid][span.name] += span.self_time
    recommend_rids = [s.rid for s in by_path["/recommend"] if s.rid]
    layer_p50 = {
        layer: pct([per_request[rid].get(layer, 0.0) for rid in recommend_rids], 50)
        for layer in RECOMMEND_LAYERS
    }
    recommend_handle = [s.duration for s in by_path["/recommend"]]
    sum_p50 = sum(layer_p50.values())
    sum_mean = sum(_mean([per_request[rid].get(layer, 0.0) for rid in recommend_rids])
                   for layer in RECOMMEND_LAYERS)
    handle_mean = _mean([handles[rid].duration for rid in recommend_rids])
    handle_p50 = pct(recommend_handle, 50)
    rec_client = [client[r] for r in recommend_rids if r in client]
    rec_handle = [handles[r].duration for r in recommend_rids if r in client]
    rec_overhead = [c - h for c, h in zip(rec_client, rec_handle)]
    checks = {
        "layer_sum_ms": sum_p50 * 1000, "recommend_handle_p50_ms": handle_p50 * 1000,
        "layer_sum_ratio": sum_p50 / handle_p50 if handle_p50 else float("nan"),
        "layer_mean_ratio": sum_mean / handle_mean if handle_mean else float("nan"),
        # Means add exactly where medians of mixed (cached / scored) answers do not.
        "client_mean_ms": _mean(rec_client) * 1000,
        "handle_plus_overhead_mean_ms": (_mean(rec_handle) + _mean(rec_overhead)) * 1000,
        "matched": len(client), "answered": len(answered),
        "layer_self_p50_ms": {k: v * 1000 for k, v in layer_p50.items() if v},
    }
    # The verdict takes the means: self times add up exactly, so a ratio off 1
    # means spans were lost or misattributed.  Medians of a mix of answers
    # that did and did not fall back need not add; their ratio is reported.
    checks["layer_sum_ok"] = abs(checks["layer_mean_ratio"] - 1.0) <= 0.10
    checks["client_sum_ok"] = bool(rec_client) and len(client) == len(answered) and abs(
        checks["handle_plus_overhead_mean_ms"] / checks["client_mean_ms"] - 1.0) <= 0.10

    by_id = {s.id: s for s in spans}

    def outermost(name: str) -> list[Span]:
        """Calls of ``name`` not made from inside another call of it."""
        return [s for s in named[name]
                if s.parent is None or by_id.get(s.parent) is None
                or by_id[s.parent].name != name]

    resolves = named["data.linkage.resolve"]
    gets = named["serve.topk_cache.get"]
    submits = named["serve.batch.submit"]
    ladders = named["serve.ladder.score"] + named["serve.ladder.score_batch"]
    scored_requests = sum(s.attrs.get("n", 1) for s in ladders)
    lda_proba = [s for s in outermost("models.lda.proba") if s.rid is not None]
    lda_rank = [s for s in named["recommend.recommender.recommend_scored"]
                if s.attrs.get("model") == "lda"]
    lda_batches = [s.attrs["rows"] for s in lda_proba if s.attrs.get("rows", 1) > 1]
    counters = dump.get("counters", {})
    swaps = named["serve.registry.swap"]
    ms, us = 1000.0, 1e6
    events = outcome["tally"].events
    obs_per_request = [per_request[rid].get("obs.flight.record", 0.0)
                       + per_request[rid].get("obs.slo.record", 0.0) for rid in handles]
    metrics = {
        "serve.http.overhead_ms_p50": (pct(overhead, 50, ms), "ms"),
        "serve.http.overhead_ms_p99": (pct(overhead, 99, ms), "ms"),
        "serve.http.connections": (dump.get("connections", 0), "count"),
        "serve.service.recommend_ms_p50": (pct(recommend_handle, 50, ms), "ms"),
        "serve.service.recommend_ms_p99": (pct(recommend_handle, 99, ms), "ms"),
        "serve.service.similar_ms_p50": (pct([s.duration for s in by_path["/similar"]], 50, ms), "ms"),
        "serve.service.similar_ms_p99": (pct([s.duration for s in by_path["/similar"]], 99, ms), "ms"),
        "serve.service.self_ms_p50": (pct([s.self_time for s in handles.values()], 50, ms), "ms"),
        "serve.service.encode_us_p50": (pct([s.duration for s in named["serve.service.encode"]], 50, us), "us"),
        "serve.service.encode_bytes_mean": (_mean([s.attrs["bytes"] for s in named["serve.service.encode"]]), "bytes"),
        "obs.record_us_p50": (pct(obs_per_request, 50, us), "us"),
        "serve.admission.validate_us_p50": (pct([s.self_time for s in named["serve.admission.validate"]], 50, us), "us"),
        "serve.admission.rejected": (_counter(counters, "serve.rejected"), "count"),
        "serve.admission.shed": (_counter(counters, "serve.shed"), "count"),
        "data.linkage.resolve_calls": (len(resolves), "count"),
        "data.linkage.resolve_ms_p50": (pct([s.duration for s in resolves], 50, ms), "ms"),
        "data.linkage.resolve_ms_p99": (pct([s.duration for s in resolves], 99, ms), "ms"),
        "data.linkage.comparisons_per_resolve": (_mean([s.attrs["comparisons"] for s in resolves]), "count"),
        "data.linkage.fuzzy_share": (_mean([s.attrs["reason"] != "exact_normalized" for s in resolves]), "share"),
        "data.linkage.resolved_share": (_mean([s.attrs["status"] == "resolved" for s in resolves]), "share"),
        "data.linkage.wrong_link_share": (events["alias_wrong_link"] / events["alias_sent"]
                                          if events["alias_sent"] else 0.0, "share"),
        "serve.topk_cache.hit_share": (_mean([bool(s.attrs) for s in gets]), "share"),
        "serve.topk_cache.get_us_p50": (pct([s.duration for s in gets], 50, us), "us"),
        "serve.topk_cache.evictions": (sum(s.attrs.get("evicted", 0) for s in named["serve.topk_cache.put"]), "count"),
        "serve.topk_cache.invalidations": (sum(s.attrs.get("dropped", 0) for s in named["serve.topk_cache.invalidate"]), "count"),
        "serve.batch.submit_ms_p50": (pct([s.duration for s in submits], 50, ms), "ms"),
        "serve.batch.self_ms_p50": (pct([s.self_time for s in submits], 50, ms), "ms"),
        "serve.batch.queue_wait_ms_p99": (pct([s.attrs["waited_ms"] for s in submits if s.attrs], 99), "ms"),
        "serve.batch.size_mean": (_mean([s.attrs["batch_size"] for s in submits if s.attrs]), "count"),
        "serve.batch.coalesced_share": (_mean([s.attrs["batch_size"] > 1 for s in submits if s.attrs]), "share"),
        "serve.ladder.score_ms_p50": (pct([s.duration for s in ladders], 50, ms), "ms"),
        "serve.ladder.self_ms_p50": (pct([s.self_time for s in ladders], 50, ms), "ms"),
        "serve.ladder.fallbacks": (sum(s.attrs.get("degraded", 0) for s in ladders), "count"),
        "serve.ladder.timeouts": (sum(s.attrs.get("timeouts", 0) for s in ladders), "count"),
        "models.lda.proba_calls_per_request": (len(lda_proba) / scored_requests if scored_requests else 0.0, "count"),
        "models.lda.proba_us_p50": (pct([s.duration for s in lda_proba], 50, us), "us"),
        "models.lda.batch_rows_mean": (_mean(lda_batches), "count"),
        "models.ngram.proba_calls": (len(outermost("models.ngram.proba")), "count"),
        "recommend.recommender.fallback_share": (_mean([s.attrs.get("empty", False) for s in lda_rank]), "share"),
        "recommend.recommender.rank_us_p50": (pct([s.self_time for s in lda_rank], 50, us), "us"),
        "app.tool.similar_ms_p50": (pct([s.duration for s in named["app.tool.similar"]], 50, ms), "ms"),
        "app.tool.similar_ms_p99": (pct([s.duration for s in named["app.tool.similar"]], 99, ms), "ms"),
        "app.tool.refresh_ms_p50": (pct([s.duration for s in named["app.tool.refresh"]], 50, ms), "ms"),
        "serve.registry.swap_ms_p50": (pct([s.duration for s in swaps], 50, ms), "ms"),
        "serve.registry.validate_ms_p50": (pct([s.duration for s in named["serve.registry.validate"]], 50, ms), "ms"),
        "serve.registry.rejected": (sum(s.attrs.get("status") == "rejected" for s in swaps), "count"),
        "serve.registry.overlap_recommend_p99_ms": (pct([r.latency_s for r in overlapping if r.status == 200], 99, ms), "ms"),
        "serve.registry.version_skew": (events["version_skew"], "count"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, checks


def _counter(counters: dict[str, float], prefix: str) -> float:
    """Sum of a labelled counter's series (``name{...}`` keys)."""
    return sum(v for k, v in counters.items() if k == prefix or k.startswith(prefix + "{"))


def describe_checks(checks: dict) -> list[str]:
    """Report lines for the layer-sum and client-sum checks."""
    return [
        f"layer-sum check: /recommend layer self-time p50s sum to {checks['layer_sum_ms']:.3f} ms "
        f"vs handle p50 {checks['recommend_handle_p50_ms']:.3f} ms "
        f"(ratio {checks['layer_sum_ratio']:.3f}); layer self-time means over handle mean "
        f"{checks['layer_mean_ratio']:.4f} {'ok' if checks['layer_sum_ok'] else 'FAILED: run not correct'}",
        f"client-sum check: /recommend client mean {checks['client_mean_ms']:.3f} ms vs handle "
        f"+ serve.http overhead {checks['handle_plus_overhead_mean_ms']:.3f} ms; "
        f"{checks['matched']} of {checks['answered']} answers matched to a handle span by "
        f"request id {'ok' if checks['client_sum_ok'] else 'FAILED: run not correct'}",
        "  layer self p50 (ms): " + ", ".join(
            f"{k}={v:.3f}" for k, v in checks["layer_self_p50_ms"].items()),
    ]
