"""Workload ``hotset-swap``: sales reps on popular accounts while models change.

Open loop: a seeded Poisson schedule at ``RATE`` requests/s, one new
connection per request, at most two in flight.  Requests are Zipf-skewed
over a hot set of a few hundred test-split accounts, well under the
1024-entry top-k cache, and split between ``/recommend`` and ``/similar``
by D-U-N-S.  Name resolution and keep-alive are not touched.

The run has two phases at the same rate.  The reference phase has no
writes and gives the gated latency metrics.  In the swap phase an
operator thread posts ``/admin/hotswap`` every ``SWAP_EVERY_S``,
alternating two LDA artifacts the benchmark fitted on the same train
split with other seeds, so the cache, the registry and the similarity
features are rewritten beside cached reads; its reads give the
swap-overlap figures.  They are reported, not gated: at this commit a
swap sometimes stalls every read for its whole duration and sometimes
does not, so their run-to-run spread is far wider than any bound.

The traffic shape -- the rate, the Zipf skew, the hot-set size and the
even split between the endpoints -- is assumed, not measured: no access
log of sales reps is at hand.  Each constant below gives the reason for
its value.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

import numpy as np

from loadgen import Client, TransportError, open_loop
from serving import (
    K_SIMILAR,
    SLO_S,
    TOP_N,
    Reference,
    judge_recommend,
    judge_similar,
    send,
)
from stats import Tally, percentile

#: Accounts in the hot set: "a few hundred", well under the 1024-entry
#: cache, so every hot history stays cached once asked for.
HOT_SET = 300
#: Zipf exponent of account popularity (assumed).  At 1.1 the top account
#: draws 20% of requests and the top 10 draw 54%, so the cache is hit from
#: the first seconds, while the tail still gets asked.
ZIPF_S = 1.1
#: Requests in flight: one per core of the 2-core host the benchmark was sized on.
CONCURRENCY = 2
#: Offered rate of both phases (requests/s; assumed).  A round rate that
#: gives the no-write phase over 1000 samples per endpoint in a 16-s run
#: (0.6 x 16 s x 240/s / 2 = 1152, so Poisson and endpoint-split variation
#: seldom take it under 1000), for a p99 with ten samples beyond it; far
#: below what two fresh connections serve, so generator lateness stays
#: small (reported every run).
RATE = 240.0
#: Share of requests sent to ``/recommend``; the rest go to ``/similar``
#: (assumed: a rep opening an account sees both views).
RECOMMEND_SHARE = 0.5
#: Share of the run spent in the reference phase.
REF_SHARE = 0.6
#: Start-to-start period of the operator's swaps; the first comes 0.5 s
#: into the swap phase.  A swap takes 1.3-2.6 s at 20k companies, so swaps
#: never queue behind each other.
SWAP_EVERY_S = 4.0
#: The served top-k cache size (the CLI's ``--topk-cache`` default).
CACHE_CAPACITY = 1024


def _fit_artifacts(ref: Reference, folder: str) -> list[tuple[str, object]]:
    """Two gate-passing LDA artifacts fitted on the serving train split."""
    from repro.models.lda import LatentDirichletAllocation
    from repro.serve import ServiceConfig

    tolerance = ServiceConfig().swap_tolerance
    train, reference = ref.data.split.train, ref.data.split.validation
    incumbent = ref.lda_by_version[1].perplexity(reference)
    fitted = [
        LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=60, seed=lda_seed
        ).fit(train)
        for lda_seed in (101, 202)
    ]
    ppl_a, ppl_b = (model.perplexity(reference) for model in fitted)
    # The registry gates each candidate on the serving model's reference
    # perplexity times the swap tolerance; check every transition the
    # alternation makes before relying on it.
    if not (ppl_a <= tolerance * incumbent and ppl_b <= tolerance * ppl_a
            and ppl_a <= tolerance * ppl_b):
        raise RuntimeError(f"artifacts would fail the swap gate: {incumbent}, {ppl_a}, {ppl_b}")
    os.makedirs(folder, exist_ok=True)
    paths = []
    for name, model in zip(("lda_a", "lda_b"), fitted):
        path = os.path.join(folder, f"{name}.npz")
        model.save(path)
        paths.append((path, model))
    return paths


def prepare(ref: Reference, seed: int, root: str) -> dict:
    """Hot set, Zipf weights and the two swap artifacts."""
    rng = np.random.default_rng([seed, 2])
    test = list(ref.data.split.test.companies)
    chosen = rng.choice(len(test), size=HOT_SET, replace=False)
    hot = [
        {"duns": test[i].duns.value,
         "history": [c for c, _ in test[i].sorted_categories()]}
        for i in chosen
    ]
    weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_S
    weights /= weights.sum()
    artifacts = _fit_artifacts(ref, os.path.join(root, ".perfbench", "artifacts"))
    # Version 1 is the boot model; promotions alternate A, B, A, ...
    for version in range(2, 200):
        ref.add_lda(version, artifacts[version % 2][1])
    return {"hot": hot, "weights": weights, "artifacts": [p for p, _ in artifacts],
            "rng_seed": seed}


def schedule(plan: dict, seconds: float) -> list[tuple[float, tuple]]:
    """Poisson arrivals: ``(offset, (number, phase, endpoint, account))``.

    Phase 1 is the swap phase; ``number`` makes each request id unique.
    """
    rng = np.random.default_rng([plan["rng_seed"], 3])
    items = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / RATE)
        if t >= seconds:
            return items
        account = int(rng.choice(HOT_SET, p=plan["weights"]))
        endpoint = "/recommend" if rng.random() < RECOMMEND_SHARE else "/similar"
        items.append((t, (len(items), int(t >= seconds * REF_SHARE), endpoint, account)))


def warm_up(host: str, port: int, ref: Reference, plan: dict) -> None:
    """One request per endpoint before timing (the cache stays cold)."""
    client = Client(host, port, keep_alive=False)
    for company in ref.data.split.validation.companies[:3]:
        client.call("POST", "/similar", {"duns": company.duns.value, "k": K_SIMILAR})
    client.call("POST", "/recommend", {"history": list(range(30)), "top_n": TOP_N})


def run_load(host: str, port: int, plan: dict, seconds: float, prefix: str,
             hwm: Callable[[], float]) -> dict:
    """Both phases of the open loop, with the swap operator in the second.

    The server's memory high-water mark (``hwm``) is read as the swap
    phase begins, for the gated metric, and again at the end.  Whether a
    swap adds about 20 MiB to it varies from run to run, so only the end
    figure carries it.
    """
    items = schedule(plan, seconds)
    records = []
    lock = threading.Lock()
    swaps: list[dict] = []
    rss: dict[str, float] = {}
    stop = threading.Event()

    def run_item(item: tuple, due: float) -> None:
        number, phase, endpoint, account = item
        target = plan["hot"][account]
        payload = ({"history": target["history"], "top_n": TOP_N} if endpoint == "/recommend"
                   else {"duns": target["duns"], "k": K_SIMILAR})
        record = send(Client(host, port, keep_alive=False), endpoint, payload,
                      f"{prefix}{phase}-{number}", due,
                      {"account": account, "phase": phase,
                       "label": endpoint if phase == 0 else f"{endpoint}@swap"})
        with lock:
            records.append(record)

    def operator() -> None:
        client = Client(host, port, keep_alive=False)
        first = started + seconds * REF_SHARE + 0.5
        turn = 0
        while not stop.wait(max(0.0, first + turn * SWAP_EVERY_S - time.perf_counter())):
            if time.perf_counter() >= started + seconds:
                return
            if turn == 0:
                rss["before_writes"] = hwm()
            path = plan["artifacts"][turn % 2]
            turn += 1
            sent = time.perf_counter()
            try:
                status, body = client.call("POST", "/admin/hotswap",
                                           {"name": "lda", "path": path})
            except TransportError as exc:
                status, body = None, {"error": str(exc)}
            swaps.append({"sent": sent, "ack": time.perf_counter(), "status": status,
                          "body": body})

    started = time.perf_counter()
    swapper = threading.Thread(target=operator, daemon=True)
    swapper.start()
    try:
        elapsed = open_loop(items, run_item, concurrency=CONCURRENCY)
    finally:
        stop.set()
        swapper.join(60)
    end_mib = hwm()
    return {"records": records, "swaps": swaps, "elapsed_s": elapsed, "items": len(items),
            "rss_mib": rss.get("before_writes", end_mib), "rss_end_mib": end_mib}


def _versions(swaps: list[dict], sent: float, done: float) -> list[int]:
    """LDA versions that may have served a request in flight over [sent, done]."""
    live = 1
    possible = set()
    for swap in swaps:
        version = (swap["body"] or {}).get("version")
        if swap["status"] != 200 or version is None:
            continue
        if swap["ack"] < sent:
            live = max(live, version)
        elif swap["sent"] <= done:
            possible.add(version)
    possible.add(live)
    return sorted(possible)


def judge(ref: Reference, plan: dict, outcome: dict) -> tuple[Tally, dict, list[str]]:
    """Check every answer against the version that served it; account swaps.

    Returns the tally, the inputs' properties and the run-level problems
    (none on this workload: every check is per answer)."""
    tally = Tally()
    swaps = outcome["swaps"]
    for swap in swaps:
        if swap["status"] == 200:
            tally.ok("/admin/hotswap", swap["ack"] - swap["sent"])
        else:
            tally.fail("/admin/hotswap", f"status_{swap['status']}")
    seen = set()
    repeats = sent_recommend = 0
    for record in outcome["records"]:
        target = plan["hot"][record.meta["account"]]
        versions = _versions(swaps, record.sent, record.done)
        record.meta["overlaps_swap"] = any(
            s["sent"] <= record.done and s["ack"] >= record.due for s in swaps)
        if record.endpoint == "/recommend":
            key = tuple(target["history"])
            sent_recommend += 1
            repeats += key in seen
            seen.add(key)
            history = [ref.corpus.token(c) for c in target["history"]]
            judge_recommend(ref, record, history, versions, tally)
        else:
            judge_similar(ref, record, target["duns"], versions, tally)
    properties = {
        "recommend_sent": sent_recommend,
        "recommend_repeat_share": repeats / sent_recommend if sent_recommend else 0.0,
        "hot_set": HOT_SET,
        "distinct_hot_histories": len({tuple(a["history"]) for a in plan["hot"]}),
        "cache_capacity": CACHE_CAPACITY,
        "swaps": len(swaps),
    }
    return tally, properties, []


def throughput(outcome: dict) -> float:
    """Correct answers per second over both phases (the open loop's delivered rate)."""
    tally = outcome["tally"]
    answers = sum(len(v) for k, v in tally.latency_s.items() if k != "/admin/hotswap")
    return answers / outcome["elapsed_s"]


def overlap_records(outcome: dict) -> list:
    """``/recommend`` records due or in flight while a swap was."""
    return [r for r in outcome["records"]
            if r.endpoint == "/recommend" and r.meta.get("overlaps_swap")]


def describe(plan: dict) -> dict:
    """Input properties fixed before the run."""
    del plan
    return {"rate_rps": RATE, "concurrency": CONCURRENCY, "swap_every_s": SWAP_EVERY_S,
            "zipf_s": ZIPF_S, "recommend_share": RECOMMEND_SHARE, "reference_share": REF_SHARE}


def report(outcome: dict) -> list[str]:
    """Human-readable lines for this workload, including the swap phase."""
    ok_swaps = [s["ack"] - s["sent"] for s in outcome["swaps"] if s["status"] == 200]
    late = [(r.sent - r.due) * 1000 for r in outcome["records"] if r.meta["phase"] == 0]
    lines = [f"open loop: {outcome['items']} requests scheduled over "
             f"{outcome['elapsed_s']:.2f} s, {len(outcome['swaps'])} swaps; generator lateness "
             f"in the no-write phase p50 {percentile(late, 50):.2f} ms, "
             f"p99 {percentile(late, 99):.2f} ms, max {max(late):.2f} ms"]
    if ok_swaps:
        lines.append(f"  swap_p50_ms {percentile(ok_swaps, 50) * 1000:.1f} (n={len(ok_swaps)}); "
                     f"server memory high-water mark {outcome['rss_mib']:.1f} MiB before the "
                     f"swaps, {outcome['rss_end_mib']:.1f} MiB at the end")
    swap_phase = [r for r in outcome["records"] if r.meta["phase"] == 1 and r.status == 200]
    if swap_phase:
        latencies = [r.latency_s * 1000 for r in swap_phase]
        stalled = sum(1 for v in latencies if v > SLO_S * 1000)
        lines.append(f"  swap phase: n={len(latencies)} p50={percentile(latencies, 50):.1f} ms "
                     f"p99={percentile(latencies, 99):.1f} ms, {stalled} over the 250 ms SLO")
    return lines
