"""Workload ``enrich-keepalive``: a CRM batch-enrichment job (paper Section 6).

Closed loop, two keep-alive clients (one per core), against a 20k-company
server.  Each held-out (test-split) account in turn sends ``POST
/recommend`` with its real ordered history, then ``POST /similar`` by
D-U-N-S -- or, for the accounts ``repro.scenarios.AliasCorruption`` picks
at its default rate, by the name it perturbs, which is what a real CRM
feed sends.  That rate (0.25, the repository's own figure, also used by
the ``messy-world`` pack) is an assumption: no measured share of aliased
names in CRM feeds is at hand.  Histories are per-account, so the top-k
cache is mostly bypassed; the measured repeat share says how far.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from loadgen import Client, closed_loop
from serving import (
    K_SIMILAR,
    TOP_N,
    Reference,
    judge_alias,
    judge_recommend,
    judge_similar,
    relink_problems,
    send,
)
from stats import Tally

#: One keep-alive client per core of the 2-core host the benchmark was sized on.
CLIENTS = 2


def prepare(ref: Reference, seed: int, root: str) -> list[dict]:
    """The test-split accounts in turn from a seeded start, with seeded aliases."""
    del root
    from repro.scenarios.corruptions import AliasCorruption

    test = list(ref.data.split.test.companies)
    start = int(np.random.default_rng([seed, 0]).integers(len(test)))
    test = test[start:] + test[:start]
    _aliased, events = AliasCorruption().apply(
        test, ref.vocabulary, np.random.default_rng([seed, 1])
    )
    alias_of = {e.duns: e.after for e in events}
    out = []
    for company in test:
        duns = company.duns.value
        out.append(
            {
                "duns": duns,
                "history": [category for category, _ in company.sorted_categories()],
                "alias": alias_of.get(duns),
            }
        )
    return out


def run_load(host: str, port: int, work: list[dict], seconds: float, prefix: str,
             hwm: Callable[[], float]) -> dict:
    """Drive the closed loop; returns records, elapsed time, connections and the
    server's memory high-water mark (``hwm``) after the load."""
    records = []
    lock = threading.Lock()

    def run_job(client: Client, job: tuple[int, dict]) -> None:
        index, account = job
        rec = send(client, "/recommend", {"history": account["history"], "top_n": TOP_N},
                   f"{prefix}{index}r", None, {"account": index})
        if account["alias"] is not None:
            payload = {"name": account["alias"], "k": K_SIMILAR}
        else:
            payload = {"duns": account["duns"], "k": K_SIMILAR}
        sim = send(client, "/similar", payload, f"{prefix}{index}s", None, {"account": index})
        with lock:
            records.extend((rec, sim))

    jobs = iter(enumerate(work))
    elapsed, connections = closed_loop(
        lambda: Client(host, port, keep_alive=True), jobs, run_job,
        clients=CLIENTS, seconds=seconds,
    )
    return {"records": records, "elapsed_s": elapsed, "connections": connections,
            "rss_mib": hwm()}


def warm_up(host: str, port: int, ref: Reference, work: list[dict]) -> None:
    """Touch both endpoints before timing, outside the account stream.

    Validation-split companies and a 30-product history keep the warm-up
    out of the top-k cache entries the measured accounts could hit.
    """
    del work
    client = Client(host, port, keep_alive=True)
    try:
        for company in ref.data.split.validation.companies[:3]:
            client.call("POST", "/similar", {"duns": company.duns.value, "k": K_SIMILAR})
        client.call("POST", "/recommend", {"history": list(range(30)), "top_n": TOP_N})
    finally:
        client.close()


def throughput(outcome: dict) -> float:
    """Correct answers completed per second of the closed loop."""
    return len(outcome["tally"].samples("/recommend") + outcome["tally"].samples("/similar")) \
        / outcome["elapsed_s"]


def overlap_records(outcome: dict) -> list:
    """No swaps on this workload: nothing overlaps one."""
    del outcome
    return []


def describe(work: list[dict]) -> dict:
    """Input properties fixed before the run."""
    return {"accounts_available": len(work), "clients": CLIENTS, "first_account": work[0]["duns"],
            "alias_accounts": sum(a["alias"] is not None for a in work)}


def report(outcome: dict) -> list[str]:
    """Human-readable lines for this workload."""
    return [f"closed loop: {CLIENTS} keep-alive clients, {outcome['elapsed_s']:.2f} s, "
            f"{outcome['connections']} connections opened"]


def judge(ref: Reference, work: list[dict], outcome: dict) -> tuple[Tally, dict, list[str]]:
    """Check every answer; returns the tally, the inputs' properties and the
    run-level problems (aliased names relinked below the floor)."""
    records = outcome["records"]
    tally = Tally()
    seen: set[tuple[str, ...]] = set()
    repeats = sent_recommend = 0
    for record in records:
        account = work[record.meta["account"]]
        if record.endpoint == "/recommend":
            history = [ref.corpus.token(c) for c in account["history"]]
            key = tuple(account["history"])
            sent_recommend += 1
            repeats += key in seen
            seen.add(key)
            judge_recommend(ref, record, history, [1], tally)
        elif account["alias"] is not None:
            judge_alias(ref, record, account["duns"], tally)
        else:
            judge_similar(ref, record, account["duns"], [1], tally)
    similar_sent = sum(1 for r in records if r.endpoint == "/similar")
    properties = {
        "recommend_sent": sent_recommend,
        "recommend_repeat_share": repeats / sent_recommend if sent_recommend else 0.0,
        "similar_sent": similar_sent,
        "alias_share": tally.events["alias_sent"] / similar_sent if similar_sent else 0.0,
        "alias_wrong_link_share": (tally.events["alias_wrong_link"] / tally.events["alias_sent"]
                                   if tally.events["alias_sent"] else 0.0),
    }
    return tally, properties, relink_problems(tally)
