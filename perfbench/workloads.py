"""The serving workloads' measurement passes and their end-to-end metrics.

A pass boots a server, drives one workload's load against it, stops it and
judges every recorded answer.  ``--trace 0`` is one untraced pass against
the shipped CLI process.  ``--trace 1`` makes that pass, then a second one
against the traced launcher (same CLI entry point, same inputs), derives
the per-layer metrics from its spans and reports the tracing overhead as
traced minus untraced for every end-to-end metric.
"""

from __future__ import annotations

import functools
import gc
import os
import signal
import statistics
import sys

import enrich
import hotset
import tracer
from host import between_yardsticks, peak_rss_mib
from serving import (
    SETUP_SAMPLES,
    SLO_S,
    Reference,
    ServerProcess,
    cli_args,
    correct,
    timed_build,
    timed_setups,
)
from stats import Tally, beyond, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
#: Warm model builds timed before the load and again after it.  One build
#: against its yardsticks varied about 9% within a run on the 2-core host
#: the benchmark was sized on; the median of four steadies ``pipeline_rel``.
BUILDS_PER_SIDE = 2


def end_to_end(tally: Tally, throughput: float, setups: list[float], rss_mib: float,
               builds: list[tuple[float, float]]
               ) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """Gated end-to-end metrics and the reported ones of one serving pass.

    ``builds`` are the benchmark's own warm builds of the served models
    (``build_demo_models``, the model pipeline the server runs at start),
    each as (wall time, wall time relative to the yardstick):
    ``pipeline_rel`` is the median of the relative times, ``pipeline_s``
    of the wall times.  Latency figures cover the no-write phase:
    ``/recommend`` and ``/similar`` as tallied under their plain endpoint
    labels.
    """
    endpoints = ("/recommend", "/similar")
    attempted = sum(len(tally.samples(e)) for e in endpoints) + sum(
        n for key, n in tally.failures.items() if key.split(":")[0] in endpoints)
    within = sum(1 for e in endpoints for v in tally.samples(e) if v <= SLO_S)
    gated = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_mib,
        "answered_share": 1.0 - tally.failed / tally.attempted,
        "primary_share": 1.0 - tally.events["degraded"] / max(tally.events["recommend_answers"], 1),
        "slo_share": within / attempted,
        "pipeline_rel": statistics.median(rel for _, rel in builds),
    }
    recommend = summarize(tally.samples("/recommend"), scale=1000.0)
    similar = summarize(tally.samples("/similar"), scale=1000.0)
    reported = {
        "throughput_rps": (throughput, "1/s"),
        "recommend_p50_ms": (recommend["p50"], "ms"),
        "recommend_p99_ms": (recommend["p99"], "ms"),
        "similar_p50_ms": (similar["p50"], "ms"),
        "similar_p99_ms": (similar["p99"], "ms"),
        "pipeline_s": (statistics.median(wall for wall, _ in builds), "s"),
        "failed_share": (1.0 - gated["answered_share"], "share"),
        "degraded_share": (1.0 - gated["primary_share"], "share"),
    }
    return gated, reported


def _one_pass(module, server: ServerProcess, ref: Reference, plan, seconds: float,
              prefix: str) -> dict:
    # The reference holds millions of objects; a full collection of them in
    # this process would stall the load generator, not the server.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        outcome = module.run_load(server.host, server.port, plan, seconds, prefix,
                                  functools.partial(peak_rss_mib, server.proc.pid))
    finally:
        gc.enable()
        code = server.stop()
    if code not in (0, -signal.SIGTERM):
        raise RuntimeError(f"server exited with {code}:\n" + "".join(server.output[-20:]))
    outcome["tally"], outcome["properties"], outcome["problems"] = module.judge(
        ref, plan, outcome)
    outcome["setup_s"] = server.setup_s
    return outcome


def measure(kind: str, root: str, seed: int, seconds: float, *, trace: bool) -> dict:
    """Run one serving workload; returns the result ``run.py`` prints."""
    module = enrich if kind == "enrich-keepalive" else hotset
    argv = [sys.executable, "-m", "repro", *cli_args()]
    # Set-up and build samples bracket the load phase: this host's speed
    # drifts over tens of seconds, and samples from both ends average it.
    setups = timed_setups(argv, root, 1)
    server = ServerProcess(argv, root).start()
    setups.append(server.setup_s)
    try:
        ref = Reference()
        # Timed builds must not walk the reference's millions of objects in
        # every collection, which the reference's own (cold) build did not.
        gc.freeze()
        builds = [between_yardsticks(timed_build) for _ in range(BUILDS_PER_SIDE)]
        plan = module.prepare(ref, seed, root)
        module.warm_up(server.host, server.port, ref, plan)
    except BaseException:
        server.stop()
        raise
    main = _one_pass(module, server, ref, plan, seconds, "u")
    # The judged records and the reference's answer memo live to the end of
    # the run; as with the reference above, the post-load builds must not
    # walk them in every collection (the last build ran up to 40% slower).
    gc.collect()
    gc.freeze()
    setups += timed_setups(argv, root, SETUP_SAMPLES - len(setups))
    builds += [between_yardsticks(timed_build) for _ in range(BUILDS_PER_SIDE)]
    tally = main["tally"]
    e2e, reported = end_to_end(tally, module.throughput(main), setups, main["rss_mib"], builds)
    report = module.report(main)
    report.append(f"setup samples (s): {[round(s, 3) for s in setups]}; "
                  f"warm model builds (s, relative): "
                  f"{[(round(w, 3), round(r, 3)) for w, r in builds]}; "
                  f"the reference's cold build {ref.build_s:.3f} s")
    report += _tally_lines(tally) + main["problems"]
    verdict = correct(tally, main["problems"])
    result = {
        "inputs": {**main["properties"], **module.describe(plan)},
        "end_to_end": e2e,
        "reported": reported,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": verdict,
        "report": report,
    }
    if trace:
        spans_path = os.path.join(root, ".perfbench", f"spans-{kind}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        traced_argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       "--spans", spans_path, "--", *cli_args()]
        traced_server = ServerProcess(traced_argv, root).start()
        try:
            module.warm_up(traced_server.host, traced_server.port, ref, plan)
        except BaseException:
            traced_server.stop()
            raise
        traced = _one_pass(module, traced_server, ref, plan, seconds, "t")
        traced_e2e, traced_reported = end_to_end(
            traced["tally"], module.throughput(traced), [traced["setup_s"]],
            traced["rss_mib"], builds)
        dump = tracer.load(spans_path)
        per_layer, checks = tracer.serving_layers(dump, traced, module.overlap_records(traced))
        result["per_layer"] = per_layer
        result["tracing_overhead"] = {
            **{k: traced_e2e[k] - e2e[k] for k in e2e},
            **{k: traced_reported[k][0] - reported[k][0] for k in reported},
        }
        result["layer_checks"] = checks
        result["attempted"] += traced["tally"].attempted
        result["failed"] += traced["tally"].failed
        # Spans that no longer add up to what the client saw mean the
        # per-layer figures are misattributed: the traced run is not correct.
        result["correct"] = (result["correct"] and correct(traced["tally"], traced["problems"])
                             and checks["layer_sum_ok"] and checks["client_sum_ok"])
        report += ["traced pass:"] + _tally_lines(traced["tally"]) + traced["problems"]
        report += tracer.describe_checks(checks)
    return result


def _tally_lines(tally: Tally) -> list[str]:
    lines = [f"attempted {tally.attempted}, failed {tally.failed}"
             + (f" {dict(tally.failures)}" if tally.failures else "")]
    if tally.events:
        lines.append(f"events {dict(sorted(tally.events.items()))}")
    for endpoint in sorted(tally.latency_s):
        s = summarize(tally.samples(endpoint), scale=1000.0)
        lines.append(f"  {endpoint}: n={s['n']} p50={s['p50']:.3f} ms p99={s['p99']:.3f} ms "
                     f"({beyond(s['n'], 99)} samples beyond p99)")
    return lines
