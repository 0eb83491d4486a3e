"""Workload ``paper-pipeline``: the reproduction path, one fresh process per run.

``make_experiment_data(1000, seed)`` -> ``run_perplexity_table`` (all four
rows) -> ``run_recommendation_accuracy`` (retrain-per-window, the CLI
default, over ``WINDOWS`` windows) -> ``run_bpmf_analysis``, with
``n_jobs`` = the host's core count, ``PASSES`` times over, then the paper's
Section 6 tool on the same universe (``repro sales-demo``'s LDA3 and
``SalesRecommendationTool``): whitespace recommendations and similar
companies for every held-out account, timed call by call.

The measured child runs with one BLAS thread per process
(``BLAS_PINNED``).  In the default environment each pool worker starts as
many BLAS threads as there are cores, and the retrain-per-window stage then
took anywhere from 8 s to 89 s for the same inputs on a 2-core host, which
no run-time limit can absorb.  That oversubscription is a known defect, so
the traced run keeps it visible: a probe child times the same stage in the
default environment, inline and pooled, and reports the ratio as
``runtime.executor.pool_gain``.

The parent side (:func:`measure`) starts the children (this file run as a
script), times their set-up and collects their JSON results.  The traced
child enables ``repro.obs`` and reads pool-worker time from the spans
``ParallelMap`` merges into the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
N_COMPANIES = 1000
#: Sliding windows of the retrain-per-window evaluation (paper: 13).
WINDOWS = 2
#: Passes of the four stages in the measured child; ``pipeline_rel`` and
#: ``pipeline_s`` are per-pass means.  One pass spread up to 0.22 over ten
#: seeds on the 2-core host the benchmark was sized on, near the 0.25
#: bound; a second averages out more of the host's speed changes.  The
#: traced child makes one pass.
PASSES = 2
#: Passes of the Section 6 step over the held-out accounts: 40 passes over
#: the 200 held-out accounts give each reported Section 6 percentile 8000
#: samples (a p99 with 80 beyond it) for about a second of calls.
SECTION6_PASSES = 40
EXPECTED = os.path.join(HERE, "expected_pipeline.json")
#: Relative tolerance for "equal to the recorded value".
RECORDED_TOL = 1e-9
#: Environment of the measured children: one BLAS thread per process.
BLAS_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Longest the default-environment probe may run before it is stopped.  The
#: inline stage takes about 3 s, so a pooled stage still running at the
#: limit already shows the slowdown; the limit keeps a traced run short
#: when the pooled stage takes its worst (89 s seen).
PROBE_LIMIT_S = 30.0


def data_seed(seed: int) -> int:
    """The universe seed for benchmark seed ``seed`` (one with recorded values)."""
    with open(EXPECTED, encoding="utf-8") as handle:
        recorded = sorted(int(k) for k in json.load(handle)["seeds"])
    return recorded[seed % len(recorded)]


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------
def _cpu_s() -> float:
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def run_stages(seed: int, trace: bool) -> dict:
    """The four pipeline stages ``PASSES`` times (once when traced), then the
    Section 6 step."""
    import multiprocessing

    from host import peak_rss_mib, relative, yardstick_s
    from repro import obs
    from repro.experiments import (
        make_experiment_data,
        run_bpmf_analysis,
        run_perplexity_table,
        run_recommendation_accuracy,
    )
    from repro.recommend.windows import SlidingWindowSpec

    if trace:
        from repro.data.corpus import Corpus

        truncated_before = Corpus.truncated_before

        def traced_truncate(self, cutoff):
            with obs.trace.span("bench.corpus.truncate"):
                return truncated_before(self, cutoff)

        Corpus.truncated_before = traced_truncate
        obs.enable_all()
    n_jobs = os.cpu_count() or 1
    passes = []
    # A yardstick before the first stage and after each (``host.relative``);
    # their own CPU time is kept out of the pipeline's.
    yardsticks = [yardstick_s()]
    yardstick_cpu = 0.0
    cpu_before = _cpu_s()
    stages: dict[str, float] = {}

    def stage(name, fn):
        nonlocal yardstick_cpu
        started = time.perf_counter()
        value = fn()
        stages[name] = time.perf_counter() - started
        cpu_started = time.process_time()
        yardsticks.append(yardstick_s())
        yardstick_cpu += time.process_time() - cpu_started
        return value

    for _ in range(1 if trace else PASSES):
        stages = {}
        data = stage("data", lambda: make_experiment_data(N_COMPANIES, seed=seed))
        table = stage("table1", lambda: run_perplexity_table(data, n_jobs=n_jobs))
        curves = stage("fig34", lambda: run_recommendation_accuracy(
            data, spec=SlidingWindowSpec(n_windows=WINDOWS), retrain_per_window=True,
            n_jobs=n_jobs))
        bpmf = stage("fig56", lambda: run_bpmf_analysis(data))
        passes.append({
            "stages_s": stages,
            "table1": table,
            "lda_recall_phi0.1": curves["LDA3"].recall(0.1)[0],
            "fig34_observations": {name: sum(len(v) for v in c.observations.values())
                                   for name, c in curves.items()},
            "bpmf": {"frac_ge_0.9": bpmf["score_quantiles"]["frac_ge_0.9"],
                     "failed": bpmf.get("failed")},
        })
    multiprocessing.active_children()  # reap pool workers so their usage is counted
    times = [t for p in passes for t in p["stages_s"].values()]
    result = {
        "n_jobs": n_jobs,
        "passes": passes,
        "pipeline_s": sum(times) / len(passes),
        "pipeline_rel": relative(times, yardsticks) / len(passes),
        "yardsticks_s": yardsticks,
        "cpu_s": (_cpu_s() - cpu_before - yardstick_cpu) / len(passes),
        "section6": section6_step(data),
        "peak_rss_parent_mib": peak_rss_mib(),
        # The largest pool worker's high-water mark (Linux reports KiB).
        "peak_rss_worker_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if trace:
        result["spans"] = [root.as_dict() for root in obs.trace.roots()]
        result["counters"] = obs.metrics.snapshot()["counters"]
    return result


def section6_step(data) -> dict:
    """Section 6 on this universe: whitespace and similar companies, timed per call."""
    from repro.app import SalesRecommendationTool
    from repro.data.internal import InternalSalesDatabase
    from repro.models.lda import LatentDirichletAllocation

    corpus = data.corpus
    lda = LatentDirichletAllocation(n_topics=3, inference="variational", n_iter=80,
                                    seed=0).fit(corpus)
    tool = SalesRecommendationTool(corpus, lda.company_features(corpus),
                                   InternalSalesDatabase(corpus.companies, seed=0))
    recommend, similar = [], []
    problems = 0
    started = time.perf_counter()
    for _ in range(SECTION6_PASSES):
        for company in data.split.test.companies:
            duns = company.duns.value
            t0 = time.perf_counter()
            recs = tool.recommend_products(duns)
            t1 = time.perf_counter()
            hits = tool.similar_companies(duns, k=10)
            t2 = time.perf_counter()
            recommend.append(t1 - t0)
            similar.append(t2 - t1)
            sims = [h.similarity for h in hits]
            if (any(r.category in company.categories for r in recs)
                    or any(not 0.0 < r.strength <= 1.0 + 1e-9 for r in recs)
                    or sims != sorted(sims, reverse=True)
                    or any(h.duns == duns for h in hits) or len(hits) != 10):
                problems += 1
    return {"recommend_s": recommend, "similar_s": similar,
            "elapsed_s": time.perf_counter() - started,
            "requests": len(recommend) + len(similar), "problems": problems}


def pool_probe(seed: int) -> None:
    """Time the retrain-per-window stage inline, then pooled; print each as it lands."""
    from repro.experiments import make_experiment_data, run_recommendation_accuracy
    from repro.recommend.windows import SlidingWindowSpec

    data = make_experiment_data(N_COMPANIES, seed=seed)
    for name, n_jobs in (("inline_s", 1), ("pooled_s", os.cpu_count() or 1)):
        started = time.perf_counter()
        run_recommendation_accuracy(data, spec=SlidingWindowSpec(n_windows=WINDOWS),
                                    retrain_per_window=True, n_jobs=n_jobs)
        print(f"{name} {time.perf_counter() - started}", flush=True)


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="paper-pipeline child process")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    import repro.app  # noqa: F401 - the set-up being timed
    import repro.experiments  # noqa: F401

    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.probe:
        pool_probe(args.seed)
        return 0
    result = run_stages(args.seed, args.trace)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _child(root: str, extra: list[str], *, pinned: bool = True
           ) -> tuple[float, subprocess.Popen]:
    """Start a child; returns its set-up time (start to ``ready``) and the process."""
    from serving import program_env

    env = program_env(root)
    if pinned:
        env.update(BLAS_PINNED)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), *extra], cwd=root,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"pipeline child failed to start: {line}{proc.stdout.read()}")
    return setup, proc


def _finish(proc: subprocess.Popen, timeout: float = 150.0) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline child exited with {proc.returncode}:\n{out[-2000:]}")
    return out


def _run_child(root: str, seed: int, trace: bool) -> tuple[float, dict]:
    out_path = os.path.join(root, ".perfbench", "pipeline-child.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    setup, proc = _child(root, ["--seed", str(data_seed(seed)), "--out", out_path]
                         + (["--trace"] if trace else []))
    _finish(proc)
    with open(out_path, encoding="utf-8") as handle:
        return setup, json.load(handle)


def _probe(root: str, seed: int) -> dict[str, float]:
    """Inline and pooled stage times in the default environment.

    A pooled stage still running after ``PROBE_LIMIT_S`` is stopped; its
    time is then reported as the time it had run, a lower bound.
    """
    _, proc = _child(root, ["--seed", str(data_seed(seed)), "--probe"], pinned=False)
    times: dict[str, float] = {}
    started = time.perf_counter()

    def read() -> None:
        for line in proc.stdout:
            name, _, value = line.partition(" ")
            if name in ("inline_s", "pooled_s"):
                times[name] = float(value)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=PROBE_LIMIT_S)
    except BaseException:
        proc.kill()
        proc.wait()
    reader.join(10)
    proc.stdout.close()
    if "inline_s" not in times:
        raise RuntimeError("pool probe did not finish its inline stage")
    if "pooled_s" not in times:
        times["pooled_s"] = time.perf_counter() - started - times["inline_s"]
        times["pooled_capped"] = 1.0
    return times


def _checks(seed: int, result: dict) -> tuple[list[str], int, int]:
    """Correctness checks of every pass; returns (report lines, attempted, failed)."""
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)["seeds"][str(data_seed(seed))]
    lines, attempted, failed = [], 0, 0
    for number, one in enumerate(result["passes"], 1):
        pass_lines, pass_attempted, pass_failed = _check_pass(expected, one)
        lines += [f"pass {number}: {line}" for line in pass_lines]
        attempted += pass_attempted
        failed += pass_failed
    section6 = result["section6"]
    return lines, attempted + section6["requests"], failed + section6["problems"]


def _check_pass(expected: dict, result: dict) -> tuple[list[str], int, int]:
    """One pass's checks against the recorded values: (lines, cells, failed)."""
    lines, failed = [], 0
    table = result["table1"]
    order = sorted(table, key=table.get)
    ordered = order == ["lda", "lstm", "ngram", "unigram"]
    lines.append(f"table1 {json.dumps({k: round(v, 4) for k, v in table.items()})} "
                 f"order {'<'.join(order)} {'ok' if ordered else 'WRONG'}")
    failed += not ordered
    for name, want in expected["table1"].items():
        got = table.get(name, float("nan"))
        if not abs(got - want) <= RECORDED_TOL * abs(want):
            lines.append(f"table1 {name}: {got!r} != recorded {want!r}")
            failed += 1
    recall = result["lda_recall_phi0.1"]
    if not abs(recall - expected["lda_recall_phi0.1"]) <= RECORDED_TOL:
        lines.append(f"lda recall {recall!r} != recorded {expected['lda_recall_phi0.1']!r}")
        failed += 1
    failed += sum(1 for count in result["fig34_observations"].values() if count == 0)
    bpmf_ok = result["bpmf"]["failed"] is None and result["bpmf"]["frac_ge_0.9"] > 0.9
    failed += not bpmf_ok
    lines.append(f"lda_recall_phi0.1 {recall:.6f}; fig34 observations "
                 f"{result['fig34_observations']}; bpmf frac>=0.9 "
                 f"{result['bpmf']['frac_ge_0.9']:.4f} {'ok' if bpmf_ok else 'WRONG'}")
    cells = len(table) + len(result["fig34_observations"]) * WINDOWS + 1
    return lines, cells, failed


def _metrics(result: dict, setups: list[float], attempted: int, failed: int
             ) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """Gated end-to-end metrics and the reported ones of one child's result."""
    from serving import SLO_S
    from stats import percentile

    section6 = result["section6"]
    calls = section6["recommend_s"] + section6["similar_s"]
    gated = {
        "setup_s": statistics.median(setups),
        # Pipeline process plus its largest pool worker; pages the worker
        # shares with the parent after the fork count in both.
        "peak_rss_mib": result["peak_rss_parent_mib"] + result["peak_rss_worker_mib"],
        "answered_share": 1.0 - failed / attempted,
        # A constant here: the in-process tool has no degradation ladder.
        "primary_share": 1.0,
        # In effect a constant too: the in-process calls take well under a
        # millisecond against a 250 ms limit.
        "slo_share": sum(1 for c in calls if c <= SLO_S) / len(calls),
        "pipeline_rel": result["pipeline_rel"],
    }
    ms = 1000.0
    reported = {
        "pipeline_s": (result["pipeline_s"], "s"),
        "throughput_rps": (section6["requests"] / section6["elapsed_s"], "1/s"),
        "recommend_p50_ms": (percentile(section6["recommend_s"], 50) * ms, "ms"),
        "recommend_p99_ms": (percentile(section6["recommend_s"], 99) * ms, "ms"),
        "similar_p50_ms": (percentile(section6["similar_s"], 50) * ms, "ms"),
        "similar_p99_ms": (percentile(section6["similar_s"], 99) * ms, "ms"),
        "lda_recall_phi0.1": (result["passes"][0]["lda_recall_phi0.1"], "share"),
        "failed_share": (1.0 - gated["answered_share"], "share"),
        "degraded_share": (0.0, "share"),
    }
    return gated, reported


def measure(root: str, seed: int, *, trace: bool) -> dict:
    """Run the workload; returns the result ``run.py`` prints."""
    def setup_only() -> float:
        setup, proc = _child(root, ["--setup-only"])
        _finish(proc)
        return setup

    # One extra set-up before the measured child and one after it: this
    # host's speed drifts over tens of seconds; both ends average it.
    setups = [setup_only()]
    setup, result = _run_child(root, seed, trace=False)
    setups += [setup, setup_only()]
    lines, attempted, failed = _checks(seed, result)
    gated, reported = _metrics(result, setups, attempted, failed)
    stages = "; ".join(", ".join(f"{k} {v:.3f} s" for k, v in p["stages_s"].items())
                       for p in result["passes"])
    lines.insert(0, f"stages by pass: {stages}; n_jobs {result['n_jobs']} with {BLAS_PINNED}; "
                    f"cpu per pass {result['cpu_s']:.2f} s; yardsticks (s) "
                    f"{[round(y, 4) for y in result['yardsticks_s']]}; memory high-water mark "
                    f"{result['peak_rss_parent_mib']:.1f} MiB + largest pool worker "
                    f"{result['peak_rss_worker_mib']:.1f} MiB")
    lines.append(f"setup samples (s): {[round(s, 3) for s in setups]}; section6 "
                 f"{result['section6']['requests']} calls in "
                 f"{result['section6']['elapsed_s']:.3f} s")
    out = {
        "inputs": {"companies": N_COMPANIES, "data_seed": data_seed(seed), "windows": WINDOWS,
                   "passes": len(result["passes"]), "n_jobs": result["n_jobs"],
                   "section6_passes": SECTION6_PASSES},
        "end_to_end": gated,
        "reported": reported,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "report": lines,
    }
    if trace:
        traced_setup, traced = _run_child(root, seed, trace=True)
        _, t_attempted, t_failed = _checks(seed, traced)
        t_gated, t_reported = _metrics(traced, [traced_setup], t_attempted, t_failed)
        probe = _probe(root, seed)
        out["attempted"] += t_attempted
        out["failed"] += t_failed
        out["correct"] = out["correct"] and t_failed == 0
        out["per_layer"] = pipeline_layers(traced, probe)
        out["tracing_overhead"] = {
            **{k: t_gated[k] - gated[k] for k in gated},
            **{k: t_reported[k][0] - reported[k][0] for k in reported},
        }
        lines.append(f"default-environment probe: retrain-per-window stage inline "
                     f"{probe['inline_s']:.2f} s, pooled {probe['pooled_s']:.2f} s"
                     + (" (stopped at the limit)" if probe.get("pooled_capped") else ""))
    return out


MODELS = ("lstm", "lda", "ngram", "unigram", "chh", "bpmf")


def pipeline_layers(result: dict, probe: dict[str, float]) -> dict:
    """Per-layer metrics from the merged ``repro.obs`` span forest of a traced child."""
    walls: dict[str, float] = {}
    calls: dict[str, float] = {}
    map_s = task_s = 0.0

    def walk(node: dict) -> None:
        nonlocal map_s, task_s
        name = node["name"]
        walls[name] = walls.get(name, 0.0) + node.get("wall_s", 0.0)
        calls[name] = calls.get(name, 0.0) + node.get("n_calls", 0)
        if name == "runtime.parallel_map":
            map_s += node.get("wall_s", 0.0)
            task_s += sum(child.get("wall_s", 0.0) for child in node.get("children", ()))
        for child in node.get("children", ()):
            walk(child)

    for root in result["spans"]:
        walk(root)
    counters = result.get("counters", {})
    stages = result["passes"][0]["stages_s"]
    metrics = {
        "data.synthetic.generate_s": (walls.get("exp.data.simulate", 0.0), "s"),
        "data.corpus.split_s": (walls.get("exp.data.split", 0.0), "s"),
        "data.corpus.truncate_s": (walls.get("bench.corpus.truncate", 0.0), "s"),
    }
    for model in MODELS:
        metrics[f"models.{model}.fit_s"] = (walls.get(f"model.{model}.fit", 0.0), "s")
        metrics[f"models.{model}.fit_calls"] = (calls.get(f"model.{model}.fit", 0.0), "count")
    metrics["models.log_prob_s"] = (
        sum(v for k, v in walls.items() if k.startswith("model.") and k.endswith(".log_prob")), "s")
    for name in ("table1", "fig34", "fig56"):
        metrics[f"experiments.{name}_s"] = (stages[name], "s")
    metrics.update({
        "recommend.evaluation.self_s": (
            stages["fig34"] - _map_within(result, "exp.fig34.evaluate"), "s"),
        "runtime.executor.map_s": (map_s, "s"),
        "runtime.executor.task_s_sum": (task_s, "s"),
        "runtime.executor.speedup": (task_s / map_s if map_s else 0.0, "ratio"),
        "runtime.executor.pool_gain": (probe["inline_s"] / probe["pooled_s"], "ratio"),
        "runtime.executor.cpu_s": (result["cpu_s"], "s"),
        "runtime.executor.respawns": (counters.get("runtime.pool_respawn", 0.0), "count"),
        "runtime.executor.task_failed": (counters.get("runtime.task_failed", 0.0), "count"),
    })
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def _map_within(result: dict, name: str) -> float:
    """Wall of the ``runtime.parallel_map`` spans under the spans called ``name``."""
    total = 0.0

    def find(node: dict, inside: bool) -> None:
        nonlocal total
        inside = inside or node["name"] == name
        if inside and node["name"] == "runtime.parallel_map":
            total += node.get("wall_s", 0.0)
            return
        for child in node.get("children", ()):
            find(child, inside)

    for root in result["spans"]:
        find(root, False)
    return total


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
