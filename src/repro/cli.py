"""Command-line experiment runner: ``python -m repro <experiment>``.

Every paper artifact can be regenerated from the console::

    repro table1 --companies 2000
    repro lda-sweep
    repro lstm-grid --epochs 14      # alias: repro fig1 --dtype float32
    repro recommend --windows 13
    repro bpmf
    repro silhouette
    repro tsne --topics 3
    repro sequentiality
    repro cocluster
    repro sales-demo
    repro serve --companies 300 --port 8151

Robustness tooling rides the same corpus flags::

    repro scenario build /tmp/messy --pack messy-world --scenario-seed 3
    repro replay --windows 6 --canary --candidate-pack drift
    repro serve --canary 3            # replay-gated hot-swap promotion

All commands accept ``--companies`` and ``--seed`` to control the synthetic
universe, plus the observability flags ``--log-level``, ``--log-json PATH``,
``--trace`` and ``--profile``.  Output is plain fixed-width text; ``--trace``
appends a span-tree timing report covering every stage and model.

Runtime flags: ``--jobs N`` fans independent fits out over N worker
processes (results identical to ``--jobs 1``), ``--cache-dir PATH`` reuses
fitted models across runs via the content-addressed fit cache, and
``--metrics-json PATH`` dumps the run's counters (including ``cache.hit`` /
``cache.miss``) for scripted inspection.

Fault-tolerance flags: ``--retries N`` re-attempts each failed sweep cell,
``--task-timeout S`` bounds each pooled cell's wall clock,
``--checkpoint-dir PATH`` journals finished cells so ``--resume`` replays
them instead of re-running, and ``--inject-faults SPEC`` arms the
deterministic fault injectors (see :mod:`repro.runtime.faults`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Callable

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import report as obs_report
from repro.obs import trace as obs_trace
from repro.runtime import FitCache, RunJournal, faults as runtime_faults

from repro.experiments import (
    make_experiment_data,
    run_bpmf_analysis,
    run_cocluster_baseline,
    run_lda_sweep,
    run_lstm_grid,
    run_perplexity_table,
    run_recommendation_accuracy,
    run_sequentiality,
    run_silhouette_curves,
    run_tsne_projection,
)
from repro.experiments.fig34_recommendation import format_curves
from repro.experiments.sequentiality import PAPER_FRACTIONS
from repro.experiments.table1 import format_table
from repro.recommend.windows import SlidingWindowSpec

__all__ = ["main", "build_parser"]


def _add_global_options(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    """Attach the shared corpus + observability flags to ``parser``.

    The same options are registered on the main parser (with real
    defaults) and, defaults-suppressed, on every subparser — so
    ``repro --trace table1`` and ``repro table1 --trace`` both work.
    """

    def default(value: object) -> object:
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--companies", type=int, default=default(2000), help="synthetic corpus size"
    )
    parser.add_argument(
        "--seed", type=int, default=default(7), help="universe generation seed"
    )
    parser.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=default(None),
        help="run from a published columnar corpus directory (memmap-backed, "
        "bounded memory) instead of simulating; overrides --companies/--seed "
        "for data (build one with `repro corpus build DIR`)",
    )
    parser.add_argument(
        "--log-level",
        default=default("warning"),
        choices=("debug", "info", "warning", "error"),
        help="console log threshold",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=default(None),
        help="also append structured JSON-lines logs to PATH",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        default=default(False),
        help="record stage/model spans and print a timing report",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        default=default(False),
        help="capture the cProfile top hot functions (implies a report)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=default(1),
        metavar="N",
        help="worker processes for fit fan-out (1 = serial, -1 = all CPUs); "
        "results are identical for any value",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=default(None),
        help="content-addressed fit cache directory; reruns with the same "
        "corpus and hyperparameters reuse fitted models",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=default(None),
        help="write the run's metric counters (cache.hit/miss, runtime.tasks, "
        "recommend.*) as JSON to PATH",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=default(0),
        metavar="N",
        help="extra attempts per sweep cell after its first failure "
        "(0 = fail the cell immediately; failed cells degrade to recorded "
        "failures, they never abort the sweep)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=default(None),
        metavar="SECONDS",
        help="wall-clock budget per pooled sweep cell (--jobs > 1 only); "
        "a cell that exceeds it counts as one failed attempt",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=default(None),
        help="journal finished sweep cells under PATH; combine with "
        "--resume to skip them after an interruption",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        default=default(False),
        help="replay cells already journaled in --checkpoint-dir instead "
        "of re-running them (counted as journal.skip)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=default(None),
        help="arm deterministic fault injection, e.g. "
        "'crash:table1/s:lda' or 'segfault:fig1:times=1' — "
        "comma-separated mode:match[:opt=val[;opt=val]] specs "
        "(modes: crash, segfault, hang, corrupt)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for all experiment subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the EDBT 2019 hidden-layer-models experiments.",
    )
    _add_global_options(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _add_global_options(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser(
        "table1", help="Table 1: minimum perplexity per method", parents=[shared]
    )
    table1.add_argument(
        "--methods",
        metavar="LIST",
        default=None,
        help="comma-separated subset of table rows to compute "
        "(unigram, ngram, lstm, lda); default: all",
    )

    corpus_cmd = sub.add_parser(
        "corpus",
        help="build or inspect an on-disk columnar corpus",
        parents=[shared],
    )
    corpus_cmd.add_argument(
        "action", choices=["build", "info"], help="'build' simulates to DIR; "
        "'info' prints a built corpus's manifest summary"
    )
    corpus_cmd.add_argument("dir", metavar="DIR", help="corpus directory")
    corpus_cmd.add_argument(
        "--chunk-size",
        type=int,
        default=50_000,
        metavar="N",
        help="companies simulated per streamed batch; a single-chunk build "
        "(chunk-size >= companies) is bit-identical to the in-memory "
        "universe of the same (companies, seed)",
    )

    scenario_cmd = sub.add_parser(
        "scenario",
        help="build a corrupted messy-world corpus, or list scenario packs",
        parents=[shared],
    )
    scenario_cmd.add_argument(
        "action",
        choices=["build", "list"],
        help="'build' corrupts the corpus and writes it to DIR with its "
        "ground-truth manifest; 'list' prints the available packs",
    )
    scenario_cmd.add_argument(
        "dir", nargs="?", metavar="DIR", help="output corpus directory (build)"
    )
    scenario_cmd.add_argument(
        "--pack",
        default="messy-world",
        help="scenario pack to apply (see `repro scenario list`)",
    )
    scenario_cmd.add_argument(
        "--scenario-seed",
        type=int,
        default=0,
        metavar="N",
        help="corruption seed — same (pack, seed, corpus) always yields the "
        "same manifest digest and corpus fingerprint",
    )

    lda = sub.add_parser(
        "lda-sweep", help="Figure 2: LDA perplexity vs topics", parents=[shared]
    )
    lda.add_argument("--iterations", type=int, default=100)

    lstm = sub.add_parser(
        "lstm-grid",
        aliases=["fig1"],
        help="Figure 1: LSTM architecture grid (alias: fig1)",
        parents=[shared],
    )
    lstm.add_argument("--epochs", type=int, default=14)
    lstm.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float32",
        help="training precision: float32 uses the fast fused kernels "
        "(default), float64 replays the original double-precision "
        "arithmetic bit-for-bit",
    )

    rec = sub.add_parser(
        "recommend", help="Figures 3/4: recommendation accuracy", parents=[shared]
    )
    rec.add_argument("--windows", type=int, default=13)
    rec.add_argument(
        "--retrain",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="--retrain (default) follows the paper exactly: refit every "
        "model on the data before each window; --no-retrain trains once "
        "before the first window — much faster, approximate numbers",
    )

    replay_cmd = sub.add_parser(
        "replay",
        help="time-sliced replay of a frozen model, with optional canary",
        parents=[shared],
    )
    replay_cmd.add_argument(
        "--windows", type=int, default=6, help="sliding windows to replay"
    )
    replay_cmd.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        metavar="PHI",
        help="recommendation probability threshold applied per window",
    )
    replay_cmd.add_argument(
        "--model",
        choices=["lda", "ngram", "unigram"],
        default="lda",
        help="incumbent model family, fitted once on pre-window data",
    )
    replay_cmd.add_argument(
        "--canary",
        action="store_true",
        help="also fit a candidate and run the canary promotion gate "
        "(incumbent vs candidate on the same replayed windows)",
    )
    replay_cmd.add_argument(
        "--candidate-pack",
        default=None,
        metavar="PACK",
        help="corrupt the candidate's training data with this scenario pack "
        "first (e.g. 'drift' manufactures a rejectable candidate)",
    )
    replay_cmd.add_argument(
        "--candidate-seed",
        type=int,
        default=1,
        metavar="N",
        help="fit seed for the canary candidate (and the corruption seed "
        "when --candidate-pack is given)",
    )

    sub.add_parser(
        "bpmf", help="Figures 5/6: BPMF score degeneracy", parents=[shared]
    )
    sub.add_parser("silhouette", help="Figure 7: silhouette curves", parents=[shared])

    tsne = sub.add_parser(
        "tsne", help="Figures 8/9: t-SNE product projection", parents=[shared]
    )
    tsne.add_argument("--topics", type=int, default=3)

    sub.add_parser(
        "sequentiality", help="In-text binomial sequentiality test", parents=[shared]
    )
    sub.add_parser(
        "cocluster", help="Section 3.1 co-clustering baseline", parents=[shared]
    )
    sub.add_parser(
        "sales-demo", help="Section 6 sales tool walk-through", parents=[shared]
    )

    rank = sub.add_parser(
        "ranking", help="Extension: top-k ranking metrics", parents=[shared]
    )
    rank.add_argument("--k", type=int, default=5)

    serve = sub.add_parser(
        "serve",
        help="Section 6 tool as a resilient HTTP service",
        parents=[shared],
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8151, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        metavar="N",
        help="concurrent requests admitted before shedding with 429",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="default per-request deadline budget",
    )
    serve.add_argument(
        "--quarantine",
        metavar="PATH",
        default=None,
        help="append rejected payloads to PATH as JSON lines",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="2xx answers slower than this burn the latency SLO budget",
    )
    serve.add_argument(
        "--slo-fast-window",
        type=float,
        default=300.0,
        metavar="S",
        help="fast burn-rate window in seconds",
    )
    serve.add_argument(
        "--slo-slow-window",
        type=float,
        default=3600.0,
        metavar="S",
        help="slow burn-rate window in seconds",
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=64,
        metavar="N",
        help="flight-recorder slots per section (failed ring / slowest heap)",
    )
    serve.add_argument(
        "--no-request-spans",
        action="store_true",
        help="disable per-request span capture (flight records lose spans)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batching window coalescing concurrent /recommend "
        "scoring into one batched GEMM (0 disables batching)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=16,
        metavar="N",
        help="hard cap on coalesced batch size",
    )
    serve.add_argument(
        "--topk-cache",
        type=int,
        default=1024,
        metavar="N",
        help="entries in the generation-keyed top-k result cache "
        "(0 disables caching)",
    )
    serve.add_argument(
        "--canary",
        type=int,
        default=0,
        metavar="N",
        help="replay-based canary gate on /admin/hotswap: shadow-score the "
        "candidate against the incumbent over N sliding windows of the "
        "reference slice and reject regressions with a 409 (0 disables)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="pre-fork worker processes; >1 starts a shared-nothing fleet "
        "(SO_REUSEPORT kernel load-balancing) plus a least-loaded router",
    )
    serve.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="generation-numbered artifact store workers mmap models from "
        "(fleet mode; default: a temp dir, freshly published)",
    )
    serve.add_argument(
        "--router-port",
        type=int,
        default=0,
        metavar="PORT",
        help="fleet router bind port (0 picks a free one)",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="observability utilities against a running service",
        parents=[shared],
    )
    obs_cmd.add_argument("action", choices=["top"], help="'top': live terminal dashboard")
    obs_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8151",
        help="base URL of a running `repro serve` instance",
    )
    obs_cmd.add_argument(
        "--interval", type=float, default=2.0, metavar="S", help="poll interval"
    )
    obs_cmd.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until Ctrl-C)",
    )
    obs_cmd.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen",
    )

    sub.add_parser(
        "representations", help="Extension: representation families", parents=[shared]
    )
    return parser


#: Subcommand aliases journal under their canonical name, so ``repro fig1``
#: and ``repro lstm-grid`` resume from the same checkpoint file.
_CANONICAL_COMMANDS: dict[str, str] = {"fig1": "lstm-grid"}


def _build_journal(args: argparse.Namespace) -> RunJournal | None:
    """The run journal configured by ``--checkpoint-dir`` / ``--resume``.

    One JSONL file per (canonical) command; the journal's meta line pins
    the corpus identity so a checkpoint from a different ``--companies`` /
    ``--seed`` run is discarded rather than wrongly replayed.  With
    ``--corpus-dir`` the identity is the corpus's content fingerprint (read
    from its manifest), so a rebuilt-but-identical corpus still resumes and
    a changed one invalidates the checkpoint.
    """
    if not args.checkpoint_dir:
        return None
    command = _CANONICAL_COMMANDS.get(args.command, args.command)
    if getattr(args, "corpus_dir", None):
        from repro.data.columnar import manifest_fingerprint

        meta = {"command": command, "corpus": manifest_fingerprint(args.corpus_dir)}
    else:
        meta = {"command": command, "companies": args.companies, "seed": args.seed}
    os.makedirs(args.checkpoint_dir, exist_ok=True)
    return RunJournal(
        os.path.join(args.checkpoint_dir, f"{command}.journal.jsonl"),
        meta=meta,
        resume=args.resume,
    )


def _experiment_data(args: argparse.Namespace, *, needs_universe: bool = False):
    """The command's data: a memmap-backed load or an in-memory simulation.

    ``--corpus-dir`` opens the published columnar corpus (streamed,
    bounded memory).  Commands that consume simulator ground truth
    (``needs_universe=True``) cannot run from a published corpus — the
    manifest stores no latent mixtures — and reject the flag.
    """
    if getattr(args, "corpus_dir", None):
        if needs_universe:
            raise SystemExit(
                f"repro {args.command}: --corpus-dir is not supported here — "
                "this command needs simulator ground truth, which a published "
                "corpus does not carry; rerun with --companies/--seed"
            )
        from repro.experiments import load_corpus_data

        return load_corpus_data(args.corpus_dir)
    return make_experiment_data(args.companies, seed=args.seed)


def _runtime_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """The runtime / fault-tolerance flags as driver keyword arguments."""
    cache = FitCache(args.cache_dir) if args.cache_dir else None
    return {
        "n_jobs": args.jobs,
        "fit_cache": cache,
        "retries": args.retries,
        "task_timeout": args.task_timeout,
        "journal": _build_journal(args),
    }


def _cmd_table1(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    methods = None
    if args.methods:
        methods = tuple(
            name.strip() for name in args.methods.split(",") if name.strip()
        )
    try:
        results = run_perplexity_table(data, methods=methods, **_runtime_kwargs(args))
    except ValueError as exc:
        if "table1 method" in str(exc):
            raise SystemExit(f"repro table1: {exc}") from exc
        raise
    print(format_table(results))


def _cmd_corpus(args: argparse.Namespace) -> None:
    from repro.data.columnar import open_corpus, simulate_to_columnar

    if args.action == "build":
        started = time.perf_counter()
        manifest = simulate_to_columnar(
            args.dir,
            n_companies=args.companies,
            seed=args.seed,
            chunk_size=args.chunk_size,
        )
        elapsed = time.perf_counter() - started
        rate = manifest["n_companies"] / elapsed if elapsed > 0 else float("inf")
        print(f"built corpus at {args.dir}")
        print(f"  companies:   {manifest['n_companies']}")
        print(f"  tokens:      {manifest['n_tokens']}")
        print(f"  vocabulary:  {len(manifest['vocabulary'])} products")
        print(f"  fingerprint: {manifest['fingerprint']}")
        print(f"  build time:  {elapsed:.1f}s ({rate:,.0f} companies/s)")
        return
    from repro.data.columnar import MANIFEST_NAME

    corpus = open_corpus(args.dir)
    with open(os.path.join(args.dir, MANIFEST_NAME), encoding="utf-8") as handle:
        manifest = json.load(handle)
    total_bytes = sum(
        os.path.getsize(os.path.join(args.dir, spec["file"]))
        for spec in manifest["columns"].values()
    )
    print(f"corpus at {args.dir}")
    print(f"  companies:   {corpus.n_companies}")
    print(f"  tokens:      {manifest['n_tokens']}")
    print(f"  vocabulary:  {corpus.n_products} products")
    print(f"  fingerprint: {corpus.fingerprint()}")
    print(f"  on disk:     {total_bytes / 1e6:.1f} MB across "
          f"{len(manifest['columns'])} columns")


def _cmd_scenario(args: argparse.Namespace) -> None:
    from repro.scenarios import available_packs, write_scenario

    if args.action == "list":
        print(f"{'pack':<14} description")
        for name, description in available_packs().items():
            print(f"{name:<14} {description}")
        return
    if not args.dir:
        raise SystemExit("repro scenario build: the DIR argument is required")
    data = _experiment_data(args)
    started = time.perf_counter()
    result = write_scenario(
        data.corpus, args.dir, args.pack, seed=args.scenario_seed
    )
    elapsed = time.perf_counter() - started
    manifest = result.manifest
    print(f"built scenario corpus at {args.dir}")
    print(f"  pack:            {manifest.pack}")
    print(f"  scenario seed:   {manifest.seed}")
    print(f"  companies:       {result.corpus.n_companies}")
    print(f"  source corpus:   {manifest.source_fingerprint}")
    print(f"  result corpus:   {manifest.result_fingerprint}")
    print(f"  manifest digest: {manifest.digest()}")
    print(f"  build time:      {elapsed:.1f}s")
    print(f"  events:          {len(manifest.events)}")
    for kind, count in sorted(manifest.kinds().items()):
        print(f"    {kind:<18} {count}")


def _replay_model(family: str, train, *, seed: int):
    """Fit one frozen model of the requested family on ``train``."""
    if family == "lda":
        from repro.models.lda import LatentDirichletAllocation

        return LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=60, seed=seed
        ).fit(train)
    if family == "ngram":
        from repro.models.ngram import NGramModel

        return NGramModel(order=2).fit(train)
    from repro.models.unigram import UnigramModel

    return UnigramModel().fit(train)


def _print_replay_report(report) -> None:
    print(
        f"{'window':<12} {'companies':>9} {'retrieved':>9} {'correct':>8} "
        f"{'precision':>9} {'recall':>7} {'f1':>6} {'jsd':>7} {'drift':>5}"
    )
    for r in report.results:
        o = r.observation
        jsd = "     --" if r.js_divergence != r.js_divergence else f"{r.js_divergence:>7.4f}"
        precision = "      nan" if o.precision != o.precision else f"{o.precision:>9.3f}"
        f1 = "   nan" if o.f1 != o.f1 else f"{o.f1:>6.3f}"
        print(
            f"{o.window_start.isoformat():<12} {o.n_companies:>9} "
            f"{o.n_retrieved:>9} {o.n_correct:>8} {precision} "
            f"{o.recall:>7.3f} {f1} {jsd} {'yes' if r.drifted else 'no':>5}"
        )
    print(
        f"mean recall {report.mean_recall():.3f}, "
        f"mean precision {report.mean_precision():.3f}, "
        f"{report.windows_drifted}/{report.n_windows} windows drifted"
    )


def _cmd_replay(args: argparse.Namespace) -> None:
    from repro.replay import CanaryGate, ReplayHarness

    data = _experiment_data(args)
    corpus = data.corpus
    spec = SlidingWindowSpec(n_windows=args.windows)
    # Models fit on the full timeline, as serving artifacts do; the
    # harness then asks how each frozen artifact holds up window by
    # window as the traffic distribution moves.
    incumbent = _replay_model(args.model, corpus, seed=0)
    harness = ReplayHarness(
        corpus,
        spec=spec,
        threshold=args.threshold,
        n_jobs=args.jobs,
        retries=args.retries,
        task_timeout=args.task_timeout,
        journal=_build_journal(args),
    )
    report = harness.replay(incumbent, args.model)
    print(
        f"replay of frozen {args.model} over {args.windows} windows "
        f"(phi={args.threshold:g}):"
    )
    _print_replay_report(report)

    if not args.canary and not args.candidate_pack:
        return
    if args.candidate_pack:
        from repro.scenarios import build_scenario

        candidate_train = build_scenario(
            corpus, args.candidate_pack, seed=args.candidate_seed
        ).corpus
        candidate_desc = (
            f"{args.model} fitted on {args.candidate_pack!r}-corrupted data"
        )
    else:
        candidate_train = corpus
        candidate_desc = f"{args.model} refit with seed {args.candidate_seed}"
    candidate = _replay_model(args.model, candidate_train, seed=args.candidate_seed)
    # The label keys the candidate's journaled cells, so it names
    # everything the candidate's fit depends on.
    label = f"{args.model}-{args.candidate_pack or 'refit'}-seed{args.candidate_seed}"
    gate = CanaryGate(corpus, spec=spec, threshold=args.threshold)
    verdict = gate.compare(report, harness.replay(candidate, label))
    print(f"\ncanary: candidate is {candidate_desc}")
    _print_replay_report(verdict.candidate)
    status = "PROMOTE" if verdict.passed else "REJECT"
    print(f"\ncanary verdict: {status} ({verdict.reason})")
    print(f"  {verdict.detail}")
    for key, value in verdict.as_dict().items():
        if key in ("passed", "reason", "detail"):
            continue
        print(f"  {key}: {value}")


def _cmd_lda_sweep(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    rows = run_lda_sweep(data, n_iter=args.iterations, **_runtime_kwargs(args))
    print(f"{'input':<8} {'topics':>6} {'perplexity':>11} {'params':>7}")
    for row in rows:
        print(
            f"{row['input']:<8} {row['n_topics']:>6.0f} "
            f"{row['test_perplexity']:>11.2f} {row['n_parameters']:>7.0f}"
        )


def _cmd_lstm_grid(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    rows = run_lstm_grid(
        data, n_epochs=args.epochs, dtype=args.dtype, **_runtime_kwargs(args)
    )
    print(f"{'layers':>6} {'nodes':>6} {'perplexity':>11} {'params':>9}")
    for row in rows:
        print(
            f"{row['n_layers']:>6.0f} {row['nodes']:>6.0f} "
            f"{row['test_perplexity']:>11.2f} {row['n_parameters']:>9.0f}"
        )


def _cmd_recommend(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    curves = run_recommendation_accuracy(
        data,
        spec=SlidingWindowSpec(n_windows=args.windows),
        retrain_per_window=args.retrain,
        **_runtime_kwargs(args),
    )
    print(format_curves(curves))


def _cmd_bpmf(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    result = run_bpmf_analysis(
        data,
        fit_cache=FitCache(args.cache_dir) if args.cache_dir else None,
        retries=args.retries,
        journal=_build_journal(args),
    )
    quantiles = result["score_quantiles"]
    print("BPMF recommendation score distribution (Figure 5):")
    for key, value in quantiles.items():
        print(f"  {key:>12}: {value:.4f}")
    if "failed" in result:
        print(f"\nanalysis failed (recorded): {result['failed']}")
    print("\nThreshold sweep (Figure 6):")
    print(f"{'threshold':>9} {'precision':>9} {'recall':>7} {'f1':>7} {'retrieved':>10}")
    for row in result["threshold_rows"]:
        print(
            f"{row['threshold']:>9.2f} {row['precision']:>9.3f} "
            f"{row['recall']:>7.3f} {row['f1']:>7.3f} {row['retrieved']:>10.0f}"
        )


def _cmd_silhouette(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    rows = run_silhouette_curves(data)
    print(f"{'representation':<14} {'clusters':>8} {'silhouette':>11}")
    for row in rows:
        print(
            f"{row['representation']:<14} {row['n_clusters']:>8.0f} "
            f"{row['silhouette']:>11.3f}"
        )


def _cmd_tsne(args: argparse.Namespace) -> None:
    data = _experiment_data(args, needs_universe=True)
    result = run_tsne_projection(data, n_topics=args.topics)
    print(f"t-SNE of LDA{args.topics} product embeddings (Figures 8/9):")
    for category, (x, y) in sorted(result["coordinates"].items()):
        print(f"  {category:<26} {x:>8.2f} {y:>8.2f}")
    print(f"hardware group distance ratio: {result['hardware_ratio']:.3f} (<1 = co-located)")
    print(f"software group distance ratio: {result['software_ratio']:.3f} (<1 = co-located)")
    print(f"profile-core distance ratio:   {result['profile_core_ratio']:.3f} (<1 = co-located)")


def _cmd_sequentiality(args: argparse.Namespace) -> None:
    data = _experiment_data(args)
    reports = run_sequentiality(data)
    print(f"{'order':>5} {'significant':>11} {'distinct':>8} {'fraction':>8} {'paper':>6}")
    for order, report in reports.items():
        print(
            f"{order:>5} {report.n_significant:>11} {report.n_distinct:>8} "
            f"{report.significant_fraction:>8.2f} {PAPER_FRACTIONS[order]:>6.2f}"
        )


def _cmd_cocluster(args: argparse.Namespace) -> None:
    data = _experiment_data(args, needs_universe=True)
    result = run_cocluster_baseline(data)
    print("co-cluster summaries (rows x cols, density):")
    for summary in result["summaries"]:
        print(
            f"  cluster {summary['cluster']:.0f}: {summary['n_rows']:.0f} x "
            f"{summary['n_cols']:.0f}, density {summary['density']:.3f}"
        )
    print(f"densest cluster products: {result['densest_cluster_products']}")
    print(f"overlap with top-quartile popular products: {result['popular_overlap']:.2f}")
    print(f"row-cluster purity vs true profiles: {result['profile_purity']:.2f}")
    print(f"k-means-on-LDA-features purity:       {result['lda_feature_purity']:.2f}")


def _cmd_sales_demo(args: argparse.Namespace) -> None:
    from repro.app import FirmographicFilter, SalesRecommendationTool
    from repro.data.internal import InternalSalesDatabase
    from repro.models.lda import LatentDirichletAllocation

    data = _experiment_data(args)
    corpus = data.corpus
    lda = LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=80, seed=0
    ).fit(corpus)
    internal = InternalSalesDatabase(corpus.companies, seed=args.seed)
    tool = SalesRecommendationTool(corpus, lda.company_features(corpus), internal)
    target = corpus.companies[0]
    print(f"target: {target.name} ({target.duns}) — owns {sorted(target.categories)}")
    print("\ntop similar companies:")
    for hit in tool.similar_companies(target.duns.value, k=5):
        print(f"  {hit.name:<32} similarity {hit.similarity:.3f}")
    print("\nrecommendations (similar clients' whitespace):")
    for rec in tool.recommend_products(target.duns.value):
        print(
            f"  {rec.category:<26} strength {rec.strength:.3f} "
            f"({rec.n_supporters} supporters)"
        )
    industry_filter = FirmographicFilter(sic2=target.sic2)
    same_industry = tool.similar_companies(target.duns.value, k=3, filters=industry_filter)
    print(f"\nsame-industry matches (SIC2 {target.sic2}):")
    for hit in same_industry:
        print(f"  {hit.name:<32} similarity {hit.similarity:.3f}")


def _cmd_ranking(args: argparse.Namespace) -> None:
    from repro.models.chh import ConditionalHeavyHitters
    from repro.models.lda import LatentDirichletAllocation
    from repro.recommend.baselines import RandomRecommender
    from repro.recommend.ranking import evaluate_ranking

    data = _experiment_data(args)
    factories = {
        "LDA3": lambda: LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=80, seed=0
        ),
        "CHH": lambda: ConditionalHeavyHitters(depth=2),
        "random": lambda: RandomRecommender(),
    }
    print(f"{'model':<8} {'P@'+str(args.k):>7} {'R@'+str(args.k):>7} {'MRR':>6} {'nDCG':>6}")
    for name, factory in factories.items():
        report = evaluate_ranking(data.corpus, factory, k=args.k)
        print(
            f"{name:<8} {report.precision:>7.3f} {report.recall:>7.3f} "
            f"{report.mrr:>6.3f} {report.ndcg:>6.3f}"
        )


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.serve import ServiceConfig, ServiceHTTPServer, build_demo_service

    config = ServiceConfig(
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        quarantine_path=args.quarantine,
        slo_latency_threshold_ms=args.slo_latency_ms,
        slo_fast_window_s=args.slo_fast_window,
        slo_slow_window_s=args.slo_slow_window,
        flight_capacity=args.flight_capacity,
        request_spans=not args.no_request_spans,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
        topk_cache_size=args.topk_cache,
        canary_windows=args.canary,
    )
    if args.workers > 1:
        _serve_fleet(args, config)
        return
    service = build_demo_service(
        args.companies, seed=args.seed, config=config, corpus_dir=args.corpus_dir
    )
    server = ServiceHTTPServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} (Ctrl-C to stop)")
    print("endpoints: GET /healthz /readyz /metrics /slo "
          "/admin/debug /admin/profile; "
          "POST /recommend /similar /admin/hotswap")
    print(f"dashboard: repro obs top --url http://{host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    snapshot = service.metrics_snapshot()
    counters = {k: v for k, v in sorted(snapshot["counters"].items())}
    print("\nfinal counters:")
    for name, value in counters.items():
        print(f"  {name}: {value}")


def _serve_fleet(args: argparse.Namespace, config) -> None:
    """The `repro serve --workers N` path: pre-fork fleet + router."""
    import dataclasses
    import tempfile
    from pathlib import Path

    from repro.serve import (
        ArtifactStore,
        FleetSupervisor,
        demo_service_factory,
        publish_demo_artifacts,
    )
    from repro.serve.router import start_router

    artifact_root = args.artifact_dir or tempfile.mkdtemp(prefix="repro-artifacts-")
    store = ArtifactStore(artifact_root)
    if store.generation() is None:
        print(f"publishing demo models to {artifact_root} ...")
        publish_demo_artifacts(
            store, args.companies, seed=args.seed, corpus_dir=args.corpus_dir
        )
    state_dir = Path(artifact_root) / "fleet-state"
    worker_config = dataclasses.replace(config, reuse_port=True)
    supervisor = FleetSupervisor(
        demo_service_factory(
            store,
            args.companies,
            seed=args.seed,
            config=worker_config,
            corpus_dir=args.corpus_dir,
        ),
        n_workers=args.workers,
        host=args.host,
        port=args.port,
        state_dir=state_dir,
        store=store,
    )
    supervisor.start()
    router_server = None
    try:
        states = supervisor.wait_ready()
        router_server, _thread = start_router(
            state_dir, host=args.host, port=args.router_port
        )
        router_host, router_port = router_server.server_address[:2]
        print(
            f"fleet of {args.workers} workers on {supervisor.fleet_url} "
            "(Ctrl-C to stop)"
        )
        for state in states:
            print(
                f"  worker {state.index}: pid {state.pid}, "
                f"direct {state.direct_url}, model generation {state.generation}"
            )
        print(f"router on http://{router_host}:{router_port} "
              "(GET /metrics /healthz /readyz /slo /fleet; POST routed)")
        print(f"dashboard: repro obs top --url http://{router_host}:{router_port}")
        print(f"hot-swap: publish a generation under {artifact_root} "
              "(workers poll the bump file; SIGHUP forces a re-check)")
        while True:
            import time

            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        if router_server is not None:
            router_server.shutdown()
            router_server.server_close()
        supervisor.stop()
    print(f"fleet drained ({supervisor.restarts} worker restart(s) during run)")


def _cmd_obs(args: argparse.Namespace) -> None:
    from repro.obs.top import run_top

    # Only "top" exists today (argparse enforces the choices).
    code = run_top(
        args.url,
        interval=args.interval,
        count=args.count,
        clear=not args.no_clear,
    )
    if code != 0:
        raise SystemExit(code)


def _cmd_representations(args: argparse.Namespace) -> None:
    from repro.experiments import run_representation_families

    data = _experiment_data(args, needs_universe=True)
    results = run_representation_families(data)
    print(f"{'family':<8} {'silhouette':>11} {'purity':>7}")
    for name, metrics in sorted(results.items(), key=lambda kv: -kv[1]["silhouette"]):
        print(f"{name:<8} {metrics['silhouette']:>11.3f} {metrics['profile_purity']:>7.3f}")


_COMMANDS: dict[str, Callable[[argparse.Namespace], None]] = {
    "table1": _cmd_table1,
    "corpus": _cmd_corpus,
    "scenario": _cmd_scenario,
    "replay": _cmd_replay,
    "lda-sweep": _cmd_lda_sweep,
    "lstm-grid": _cmd_lstm_grid,
    "fig1": _cmd_lstm_grid,
    "recommend": _cmd_recommend,
    "bpmf": _cmd_bpmf,
    "silhouette": _cmd_silhouette,
    "tsne": _cmd_tsne,
    "sequentiality": _cmd_sequentiality,
    "cocluster": _cmd_cocluster,
    "sales-demo": _cmd_sales_demo,
    "ranking": _cmd_ranking,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
    "representations": _cmd_representations,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script.

    Observability flags: ``--trace`` records stage/model spans and prints a
    timing report after the command's normal output; ``--profile`` adds the
    cProfile top hot functions; ``--log-level`` / ``--log-json`` configure
    the structured logger.  With all flags off the instrumented paths stay
    dormant (single flag checks).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.inject_faults:
        try:
            runtime_faults.parse_faults(args.inject_faults)
        except ValueError as exc:
            parser.error(f"--inject-faults: {exc}")
    try:
        obs.configure_logging(args.log_level.upper(), json_path=args.log_json)
    except OSError as exc:
        parser.error(f"--log-json: cannot open {args.log_json!r} ({exc.strerror})")
    if args.trace or args.profile:
        obs.enable_all()
    if args.metrics_json:
        obs_metrics.enable()
    if args.profile:
        obs_profile.enable()
    previous_env = {
        name: os.environ.get(name) for name in ("REPRO_FAULTS", "REPRO_FAULTS_STATE")
    }
    temp_state_dir: str | None = None
    if args.inject_faults:
        # The env vars inherit into pool workers; the state directory makes
        # times=N firing counts atomic across processes.
        os.environ["REPRO_FAULTS"] = args.inject_faults
        if args.checkpoint_dir:
            state_dir = os.path.join(args.checkpoint_dir, "fault-state")
            os.makedirs(state_dir, exist_ok=True)
        else:
            state_dir = temp_state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        os.environ["REPRO_FAULTS_STATE"] = state_dir
    log = obs.get_logger("cli")
    log.info(
        "command started",
        extra={"obs": {"command": args.command, "companies": args.companies,
                       "seed": args.seed}},
    )
    started = time.perf_counter()
    try:
        try:
            with obs_trace.span(f"cmd.{args.command}"), obs_profile.capture(
                f"cmd.{args.command}"
            ):
                _COMMANDS[args.command](args)
        except Exception:
            log.error("command failed", exc_info=True,
                      extra={"obs": {"command": args.command}})
            raise
    finally:
        for name, value in previous_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if temp_state_dir is not None:
            shutil.rmtree(temp_state_dir, ignore_errors=True)
    log.info(
        "command finished",
        extra={"obs": {"command": args.command,
                       "wall_s": round(time.perf_counter() - started, 3)}},
    )
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(obs_metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.trace or args.profile:
        log.info("run report", extra={"obs": obs_report.render_json()})
        print()
        print(obs_report.render_text())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
