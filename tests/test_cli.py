"""Tests for the CLI experiment runner."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(["--companies", "100", "--seed", "3", "table1"])
        assert args.companies == 100
        assert args.seed == 3
        assert args.command == "table1"

    def test_all_commands_parse(self):
        for command in (
            "table1", "lda-sweep", "lstm-grid", "recommend", "bpmf",
            "silhouette", "tsne", "sequentiality", "cocluster", "sales-demo",
            "ranking", "serve", "representations",
        ):
            args = build_parser().parse_args([command])
            assert args.command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["make-coffee"])

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-json", "/tmp/x.jsonl",
             "--trace", "--profile", "table1"]
        )
        assert args.log_level == "debug"
        assert args.log_json == "/tmp/x.jsonl"
        assert args.trace and args.profile

    def test_observability_flags_default_off(self):
        args = build_parser().parse_args(["table1"])
        assert args.log_level == "warning"
        assert args.log_json is None
        assert not args.trace and not args.profile

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "--cache-dir", "/tmp/cache",
             "--metrics-json", "/tmp/m.json", "table1"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/cache"
        assert args.metrics_json == "/tmp/m.json"

    def test_runtime_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["table1", "--jobs", "2"])
        assert args.jobs == 2

    def test_runtime_flags_default_serial_uncached(self):
        args = build_parser().parse_args(["table1"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.metrics_json is None

    def test_fig1_alias_for_lstm_grid(self):
        args = build_parser().parse_args(["fig1"])
        assert args.command == "fig1"
        assert args.dtype == "float32"
        assert args.epochs == 14

    def test_lstm_grid_dtype_flag(self):
        args = build_parser().parse_args(["lstm-grid", "--dtype", "float64"])
        assert args.dtype == "float64"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lstm-grid", "--dtype", "float16"])

    def test_recommend_defaults_to_paper_protocol(self):
        args = build_parser().parse_args(["recommend"])
        assert args.retrain is True

    def test_recommend_no_retrain_fast_path(self):
        args = build_parser().parse_args(["recommend", "--no-retrain"])
        assert args.retrain is False

    def test_serve_flag_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8151
        assert args.max_inflight == 32
        assert args.deadline_ms == 250.0
        assert args.quarantine is None

    def test_serve_flags_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--max-inflight", "4", "--deadline-ms", "100",
             "--quarantine", "/tmp/q.jsonl"]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.max_inflight == 4
        assert args.deadline_ms == 100.0
        assert args.quarantine == "/tmp/q.jsonl"

    def test_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["--retries", "2", "--task-timeout", "30",
             "--checkpoint-dir", "/tmp/ckpt", "--resume",
             "--inject-faults", "crash:s:lda", "table1"]
        )
        assert args.retries == 2
        assert args.task_timeout == 30.0
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.resume is True
        assert args.inject_faults == "crash:s:lda"

    def test_fault_tolerance_flags_after_subcommand(self):
        args = build_parser().parse_args(
            ["table1", "--retries", "1", "--checkpoint-dir", "/tmp/c"]
        )
        assert args.retries == 1
        assert args.checkpoint_dir == "/tmp/c"

    def test_fault_tolerance_flags_default_off(self):
        args = build_parser().parse_args(["table1"])
        assert args.retries == 0
        assert args.task_timeout is None
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.inject_faults is None

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["--resume", "table1"])

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["--inject-faults", "explode:everywhere", "table1"])


class TestExecution:
    """Fast end-to-end runs on tiny corpora."""

    def test_sequentiality_command(self, capsys):
        assert main(["--companies", "120", "sequentiality"]) == 0
        out = capsys.readouterr().out
        assert "order" in out
        assert "paper" in out

    def test_sales_demo_command(self, capsys):
        assert main(["--companies", "120", "sales-demo"]) == 0
        out = capsys.readouterr().out
        assert "top similar companies" in out
        assert "recommendations" in out

    def test_cocluster_command(self, capsys):
        assert main(["--companies", "120", "cocluster"]) == 0
        out = capsys.readouterr().out
        assert "purity" in out

    def test_tsne_command(self, capsys):
        assert main(["--companies", "120", "tsne"]) == 0
        out = capsys.readouterr().out
        assert "server_HW" in out
        assert "distance ratio" in out

    def test_ranking_command(self, capsys):
        assert main(["--companies", "150", "ranking", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "P@3" in out
        assert "LDA3" in out


class TestServeImportPath:
    """What a server, a pipeline process and its pool workers load.

    ``scipy.stats`` costs a fresh process about 65 MiB and most of a
    second to import, and only the sequentiality test uses SciPy, so none
    of these processes may load any of it.  Each check needs a fresh interpreter: the test run has
    imported SciPy already.
    """

    @staticmethod
    def _run_fresh(script):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr

    def test_serving_start_leaves_scipy_unimported(self):
        self._run_fresh(
            "import sys\n"
            "import repro\n"
            "import repro.cli\n"
            "from repro.serve import ServiceConfig, build_demo_service\n"
            "config = ServiceConfig(batch_window_ms=2, topk_cache_size=1024)\n"
            "build_demo_service(300, seed=7, config=config)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )

    def test_reproduction_path_leaves_scipy_unimported(self):
        # Table 1's LDA row, Figures 5/6, a Figure 3 interval, and an LDA
        # fit in a pool worker, which reports its own modules.
        self._run_fresh(
            "import sys\n"
            "from repro.experiments import (make_experiment_data, run_bpmf_analysis,\n"
            "    run_perplexity_table, run_recommendation_accuracy)\n"
            "from repro.models.lda import LatentDirichletAllocation\n"
            "from repro.recommend.windows import SlidingWindowSpec\n"
            "from repro.runtime import ParallelMap\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "def fit_lda(corpus):\n"
            "    LatentDirichletAllocation(n_topics=3, inference='variational',\n"
            "                              n_iter=5, seed=0).fit(corpus)\n"
            "    return scipy_modules()\n"
            "data = make_experiment_data(200, seed=1)\n"
            "run_perplexity_table(data, methods=['lda'])\n"
            "run_bpmf_analysis(data, n_iter=4)\n"
            "curves = run_recommendation_accuracy(\n"
            "    data, spec=SlidingWindowSpec(n_windows=1), lstm_hidden=8, lstm_epochs=1)\n"
            "curves['LDA3'].recall(0.1)\n"
            "in_workers = ParallelMap(2).map(fit_lda, [data.corpus, data.corpus])\n"
            "assert in_workers == [[], []], in_workers\n"
            "assert not scipy_modules(), scipy_modules()\n"
        )


class TestObservabilityFlags:
    """End-to-end runs of the instrumented CLI paths."""

    @pytest.fixture(autouse=True)
    def _clean_obs_state(self):
        obs.disable_all()
        obs.reset_all()
        yield
        obs.disable_all()
        obs.reset_all()

    def test_trace_prints_timing_report(self, capsys, tmp_path):
        log_path = tmp_path / "run.jsonl"
        assert main(
            ["--companies", "120", "--trace", "--log-json", str(log_path),
             "sequentiality"]
        ) == 0
        out = capsys.readouterr().out
        assert "== timing report ==" in out
        assert "cmd.sequentiality" in out
        assert "exp.data.simulate" in out
        assert "exp.sequentiality.evaluate" in out
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        messages = {r["message"] for r in records}
        assert {"command started", "command finished", "run report"} <= messages
        report_record = next(r for r in records if r["message"] == "run report")
        assert report_record["trace"][0]["name"] == "cmd.sequentiality"

    def test_profile_prints_hot_functions(self, capsys):
        assert main(["--companies", "120", "--profile", "sequentiality"]) == 0
        out = capsys.readouterr().out
        assert "== profiles ==" in out
        assert "cmd.sequentiality" in out

    def test_warnings_after_main_reach_the_current_stderr(self, monkeypatch):
        import io
        import logging

        replaced = io.StringIO()
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", replaced)
        try:
            assert main(["--companies", "120", "sequentiality"]) == 0
            replaced.close()
            current = io.StringIO()
            monkeypatch.setattr(sys, "stderr", current)
            obs.get_logger("runtime").warning("a later warning")
        finally:
            logging.getLogger("repro").handlers.clear()
        assert "a later warning" in current.getvalue()
        assert "Logging error" not in current.getvalue()

    def test_flags_off_leave_observability_dormant(self, capsys):
        from repro.obs import metrics, trace

        assert main(["--companies", "120", "sequentiality"]) == 0
        assert not trace.is_enabled()
        assert trace.roots() == []
        assert metrics.snapshot()["counters"] == {}
        assert "timing report" not in capsys.readouterr().out

    def test_cache_and_metrics_json_round_trip(self, capsys, tmp_path):
        cache_dir = tmp_path / "fits"
        argv = [
            "--companies", "100", "--cache-dir", str(cache_dir),
            "recommend", "--windows", "2", "--no-retrain",
        ]
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(argv + ["--metrics-json", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        obs.disable_all()
        obs.reset_all()
        assert main(argv + ["--metrics-json", str(warm_json)]) == 0
        warm_out = capsys.readouterr().out
        assert cold_out == warm_out
        cold = json.loads(cold_json.read_text())["counters"]
        warm = json.loads(warm_json.read_text())["counters"]
        assert cold.get("cache.hit", 0) == 0
        assert cold["cache.miss"] > 0
        assert warm["cache.hit"] > 0
        assert warm.get("cache.miss", 0) == 0


class TestFaultToleranceFlow:
    """Crash injection, checkpointing and resume through the real CLI."""

    @pytest.fixture(autouse=True)
    def _clean_obs_state(self):
        obs.disable_all()
        obs.reset_all()
        yield
        obs.disable_all()
        obs.reset_all()

    BASE = ["--companies", "80", "--seed", "3", "table1"]

    def test_crash_checkpoint_resume_round_trip(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert main(self.BASE) == 0
        clean_out = capsys.readouterr().out

        obs.disable_all()
        obs.reset_all()
        assert main(
            self.BASE + ["--inject-faults", "crash:s:lda",
                         "--checkpoint-dir", str(ckpt)]
        ) == 0
        faulted_out = capsys.readouterr().out
        assert "failed" in faulted_out
        journal = (ckpt / "table1.journal.jsonl").read_text()
        assert '"status": "failed"' in journal
        assert journal.count('"status": "ok"') == 4

        obs.disable_all()
        obs.reset_all()
        metrics_json = tmp_path / "resume.json"
        assert main(
            self.BASE + ["--checkpoint-dir", str(ckpt), "--resume",
                         "--metrics-json", str(metrics_json)]
        ) == 0
        resumed_out = capsys.readouterr().out
        assert resumed_out == clean_out
        counters = json.loads(metrics_json.read_text())["counters"]
        assert counters["journal.skip"] == 4
        assert counters["journal.record"] == 1

    def test_fault_env_is_restored_after_run(self, capsys, tmp_path):
        import os as os_module

        assert main(self.BASE + ["--inject-faults", "crash:s:lda"]) == 0
        capsys.readouterr()
        assert "REPRO_FAULTS" not in os_module.environ
        assert "REPRO_FAULTS_STATE" not in os_module.environ


class TestCorpusCommands:
    def test_corpus_flags_parse(self):
        args = build_parser().parse_args(
            ["corpus", "build", "some-dir", "--chunk-size", "100"]
        )
        assert (args.command, args.action, args.dir) == ("corpus", "build", "some-dir")
        assert args.chunk_size == 100
        args = build_parser().parse_args(["--corpus-dir", "d", "table1"])
        assert args.corpus_dir == "d"
        assert build_parser().parse_args(["table1"]).corpus_dir is None

    def test_build_info_and_run_round_trip(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert main(
            ["--companies", "80", "--seed", "5", "corpus", "build", corpus_dir,
             "--chunk-size", "30"]
        ) == 0
        built_out = capsys.readouterr().out
        assert "fingerprint:" in built_out

        assert main(["corpus", "info", corpus_dir]) == 0
        info_out = capsys.readouterr().out
        # info reports the identical fingerprint the build printed
        fingerprint = [
            line.split()[-1] for line in built_out.splitlines() if "fingerprint" in line
        ][0]
        assert fingerprint in info_out

        assert main(
            ["table1", "--corpus-dir", corpus_dir, "--methods", "unigram"]
        ) == 0
        table_out = capsys.readouterr().out
        assert "unigram" in table_out

    def test_unknown_table1_method_rejected(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert main(["--companies", "40", "corpus", "build", corpus_dir]) == 0
        with pytest.raises(SystemExit, match="unknown table1 method"):
            main(["table1", "--corpus-dir", corpus_dir, "--methods", "nope"])

    def test_ground_truth_commands_reject_corpus_dir(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert main(["--companies", "40", "corpus", "build", corpus_dir]) == 0
        capsys.readouterr()
        for command in ("tsne", "cocluster", "representations"):
            with pytest.raises(SystemExit, match="ground truth"):
                main([command, "--corpus-dir", corpus_dir])


class TestScenarioCommand:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["scenario", "build", "out-dir", "--pack", "drift",
             "--scenario-seed", "9"]
        )
        assert (args.command, args.action, args.dir) == ("scenario", "build", "out-dir")
        assert args.pack == "drift"
        assert args.scenario_seed == 9

    def test_list_packs(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for pack in ("messy-world", "aliases", "drift", "mna"):
            assert pack in out

    def test_build_requires_dir(self):
        with pytest.raises(SystemExit, match="DIR argument"):
            main(["--companies", "60", "scenario", "build"])

    def test_build_is_deterministic_per_seed(self, capsys, tmp_path):
        argv = ["--companies", "60", "--seed", "5", "scenario", "build"]

        def digest_of(out):
            return [
                line.split()[-1]
                for line in out.splitlines()
                if "manifest digest" in line
            ][0]

        assert main(argv + [str(tmp_path / "a"), "--scenario-seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(argv + [str(tmp_path / "b"), "--scenario-seed", "3"]) == 0
        second = capsys.readouterr().out
        assert main(argv + [str(tmp_path / "c"), "--scenario-seed", "4"]) == 0
        third = capsys.readouterr().out
        assert digest_of(first) == digest_of(second)
        assert digest_of(first) != digest_of(third)
        assert "events:" in first

    def test_built_scenario_serves_other_commands(self, capsys, tmp_path):
        scenario_dir = str(tmp_path / "messy")
        assert main(
            ["--companies", "60", "scenario", "build", scenario_dir,
             "--pack", "aliases"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["table1", "--corpus-dir", scenario_dir, "--methods", "unigram"]
        ) == 0
        assert "unigram" in capsys.readouterr().out


class TestReplayCommand:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["replay", "--windows", "4", "--threshold", "0.2", "--model",
             "ngram", "--canary", "--candidate-pack", "drift",
             "--candidate-seed", "2"]
        )
        assert args.windows == 4
        assert args.threshold == 0.2
        assert args.model == "ngram"
        assert args.canary is True
        assert args.candidate_pack == "drift"
        assert args.candidate_seed == 2

    def test_replay_prints_window_table(self, capsys):
        assert main(
            ["--companies", "80", "replay", "--windows", "2", "--model",
             "unigram"]
        ) == 0
        out = capsys.readouterr().out
        assert "replay of frozen unigram over 2 windows" in out
        assert "precision" in out and "recall" in out
        assert "mean recall" in out

    def test_replay_canary_verdict_printed(self, capsys):
        assert main(
            ["--companies", "80", "replay", "--windows", "2", "--model",
             "unigram", "--canary"]
        ) == 0
        out = capsys.readouterr().out
        assert "canary verdict:" in out
        assert "recommendation_divergence" in out

    def test_replay_journal_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        argv = ["--companies", "80", "replay", "--windows", "2", "--model",
                "unigram", "--checkpoint-dir", ckpt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        obs.disable_all()
        obs.reset_all()
        metrics_json = str(tmp_path / "m.json")
        assert main(argv + ["--resume", "--metrics-json", metrics_json]) == 0
        second = capsys.readouterr().out
        assert first == second
        counters = json.loads((tmp_path / "m.json").read_text())["counters"]
        assert counters["journal.skip"] == 2

    def test_replay_canary_scores_each_model_once(self, capsys, monkeypatch):
        from repro.models.unigram import UnigramModel

        calls = []
        original = UnigramModel.batch_next_product_proba

        def counting(model, histories):
            calls.append(id(model))
            return original(model, histories)

        monkeypatch.setattr(UnigramModel, "batch_next_product_proba", counting)
        assert main(
            ["--companies", "80", "replay", "--windows", "3", "--model",
             "unigram", "--canary"]
        ) == 0
        capsys.readouterr()
        # One call per window for the incumbent, one for the candidate.
        assert sorted(Counter(calls).values()) == [3, 3]

    def test_replay_tables_share_the_drift_column(self, capsys):
        assert main(
            ["--companies", "200", "replay", "--windows", "3", "--model",
             "unigram", "--canary"]
        ) == 0
        incumbent, candidate = capsys.readouterr().out.split("canary: candidate")

        def drift_column(table):
            return [line.split()[-2:] for line in table.splitlines() if line[:2] == "20"]

        assert drift_column(incumbent) == drift_column(candidate)
        assert ["0.0663", "yes"] in drift_column(incumbent)

    def test_replay_honours_the_runtime_flags(self, capsys, tmp_path):
        argv = ["--companies", "80", "replay", "--windows", "2", "--model",
                "unigram", "--threshold", "0.02", "--canary"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == clean
        obs.disable_all()
        obs.reset_all()
        metrics_json = tmp_path / "m.json"
        assert main(
            argv + ["--retries", "1", "--inject-faults", "crash:/s:unigram/:times=1",
                    "--metrics-json", str(metrics_json)]
        ) == 0
        assert capsys.readouterr().out == clean
        counters = json.loads(metrics_json.read_text())["counters"]
        assert counters["runtime.task_retry"] == 1
        with pytest.raises(RuntimeError, match="'unigram' failed at window"):
            main(argv + ["--inject-faults", "crash:/s:unigram/"])

    def test_replay_fits_through_the_cache(self, capsys, tmp_path):
        argv = ["--companies", "80", "replay", "--windows", "2", "--model", "lda",
                "--canary", "--cache-dir", str(tmp_path / "fits")]
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(argv + ["--metrics-json", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        obs.disable_all()
        obs.reset_all()
        assert main(argv + ["--metrics-json", str(warm_json)]) == 0
        assert capsys.readouterr().out == cold_out
        cold = json.loads(cold_json.read_text())["counters"]
        warm = json.loads(warm_json.read_text())["counters"]
        # The incumbent (seed 0) and the candidate (seed 1) are two fits.
        assert cold["cache.miss"] == 2 and cold.get("cache.hit", 0) == 0
        assert warm["cache.hit"] == 2 and warm.get("cache.miss", 0) == 0

    def test_serve_canary_flag(self):
        assert build_parser().parse_args(["serve"]).canary == 0
        assert build_parser().parse_args(["serve", "--canary", "3"]).canary == 3
