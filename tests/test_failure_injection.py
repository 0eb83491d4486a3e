"""Failure-injection tests: corrupt inputs, degenerate corpora, and the
deterministic fault injectors exercising the fault-tolerance layer.

Production feeds are messy; the library must fail loudly on corruption and
behave sensibly on degenerate-but-legal data.  Production *sweeps* die in
messier ways — worker raises, worker deaths, hangs, kills mid-run — and
the second half of this module injects each of those with fixed seeds and
asserts the sweep degrades or resumes exactly as documented.
"""

import datetime as dt
import json
import math
import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from repro.experiments import make_experiment_data, run_perplexity_table
from repro.models.base import NotFittedError
from repro.models.chh import ConditionalHeavyHitters
from repro.models.lda import LatentDirichletAllocation
from repro.models.lstm import LSTMModel
from repro.models.ngram import NGramModel
from repro.models.unigram import UnigramModel
from repro.obs import metrics
from repro.recommend.evaluation import RecommendationEvaluator
from repro.recommend.windows import SlidingWindowSpec
from repro.runtime import Ok, ParallelMap, RunJournal, TaskError, faults

VOCAB = ("a", "b", "c", "d")


def _company(i, tokens, year=2000):
    return Company(
        duns=DunsNumber.from_sequence(i),
        name=f"C{i}",
        country="US",
        sic2=80,
        first_seen={VOCAB[t]: dt.date(year, 1 + t, 1) for t in tokens},
    )


class TestCorruptModelFiles:
    def test_truncated_file_rejected(self, split, tmp_path):
        model = UnigramModel().fit(split.train)
        path = tmp_path / "model.npz"
        model.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            UnigramModel.load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"definitely not a numpy archive")
        with pytest.raises(Exception):
            UnigramModel.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            UnigramModel.load(tmp_path / "nope.npz")


class TestDegenerateCorpora:
    def test_identical_companies(self):
        corpus = Corpus([_company(i, [0, 1]) for i in range(12)], VOCAB)
        lda = LatentDirichletAllocation(
            n_topics=2, inference="variational", n_iter=15, seed=0
        ).fit(corpus)
        assert np.isfinite(lda.perplexity(corpus))
        # The predictive mass must concentrate on the two owned products.
        proba = lda.next_product_proba([0])
        assert proba[0] + proba[1] > 0.9

    def test_single_product_companies(self):
        corpus = Corpus([_company(i, [i % 4]) for i in range(8)], VOCAB)
        for model in (
            UnigramModel(),
            NGramModel(order=2),
            ConditionalHeavyHitters(depth=2),
        ):
            model.fit(corpus)
            assert np.isfinite(model.perplexity(corpus))

    def test_single_company_corpus(self):
        corpus = Corpus([_company(0, [0, 1, 2])], VOCAB)
        model = NGramModel(order=2).fit(corpus)
        assert np.isfinite(model.log_prob(corpus))

    def test_lstm_on_tiny_corpus(self):
        corpus = Corpus([_company(i, [0, 1, 2]) for i in range(6)], VOCAB)
        model = LSTMModel(
            hidden=4, n_epochs=1, batch_size=2, num_steps=3, seed=0
        ).fit(corpus)
        assert np.isfinite(model.perplexity(corpus))

    def test_lstm_rejects_stream_shorter_than_batch(self):
        corpus = Corpus([_company(0, [0])], VOCAB)
        with pytest.raises(ValueError, match="too short"):
            LSTMModel(hidden=4, n_epochs=1, batch_size=64, seed=0).fit(corpus)


class TestEvaluatorEdgeCases:
    def test_no_history_before_windows(self):
        # Every product appears after the only window's start: the harness
        # must fail loudly instead of returning silently empty curves.
        corpus = Corpus([_company(i, [0, 1], year=2015) for i in range(5)], VOCAB)
        evaluator = RecommendationEvaluator(
            corpus,
            spec=SlidingWindowSpec(n_windows=1),
            thresholds=[0.1],
            retrain_per_window=False,
        )
        with pytest.raises(ValueError, match="no sliding window"):
            evaluator.evaluate({"u": lambda: UnigramModel()})

    def test_no_ground_truth_is_fine(self):
        # History exists but nothing new appears inside the window: recall
        # is zero-relevant, precision NaN-safe.
        corpus = Corpus([_company(i, [0, 1], year=1999) for i in range(5)], VOCAB)
        evaluator = RecommendationEvaluator(
            corpus,
            spec=SlidingWindowSpec(n_windows=1),
            thresholds=[0.0],
            retrain_per_window=False,
        )
        curves = evaluator.evaluate({"u": lambda: UnigramModel()})
        assert curves["u"].recall(0.0)[0] == 0.0


class TestNotFittedEverywhere:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UnigramModel(),
            lambda: NGramModel(order=2),
            lambda: ConditionalHeavyHitters(),
            lambda: LSTMModel(hidden=4),
            lambda: LatentDirichletAllocation(n_topics=2),
        ],
    )
    def test_perplexity_requires_fit(self, factory, corpus):
        with pytest.raises(NotFittedError):
            factory().perplexity(corpus)


# ---------------------------------------------------------------------------
# Deterministic fault injection (repro.runtime.faults)
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_all()
    yield
    obs.disable_all()
    obs.reset_all()


@pytest.fixture
def fault_state(tmp_path, monkeypatch):
    """Route times=N firing markers to a per-test directory."""
    state = tmp_path / "fault-state"
    monkeypatch.setenv("REPRO_FAULTS_STATE", str(state))
    return state


def _faulted_task(payload):
    """Pool task that passes its site through the fault injectors."""
    faults.inject(payload["site"])
    return payload["value"]


class _UnscorableModel(UnigramModel):
    """Fits like the unigram baseline, raises when asked to score.

    Module level so it pickles into pool workers.
    """

    def batch_next_product_proba(self, histories):
        raise RuntimeError("scoring failed")


class _UnfittableModel(UnigramModel):
    """Raises when fitted; module level so it pickles into pool workers."""

    def fit(self, corpus):
        raise RuntimeError("fit failed")


class TestFaultSpecParsing:
    def test_basic_spec(self):
        (spec,) = faults.parse_faults("crash:table1/s:lda")
        assert spec.mode == "crash"
        assert spec.match == "table1/s:lda"
        assert spec.times is None

    def test_options_and_multiple_specs(self):
        one, two = faults.parse_faults(
            "segfault:fig1:times=2, hang:recommend:seconds=1.5;times=1"
        )
        assert (one.mode, one.match, one.times) == ("segfault", "fig1", 2)
        assert (two.mode, two.times, two.seconds) == ("hang", 1, 1.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            faults.parse_faults("explode:everywhere")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            faults.parse_faults("crash:x:bogus=1")

    def test_mode_without_match_rejected(self):
        with pytest.raises(ValueError, match="needs mode:match"):
            faults.parse_faults("crash")

    def test_empty_spec_text_is_no_faults(self):
        assert faults.parse_faults("") == ()
        assert faults.parse_faults(" , ") == ()


class TestInjectors:
    def test_crash_fires_at_matching_site(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "crash:victim")
        with pytest.raises(faults.InjectedFault):
            faults.inject("sweep/victim/i:0")

    def test_non_matching_site_untouched(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "crash:victim")
        faults.inject("sweep/innocent/i:0")

    def test_unset_env_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.inject("anything")

    def test_times_limits_firings(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "crash:victim:times=1")
        with pytest.raises(faults.InjectedFault):
            faults.inject("victim")
        faults.inject("victim")  # the single firing is spent

    def test_corrupt_garbles_matching_artifact(
        self, monkeypatch, fault_state, tmp_path
    ):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:cache/deadbeef")
        artifact = tmp_path / "entry.npz"
        artifact.write_bytes(b"pristine bytes, definitely a model")
        faults.corrupt_artifact(artifact, "cache/deadbeef")
        assert b"CORRUPTED-BY-FAULT-INJECTION" in artifact.read_bytes()

    def test_corrupt_ignores_other_sites(self, monkeypatch, fault_state, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:cache/deadbeef")
        artifact = tmp_path / "entry.npz"
        artifact.write_bytes(b"pristine")
        faults.corrupt_artifact(artifact, "cache/other")
        assert artifact.read_bytes() == b"pristine"

    def test_crash_mode_skips_corrupt_hook(self, monkeypatch, fault_state, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", "crash:cache")
        artifact = tmp_path / "entry.npz"
        artifact.write_bytes(b"pristine")
        faults.corrupt_artifact(artifact, "cache/deadbeef")
        assert artifact.read_bytes() == b"pristine"


class TestInjectedPoolFailures:
    def _payloads(self, sites):
        return [{"site": site, "value": i} for i, site in enumerate(sites)]

    def test_worker_raise_degrades_one_cell(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "crash:victim")
        payloads = self._payloads(["cell-0", "victim-1", "cell-2", "cell-3"])
        outcomes = ParallelMap(2).map_outcomes(_faulted_task, payloads)
        assert [type(o) for o in outcomes] == [Ok, TaskError, Ok, Ok]
        assert outcomes[1].error_type == "InjectedFault"
        assert [o.value for o in outcomes if isinstance(o, Ok)] == [0, 2, 3]

    def test_worker_segfault_recovers_with_retry(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "segfault:seg:times=1")
        payloads = self._payloads(["seg-0", "cell-1", "cell-2", "cell-3"])
        outcomes = ParallelMap(2, retries=1).map_outcomes(_faulted_task, payloads)
        assert all(isinstance(o, Ok) for o in outcomes)
        assert [o.value for o in outcomes] == [0, 1, 2, 3]

    def test_persistent_segfault_degrades_without_losing_siblings(
        self, monkeypatch, fault_state
    ):
        monkeypatch.setenv("REPRO_FAULTS", "segfault:seg")
        payloads = self._payloads(["seg-0", "cell-1", "cell-2"])
        outcomes = ParallelMap(2, retries=1).map_outcomes(_faulted_task, payloads)
        assert isinstance(outcomes[0], TaskError)
        assert [o.value for o in outcomes[1:]] == [1, 2]

    def test_hung_task_reaped_by_timeout(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "hang:slow:seconds=30")
        payloads = self._payloads(["slow-0", "cell-1", "cell-2", "cell-3"])
        outcomes = ParallelMap(2, task_timeout=1.0).map_outcomes(
            _faulted_task, payloads
        )
        assert isinstance(outcomes[0], TaskError)
        assert outcomes[0].error_type == "TimeoutError"
        assert [o.value for o in outcomes if isinstance(o, Ok)] == [1, 2, 3]
        # The hung worker was killed, not left to sleep out its hang.
        assert multiprocessing.active_children() == []

    def test_lone_hung_task_reaped_by_timeout(self, monkeypatch, fault_state):
        # A lone payload still runs in a worker, so the timeout applies.
        monkeypatch.setenv("REPRO_FAULTS", "hang:slow:seconds=3")
        [outcome] = ParallelMap(2, task_timeout=0.5).map_outcomes(
            _faulted_task, self._payloads(["slow-0"])
        )
        assert isinstance(outcome, TaskError)
        assert outcome.error_type == "TimeoutError"
        assert multiprocessing.active_children() == []

    def test_lone_segfault_fails_only_its_task(self, monkeypatch, fault_state):
        monkeypatch.setenv("REPRO_FAULTS", "segfault:seg")
        metrics.enable()
        [outcome] = ParallelMap(2).map_outcomes(
            _faulted_task, self._payloads(["seg-0"])
        )
        assert isinstance(outcome, TaskError)
        assert outcome.error_type == "BrokenProcessPool"
        # Nothing is left to run, so the poisoned pool is not respawned.
        assert metrics.snapshot()["counters"].get("runtime.pool_respawn", 0) == 0

    def test_lone_segfault_retried_respawns_once(self, monkeypatch, fault_state):
        # The first death requeues the task on a fresh pool; the second
        # leaves nothing outstanding and respawns nothing.
        monkeypatch.setenv("REPRO_FAULTS", "segfault:seg")
        metrics.enable()
        [outcome] = ParallelMap(2, retries=1).map_outcomes(
            _faulted_task, self._payloads(["seg-0"])
        )
        assert isinstance(outcome, TaskError)
        assert outcome.attempts == 2
        assert metrics.snapshot()["counters"]["runtime.pool_respawn"] == 1


class TestTable1FaultTolerance:
    """End-to-end: crash, degrade, kill, resume on the Table 1 sweep."""

    TABLE1_KWARGS = dict(lstm_epochs=2, lda_iter=10, lstm_hidden=8)
    META = {"companies": 100, "seed": 3}

    @pytest.fixture(scope="class")
    def table_data(self):
        return make_experiment_data(100, seed=3)

    @pytest.fixture(scope="class")
    def baseline(self, table_data):
        return run_perplexity_table(table_data, **self.TABLE1_KWARGS)

    def test_injected_crash_fails_only_that_cell(
        self, table_data, baseline, monkeypatch, fault_state
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:s:lda")
        degraded = run_perplexity_table(table_data, **self.TABLE1_KWARGS)
        assert math.isnan(degraded["lda"])
        for name in ("unigram", "ngram", "lstm"):
            assert degraded[name] == baseline[name]

    def test_retry_absorbs_transient_crash(
        self, table_data, baseline, monkeypatch, fault_state
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:s:lda:times=1")
        recovered = run_perplexity_table(
            table_data, retries=1, **self.TABLE1_KWARGS
        )
        assert recovered == baseline

    def test_resume_after_kill_reruns_only_unjournaled_cells(
        self, table_data, baseline, tmp_path
    ):
        # A full run's journal, then a copy truncated to its first two
        # cells — exactly what a kill between fsyncs leaves behind.
        full = tmp_path / "full.journal.jsonl"
        journal = RunJournal(full, meta=self.META)
        run_perplexity_table(table_data, journal=journal, **self.TABLE1_KWARGS)
        lines = full.read_text().splitlines()
        assert len(lines) == 6  # meta + 5 cells
        truncated = tmp_path / "killed.journal.jsonl"
        truncated.write_text("\n".join(lines[:3]) + "\n")

        metrics.enable()
        resumed_journal = RunJournal(truncated, meta=self.META, resume=True)
        resumed = run_perplexity_table(
            table_data, journal=resumed_journal, **self.TABLE1_KWARGS
        )
        assert resumed == baseline
        counters = metrics.snapshot()["counters"]
        assert counters["journal.skip"] == 2
        assert counters["journal.record"] == 3
        # The journal is now complete again: a second resume skips all 5.
        obs.reset_all()
        metrics.enable()
        rerun_journal = RunJournal(truncated, meta=self.META, resume=True)
        rerun = run_perplexity_table(
            table_data, journal=rerun_journal, **self.TABLE1_KWARGS
        )
        assert rerun == baseline
        assert metrics.snapshot()["counters"]["journal.skip"] == 5

    def test_mismatched_meta_discards_stale_journal(self, table_data, tmp_path):
        path = tmp_path / "stale.journal.jsonl"
        journal = RunJournal(path, meta=self.META)
        run_perplexity_table(table_data, journal=journal, **self.TABLE1_KWARGS)
        fresh = RunJournal(
            path, meta={"companies": 9999, "seed": 3}, resume=True
        )
        assert fresh.completed("s:table1/s:unigram/i:0/i:8/i:2/i:4/i:10") is None


class TestEvaluatorFaultTolerance:
    """Crash and resume semantics of the sliding-window evaluator."""

    def _corpus(self):
        # History owned well before the 2013 window start, plus one product
        # first seen inside the first window, so every window has both
        # conditioning data and ground truth.
        companies = [
            Company(
                duns=DunsNumber.from_sequence(i),
                name=f"C{i}",
                country="US",
                sic2=80,
                first_seen={
                    VOCAB[0]: dt.date(2010, 1 + (i % 3), 1),
                    VOCAB[1]: dt.date(2011, 1 + (i % 5), 1),
                    VOCAB[2 + (i % 2)]: dt.date(2013, 4 + (i % 6), 1),
                },
            )
            for i in range(10)
        ]
        return Corpus(companies, VOCAB)

    def _evaluator(self, corpus, retrain_per_window=True, **kwargs):
        return RecommendationEvaluator(
            corpus,
            spec=SlidingWindowSpec(n_windows=2),
            thresholds=[0.0, 0.2],
            retrain_per_window=retrain_per_window,
            **kwargs,
        )

    FACTORIES = {
        "u": UnigramModel,
        "c": ConditionalHeavyHitters,
    }

    def test_crashed_model_skips_windows_others_survive(
        self, monkeypatch, fault_state
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:/s:u/")
        corpus = self._corpus()
        curves = self._evaluator(corpus).evaluate(self.FACTORIES)
        assert all(not obs_ for obs_ in curves["u"].observations.values())
        assert all(obs_ for obs_ in curves["c"].observations.values())

    def test_every_cell_failing_raises_runtime_error(
        self, monkeypatch, fault_state
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:recommend")
        corpus = self._corpus()
        with pytest.raises(RuntimeError, match="every evaluation cell failed"):
            self._evaluator(corpus).evaluate(self.FACTORIES)

    def test_retry_absorbs_transient_crash(self, monkeypatch, fault_state):
        corpus = self._corpus()
        baseline = self._evaluator(corpus).evaluate(self.FACTORIES)
        monkeypatch.setenv("REPRO_FAULTS", "crash:/s:u/:times=1")
        recovered = self._evaluator(corpus, retries=1).evaluate(self.FACTORIES)
        for name in self.FACTORIES:
            assert recovered[name].observations == baseline[name].observations

    def test_journal_resume_replays_cells(self, tmp_path):
        corpus = self._corpus()
        baseline = self._evaluator(corpus).evaluate(self.FACTORIES)
        path = tmp_path / "recommend.journal.jsonl"
        first = self._evaluator(
            corpus, journal=RunJournal(path, meta={"seed": 0})
        ).evaluate(self.FACTORIES)
        metrics.enable()
        resumed = self._evaluator(
            corpus, journal=RunJournal(path, meta={"seed": 0}, resume=True)
        ).evaluate(self.FACTORIES)
        for name in self.FACTORIES:
            assert first[name].observations == baseline[name].observations
            assert resumed[name].observations == baseline[name].observations
        # 2 windows x 2 models, all replayed from the journal.
        assert metrics.snapshot()["counters"]["journal.skip"] == 4

    @pytest.mark.parametrize("retrain_per_window", [True, False])
    def test_parallel_path_matches_serial_under_journal(
        self, tmp_path, retrain_per_window
    ):
        corpus = self._corpus()
        baseline = self._evaluator(corpus, retrain_per_window).evaluate(
            self.FACTORIES
        )
        path = tmp_path / "recommend.journal.jsonl"
        parallel = self._evaluator(
            corpus,
            retrain_per_window,
            n_jobs=2,
            journal=RunJournal(path, meta={"seed": 0}),
        ).evaluate(self.FACTORIES)
        metrics.enable()
        resumed = self._evaluator(
            corpus,
            retrain_per_window,
            n_jobs=2,
            journal=RunJournal(path, meta={"seed": 0}, resume=True),
        ).evaluate(self.FACTORIES)
        for name in self.FACTORIES:
            assert parallel[name].observations == baseline[name].observations
            assert resumed[name].observations == baseline[name].observations
        # 2 windows x 2 models, all replayed from the journal.
        assert metrics.snapshot()["counters"]["journal.skip"] == 4

    #: name -> (REPRO_FAULTS, factories, retries, resume with the fault
    #: cleared, substring of the cells that must end up failed).
    SCENARIOS = {
        "crash": ("crash:/s:u/", FACTORIES, 0, False, "/s:u/"),
        "retry": ("crash:/s:u/:times=1", FACTORIES, 1, False, None),
        "resume": ("crash:/s:u/", FACTORIES, 0, True, None),
        "scoring-raises": (
            "",
            {"u": _UnscorableModel, "c": ConditionalHeavyHitters},
            0,
            False,
            "/s:u/",
        ),
        "fit-raises": (
            "",
            {"u": _UnfittableModel, "c": ConditionalHeavyHitters},
            0,
            False,
            "/s:u/",
        ),
        "every-cell-fails": ("crash:recommend", FACTORIES, 0, False, "recommend"),
    }

    def _sweep(self, scenario, retrain, n_jobs, run_dir, monkeypatch):
        """What a scenario leaves behind: curves or raise, journal, counters."""
        spec, factories, retries, resume, __ = self.SCENARIOS[scenario]
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(run_dir / "fault-state"))
        monkeypatch.setenv("REPRO_FAULTS", spec)
        path = run_dir / "recommend.journal.jsonl"
        corpus = self._corpus()

        def run(resume):
            obs.reset_all()
            metrics.enable()
            evaluator = self._evaluator(
                corpus,
                retrain,
                n_jobs=n_jobs,
                retries=retries,
                journal=RunJournal(path, meta={"seed": 0}, resume=resume),
            )
            try:
                curves = evaluator.evaluate(factories)
            except Exception as exc:
                return (type(exc).__name__, str(exc))
            return {name: curve.observations for name, curve in curves.items()}

        outcome = run(False)
        if resume:
            monkeypatch.delenv("REPRO_FAULTS")
            outcome = run(True)
        counters = metrics.snapshot()["counters"]
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        history = sorted(
            ((r["key"], r["status"], r.get("value")) for r in records),
            key=lambda entry: entry[:2],
        )
        final = {r["key"]: r["status"] for r in records}
        return outcome, history, final, {
            name: counters.get(name, 0)
            for name in (
                "recommend.windows",
                "recommend.companies",
                "recommend.candidates",
                "recommend.retrieved",
                "recommend.hits",
                "journal.skip",
                "journal.record",
                "runtime.task_retry",
                "runtime.task_failed",
            )
        }

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("retrain", [True, False], ids=["retrain", "no-retrain"])
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_fault_handling_independent_of_n_jobs(
        self, scenario, retrain, n_jobs, tmp_path, monkeypatch
    ):
        ref_outcome, ref_history, __, ref_counters = self._sweep(
            scenario, retrain, 1, tmp_path / "ref", monkeypatch
        )
        outcome, history, final, counters = self._sweep(
            scenario, retrain, n_jobs, tmp_path / "run", monkeypatch
        )
        assert outcome == ref_outcome  # curves, or the same raise
        assert history == ref_history  # journal (key, status, value) entries
        assert counters == ref_counters

        failing = self.SCENARIOS[scenario][-1]
        assert len(final) == 4  # 2 windows x 2 models
        assert {key for key, status in final.items() if status == "failed"} == {
            key for key in final if failing is not None and failing in key
        }
        if scenario == "every-cell-fails":
            assert outcome[0] == "RuntimeError"
            return
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        clean = self._evaluator(self._corpus(), retrain).evaluate(self.FACTORIES)
        assert outcome["c"] == clean["c"].observations
        if failing is None:
            assert outcome["u"] == clean["u"].observations
        else:
            assert all(not observations for observations in outcome["u"].values())
        if scenario == "retry":
            assert counters["runtime.task_retry"] == 1
        if scenario == "resume":
            assert counters["journal.skip"] == 2  # the c cells replay
            assert counters["journal.record"] == 2  # the u cells re-run
