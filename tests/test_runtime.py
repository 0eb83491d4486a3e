"""Tests for the parallel runtime: executor, seeds, observability merge."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.obs import metrics, trace
from repro.runtime import (
    Ok,
    ParallelMap,
    TaskError,
    TaskFailedError,
    derive_seed,
    resolve_n_jobs,
    run_with_retries,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_all()
    yield
    obs.disable_all()
    obs.reset_all()


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _draw(seed):
    return float(np.random.default_rng(seed).random())


def _instrumented(x):
    with trace.span("task.work"):
        metrics.inc("task.count")
    return x


def _boom(x):
    if x == 2:
        raise ValueError("boom on 2")
    return x * 10


def _flaky(payload):
    """Fails its first attempt (per marker file), succeeds afterwards.

    The marker lives on the filesystem, so the retry is observed whether
    the attempts run inline or in different pool workers.
    """
    marker, value = payload
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return value
    raise RuntimeError("first attempt always fails")


def _record_run(payload):
    """Append one line per execution, so double-runs are detectable."""
    with open(payload["log"], "a") as handle:
        handle.write(f"{payload['value']}\n")
    return payload["value"]


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "fig1", 2, 200) == derive_seed(7, "fig1", 2, 200)

    def test_int_and_string_keys_are_distinct(self):
        assert derive_seed(7, 1) != derive_seed(7, "1")
        assert derive_seed(7, "fig1", 2) != derive_seed(7, "fig1", "2")

    def test_sensitive_to_keys(self):
        assert derive_seed(7, "fig1", 1) != derive_seed(7, "fig1", 2)
        assert derive_seed(7, "fig1") != derive_seed(7, "fig2")

    def test_sensitive_to_base(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_none_base_is_zero(self):
        assert derive_seed(None, "x") == derive_seed(0, "x")

    def test_in_valid_seed_range(self):
        seed = derive_seed(123, "anything", 42)
        assert 0 <= seed < 2**63


class TestResolveNJobs:
    def test_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4

    def test_minus_one_uses_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)


class TestParallelMap:
    def test_inline_preserves_order(self):
        assert ParallelMap(1).map(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_pool_preserves_order(self):
        assert ParallelMap(2).map(_square, range(8)) == ParallelMap(1).map(
            _square, range(8)
        )

    def test_empty_payloads(self):
        assert ParallelMap(2).map(_square, []) == []

    def test_single_payload_runs_in_a_worker(self):
        assert ParallelMap(2).map(_square, [3]) == [9]
        assert ParallelMap(2).map(_pid, [0]) != [os.getpid()]

    def test_unpicklable_fn_falls_back_inline(self):
        result = ParallelMap(2).map(lambda x: x + 1, [1, 2, 3])
        assert result == [2, 3, 4]

    def test_seeded_tasks_deterministic_across_job_counts(self):
        seeds = [derive_seed(7, "task", i) for i in range(6)]
        serial = ParallelMap(1).map(_draw, seeds)
        pooled = ParallelMap(3).map(_draw, seeds)
        assert serial == pooled

    def test_worker_counters_merge_into_parent(self):
        metrics.enable()
        ParallelMap(2).map(_instrumented, range(5))
        counters = metrics.snapshot()["counters"]
        assert counters["task.count"] == 5
        assert counters["runtime.tasks"] == 5

    def test_worker_spans_merge_into_parent_trace(self):
        obs.enable_all()
        with trace.span("parent"):
            ParallelMap(2).map(_instrumented, range(4))
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                collect(child)

        for root in trace.roots():
            collect(root.as_dict())
        assert "runtime.parallel_map" in names
        assert "task.work" in names

    def test_serial_path_leaves_metrics_untouched(self):
        ParallelMap(1).map(_instrumented, range(3))
        assert metrics.snapshot()["counters"] == {}

    def test_no_worker_outlives_a_pooled_map(self):
        # A worker still exiting when the interpreter does races the
        # executor's exit hook, which then writes to a closed pipe.
        before = set(multiprocessing.active_children())
        for _ in range(3):
            assert ParallelMap(2).map(_square, range(4)) == [0, 1, 4, 9]
            assert set(multiprocessing.active_children()) <= before
            outcomes = ParallelMap(2).map_outcomes(_boom, range(4))
            assert isinstance(outcomes[2], TaskError)
            assert set(multiprocessing.active_children()) <= before


_ORPHAN_POOL_SCRIPT = """
import os, time
from repro.runtime import ParallelMap

def task(seconds):
    os.write(1, b"started\\n")
    time.sleep(seconds)

ParallelMap(2).map(task, [60.0, 60.0])
"""


_FORKSERVER_POOL_SCRIPT = """
import multiprocessing
from repro.runtime import ParallelMap

multiprocessing.set_start_method("forkserver")
print(ParallelMap(2).map(abs, [-1, -2, -3]))
"""


class TestOrphanedPool:
    def test_workers_exit_when_their_parent_is_killed(self, orphaned_stdout_eof):
        # An orphaned worker would finish its task, then idle on the call
        # queue for good, holding the dead sweep's stdout open.
        assert orphaned_stdout_eof(
            _ORPHAN_POOL_SCRIPT, marker=b"started\nstarted\n", timeout=5.0
        ), "pool workers outlived their killed parent"

    def test_pool_runs_under_a_forkserver_default(self):
        # A forkserver-started worker's parent is the server, not the
        # pool's builder; the parent watch would end it before any task.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", _FORKSERVER_POOL_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == "[1, 2, 3]\n"


class TestRunWithRetries:
    def test_success_first_attempt(self):
        outcome = run_with_retries(lambda: 42)
        assert outcome == Ok(42, attempts=1)

    def test_failure_returns_task_error(self):
        outcome = run_with_retries(lambda: 1 / 0, retries=2)
        assert isinstance(outcome, TaskError)
        assert outcome.attempts == 3
        assert outcome.error_type == "ZeroDivisionError"
        assert "ZeroDivisionError" in outcome.describe()

    def test_recovers_within_retries(self, tmp_path):
        marker = str(tmp_path / "marker")
        outcome = run_with_retries(lambda: _flaky((marker, 5)), retries=1)
        assert outcome == Ok(5, attempts=2)

    def test_counts_retry_and_failure_metrics(self):
        metrics.enable()
        run_with_retries(lambda: 1 / 0, retries=2)
        counters = metrics.snapshot()["counters"]
        assert counters["runtime.task_retry"] == 2
        assert counters["runtime.task_failed"] == 1

    def test_reraise_preserves_original_exception(self):
        outcome = run_with_retries(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            outcome.reraise()

    def test_reraise_without_live_exception(self):
        error = TaskError(
            message="gone", error_type="RuntimeError", traceback="", attempts=1
        )
        with pytest.raises(TaskFailedError):
            error.reraise()


class TestMapOutcomes:
    def test_inline_isolates_failures(self):
        outcomes = ParallelMap(1).map_outcomes(_boom, range(4))
        assert [type(o) for o in outcomes] == [Ok, Ok, TaskError, Ok]
        assert [o.value for o in outcomes if isinstance(o, Ok)] == [0, 10, 30]
        assert outcomes[2].error_type == "ValueError"

    def test_pool_isolates_failures(self):
        outcomes = ParallelMap(2).map_outcomes(_boom, range(4))
        assert [type(o) for o in outcomes] == [Ok, Ok, TaskError, Ok]
        assert [o.value for o in outcomes if isinstance(o, Ok)] == [0, 10, 30]

    def test_map_still_raises_first_failure(self):
        with pytest.raises(ValueError, match="boom on 2"):
            ParallelMap(1).map(_boom, range(4))
        with pytest.raises(ValueError, match="boom on 2"):
            ParallelMap(2).map(_boom, range(4))

    def test_inline_retry_recovers(self, tmp_path):
        payloads = [(str(tmp_path / f"m{i}"), i) for i in range(3)]
        outcomes = ParallelMap(1, retries=1).map_outcomes(_flaky, payloads)
        assert outcomes == [Ok(0, attempts=2), Ok(1, attempts=2), Ok(2, attempts=2)]

    def test_pool_retry_recovers(self, tmp_path):
        payloads = [(str(tmp_path / f"m{i}"), i) for i in range(4)]
        outcomes = ParallelMap(2, retries=1).map_outcomes(_flaky, payloads)
        assert all(isinstance(o, Ok) for o in outcomes)
        assert [o.value for o in outcomes] == [0, 1, 2, 3]
        assert all(o.attempts == 2 for o in outcomes)

    def test_exhausted_retries_record_attempts(self):
        outcomes = ParallelMap(1, retries=2).map_outcomes(_boom, [2])
        assert isinstance(outcomes[0], TaskError)
        assert outcomes[0].attempts == 3

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ParallelMap(1, retries=-1)
        with pytest.raises(ValueError):
            ParallelMap(1, backoff=-0.1)
        with pytest.raises(ValueError):
            ParallelMap(1, task_timeout=0.0)


class TestPreflightPickling:
    def test_unpicklable_payload_never_double_executes(self, tmp_path):
        """Regression: the pool must not run tasks before discovering an
        unpicklable sibling and then re-run everything inline."""
        log = str(tmp_path / "runs.log")
        payloads = [{"log": log, "value": i} for i in range(3)]
        payloads.append({"log": log, "value": 3, "obj": lambda: None})
        results = ParallelMap(2).map(_record_run, payloads)
        assert results == [0, 1, 2, 3]
        lines = sorted(open(log).read().split())
        assert lines == ["0", "1", "2", "3"]

    def test_unpicklable_fn_never_double_executes(self, tmp_path):
        log = str(tmp_path / "runs.log")
        payloads = [{"log": log, "value": i} for i in range(3)]
        results = ParallelMap(2).map(
            lambda p: _record_run(p), payloads
        )
        assert results == [0, 1, 2]
        assert sorted(open(log).read().split()) == ["0", "1", "2"]
