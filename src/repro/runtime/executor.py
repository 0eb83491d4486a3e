"""Deterministic, fault-tolerant process-pool fan-out for experiments.

:class:`ParallelMap` is the one execution primitive the experiment stack
shares: drivers hand it a module-level task function plus a list of
picklable payloads and get results back **in payload order**, independent
of which worker finished first.  ``n_jobs=1`` (the default) runs every
task inline in the calling process — no pool, no pickling, no reordering —
so the serial path is bit-identical to a plain ``for`` loop.

Fault tolerance: :meth:`ParallelMap.map_outcomes` returns one
:class:`Ok`/:class:`TaskError` per payload instead of letting the first
exception abort the pool.  Failures are retried up to ``retries`` times
with exponential ``backoff``; ``task_timeout`` bounds each task's wall
time (pool mode only — a hung worker is killed and the pool respawned);
an abruptly dead worker (``BrokenProcessPool``) respawns the pool and
re-runs **only the unfinished tasks** — completed results are never
discarded and never re-executed.  :meth:`ParallelMap.map` keeps the
original raise-on-first-error contract on top of the same machinery.
Workers never outlive their map: once every task has resolved, the pool
shuts down and waits for them to exit.  Nor do they outlive the process
that built their pool: each one exits as soon as :func:`watch_parent` sees
that process gone, so a killed sweep leaves no idle worker holding its
pipes.

Observability crosses the process boundary: when tracing or metrics are
enabled in the parent, each worker records its own spans and counters in a
clean slate, ships them home with the task result, and the parent merges
them under the span that issued the fan-out (``trace.merge_subtree``).
Failure handling has counters of its own: ``runtime.task_retry``,
``runtime.task_failed`` and ``runtime.pool_respawn``.

Determinism rules:

* results are gathered in submission order, always;
* tasks that need randomness derive their seed from the task identity via
  :func:`derive_seed` (or carry an explicit seed in the payload), never
  from worker-local state;
* an unpicklable function or payload degrades the whole map to the inline
  path **before anything is submitted** (preflight pickling), so no task
  can ever run twice because a sibling failed to serialize.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import threading
import time
import traceback as traceback_module
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar, Union

import numpy as np

from repro._validation import check_positive_int
from repro.obs import disable_all, enable_all, get_logger, metrics, reset_all, trace

__all__ = [
    "Ok",
    "ParallelMap",
    "TaskError",
    "TaskFailedError",
    "derive_seed",
    "resolve_n_jobs",
    "run_with_retries",
    "watch_parent",
]

T = TypeVar("T")
R = TypeVar("R")

#: Seconds between two checks of :func:`watch_parent`.
_PARENT_POLL_S = 0.1


def derive_seed(base: int | None, *keys: int | str) -> int:
    """Stable per-task seed from a base seed and the task's identity keys.

    Built on :class:`numpy.random.SeedSequence` spawn keys, so sibling
    tasks get statistically independent streams and the mapping never
    depends on execution order or process identity::

        seed = derive_seed(7, "fig1", n_layers, nodes)

    Each key contributes a type tag alongside its value, so integer and
    string keys that render identically — ``derive_seed(7, 1)`` versus
    ``derive_seed(7, "1")`` — spawn *different* streams.  (This tagging is
    a deliberate fingerprint bump over the first release, which conflated
    the two.)
    """
    entropy = 0 if base is None else int(base)
    spawn_key: list[int] = []
    for key in keys:
        spawn_key.append(0 if isinstance(key, (int, np.integer)) else 1)
        spawn_key.append(int.from_bytes(str(key).encode(), "little") % (2**63))
    sequence = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(spawn_key))
    return int(sequence.generate_state(1, dtype=np.uint64)[0] % (2**63))


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalise an ``n_jobs`` request: ``-1`` means all CPUs, else >= 1."""
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    return check_positive_int(n_jobs, "n_jobs")


class TaskFailedError(RuntimeError):
    """Raised by :meth:`ParallelMap.map` for a failure with no live exception."""


@dataclass(frozen=True)
class Ok:
    """A task that completed, with its result and the attempts it took."""

    value: Any
    attempts: int = 1


@dataclass(frozen=True)
class TaskError:
    """A task that exhausted its attempts, with the failure's anatomy.

    ``message``/``error_type``/``traceback`` are plain strings so the
    outcome can be journaled as JSON; ``exception`` carries the live
    exception object when one exists (worker raises travel back through
    the pool) for callers that re-raise.
    """

    message: str
    error_type: str
    traceback: str
    attempts: int
    exception: BaseException | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_exception(cls, exc: BaseException, attempts: int) -> "TaskError":
        return cls(
            message=str(exc) or exc.__class__.__name__,
            error_type=type(exc).__name__,
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=attempts,
            exception=exc,
        )

    def describe(self) -> str:
        """One-line ``Type: message`` rendering for journals and logs."""
        return f"{self.error_type}: {self.message}"

    def reraise(self) -> None:
        """Re-raise the original exception (or a :class:`TaskFailedError`)."""
        if self.exception is not None:
            raise self.exception
        raise TaskFailedError(self.describe())


TaskOutcome = Union[Ok, TaskError]


def run_with_retries(
    fn: Callable[[], R], *, retries: int = 0, backoff: float = 0.0
) -> TaskOutcome:
    """Call ``fn`` with up to ``1 + retries`` attempts; never raises.

    The inline counterpart of the pool's retry loop: ``ParallelMap`` runs
    each task through it at ``n_jobs=1``, so every sweep retries the same
    way at any job count.  Retries count on ``runtime.task_retry``;
    exhaustion counts on ``runtime.task_failed`` and returns a
    :class:`TaskError`.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return Ok(fn(), attempts=attempts)
        except Exception as exc:
            if attempts <= retries:
                metrics.inc("runtime.task_retry")
                if backoff > 0.0:
                    time.sleep(backoff * 2 ** (attempts - 1))
                continue
            metrics.inc("runtime.task_failed")
            return TaskError.from_exception(exc, attempts=attempts)


def _run_captured(
    fn: Callable[[Any], Any], payload: Any, capture_obs: bool
) -> tuple[Any, list[dict[str, Any]], dict[str, float]]:
    """Worker-side task wrapper: run ``fn`` with a clean obs slate.

    Returns ``(result, span_trees, counter_totals)``; the obs payloads are
    empty when capture is off.  Runs in the worker process — the reset only
    touches worker-local state.
    """
    if not capture_obs:
        return fn(payload), [], {}
    reset_all()
    enable_all()
    try:
        result = fn(payload)
        spans = [root.as_dict() for root in trace.roots()]
        counters = dict(metrics.snapshot()["counters"])
    finally:
        disable_all()
        reset_all()
    return result, spans, counters


class ParallelMap:
    """Ordered, observable, fault-tolerant map over a process pool.

    Parameters
    ----------
    n_jobs:
        Worker processes; ``1`` (default) executes inline and is
        bit-identical to a serial loop, ``-1`` uses every CPU.
    retries:
        Extra attempts per task after its first failure (crash, worker
        death or timeout alike).  Default 0 — fail fast.
    backoff:
        Base seconds of exponential backoff between a task's attempts
        (``backoff * 2**(attempt-1)``).  Default 0 — retry immediately.
    task_timeout:
        Wall-clock seconds allowed per task.  Enforced in pool mode only,
        i.e. ``n_jobs > 1`` even for a lone task (a hung inline task
        cannot be preempted): an overdue task is marked failed (or
        retried), its worker killed and the pool respawned for the
        remaining tasks.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        retries: int = 0,
        backoff: float = 0.0,
        task_timeout: float | None = None,
    ) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0.0:
            raise ValueError("backoff must be >= 0")
        if task_timeout is not None and task_timeout <= 0.0:
            raise ValueError("task_timeout must be positive")
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.task_timeout = task_timeout

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParallelMap(n_jobs={self.n_jobs}, retries={self.retries}, "
            f"task_timeout={self.task_timeout})"
        )

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], payloads: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every payload; results in payload order.

        The historical raise-on-error contract: the first task (in payload
        order) that exhausts its attempts has its exception re-raised.
        With more than one job, ``fn`` must be a module-level function and
        the payloads picklable; anything unpicklable falls back to the
        inline path (same results, logged at warning level).
        """
        payloads = list(payloads)
        if self._inline(fn, payloads):
            return self._map_inline(fn, payloads, raise_on_error=True)
        results: list[R] = []
        for outcome in self._map_pool(fn, payloads):
            if isinstance(outcome, TaskError):
                outcome.reraise()
            results.append(outcome.value)
        return results

    def map_outcomes(
        self,
        fn: Callable[[T], R],
        payloads: Sequence[T],
        *,
        on_outcome: Callable[[int, TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Apply ``fn`` to every payload; one :class:`Ok`/:class:`TaskError` each.

        Never raises for a task failure: each payload's slot reports what
        happened to it, in payload order, and one poisoned cell cannot
        discard its siblings' finished work.

        ``on_outcome(index, outcome)`` fires in the calling process the
        moment a payload's outcome is final — after its last attempt, in
        completion order, while later tasks may still be running.  Sweep
        drivers journal from this hook so a kill mid-sweep keeps every
        cell that already finished.
        """
        payloads = list(payloads)
        if self._inline(fn, payloads):
            return self._map_inline(
                fn, payloads, raise_on_error=False, on_outcome=on_outcome
            )
        return self._map_pool(fn, payloads, on_outcome=on_outcome)

    # ------------------------------------------------------------------
    def _inline(self, fn: Callable[[T], R], payloads: list[T]) -> bool:
        """Whether this map must run inline (serial, empty, or unpicklable).

        A lone payload still goes to the pool when ``n_jobs > 1``: its
        worker's death or overrun of ``task_timeout`` must fail that task,
        not the calling process.  Pickling is preflighted *before
        submission*: a payload that cannot cross the process boundary
        switches the whole map inline up front, never after siblings have
        already executed in the pool.
        """
        if self.n_jobs == 1 or not payloads:
            return True
        try:
            pickle.dumps(fn)
        except Exception:
            get_logger("runtime").warning(
                "task function %r is not picklable; running inline", fn
            )
            return True
        for index, payload in enumerate(payloads):
            try:
                pickle.dumps(payload)
            except Exception:
                get_logger("runtime").warning(
                    "payload %d is not picklable; running the whole map inline",
                    index,
                )
                return True
        return False

    def _map_inline(
        self,
        fn: Callable[[T], R],
        payloads: list[T],
        *,
        raise_on_error: bool,
        on_outcome: Callable[[int, TaskOutcome], None] | None = None,
    ) -> list[Any]:
        """The in-process path: values (``raise_on_error``) or outcomes."""
        results: list[Any] = []
        for index, payload in enumerate(payloads):
            outcome = run_with_retries(
                functools.partial(fn, payload),
                retries=self.retries,
                backoff=self.backoff,
            )
            if on_outcome is not None:
                on_outcome(index, outcome)
            if raise_on_error and isinstance(outcome, TaskError):
                outcome.reraise()
            results.append(outcome.value if raise_on_error else outcome)
        return results

    # ------------------------------------------------------------------
    def _map_pool(
        self,
        fn: Callable[[T], R],
        payloads: list[T],
        *,
        on_outcome: Callable[[int, TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Pool execution with retry, timeout and broken-pool recovery.

        Futures are drained strictly in submission order.  A worker raise
        fails (or requeues) just its own task; a timeout or dead worker
        additionally poisons the pool, so the round is cut short: finished
        siblings keep their results, unfinished ones are requeued with
        their attempt refunded, and a fresh pool takes over.

        A dead worker cannot be attributed with certainty — the charge
        lands on the first task still unresolved in submission order,
        which may be a concurrently running sibling of the real culprit.
        Sweeps that expect worker deaths should allow ``retries >= 1`` so
        a misattributed task gets its result back on the respawned pool.
        """
        capture = trace.is_enabled() or metrics.is_enabled()
        n = len(payloads)
        workers = min(self.n_jobs, n)
        outcomes: list[TaskOutcome | None] = [None] * n
        attempts = [0] * n
        notified = [False] * n
        log = get_logger("runtime")

        def notify(i: int) -> None:
            # Fire the hook exactly once per task, when its slot resolves.
            if on_outcome is not None and outcomes[i] is not None and not notified[i]:
                notified[i] = True
                on_outcome(i, outcomes[i])
        with trace.span("runtime.parallel_map") as node:
            if node is not None:
                node.add_counter("tasks", n)
                node.add_counter("workers", workers)
            pool = _new_pool(workers)
            pending = list(range(n))
            rounds = 0
            try:
                while pending:
                    if rounds and self.backoff > 0.0:
                        time.sleep(self.backoff * 2 ** (rounds - 1))
                    rounds += 1
                    futures = {}
                    for i in pending:
                        attempts[i] += 1
                        futures[i] = pool.submit(_run_captured, fn, payloads[i], capture)
                    pending = []
                    poisoned = False
                    for i, future in futures.items():
                        if poisoned:
                            # The pool is going down; salvage whatever
                            # already finished, requeue the rest with the
                            # attempt refunded (the fault was not theirs).
                            if future.done():
                                self._settle(i, future, attempts, outcomes, pending, log)
                                notify(i)
                            else:
                                attempts[i] -= 1
                                pending.append(i)
                            continue
                        try:
                            packed = future.result(timeout=self.task_timeout)
                            outcomes[i] = Ok(self._merge(packed), attempts=attempts[i])
                        except FutureTimeoutError:
                            self._fail(
                                i,
                                TimeoutError(
                                    f"task {i} exceeded task_timeout="
                                    f"{self.task_timeout}s"
                                ),
                                attempts,
                                outcomes,
                                pending,
                                log,
                            )
                            poisoned = True
                        except BrokenProcessPool as exc:
                            self._fail(i, exc, attempts, outcomes, pending, log)
                            poisoned = True
                        except Exception as exc:
                            self._fail(i, exc, attempts, outcomes, pending, log)
                        notify(i)
                    if poisoned:
                        _terminate_pool(pool)
                        if pending:
                            metrics.inc("runtime.pool_respawn")
                            log.warning(
                                "worker pool poisoned (%d task(s) outstanding); "
                                "respawning",
                                len(pending),
                            )
                            pool = _new_pool(workers)
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            # Every task has resolved: wait for the workers to exit, so none
            # outlives the map (an exiting interpreter would otherwise race
            # the executor's teardown and write to its closed wakeup pipe).
            pool.shutdown(wait=True)
            metrics.inc("runtime.tasks", n)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _settle(
        self,
        i: int,
        future: Any,
        attempts: list[int],
        outcomes: list[TaskOutcome | None],
        pending: list[int],
        log: Any,
    ) -> None:
        """Collect a done future during pool teardown: keep Ok, judge errors."""
        try:
            packed = future.result(timeout=0)
            outcomes[i] = Ok(self._merge(packed), attempts=attempts[i])
        except (FutureTimeoutError, BrokenProcessPool, CancelledError):
            attempts[i] -= 1
            pending.append(i)
        except Exception as exc:
            self._fail(i, exc, attempts, outcomes, pending, log)

    def _fail(
        self,
        i: int,
        exc: BaseException,
        attempts: list[int],
        outcomes: list[TaskOutcome | None],
        pending: list[int],
        log: Any,
    ) -> None:
        """Route one failed attempt: requeue with attempts left, else record."""
        if attempts[i] < self.retries + 1:
            metrics.inc("runtime.task_retry")
            log.warning(
                "task %d failed (attempt %d/%d): %s; retrying",
                i,
                attempts[i],
                self.retries + 1,
                exc,
            )
            pending.append(i)
            return
        metrics.inc("runtime.task_failed")
        log.warning(
            "task %d failed permanently after %d attempt(s): %s", i, attempts[i], exc
        )
        outcomes[i] = TaskError.from_exception(exc, attempts=attempts[i])

    @staticmethod
    def _merge(packed: tuple[Any, list[dict[str, Any]], dict[str, float]]) -> Any:
        """Unpack one worker result, merging its spans/counters into the parent."""
        result, span_trees, counters = packed
        for tree in span_trees:
            trace.merge_subtree(tree)
        for name, value in counters.items():
            metrics.inc(name, value)
        return result


def watch_parent(parent_pid: int, on_orphaned: Callable[[], object]) -> None:
    """Call ``on_orphaned`` once, from a daemon thread, when ``parent_pid`` dies.

    A dead parent's children are re-parented, so the thread polls
    ``os.getppid()`` against ``parent_pid``.  ``prctl(PR_SET_PDEATHSIG)``
    would not do: it fires when the forking *thread* exits, and the fleet
    forks its restarts from a monitor thread.
    """

    def poll() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        on_orphaned()

    threading.Thread(target=poll, name="repro-parent-watch", daemon=True).start()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers exit once the process that built it dies.

    The start method is pinned to ``fork``: the watch compares each
    worker's parent with the builder, which holds only when the builder
    forks its workers itself.  Under ``forkserver`` (the Linux default
    from Python 3.14) every worker would exit at once.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=watch_parent,
        initargs=(os.getpid(), functools.partial(os._exit, 1)),
    )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a poisoned pool down, killing workers that will not exit.

    ``shutdown`` alone leaves a hung worker running its task forever; the
    explicit terminate reaps it so a timed-out sweep does not leak
    processes.  Touches the executor's private process table — there is no
    public kill switch — guarded for forward compatibility.  The table is
    read before ``shutdown``, which drops it.  The executor's own thread
    may reap a killed worker first; a second ``join`` would lose that race
    and leave the worker reported as running, so the wait polls
    ``is_alive()`` until the exit code lands.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    deadline = time.monotonic() + 5.0
    for process in processes:
        while process.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
