"""The fault-tolerant cell loop that every sweep runs its cells through.

A sweep is a list of independent cells — Table 1's fits, the Figure 1/2
grid points, the (window, model) cells of the sliding-window protocol —
and :func:`resolve_grid_outcomes` is the one code path that replays,
runs, journals and degrades them.  ``n_jobs`` decides only where a cell
runs: ``1`` is the same loop executed inline.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime.executor import Ok, ParallelMap, TaskError, TaskOutcome
from repro.runtime.journal import RunJournal

__all__ = ["resolve_grid_outcomes"]


def resolve_grid_outcomes(
    task: Callable[[dict[str, Any]], Any],
    payloads: list[dict[str, Any]],
    *,
    n_jobs: int = 1,
    retries: int = 0,
    task_timeout: float | None = None,
    journal: RunJournal | None = None,
    failure_value: Callable[[dict[str, Any], TaskError], Any],
) -> list[Any]:
    """Run a sweep's independent cells with journaling and failure isolation.

    Every payload carries its identity under ``"cell"``; cells already
    completed in ``journal`` replay their stored value (counted as
    ``journal.skip``) without re-running, the rest fan out through
    :meth:`~repro.runtime.ParallelMap.map_outcomes`, and each finished
    cell is journaled as it lands, so ``task`` must return a
    JSON-serializable value.  A cell that exhausts its attempts degrades
    to ``failure_value(payload, error)`` — a recorded-failure row —
    instead of aborting the sweep.  Values are returned in payload order,
    exactly as a fully serial, fault-free run would produce them.
    """
    values: list[Any] = [None] * len(payloads)
    pending: list[tuple[int, dict[str, Any]]] = []
    for index, payload in enumerate(payloads):
        if journal is not None:
            entry = journal.completed(payload["cell"])
            if entry is not None:
                values[index] = entry.value
                continue
        pending.append((index, payload))

    def journal_outcome(position: int, outcome: TaskOutcome) -> None:
        # Fires the moment a cell's outcome is final, so a sweep killed
        # halfway keeps every cell that already finished.
        if journal is None:
            return
        cell = pending[position][1]["cell"]
        if isinstance(outcome, Ok):
            journal.record_ok(cell, outcome.value, attempts=outcome.attempts)
        else:
            journal.record_failure(cell, outcome.describe(), attempts=outcome.attempts)

    executor = ParallelMap(n_jobs, retries=retries, task_timeout=task_timeout)
    outcomes = executor.map_outcomes(
        task, [payload for __, payload in pending], on_outcome=journal_outcome
    )
    for (index, payload), outcome in zip(pending, outcomes):
        if isinstance(outcome, Ok):
            values[index] = outcome.value
        else:
            values[index] = failure_value(payload, outcome)
    return values
