"""Parallel experiment runtime: fault-tolerant fan-out, fit cache, journal.

``repro.runtime`` is the execution layer under every expensive experiment
path:

* :class:`~repro.runtime.executor.ParallelMap` — deterministic process-pool
  map with an inline ``n_jobs=1`` fallback, ordered results, worker-side
  observability capture merged back into the parent trace, and per-task
  fault tolerance: :meth:`~repro.runtime.executor.ParallelMap.map_outcomes`
  returns :class:`~repro.runtime.executor.Ok` /
  :class:`~repro.runtime.executor.TaskError` per payload, with retry,
  backoff, per-task timeouts and broken-pool recovery;
* :func:`~repro.runtime.executor.derive_seed` — stable per-task seed
  derivation from a base seed plus type-tagged task identity keys;
* :class:`~repro.runtime.cache.FitCache` — content-addressed store of
  fitted models keyed by (model class, canonical hyperparameters, corpus
  fingerprint), replayed through each model's ``save``/``load`` round-trip;
* :class:`~repro.runtime.journal.RunJournal` — the JSONL checkpoint
  journal behind ``--checkpoint-dir``/``--resume``: completed sweep cells
  are recorded as they finish and skipped on resume;
* :func:`~repro.runtime.sweep.resolve_grid_outcomes` — the one cell loop
  of every sweep: replay journaled cells, run the rest through
  ``ParallelMap`` with retries, journal each outcome, degrade a failure;
* :mod:`~repro.runtime.faults` — deterministic fault injection (crash,
  worker death, hang, artifact corruption) keyed on cell identity, so the
  fault-tolerance layer is testable in CI;
* :mod:`~repro.runtime.fingerprint` — the digests behind the cache keys.

The sliding-window recommendation evaluator and every grid-sweep driver
accept ``n_jobs`` / ``fit_cache`` / ``retries`` / ``task_timeout`` /
``journal`` and route their hot loops through this module; the CLI exposes
the same knobs as ``--jobs``, ``--cache-dir``, ``--retries``,
``--task-timeout`` and ``--checkpoint-dir``/``--resume``.
"""

from __future__ import annotations

from repro.runtime import faults
from repro.runtime.cache import FitCache, fit_model
from repro.runtime.executor import (
    Ok,
    ParallelMap,
    TaskError,
    TaskFailedError,
    derive_seed,
    resolve_n_jobs,
    run_with_retries,
)
from repro.runtime.fingerprint import (
    Uncacheable,
    cache_key,
    canonical_params,
)
from repro.runtime.journal import JournalEntry, RunJournal, cell_key
from repro.runtime.sweep import resolve_grid_outcomes

__all__ = [
    "ParallelMap",
    "FitCache",
    "Ok",
    "TaskError",
    "TaskFailedError",
    "JournalEntry",
    "RunJournal",
    "cell_key",
    "derive_seed",
    "faults",
    "fit_model",
    "resolve_grid_outcomes",
    "resolve_n_jobs",
    "run_with_retries",
    "Uncacheable",
    "cache_key",
    "canonical_params",
]
