"""Table 1: minimum perplexity achieved by each method.

Paper values (860k companies): LDA 8.5 < LSTM 11.6 < n-grams 15.5 <
unigram 19.5.  The driver fits each method's best-known configuration on
the train split and reports test perplexity, preserving the ranking rather
than the absolute numbers (the substrate is the synthetic universe).

Fault tolerance: each method is one sweep cell.  A cell that exhausts its
retries degrades to a recorded failure — ``NaN`` in the table — instead of
killing the sweep, and with a :class:`~repro.runtime.RunJournal` attached,
finished cells are checkpointed as they complete and skipped on resume.
"""

from __future__ import annotations

import functools
import math
from typing import Any

from repro.experiments.common import ExperimentData
from repro.models.lda import LatentDirichletAllocation
from repro.models.lstm import LSTMModel
from repro.models.ngram import NGramModel
from repro.models.unigram import UnigramModel
from repro.obs import trace
from repro.runtime import (
    FitCache,
    RunJournal,
    cell_key,
    faults,
    fit_model,
    resolve_grid_outcomes,
)

__all__ = ["run_perplexity_table", "PAPER_TABLE1", "TABLE1_METHODS"]

#: Table-row name -> the fitted configurations backing it.  ``ngram`` is
#: the better of bigram/trigram, so selecting it fits both.
TABLE1_METHODS: dict[str, tuple[str, ...]] = {
    "unigram": ("unigram",),
    "ngram": ("bigram", "trigram"),
    "lstm": ("lstm",),
    "lda": ("lda",),
}

#: The paper's reported minimum perplexities, for side-by-side printing.
PAPER_TABLE1: dict[str, float] = {
    "lda": 8.5,
    "lstm": 11.6,
    "ngram": 15.5,
    "unigram": 19.5,
}


def _table1_task(payload: dict[str, Any]) -> float:
    """Worker task: fit one method configuration, return test perplexity."""
    faults.inject(payload["cell"])
    model = fit_model(
        payload["factory"], payload["train"], payload["cache"], payload["fingerprint"]
    )
    return model.perplexity(payload["test"])


def _nan_min(*values: float) -> float:
    """Minimum over the finite values; NaN only when every input failed."""
    finite = [v for v in values if not math.isnan(v)]
    return min(finite) if finite else float("nan")


def run_perplexity_table(
    data: ExperimentData,
    *,
    lda_topics: int = 4,
    lstm_hidden: int = 200,
    lstm_epochs: int = 14,
    lda_iter: int = 100,
    seed: int = 0,
    n_jobs: int = 1,
    fit_cache: FitCache | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    journal: RunJournal | None = None,
    methods: tuple[str, ...] | list[str] | None = None,
) -> dict[str, float]:
    """Fit every method's best configuration; return test perplexities.

    The best configurations mirror the paper's findings: LDA with a small
    number of topics on binary input, a 1-layer LSTM with a large embedding,
    the better of bigram/trigram, and the unigram baseline.  The five fits
    are independent; ``n_jobs > 1`` runs them on a process pool (``1``
    reproduces the serial fit order exactly), and ``fit_cache`` memoizes
    each fitted configuration across runs.

    A method whose cell fails after ``retries`` extra attempts reports
    ``NaN`` instead of aborting the table; ``journal`` checkpoints each
    finished cell (result or failure) and replays completed ones on
    resume, counted as ``journal.skip``.

    ``methods`` restricts the table to a subset of rows (names from
    :data:`TABLE1_METHODS`; ``None`` computes all four).  Cell keys are
    unchanged by the selection, so a journal written by a full run replays
    into a restricted one and vice versa.
    """
    if methods is None:
        selected = tuple(TABLE1_METHODS)
    else:
        unknown = [name for name in methods if name not in TABLE1_METHODS]
        if unknown:
            raise ValueError(
                f"unknown table1 method(s) {unknown}; "
                f"choose from {sorted(TABLE1_METHODS)}"
            )
        selected = tuple(name for name in TABLE1_METHODS if name in set(methods))
    wanted = {fit for name in selected for fit in TABLE1_METHODS[name]}
    split = data.split
    factories = {
        "unigram": functools.partial(UnigramModel),
        "bigram": functools.partial(NGramModel, order=2),
        "trigram": functools.partial(NGramModel, order=3),
        "lstm": functools.partial(
            LSTMModel,
            hidden=lstm_hidden,
            n_layers=1,
            n_epochs=lstm_epochs,
            validation=split.validation,
            seed=seed,
        ),
        "lda": functools.partial(
            LatentDirichletAllocation,
            n_topics=lda_topics,
            inference="variational",
            n_iter=lda_iter,
            seed=seed,
        ),
    }
    fingerprint = split.train.fingerprint() if fit_cache is not None else None
    payloads = [
        {
            "name": name,
            "cell": cell_key(
                "table1", name, seed, lstm_hidden, lstm_epochs, lda_topics, lda_iter
            ),
            "factory": factory,
            "train": split.train,
            "test": split.test,
            "cache": fit_cache,
            "fingerprint": fingerprint,
        }
        for name, factory in factories.items()
        if name in wanted
    ]
    with trace.span("exp.table1.fit"):
        values = resolve_grid_outcomes(
            _table1_task,
            payloads,
            n_jobs=n_jobs,
            retries=retries,
            task_timeout=task_timeout,
            journal=journal,
            failure_value=lambda payload, error: float("nan"),
        )
    perplexities = {
        payload["name"]: float(value) for payload, value in zip(payloads, values)
    }
    with trace.span("exp.table1.evaluate"):
        results: dict[str, float] = {}
        for name in selected:
            results[name] = _nan_min(
                *(perplexities[fit] for fit in TABLE1_METHODS[name])
            )
    return results


def format_table(results: dict[str, float]) -> str:
    """Render the measured-vs-paper comparison as fixed-width text.

    Failed (NaN) cells sort last and render as ``failed`` so a degraded
    sweep is obvious at a glance.
    """
    order = sorted(
        results, key=lambda name: (math.isnan(results[name]), results[name])
    )
    lines = [
        f"{'rank':>4}  {'method':<10} {'measured':>9}  {'paper':>6}",
    ]
    for rank, name in enumerate(order, start=1):
        paper = PAPER_TABLE1.get(name, float("nan"))
        measured = (
            "   failed" if math.isnan(results[name]) else f"{results[name]:>9.2f}"
        )
        lines.append(f"{rank:>4}  {name:<10} {measured}  {paper:>6.1f}")
    return "\n".join(lines)
