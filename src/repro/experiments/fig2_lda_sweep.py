"""Figure 2: LDA test perplexity vs number of topics, binary vs TF-IDF.

The paper sweeps the latent topic count over 2..16 for both raw binary and
TF-IDF inputs, finding (i) binary input beats TF-IDF pre-processing
("LDA indeed is able to assign higher weights to the most representative
products"), and (ii) small topic counts (2-4) minimise perplexity, rising
slowly afterwards.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Sequence

from repro.experiments.common import ExperimentData
from repro.models.lda import LatentDirichletAllocation
from repro.obs import trace
from repro.runtime import (
    FitCache,
    RunJournal,
    cell_key,
    faults,
    fit_model,
    resolve_grid_outcomes,
)

__all__ = ["run_lda_sweep"]


def _sweep_task(payload: dict[str, Any]) -> dict[str, float | str]:
    """Worker task: fit one (input, topics) cell, return its row."""
    faults.inject(payload["cell"])
    with trace.span("exp.fig2.fit"):
        model = fit_model(
            payload["factory"],
            payload["train"],
            payload["cache"],
            payload["fingerprint"],
        )
    with trace.span("exp.fig2.evaluate"):
        return {
            "input": payload["input"],
            "n_topics": float(payload["n_topics"]),
            "test_perplexity": model.perplexity(payload["test"]),
            "n_parameters": float(model.n_parameters),
        }


def _failed_row(payload: dict[str, Any], error: object) -> dict[str, float | str]:
    """The recorded-failure row for one sweep cell: coordinates plus NaN."""
    return {
        "input": payload["input"],
        "n_topics": float(payload["n_topics"]),
        "test_perplexity": float("nan"),
        "n_parameters": float("nan"),
    }


def run_lda_sweep(
    data: ExperimentData,
    *,
    topic_grid: Sequence[int] = (2, 3, 4, 6, 8, 10, 12, 14, 16),
    inputs: Sequence[str] = ("binary", "tfidf"),
    n_iter: int = 100,
    seed: int = 0,
    n_jobs: int = 1,
    fit_cache: FitCache | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    journal: RunJournal | None = None,
) -> list[dict[str, float | str]]:
    """Fit LDA across the (topics, input) grid; return test perplexities.

    Cells are independent and fan out over a process pool when
    ``n_jobs > 1``; rows come back in (input, topics) grid order either
    way, so parallel sweeps match serial ones exactly.  A cell that
    exhausts its ``retries`` degrades to a NaN row; ``journal``
    checkpoints finished cells and skips them on resume.
    """
    split = data.split
    fingerprint = split.train.fingerprint() if fit_cache is not None else None
    payloads = [
        {
            "cell": cell_key("fig2", input_type, n_topics, n_iter, seed),
            "factory": functools.partial(
                LatentDirichletAllocation,
                n_topics=n_topics,
                inference="variational",
                input_type=input_type,
                n_iter=n_iter,
                seed=seed,
            ),
            "input": input_type,
            "n_topics": n_topics,
            "train": split.train,
            "test": split.test,
            "cache": fit_cache,
            "fingerprint": fingerprint,
        }
        for input_type in inputs
        for n_topics in topic_grid
    ]
    return resolve_grid_outcomes(
        _sweep_task,
        payloads,
        n_jobs=n_jobs,
        retries=retries,
        task_timeout=task_timeout,
        journal=journal,
        failure_value=_failed_row,
    )


def best_binary_band(rows: list[dict[str, float | str]]) -> tuple[float, float]:
    """(best perplexity, topic count) among the binary-input rows.

    Recorded-failure rows (NaN perplexity) are excluded from the band.
    """
    binary = [
        r
        for r in rows
        if r["input"] == "binary" and not math.isnan(float(r["test_perplexity"]))
    ]
    if not binary:
        raise ValueError("no binary rows in the sweep")
    best = min(binary, key=lambda r: r["test_perplexity"])
    return float(best["test_perplexity"]), float(best["n_topics"])
