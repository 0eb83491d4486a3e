"""Figure 1: LSTM test perplexity across the 12-architecture grid.

The paper sweeps layers in {1, 2, 3} x nodes in {10, 100, 200, 300} for 14
epochs and finds 1 layer / 200 nodes best (test perplexity 11.6), with
deeper stacks strictly worse.  The driver reproduces the sweep; each grid
point reports its test perplexity and parameter count.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Sequence

from repro.experiments.common import ExperimentData
from repro.models.lstm import LSTMModel
from repro.obs import trace
from repro.runtime import (
    FitCache,
    RunJournal,
    cell_key,
    faults,
    fit_model,
    resolve_grid_outcomes,
)

__all__ = ["run_lstm_grid"]


def _grid_task(payload: dict[str, Any]) -> dict[str, float]:
    """Worker task: fit one (layers, nodes) grid point, return its row."""
    faults.inject(payload["cell"])
    with trace.span("exp.fig1.fit"):
        model = fit_model(
            payload["factory"],
            payload["train"],
            payload["cache"],
            payload["fingerprint"],
        )
    with trace.span("exp.fig1.evaluate"):
        return {
            "n_layers": float(payload["n_layers"]),
            "nodes": float(payload["nodes"]),
            "test_perplexity": model.perplexity(payload["test"]),
            "n_parameters": float(model.n_parameters),
        }


def _failed_row(payload: dict[str, Any], error: object) -> dict[str, float]:
    """The recorded-failure row for one grid point: coordinates plus NaN."""
    return {
        "n_layers": float(payload["n_layers"]),
        "nodes": float(payload["nodes"]),
        "test_perplexity": float("nan"),
        "n_parameters": float("nan"),
    }


def run_lstm_grid(
    data: ExperimentData,
    *,
    layer_grid: Sequence[int] = (1, 2, 3),
    node_grid: Sequence[int] = (10, 100, 200, 300),
    n_epochs: int = 14,
    seed: int = 0,
    dtype: str = "float32",
    n_jobs: int = 1,
    fit_cache: FitCache | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    journal: RunJournal | None = None,
) -> list[dict[str, float]]:
    """Train every (layers, nodes) point; return per-point test results.

    Rows are sorted by (layers, nodes) and include the trainable parameter
    count the paper's "lessons learned" discussion compares against LDA's.
    Grid cells are independent; ``n_jobs > 1`` fans them out over a process
    pool with results gathered back in grid order, so the rows are
    identical to a serial run.  ``dtype`` selects the training precision of
    every grid point (``float32`` default; ``float64`` replays the original
    double-precision arithmetic bit-for-bit).

    A grid point that exhausts its ``retries`` degrades to a NaN row;
    ``journal`` checkpoints finished points and skips them on resume.
    """
    split = data.split
    fingerprint = split.train.fingerprint() if fit_cache is not None else None
    payloads = [
        {
            "cell": cell_key("fig1", n_layers, nodes, n_epochs, seed, dtype),
            "factory": functools.partial(
                LSTMModel,
                hidden=nodes,
                n_layers=n_layers,
                n_epochs=n_epochs,
                validation=split.validation,
                seed=seed,
                dtype=dtype,
            ),
            "n_layers": n_layers,
            "nodes": nodes,
            "train": split.train,
            "test": split.test,
            "cache": fit_cache,
            "fingerprint": fingerprint,
        }
        for n_layers in layer_grid
        for nodes in node_grid
    ]
    return resolve_grid_outcomes(
        _grid_task,
        payloads,
        n_jobs=n_jobs,
        retries=retries,
        task_timeout=task_timeout,
        journal=journal,
        failure_value=_failed_row,
    )


def best_point(rows: list[dict[str, float]]) -> dict[str, float]:
    """The grid point with the lowest test perplexity (failed rows excluded)."""
    finite = [r for r in rows if not math.isnan(r["test_perplexity"])]
    if not finite:
        raise ValueError("no grid rows supplied" if not rows else "every grid row failed")
    return min(finite, key=lambda r: r["test_perplexity"])
