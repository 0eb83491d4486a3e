"""Figures 5 and 6: the BPMF degeneracy on dense install-base data.

Figure 5 is a boxplot of BPMF recommendation scores — virtually all mass in
[0.9, 1.0].  Figure 6 sweeps the recommendation-score threshold over
[0.90, 0.99]: below ~0.94 everything is recommended (precision equals the
base rate, recall ~1) and the curves barely move, demonstrating that the
scores carry no ranking information on dense binary data.
"""

from __future__ import annotations

import datetime as dt
import functools
from typing import Any, Sequence

import numpy as np

from repro.experiments.common import ExperimentData
from repro.models.bpmf import BayesianPMF
from repro.obs import get_logger, trace
from repro.recommend.evaluation import count_observations, window_tasks
from repro.recommend.windows import Window
from repro.runtime import (
    FitCache,
    RunJournal,
    TaskError,
    cell_key,
    faults,
    fit_model,
    resolve_grid_outcomes,
)

__all__ = ["run_bpmf_analysis"]


def _failed_analysis(payload: dict[str, Any], error: TaskError) -> dict[str, object]:
    """The recorded-failure shape of the BPMF analysis: NaN everywhere."""
    get_logger("experiments").warning(
        "BPMF analysis failed after %d attempt(s): %s",
        error.attempts,
        error.describe(),
    )
    nan = float("nan")
    return {
        "score_quantiles": {
            "min": nan,
            "q1": nan,
            "median": nan,
            "q3": nan,
            "max": nan,
            "frac_ge_0.9": nan,
        },
        "threshold_rows": [],
        "failed": error.describe(),
    }


def run_bpmf_analysis(
    data: ExperimentData,
    *,
    n_factors: int = 8,
    n_iter: int = 50,
    thresholds: Sequence[float] = tuple(np.round(np.arange(0.90, 1.0, 0.01), 2)),
    seed: int = 0,
    fit_cache: FitCache | None = None,
    retries: int = 0,
    journal: RunJournal | None = None,
) -> dict[str, object]:
    """Fit BPMF on the train companies' positive cells; analyse the scores.

    Returns a dict with:

    * ``"score_quantiles"`` — the Figure 5 boxplot statistics (min, q1,
      median, q3, max, plus the fraction of scores >= 0.9);
    * ``"threshold_rows"`` — Figure 6: precision/recall/F1 of recommending
      every unowned product whose score passes each threshold, judged
      against the test-period ground truth (products first seen after the
      train cutoff are unavailable to BPMF, so the natural protocol is the
      same one the recommendation harness uses for a single window over
      the whole horizon).

    The analysis is one fault-tolerance cell: it is retried ``retries``
    extra times on failure, checkpointed/replayed through ``journal``, and
    degrades to an all-NaN result carrying a ``"failed"`` message when the
    attempts are exhausted.
    """
    payload = {
        "cell": cell_key("fig56", n_factors, n_iter, seed),
        "args": (data, n_factors, n_iter, thresholds, seed, fit_cache),
    }
    [result] = resolve_grid_outcomes(
        _bpmf_cell,
        [payload],
        retries=retries,
        journal=journal,
        failure_value=_failed_analysis,
    )
    return result


def _bpmf_cell(payload: dict[str, Any]) -> dict[str, object]:
    """Cell task: one attempt of the analysis, behind its fault site."""
    faults.inject(payload["cell"])
    return _bpmf_analysis(*payload["args"])


def _bpmf_analysis(
    data: ExperimentData,
    n_factors: int,
    n_iter: int,
    thresholds: Sequence[float],
    seed: int,
    fit_cache: FitCache | None,
) -> dict[str, object]:
    """The actual fit + score analysis (one attempt)."""
    corpus = data.corpus
    cutoff = dt.date(2013, 1, 1)
    with trace.span("exp.fig56.fit"):
        train = corpus.truncated_before(cutoff)
        model = fit_model(
            functools.partial(BayesianPMF, n_factors=n_factors, n_iter=n_iter, seed=seed),
            train,
            fit_cache,
        )
    scores = model.recommendation_scores()
    quantiles = {
        "min": float(scores.min()),
        "q1": float(np.quantile(scores, 0.25)),
        "median": float(np.median(scores)),
        "q3": float(np.quantile(scores, 0.75)),
        "max": float(scores.max()),
        "frac_ge_0.9": float((scores >= 0.9).mean()),
    }

    # One evaluation pass: recommend unowned products above each threshold,
    # judged against everything first seen from the cutoff on — the
    # sliding-window evaluator's counting over one unbounded window.  The
    # window's companies are the training companies, in BPMF's row order.
    with trace.span("exp.fig56.evaluate"):
        __, owned_sets, truths = window_tasks(corpus, Window(cutoff, dt.date.max))
        observations = count_observations(
            model.prediction_matrix, owned_sets, truths, thresholds, cutoff
        )
        rows = [
            {
                "threshold": float(o.threshold),
                "precision": o.precision,
                "recall": o.recall,
                "f1": o.f1,
                "retrieved": float(o.n_retrieved),
                "correct": float(o.n_correct),
            }
            for o in observations
        ]
    return {"score_quantiles": quantiles, "threshold_rows": rows}
