"""Figures 3 and 4: recommendation accuracy over sliding windows.

Figure 3 plots recall and F1 (with 95% CIs) against the probability
threshold phi for LDA3, the best LSTM and the depth-2 exact CHH
recommender; Figure 4 plots the retrieved / correctly-retrieved / relevant
product counts.  The paper's qualitative findings:

* LDA recall is consistently highest for phi <= 0.2 and its F1 leads over a
  large phi range;
* LSTM and CHH retrieve similar numbers of *true* products, but CHH
  over-retrieves, hurting its precision;
* the uniform random baseline (p = 1/38) retrieves everything at
  phi <= 0.026 and essentially nothing correct above;
* past some threshold no method recommends anything.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.experiments.common import ExperimentData
from repro.models.chh import ConditionalHeavyHitters
from repro.models.lda import LatentDirichletAllocation
from repro.models.lstm import LSTMModel
from repro.obs import trace
from repro.recommend.baselines import RandomRecommender
from repro.recommend.evaluation import RecommendationEvaluator, ThresholdCurve
from repro.recommend.windows import SlidingWindowSpec
from repro.runtime import FitCache, RunJournal

__all__ = ["run_recommendation_accuracy", "recommendation_factories", "DEFAULT_THRESHOLDS"]

#: The phi grid of Figures 3/4 (paper: 0 .. 0.4 for accuracy, 0 .. 0.9 for counts).
DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(
    float(t) for t in np.round(np.arange(0.0, 0.55, 0.05), 2)
)


def recommendation_factories(
    *,
    lda_topics: int = 3,
    lstm_hidden: int = 200,
    lstm_epochs: int = 10,
    include_random: bool = True,
    seed: int = 0,
) -> dict[str, functools.partial]:
    """The Figure 3/4 methods by curve name, as model factories.

    :func:`run_recommendation_accuracy` evaluates all of them; a caller
    after one curve (``"LDA3"`` by default) can evaluate its factory alone.
    """
    factories = {
        f"LDA{lda_topics}": functools.partial(
            LatentDirichletAllocation,
            n_topics=lda_topics,
            inference="variational",
            n_iter=80,
            seed=seed,
        ),
        "LSTM": functools.partial(
            LSTMModel, hidden=lstm_hidden, n_layers=1, n_epochs=lstm_epochs, seed=seed
        ),
        "CHH": functools.partial(ConditionalHeavyHitters, depth=2),
    }
    if include_random:
        factories["random"] = functools.partial(RandomRecommender)
    return factories


def run_recommendation_accuracy(
    data: ExperimentData,
    *,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    spec: SlidingWindowSpec | None = None,
    lda_topics: int = 3,
    lstm_hidden: int = 200,
    lstm_epochs: int = 10,
    retrain_per_window: bool = False,
    include_random: bool = True,
    seed: int = 0,
    n_jobs: int = 1,
    fit_cache: FitCache | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    journal: RunJournal | None = None,
) -> dict[str, ThresholdCurve]:
    """Run the Figure 3/4 protocol; returns one ThresholdCurve per method.

    ``retrain_per_window=True`` is the paper's exact protocol; the default
    trains once before the first window, which changes the numbers by far
    less than the window-to-window variance and is an order of magnitude
    cheaper (the ablation benchmark quantifies the difference).

    ``n_jobs`` decides only where the (window x model) fit+score cells
    run (``1`` inline, more on a process pool): curves, journal and
    failure handling are identical for any job count.  ``fit_cache``
    memoizes the per-window refits across runs.

    A (window, model) cell that exhausts ``retries`` contributes no
    observation for that window (recorded, not fatal), under either
    protocol; ``journal`` checkpoints finished cells so an interrupted
    sweep resumes without re-running them.
    """
    factories = recommendation_factories(
        lda_topics=lda_topics,
        lstm_hidden=lstm_hidden,
        lstm_epochs=lstm_epochs,
        include_random=include_random,
        seed=seed,
    )
    evaluator = RecommendationEvaluator(
        data.corpus,
        spec=spec if spec is not None else SlidingWindowSpec(),
        thresholds=thresholds,
        retrain_per_window=retrain_per_window,
        n_jobs=n_jobs,
        fit_cache=fit_cache,
        retries=retries,
        task_timeout=task_timeout,
        journal=journal,
    )
    with trace.span("exp.fig34.evaluate"):
        return evaluator.evaluate(factories)


def format_curves(curves: dict[str, ThresholdCurve]) -> str:
    """Fixed-width rendering of the accuracy curves for console output."""
    lines = []
    for name, curve in curves.items():
        lines.append(f"== {name} ==")
        lines.append(
            f"{'phi':>5}  {'recall':>7} {'f1':>7} {'precision':>9} "
            f"{'retrieved':>10} {'correct':>8} {'relevant':>8}"
        )
        for row in curve.as_rows():
            lines.append(
                f"{row['threshold']:>5.2f}  {row['recall']:>7.3f} {row['f1']:>7.3f} "
                f"{row['precision']:>9.3f} {row['retrieved']:>10.0f} "
                f"{row['correct']:>8.0f} {row['relevant']:>8.0f}"
            )
    return "\n".join(lines)
