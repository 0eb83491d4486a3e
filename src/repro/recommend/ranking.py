"""Top-k ranking metrics for recommenders.

The paper evaluates thresholded recommendations (precision/recall vs phi).
A production recommender is usually consumed as a ranked top-k list
instead, so the library also ships the standard ranking metrics —
precision@k, recall@k, mean reciprocal rank, and nDCG@k — plus an
evaluator that scores any :class:`~repro.models.base.GenerativeModel` on
the same sliding-window ground truth.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._validation import check_positive_int
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel
from repro.recommend.evaluation import window_tasks
from repro.recommend.windows import Window

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "reciprocal_rank",
    "ndcg_at_k",
    "RankingReport",
    "evaluate_ranking",
]


def precision_at_k(ranked: list[int], truth: set[int], k: int) -> float:
    """Fraction of the top-k ranked items that are relevant."""
    check_positive_int(k, "k")
    if not ranked:
        return 0.0
    top = ranked[:k]
    return sum(1 for item in top if item in truth) / len(top)


def recall_at_k(ranked: list[int], truth: set[int], k: int) -> float:
    """Fraction of the relevant items found in the top k."""
    check_positive_int(k, "k")
    if not truth:
        return 0.0
    top = set(ranked[:k])
    return len(top & truth) / len(truth)


def reciprocal_rank(ranked: list[int], truth: set[int]) -> float:
    """1 / rank of the first relevant item (0 if none appears)."""
    for position, item in enumerate(ranked, start=1):
        if item in truth:
            return 1.0 / position
    return 0.0


def ndcg_at_k(ranked: list[int], truth: set[int], k: int) -> float:
    """Normalised discounted cumulative gain with binary relevance."""
    check_positive_int(k, "k")
    if not truth:
        return 0.0
    gain = 0.0
    for position, item in enumerate(ranked[:k], start=1):
        if item in truth:
            gain += 1.0 / np.log2(position + 1)
    ideal = sum(1.0 / np.log2(p + 1) for p in range(1, min(len(truth), k) + 1))
    return gain / ideal if ideal > 0 else 0.0


@dataclass(frozen=True)
class RankingReport:
    """Mean ranking metrics over all evaluated companies."""

    k: int
    n_companies: int
    precision: float
    recall: float
    mrr: float
    ndcg: float


def evaluate_ranking(
    corpus: Corpus,
    model_factory: Callable[[], GenerativeModel],
    *,
    cutoff: dt.date = dt.date(2013, 1, 1),
    horizon: dt.date = dt.date(2016, 1, 1),
    k: int = 5,
) -> RankingReport:
    """Score a model's ranked recommendations against post-cutoff truth.

    The model trains on everything strictly before ``cutoff``; for each
    company with history, unowned products are ranked by score and compared
    with the products first seen in ``[cutoff, horizon)``.  Companies with
    no ground-truth products are skipped (all ranking metrics would be
    vacuous for them).
    """
    check_positive_int(k, "k")
    if horizon <= cutoff:
        raise ValueError(f"horizon {horizon} must follow cutoff {cutoff}")
    train = corpus.truncated_before(cutoff)
    model = model_factory().fit(train)

    tasks = [
        task
        for task in zip(*window_tasks(corpus, Window(cutoff, horizon)))
        if task[2]
    ]
    if not tasks:
        raise ValueError("no company has both history and ground truth")

    scores = model.batch_next_product_proba([history for history, __, __ in tasks])
    precisions, recalls, mrrs, ndcgs = [], [], [], []
    for row, (__, owned, truth) in zip(scores, tasks):
        order = np.argsort(-row, kind="stable")
        ranked = [int(t) for t in order if int(t) not in owned]
        precisions.append(precision_at_k(ranked, truth, k))
        recalls.append(recall_at_k(ranked, truth, k))
        mrrs.append(reciprocal_rank(ranked, truth))
        ndcgs.append(ndcg_at_k(ranked, truth, k))
    return RankingReport(
        k=k,
        n_companies=len(tasks),
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        mrr=float(np.mean(mrrs)),
        ndcg=float(np.mean(ndcgs)),
    )
