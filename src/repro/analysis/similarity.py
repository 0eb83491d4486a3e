"""Company similarity search over learned representations.

Equation (5) of the paper: company distance is any vector distance over the
learned features B.  The sales application (Section 6) needs top-k searches
over those features; this module provides the vectorised primitives.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_in_choices, check_matrix, check_positive_int

__all__ = [
    "cosine_similarity_matrix",
    "top_k_similar",
    "top_k_from_scores",
    "pairwise_distances",
]


def cosine_similarity_matrix(features: np.ndarray) -> np.ndarray:
    """Dense cosine similarity between all rows of ``features``.

    Zero rows are treated as dissimilar to everything (similarity 0).
    """
    matrix = check_matrix(features, "features")
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = matrix / safe[:, None]
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    sim[norms == 0.0, :] = 0.0
    sim[:, norms == 0.0] = 0.0
    return sim


def pairwise_distances(features: np.ndarray, *, metric: str = "cosine") -> np.ndarray:
    """Distance matrix under ``"cosine"`` or ``"euclidean"``."""
    matrix = check_matrix(features, "features")
    check_in_choices(metric, "metric", ("cosine", "euclidean"))
    if metric == "cosine":
        return 1.0 - cosine_similarity_matrix(matrix)
    sq = (matrix**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (matrix @ matrix.T)
    return np.sqrt(np.maximum(d2, 0.0))


def _top_k_desc(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, descending, ties by index.

    Bit-identical to ``np.argsort(-values, kind="stable")[:k]`` — stable
    descending order with equal values kept in ascending-index order — but
    built on :func:`np.argpartition` so only the top slice is ever sorted:
    O(n + k log k) instead of a full O(n log n) sort, the difference the
    serving similarity path depends on at large corpora.
    """
    n = values.shape[0]
    if k >= n:
        return np.argsort(-values, kind="stable")
    negated = -values
    kth = np.partition(negated, k - 1)[k - 1]
    # Strictly better entries (at most k-1 of them) take their slots; the
    # entries tied at the boundary fill the rest smallest-index first —
    # exactly the order a stable full sort would have produced.
    better = np.flatnonzero(negated < kth)
    chosen = (
        np.concatenate([better, np.flatnonzero(negated == kth)[: k - len(better)]])
        if len(better) < k
        else better[:k]
    )
    return chosen[np.argsort(negated[chosen], kind="stable")]


def top_k_from_scores(
    scores: np.ndarray,
    k: int,
    *,
    exclude: int | None = None,
    candidate_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the ``k`` highest scores, honoring exclusions and masks.

    The selection primitive behind every similarity search (the tool's
    ``/similar`` answers and :func:`top_k_similar`): one
    :func:`np.argpartition` pass over a precomputed score vector, no
    python loop, no full sort.  Ties break by ascending index, matching a
    stable descending sort bit for bit.
    """
    scores = np.asarray(scores)
    check_positive_int(k, "k")
    n = scores.shape[0]
    if candidate_mask is None and exclude is None:
        return _top_k_desc(scores, k)
    allowed = (
        np.ones(n, dtype=bool)
        if candidate_mask is None
        else np.asarray(candidate_mask, dtype=bool).copy()
    )
    if allowed.shape[0] != n:
        raise ValueError("candidate_mask length must match the score vector")
    if exclude is not None:
        allowed[exclude] = False
    candidates = np.flatnonzero(allowed)
    if len(candidates) == 0:
        return candidates
    return candidates[_top_k_desc(scores[candidates], min(k, len(candidates)))]


def top_k_similar(
    features: np.ndarray,
    query_index: int,
    k: int,
    *,
    metric: str = "cosine",
    candidate_mask: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """The ``k`` companies most similar to ``query_index``.

    Returns ``(index, similarity)`` pairs (similarity = 1 - distance for
    euclidean scaled into similarity is *not* attempted; for euclidean the
    second element is the negated distance so that higher is always
    better).  ``candidate_mask`` restricts the searched companies — the
    filter hook the sales application uses.  Selection runs through
    :func:`top_k_from_scores`, a single matrix–vector product plus an
    ``argpartition`` — no per-company loop, no full sort.
    """
    matrix = check_matrix(features, "features")
    check_positive_int(k, "k")
    check_in_choices(metric, "metric", ("cosine", "euclidean"))
    n = matrix.shape[0]
    if not 0 <= query_index < n:
        raise IndexError(f"query_index {query_index} out of range [0, {n})")
    if metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        unit = matrix / safe[:, None]
        scores = unit @ unit[query_index]
        if norms[query_index] == 0.0:
            scores = np.zeros(n)
        scores[norms == 0.0] = 0.0
    else:
        diff = matrix - matrix[query_index]
        scores = -np.sqrt((diff**2).sum(axis=1))
    if candidate_mask is not None and np.asarray(candidate_mask).shape[0] != n:
        raise ValueError("candidate_mask length must match the feature rows")
    ranked = top_k_from_scores(
        scores, k, exclude=query_index, candidate_mask=candidate_mask
    )
    return [(int(i), float(scores[i])) for i in ranked]
