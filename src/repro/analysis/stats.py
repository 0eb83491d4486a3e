"""Statistical tools: the sequentiality test and confidence intervals.

The paper justifies sequence modelling with a hypothesis test: "69% of the
bigrams and 43% of the trigrams have frequencies that are statistically
significantly higher than in the case of independent identically
distributed products ... based on the binomial distribution of frequencies
of n-grams" (Section 5).  :func:`sequentiality_test` reproduces that test
on any corpus.

The recommendation figures carry 95% confidence intervals over sliding-
window observations; :func:`mean_confidence_interval` (normal
approximation) and :func:`bootstrap_confidence_interval` provide those.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro._validation import as_rng, check_positive_int, check_probability
from repro.data.corpus import Corpus

__all__ = [
    "SequentialityReport",
    "sequentiality_test",
    "mean_confidence_interval",
    "bootstrap_confidence_interval",
]


@dataclass(frozen=True)
class SequentialityReport:
    """Result of the binomial n-gram sequentiality test."""

    order: int
    n_distinct: int
    n_significant: int
    alpha: float

    @property
    def significant_fraction(self) -> float:
        """Fraction of observed n-grams rejecting the i.i.d. hypothesis."""
        if self.n_distinct == 0:
            return 0.0
        return self.n_significant / self.n_distinct


def sequentiality_test(
    corpus: Corpus, *, order: int = 2, alpha: float = 0.05
) -> SequentialityReport:
    """Binomial test of n-gram frequencies against the i.i.d. hypothesis.

    Under i.i.d. products, the count of an n-gram ``(a_1 ... a_n)`` among
    the N observed n-gram slots is Binomial(N, p_1 * ... * p_n) with p_i the
    unigram probabilities.  An n-gram is *significantly sequential* when its
    observed count exceeds the (1 - alpha) binomial quantile.  The paper
    reports 69% significant bigrams and 43% significant trigrams on its
    deployment.
    """
    check_positive_int(order, "order")
    if order < 2:
        raise ValueError("sequentiality is defined for order >= 2")
    check_probability(alpha, "alpha")
    if alpha in (0.0, 1.0):
        raise ValueError("alpha must be strictly between 0 and 1")
    from scipy.stats import binom

    sequences = corpus.sequences()
    unigram_counts = np.zeros(corpus.n_products)
    ngram_counts: Counter = Counter()
    n_slots = 0
    for seq in sequences:
        for token in seq:
            unigram_counts[token] += 1.0
        for i in range(len(seq) - order + 1):
            ngram_counts[tuple(seq[i : i + order])] += 1
            n_slots += 1
    total_tokens = unigram_counts.sum()
    if total_tokens == 0 or n_slots == 0:
        return SequentialityReport(order, 0, 0, alpha)
    unigram = unigram_counts / total_tokens

    n_significant = 0
    for ngram, count in ngram_counts.items():
        p_iid = float(np.prod([unigram[t] for t in ngram]))
        threshold = binom.ppf(1.0 - alpha, n_slots, p_iid)
        if count > threshold:
            n_significant += 1
    return SequentialityReport(order, len(ngram_counts), n_significant, alpha)


def mean_confidence_interval(
    observations: np.ndarray, *, confidence: float = 0.95
) -> tuple[float, float, float]:
    """Mean and normal-approximation CI of a 1-D sample.

    Returns ``(mean, low, high)``.  A single observation yields a degenerate
    interval at the point.
    """
    data = np.asarray(observations, dtype=np.float64).ravel()
    if data.size == 0:
        raise ValueError("observations must be non-empty")
    check_probability(confidence, "confidence")
    mean = float(data.mean())
    if data.size == 1:
        return mean, mean, mean
    # The normal quantile; at confidence 1 it is infinite (inv_cdf(1) raises).
    z = math.inf if confidence == 1.0 else NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * float(data.std(ddof=1)) / float(np.sqrt(data.size))
    return mean, mean - half, mean + half


def bootstrap_confidence_interval(
    observations: np.ndarray,
    *,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int | np.random.Generator | None = 0,
) -> tuple[float, float, float]:
    """Mean and percentile-bootstrap CI of a 1-D sample."""
    data = np.asarray(observations, dtype=np.float64).ravel()
    if data.size == 0:
        raise ValueError("observations must be non-empty")
    check_probability(confidence, "confidence")
    check_positive_int(n_resamples, "n_resamples")
    rng = as_rng(seed)
    mean = float(data.mean())
    if data.size == 1:
        return mean, mean, mean
    samples = rng.choice(data, size=(n_resamples, data.size), replace=True)
    means = samples.mean(axis=1)
    low = float(np.quantile(means, 0.5 - confidence / 2.0))
    high = float(np.quantile(means, 0.5 + confidence / 2.0))
    return mean, low, high
