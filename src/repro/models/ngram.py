"""N-gram sequence models / sequential association rules.

The paper's second baseline treats the time-sorted product series A^S as
sentences and fits bi- and tri-gram models; it reports their perplexity as
"not lower than 15.5" (Section 5).  N-gram conditionals are exactly
sequential association rules of the corresponding depth, so the same object
doubles as the rule-based recommender.

Probabilities are Jelinek-Mercer interpolated down to the (additively
smoothed) unigram so that unseen contexts and products stay finite:

``p(a | h) = lam * ML(a | h) + (1 - lam) * p(a | shorter h)``

A beginning-of-sequence token conditions the first products of a company.

The fit counts every context level straight from the corpus's token
columns (:meth:`~repro.data.corpus.Corpus.token_rows`) with ``np.unique``
over packed context codes; the count tables keep the first-occurrence order
of a per-token walk, so the fitted state is the same whatever the store.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any

import numpy as np

from repro._validation import check_positive_float, check_positive_int, check_probability
from repro.data.columnar import gather_ranges
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel

__all__ = ["NGramModel"]


class NGramModel(GenerativeModel):
    """Interpolated n-gram model over product sequences.

    Parameters
    ----------
    order:
        Context length + 1; ``order=2`` is the bigram, ``order=3`` the
        trigram.  ``order=1`` degenerates to a (sequence-aware) unigram.
    interpolation:
        Jelinek-Mercer weight ``lam`` on the maximum-likelihood estimate of
        each level; the remaining mass backs off to the next-shorter
        context.
    smoothing:
        Additive pseudo-count of the level-0 (unigram) distribution.
    """

    name = "ngram"

    #: Sentinel token id for the beginning of a sequence; stored in contexts
    #: only, never predicted.
    BOS = -1

    def __init__(
        self,
        order: int = 2,
        *,
        interpolation: float = 0.75,
        smoothing: float = 0.5,
    ) -> None:
        super().__init__()
        self.order = check_positive_int(order, "order")
        self.interpolation = check_probability(interpolation, "interpolation")
        self.smoothing = check_positive_float(smoothing, "smoothing")
        self._unigram: np.ndarray | None = None
        #: level -> {context tuple -> Counter of next tokens}
        self._counts: list[dict[tuple[int, ...], Counter]] = []
        #: level -> {context tuple -> total count}
        self._totals: list[dict[tuple[int, ...], int]] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, corpus: Corpus) -> "NGramModel":
        starts, ends, column = corpus.token_rows()
        lengths = ends - starts
        tokens = np.asarray(column[gather_ranges(starts, lengths)], dtype=np.int64)
        vocab = corpus.n_products
        unigram_counts = np.full(vocab, self.smoothing)
        # Unbuffered and in token order: the same float additions as one
        # ``+= 1.0`` per token, so the smoothed counts agree to the bit.
        np.add.at(unigram_counts, tokens, 1.0)
        self._unigram = unigram_counts / unigram_counts.sum()
        # Position of every token within its sequence, for the BOS padding.
        offset = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self._counts, self._totals = [], []
        # Row p holds position p's context, oldest token first.
        context = np.empty((len(tokens), 0), dtype=np.int64)
        code = np.zeros(len(tokens), dtype=np.int64)
        for level in range(1, self.order):
            previous = np.full(len(tokens), self.BOS, dtype=np.int64)
            previous[level:] = tokens[: len(tokens) - level]
            previous[offset < level] = self.BOS
            context = np.column_stack((previous, context))
            # A level's context is the previous level's with one older
            # token in front; re-ranking keeps the packed codes small.
            __, context_first, code = np.unique(
                code * (vocab + 1) + previous + 1, return_index=True, return_inverse=True
            )
            self._fit_level(tokens, context, code, context_first, vocab)
        self._vocab_size = vocab
        return self

    def _fit_level(
        self,
        tokens: np.ndarray,
        context: np.ndarray,
        code: np.ndarray,
        context_first: np.ndarray,
        vocab: int,
    ) -> None:
        """Append one level's count tables, in first-occurrence order.

        ``code`` ranks each position's context, whose first position is
        ``context_first[code]``.  Contexts enter the tables in the order
        they first occur and each context's next tokens in the order their
        pair first occurs, as a per-token walk would insert them.
        """
        pairs, pair_first, pair_count = np.unique(
            code * vocab + tokens, return_index=True, return_counts=True
        )
        order = np.lexsort((pair_first, context_first[pairs // vocab]))
        counts: dict[tuple[int, ...], Counter] = {}
        totals: dict[tuple[int, ...], int] = {}
        for key, token, count in zip(
            map(tuple, context[pair_first[order]].tolist()),
            (pairs[order] % vocab).tolist(),
            pair_count[order].tolist(),
        ):
            counter = counts.get(key)
            if counter is None:
                counter = counts[key] = Counter()
                totals[key] = 0
            counter[token] = count
            totals[key] += count
        self._counts.append(counts)
        self._totals.append(totals)

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def _conditional(self, context: tuple[int, ...]) -> np.ndarray:
        """Interpolated distribution over the next product given a context."""
        assert self._unigram is not None
        proba = self._unigram
        for level in range(1, self.order):
            sub_context = context[len(context) - level :]
            total = self._totals[level - 1].get(sub_context, 0)
            if total == 0:
                continue
            ml = np.zeros_like(proba)
            for token, count in self._counts[level - 1][sub_context].items():
                ml[token] = count / total
            proba = self.interpolation * ml + (1.0 - self.interpolation) * proba
        return proba

    def sequence_log_prob(self, sequence: list[int]) -> float:
        """Teacher-forced log-probability of one product sequence."""
        self._check_fitted()
        return self._sequence_log_prob(sequence, {})

    def _sequence_log_prob(
        self, sequence: list[int], conditionals: dict[tuple[int, ...], np.ndarray]
    ) -> float:
        """``sequence_log_prob``, reusing and filling a context -> proba memo."""
        padded = [self.BOS] * (self.order - 1) + list(sequence)
        total = 0.0
        for t, token in enumerate(sequence):
            position = t + self.order - 1
            context = tuple(padded[position - (self.order - 1) : position])
            proba = conditionals.get(context)
            if proba is None:
                proba = conditionals[context] = self._conditional(context)
            total += float(np.log(proba[token]))
        return total

    def log_prob(self, corpus: Corpus) -> float:
        self._check_fitted()
        if corpus.n_products != self.vocab_size:
            raise ValueError(
                f"corpus has {corpus.n_products} products, model fitted on "
                f"{self.vocab_size}"
            )
        # A corpus has few distinct contexts (at most M + 1 for a bigram):
        # compute each one's distribution once per call.
        conditionals: dict[tuple[int, ...], np.ndarray] = {}
        return sum(
            self._sequence_log_prob(seq, conditionals) for seq in corpus.sequences()
        )

    def next_product_proba(self, history: list[int]) -> np.ndarray:
        clean = self._check_history(history)
        padded = [self.BOS] * (self.order - 1) + clean
        context = tuple(padded[len(padded) - (self.order - 1) :]) if self.order > 1 else ()
        return self._conditional(context)

    # ------------------------------------------------------------------
    # Association-rule view
    # ------------------------------------------------------------------
    def rules(self, *, min_count: int = 5, min_confidence: float = 0.1) -> list[tuple[tuple[int, ...], int, float, int]]:
        """Sequential association rules mined from the top-level counts.

        Returns ``(context, consequent, confidence, support_count)`` tuples
        sorted by confidence, for contexts of the model's full depth.
        """
        self._check_fitted()
        check_positive_int(min_count, "min_count")
        check_probability(min_confidence, "min_confidence")
        if self.order < 2:
            return []
        level = self.order - 2
        found = []
        for context, counter in self._counts[level].items():
            total = self._totals[level][context]
            if total < min_count:
                continue
            for token, count in counter.items():
                confidence = count / total
                if confidence >= min_confidence:
                    found.append((context, token, confidence, count))
        found.sort(key=lambda rule: (-rule[2], -rule[3], rule[0], rule[1]))
        return found

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _get_state(self) -> dict[str, Any]:
        state = super()._get_state()
        state["order"] = self.order
        state["interpolation"] = self.interpolation
        state["smoothing"] = self.smoothing
        state["unigram"] = self._unigram
        # Flatten count tables into parallel arrays per level.
        for level in range(self.order - 1):
            rows = []
            for context, counter in self._counts[level].items():
                for token, count in counter.items():
                    rows.append(list(context) + [token, count])
            state[f"level_{level}"] = (
                np.array(rows, dtype=np.int64)
                if rows
                else np.empty((0, level + 3), dtype=np.int64)
            )
        return state

    def _set_state(self, state: dict[str, Any]) -> None:
        super()._set_state(state)
        self.order = int(state["order"])
        self.interpolation = float(state["interpolation"])
        self.smoothing = float(state["smoothing"])
        self._unigram = np.asarray(state["unigram"], dtype=np.float64)
        self._counts = []
        self._totals = []
        for level in range(self.order - 1):
            counts: dict[tuple[int, ...], Counter] = defaultdict(Counter)
            totals: dict[tuple[int, ...], int] = defaultdict(int)
            for row in np.asarray(state[f"level_{level}"]):
                context = tuple(int(v) for v in row[: level + 1])
                token, count = int(row[-2]), int(row[-1])
                counts[context][token] = count
                totals[context] += count
            self._counts.append(dict(counts))
            self._totals.append(dict(totals))
