"""Latent Dirichlet Allocation — the paper's best-performing model.

Companies are documents, products are words (Section 3.3).  LDA learns a
``K x M`` topic-product matrix phi and per-company topic mixtures theta; the
mixtures are the company representations B_i used for clustering and
similarity search, and ``theta @ phi`` is the product distribution the
recommender thresholds.

Two inference back-ends are provided and cross-checked in the test suite:

* ``inference="gibbs"`` — collapsed Gibbs sampling (Griffiths & Steyvers),
  the reference implementation for binary inputs;
* ``inference="variational"`` — batch variational Bayes (Blei et al. 2003),
  which also accepts *fractional* counts and therefore supports the paper's
  TF-IDF input variant (Section 4.1 treats the input representation as an
  LDA parameter).

Held-out evaluation uses deterministic EM fold-in with phi held fixed, and
perplexity is computed on the actual (binary) products, matching the
paper's protocol of measuring "average perplexity per product ... on a test
set".  Two scoring modes are available:

* ``score_mode="completion"`` (default) — document completion: each product
  is scored under the mixture inferred from the company's *other* products.
  This is the honest held-out score; it penalises excess topics and
  produces the paper's U-shaped perplexity-vs-K curve (Figure 2).
* ``score_mode="fold_in"`` — the mixture is inferred from the full company
  (including the scored product), the cheaper protocol some libraries use.

LDA sees a company only through its product row, and corpora repeat rows
heavily (a 20k-company universe holds about 5,900 distinct product sets).
Every corpus-level computation — the variational fit's E-step,
``company_features`` and held-out scoring — therefore runs once per
distinct row and weights or expands the result by the row's multiplicity.
Per-request inference (:meth:`LatentDirichletAllocation.infer_theta`,
:meth:`~LatentDirichletAllocation.batch_next_product_proba`) and Gibbs
sampling stay per row.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._validation import (
    as_rng,
    check_in_choices,
    check_matrix,
    check_positive_float,
    check_positive_int,
)
from repro.data.corpus import Corpus
from repro.models._special import digamma, trigamma
from repro.models.base import GenerativeModel
from repro.preprocessing.tfidf import TfidfTransform

__all__ = ["LatentDirichletAllocation"]


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix``, where each row falls, and how often.

    Returns ``(distinct, inverse, multiplicity)`` with ``distinct[inverse]``
    equal to ``matrix``.  ``distinct`` keeps first-seen order, so a matrix
    without repeated rows comes back unchanged with unit multiplicities.
    Rows are keyed by their bytes: equal keys are bit-equal rows, for
    fractional (TF-IDF, ``fit_matrix``) rows as well as 0/1 ones, at a
    tenth of the cost of ``np.unique(axis=0)``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    keys = matrix.view(np.dtype((np.void, matrix.itemsize * n_cols))).reshape(n_rows)
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    multiplicity = counts[order].astype(np.float64)
    return matrix[first[order]], rank[inverse.reshape(n_rows)], multiplicity


class LatentDirichletAllocation(GenerativeModel):
    """LDA over company-product data.

    Parameters
    ----------
    n_topics:
        Number of latent topics K (the paper finds 2-4 best).
    alpha:
        Symmetric Dirichlet prior on company-topic mixtures; defaults to
        ``1 / n_topics``.  Pass the string ``"auto"`` (variational
        inference only) to learn the symmetric concentration by Newton
        updates during fitting, the way gensim's ``alpha='auto'`` does.
    beta:
        Symmetric Dirichlet prior on topic-product distributions.
    inference:
        ``"gibbs"`` or ``"variational"``.
    gibbs_sampler:
        ``"blocked"`` (default) vectorizes each sweep over fixed-size
        chunks of the shuffled token stream — same stationary behaviour,
        an order of magnitude faster in pure numpy; ``"token"`` is the
        classic one-token-at-a-time reference sweep.  The two samplers
        follow different chains for the same seed but agree on the fitted
        phi within the tolerance documented in the test suite.
    input_type:
        ``"binary"`` feeds the raw 0/1 matrix; ``"tfidf"`` feeds IDF-weighted
        fractional counts (variational inference only).
    n_iter:
        Gibbs sweeps or variational EM epochs.
    fold_in_iter:
        EM iterations when inferring mixtures for unseen companies.
    score_mode:
        Held-out scoring protocol: ``"completion"`` (leave-one-out, default)
        or ``"fold_in"``.
    seed:
        Randomness control for Gibbs initialisation and sampling.
    """

    name = "lda"

    def __init__(
        self,
        n_topics: int = 3,
        *,
        alpha: float | str | None = None,
        beta: float = 0.1,
        inference: str = "gibbs",
        gibbs_sampler: str = "blocked",
        input_type: str = "binary",
        n_iter: int = 150,
        fold_in_iter: int = 30,
        score_mode: str = "completion",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        self.n_topics = check_positive_int(n_topics, "n_topics")
        self.learn_alpha = alpha == "auto"
        if self.learn_alpha:
            if inference != "variational":
                raise ValueError("alpha='auto' requires inference='variational'")
            self.alpha = 1.0 / n_topics
        else:
            self.alpha = (
                check_positive_float(alpha, "alpha")
                if alpha is not None
                else 1.0 / n_topics
            )
        self.beta = check_positive_float(beta, "beta")
        self.inference = check_in_choices(inference, "inference", ("gibbs", "variational"))
        self.gibbs_sampler = check_in_choices(
            gibbs_sampler, "gibbs_sampler", ("blocked", "token")
        )
        self.input_type = check_in_choices(input_type, "input_type", ("binary", "tfidf"))
        if self.inference == "gibbs" and self.input_type == "tfidf":
            raise ValueError(
                "TF-IDF input requires fractional counts; use inference='variational'"
            )
        self.n_iter = check_positive_int(n_iter, "n_iter")
        self.fold_in_iter = check_positive_int(fold_in_iter, "fold_in_iter")
        self.score_mode = check_in_choices(
            score_mode, "score_mode", ("completion", "fold_in")
        )
        self._seed = seed
        self._phi: np.ndarray | None = None  # (K, M) topic-product
        self._train_theta: np.ndarray | None = None  # (D_train, K)
        self._tfidf: TfidfTransform | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, corpus: Corpus) -> "LatentDirichletAllocation":
        binary = corpus.binary_matrix()
        if self.input_type == "tfidf":
            self._tfidf = TfidfTransform(norm="l1")
            counts = self._tfidf.fit_transform(binary)
            # Scale each company back to its true product count so document
            # lengths (and hence the prior's pull) stay comparable to the
            # binary input.
            counts = counts * binary.sum(axis=1, keepdims=True)
        else:
            counts = binary
        if self.inference == "gibbs":
            self._fit_gibbs(binary)
        else:
            self._fit_variational(counts)
        self._vocab_size = corpus.n_products
        return self

    def fit_matrix(self, counts: np.ndarray) -> "LatentDirichletAllocation":
        """Fit directly on a non-negative count matrix (power-user entry).

        Gibbs inference requires integer-valued counts; variational accepts
        fractional ones.
        """
        matrix = check_matrix(counts, "counts")
        if np.any(matrix < 0):
            raise ValueError("counts must be non-negative")
        if self.inference == "gibbs":
            if not np.allclose(matrix, np.round(matrix)):
                raise ValueError("Gibbs inference requires integer counts")
            self._fit_gibbs(matrix)
        else:
            self._fit_variational(matrix)
        self._vocab_size = matrix.shape[1]
        return self

    def _token_streams(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Doc/word id streams: one entry per (doc, word) occurrence."""
        doc_ids: list[int] = []
        word_ids: list[int] = []
        for d in range(counts.shape[0]):
            for w in np.flatnonzero(counts[d]):
                doc_ids.extend([d] * int(round(counts[d, w])))
                word_ids.extend([w] * int(round(counts[d, w])))
        docs = np.array(doc_ids, dtype=np.int64)
        words = np.array(word_ids, dtype=np.int64)
        if len(docs) == 0:
            raise ValueError("corpus has no products")
        return docs, words

    def _finish_gibbs(
        self,
        phi_accumulator: np.ndarray,
        theta_accumulator: np.ndarray,
        n_saved: int,
    ) -> None:
        self._phi = phi_accumulator / n_saved
        self._phi /= self._phi.sum(axis=1, keepdims=True)
        self._train_theta = theta_accumulator / n_saved

    def _fit_gibbs(self, counts: np.ndarray) -> None:
        """Collapsed Gibbs sampling on integer count data."""
        if self.gibbs_sampler == "token":
            self._fit_gibbs_token(counts)
        else:
            self._fit_gibbs_blocked(counts)

    #: Tokens resampled per vectorized draw in the blocked Gibbs sampler.
    #: Within a chunk, tokens see the counts as of the chunk start (minus
    #: their own contribution); deltas are applied between chunks, so the
    #: staleness is bounded by this constant regardless of corpus size.
    GIBBS_CHUNK: int = 128

    def _fit_gibbs_blocked(self, counts: np.ndarray) -> None:
        """Chunked-block Gibbs: one vectorized draw per 128-token chunk.

        Each sweep shuffles the token stream (like the token sampler) and
        walks it in chunks of :attr:`GIBBS_CHUNK`.  All tokens of a chunk
        compute their conditionals from the current counts minus exactly
        their own contribution (the collapsed-Gibbs exclusion, vectorized
        as a one-hot subtraction), are resampled in a single cumsum +
        row-wise searchsorted pass, and the count deltas are applied before
        the next chunk.  This is the synchronous block update of
        distributed LDA samplers (AD-LDA style) with bounded staleness:
        tokens inside one chunk see each other's previous assignment
        instead of the fresh one, so the chain differs from the token
        sampler's for the same seed but mixes to the same posterior — the
        test suite bounds the resulting perplexity disagreement.
        """
        rng = as_rng(self._seed)
        n_docs, n_words = counts.shape
        k = self.n_topics
        docs, words = self._token_streams(counts)
        n_tokens = len(docs)

        z = rng.integers(k, size=n_tokens)
        n_dk = np.zeros((n_docs, k))
        n_kw = np.zeros((k, n_words))
        n_k = np.zeros(k)
        np.add.at(n_dk, (docs, z), 1.0)
        np.add.at(n_kw, (z, words), 1.0)
        np.add.at(n_k, z, 1.0)

        beta_mass = n_words * self.beta
        topic_eye = np.eye(k)

        burn_in = max(self.n_iter // 2, 1)
        phi_accumulator = np.zeros((k, n_words))
        theta_accumulator = np.zeros((n_docs, k))
        n_saved = 0
        order = np.arange(n_tokens)
        for sweep in range(self.n_iter):
            rng.shuffle(order)
            uniforms = rng.random(n_tokens)
            for start in range(0, n_tokens, self.GIBBS_CHUNK):
                chunk = order[start : start + self.GIBBS_CHUNK]
                chunk_docs = docs[chunk]
                chunk_words = words[chunk]
                old = z[chunk]
                # Each token excludes exactly its own contribution from the
                # three count statistics (one-hot on its current topic).
                own = topic_eye[old]  # (C, k)
                weights = (
                    (n_dk[chunk_docs] - own + self.alpha)
                    * (n_kw[:, chunk_words].T - own + self.beta)
                    / (n_k[None, :] - own + beta_mass)
                )
                cumulative = np.cumsum(weights, axis=1)
                targets = uniforms[chunk] * cumulative[:, -1]
                new = (cumulative < targets[:, None]).sum(axis=1)
                np.clip(new, 0, k - 1, out=new)
                z[chunk] = new
                np.add.at(n_dk, (chunk_docs, old), -1.0)
                np.add.at(n_dk, (chunk_docs, new), 1.0)
                np.add.at(n_kw, (old, chunk_words), -1.0)
                np.add.at(n_kw, (new, chunk_words), 1.0)
                n_k += np.bincount(new, minlength=k) - np.bincount(old, minlength=k)
            if sweep >= burn_in:
                phi_accumulator += (n_kw + self.beta) / (
                    (n_k + beta_mass)[:, None]
                )
                theta_accumulator += (n_dk + self.alpha) / (
                    n_dk.sum(axis=1, keepdims=True) + k * self.alpha
                )
                n_saved += 1
        self._finish_gibbs(phi_accumulator, theta_accumulator, n_saved)

    def _fit_gibbs_token(self, counts: np.ndarray) -> None:
        """Reference per-token sweep (the pre-vectorization implementation)."""
        rng = as_rng(self._seed)
        n_docs, n_words = counts.shape
        k = self.n_topics
        docs, words = self._token_streams(counts)
        n_tokens = len(docs)

        z = rng.integers(k, size=n_tokens)
        n_dk = np.zeros((n_docs, k))
        n_kw = np.zeros((k, n_words))
        n_k = np.zeros(k)
        np.add.at(n_dk, (docs, z), 1.0)
        np.add.at(n_kw, (z, words), 1.0)
        np.add.at(n_k, z, 1.0)

        burn_in = max(self.n_iter // 2, 1)
        phi_accumulator = np.zeros((k, n_words))
        theta_accumulator = np.zeros((n_docs, k))
        n_saved = 0
        order = np.arange(n_tokens)
        uniforms = np.empty(n_tokens)
        for sweep in range(self.n_iter):
            rng.shuffle(order)
            rng.random(out=uniforms)
            for position in order:
                d, w, old = docs[position], words[position], z[position]
                n_dk[d, old] -= 1.0
                n_kw[old, w] -= 1.0
                n_k[old] -= 1.0
                weights = (
                    (n_dk[d] + self.alpha)
                    * (n_kw[:, w] + self.beta)
                    / (n_k + n_words * self.beta)
                )
                cumulative = np.cumsum(weights)
                new = int(np.searchsorted(cumulative, uniforms[position] * cumulative[-1]))
                new = min(new, k - 1)
                z[position] = new
                n_dk[d, new] += 1.0
                n_kw[new, w] += 1.0
                n_k[new] += 1.0
            if sweep >= burn_in:
                phi_accumulator += (n_kw + self.beta) / (
                    (n_k + n_words * self.beta)[:, None]
                )
                theta_accumulator += (n_dk + self.alpha) / (
                    n_dk.sum(axis=1, keepdims=True) + k * self.alpha
                )
                n_saved += 1
        self._finish_gibbs(phi_accumulator, theta_accumulator, n_saved)

    def _fit_variational(self, counts: np.ndarray) -> None:
        """Batch variational Bayes on (possibly fractional) count data.

        Identical rows have identical variational posteriors, so the E-step
        runs once per distinct row; the M-step statistics (and the
        ``alpha="auto"`` mean) weight each distinct row by how many
        documents share it.
        """
        rng = as_rng(self._seed)
        distinct, inverse, multiplicity = _distinct_rows(counts)
        n_docs, n_words = distinct.shape
        k = self.n_topics
        lam = rng.gamma(100.0, 0.01, size=(k, n_words))  # topic-word variational
        gamma = np.ones((n_docs, k))
        weighted = np.empty((n_docs, n_words))
        for __ in range(self.n_iter):
            exp_log_beta = np.exp(
                digamma(lam) - digamma(lam.sum(axis=1, keepdims=True))
            )
            exp_log_theta = np.exp(
                digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
            )
            # phi_dwk ∝ exp_log_theta[d,k] * exp_log_beta[k,w]; we only need
            # the sufficient statistics, computed densely since M is small.
            # weighted[d, w] = counts[d, w] / sum_k exp_log_theta[d,k]
            # exp_log_beta[k,w], in one (D, W) buffer for the whole fit.
            np.matmul(exp_log_theta, exp_log_beta, out=weighted)
            weighted += 1e-100
            np.divide(distinct, weighted, out=weighted)
            gamma = self.alpha + exp_log_theta * (weighted @ exp_log_beta.T)
            lam = self.beta + exp_log_beta * (
                (exp_log_theta * multiplicity[:, None]).T @ weighted
            )
            if self.learn_alpha:
                self.alpha = self._update_alpha(gamma, multiplicity)
        self._phi = lam / lam.sum(axis=1, keepdims=True)
        self._train_theta = (gamma / gamma.sum(axis=1, keepdims=True))[inverse]

    def _update_alpha(self, gamma: np.ndarray, multiplicity: np.ndarray) -> float:
        """One Newton step of the symmetric-Dirichlet MLE for alpha.

        Maximises ``log Gamma(K a) - K log Gamma(a) + (a - 1) sum_k
        logphat_k`` where ``logphat`` is the mean variational expectation of
        ``log theta`` over documents (the gensim ``alpha='auto'``
        procedure, restricted to a symmetric prior); row ``d`` of
        ``gamma`` stands for ``multiplicity[d]`` documents.
        """
        k = self.n_topics
        log_theta = digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
        logphat_sum = float((multiplicity @ log_theta).sum() / multiplicity.sum())
        alpha = self.alpha
        gradient = k * digamma(k * alpha) - k * digamma(alpha) + logphat_sum
        hessian = k * k * trigamma(k * alpha) - k * trigamma(alpha)
        if hessian >= 0.0:  # not concave here; keep the current value
            return alpha
        step = gradient / hessian
        updated = alpha - step
        if not np.isfinite(updated) or updated <= 1e-4:
            return alpha
        # Damp large jumps for stability across epochs.
        return float(np.clip(updated, alpha / 2.0, alpha * 2.0))

    # ------------------------------------------------------------------
    # Parameters and representations
    # ------------------------------------------------------------------
    @property
    def phi(self) -> np.ndarray:
        """Topic-product distributions, shape ``(n_topics, M)``."""
        self._check_fitted()
        assert self._phi is not None
        return self._phi

    @property
    def n_parameters(self) -> int:
        """The paper's LDA parameter count: ``nt + nt * M`` (Section 5)."""
        self._check_fitted()
        return self.n_topics + self.n_topics * self.vocab_size

    def product_embeddings(self) -> np.ndarray:
        """Per-product topic loadings p(topic | product), shape ``(M, K)``.

        These are the embeddings projected by t-SNE in Figures 8 and 9.
        """
        phi = self.phi
        posterior = phi / phi.sum(axis=0, keepdims=True)
        return posterior.T.copy()

    def infer_theta(self, counts: np.ndarray) -> np.ndarray:
        """EM fold-in of topic mixtures for unseen companies.

        ``counts`` is a ``(D, M)`` non-negative matrix; phi stays fixed.
        Deterministic given the fitted model.
        """
        matrix = check_matrix(counts, "counts")
        phi = self.phi
        if matrix.shape[1] != phi.shape[1]:
            raise ValueError(
                f"counts have {matrix.shape[1]} products, model fitted on {phi.shape[1]}"
            )
        n_docs = matrix.shape[0]
        theta = np.full((n_docs, self.n_topics), 1.0 / self.n_topics)
        lengths = matrix.sum(axis=1, keepdims=True)
        for __ in range(self.fold_in_iter):
            # responsibilities r[d, k] summed over words:
            # r_dwk ∝ theta[d,k] phi[k,w]
            mixture = theta @ phi + 1e-100  # (D, W)
            summed = (matrix / mixture) @ phi.T * theta  # (D, K)
            theta = (summed + self.alpha) / (lengths + self.n_topics * self.alpha)
        return theta

    def _representation_counts(self, binary: np.ndarray) -> np.ndarray:
        """Map a binary matrix into the model's input representation."""
        if self.input_type == "tfidf":
            assert self._tfidf is not None
            return self._tfidf.transform(binary) * binary.sum(axis=1, keepdims=True)
        return binary

    def company_features(self, corpus: Corpus) -> np.ndarray:
        """Topic mixtures of the corpus's companies — the B_i vectors.

        Each distinct product row is folded in once.
        """
        distinct, inverse, _ = _distinct_rows(corpus.binary_matrix())
        return self.infer_theta(self._representation_counts(distinct))[inverse]

    # ------------------------------------------------------------------
    # Evaluation and recommendation
    # ------------------------------------------------------------------
    def log_prob(self, corpus: Corpus) -> float:
        self._check_fitted()
        if corpus.n_products != self.vocab_size:
            raise ValueError(
                f"corpus has {corpus.n_products} products, model fitted on "
                f"{self.vocab_size}"
            )
        distinct, _, multiplicity = _distinct_rows(corpus.binary_matrix())
        if self.score_mode == "fold_in":
            theta = self.infer_theta(self._representation_counts(distinct))
            mixture = theta @ self.phi + 1e-100
            return float(multiplicity @ (distinct * np.log(mixture)).sum(axis=1))
        return self._completion_log_prob(distinct, multiplicity)

    #: Leave-one-out rows folded in per :meth:`infer_theta` call by the
    #: completion scorer; bounds its working set whatever the corpus size.
    COMPLETION_CHUNK: int = 8192

    def _completion_log_prob(
        self, binary: np.ndarray, multiplicity: np.ndarray
    ) -> float:
        """Leave-one-out scoring: each product under the rest of its company.

        For every owned product the company's mixture is re-inferred with
        that product removed, and the product is scored under the resulting
        ``theta @ phi``.  Companies owning a single product fall back to the
        prior mixture.

        ``binary`` holds distinct company rows, row ``d`` standing for
        ``multiplicity[d]`` companies.  All (row, owned product) pairs are
        scored in one batched pass, each log-probability weighted by its
        row's multiplicity: each pair becomes a copy of its row's counts with
        the held-out product zeroed, and the rows are folded in together, at
        most :attr:`COMPLETION_CHUNK` per :meth:`infer_theta` call.  Beyond
        the input matrix and the pair index, memory is a few
        ``COMPLETION_CHUNK x M`` arrays, so a million-company corpus scores
        in bounded space.
        """
        counts = self._representation_counts(binary)
        phi = self.phi
        companies, products = np.nonzero(binary)
        weights = multiplicity[companies]
        total = 0.0
        for start in range(0, len(companies), self.COMPLETION_CHUNK):
            chunk = slice(start, start + self.COMPLETION_CHUNK)
            rows = companies[chunk]
            held_out = products[chunk]
            variants = counts[rows]
            variants[np.arange(len(rows)), held_out] = 0.0
            theta = self.infer_theta(variants)
            probs = np.einsum("ik,ki->i", theta, phi[:, held_out]) + 1e-100
            total += float(weights[chunk] @ np.log(probs))
        return total

    def next_product_proba(self, history: list[int]) -> np.ndarray:
        return self.batch_next_product_proba([history])[0]

    def batch_next_product_proba(self, histories: list[list[int]]) -> np.ndarray:
        """Batched recommender scores: one fold-in over all histories."""
        if not histories:
            self._check_fitted()
            return np.zeros((0, self.vocab_size), dtype=np.float64)
        counts = np.zeros((len(histories), self.vocab_size))
        for i, history in enumerate(histories):
            for token in self._check_history(history):
                counts[i, token] = 1.0
        theta = self.infer_theta(counts)
        return theta @ self.phi

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _get_state(self) -> dict[str, Any]:
        state = super()._get_state()
        state.update(
            n_topics=self.n_topics,
            alpha=self.alpha,
            learn_alpha=self.learn_alpha,
            beta=self.beta,
            inference=self.inference,
            gibbs_sampler=self.gibbs_sampler,
            input_type=self.input_type,
            n_iter=self.n_iter,
            fold_in_iter=self.fold_in_iter,
            score_mode=self.score_mode,
            phi=self.phi,
        )
        if self._tfidf is not None:
            state["idf"] = self._tfidf.idf
        return state

    def _set_state(self, state: dict[str, Any]) -> None:
        super()._set_state(state)
        self.n_topics = int(state["n_topics"])
        self.alpha = float(state["alpha"])
        self.learn_alpha = bool(state.get("learn_alpha", False))
        self.beta = float(state["beta"])
        self.inference = str(state["inference"])
        self.gibbs_sampler = str(state.get("gibbs_sampler", "blocked"))
        self.input_type = str(state["input_type"])
        self.n_iter = int(state["n_iter"])
        self.fold_in_iter = int(state["fold_in_iter"])
        self.score_mode = str(state["score_mode"])
        self._seed = 0
        self._phi = np.asarray(state["phi"], dtype=np.float64)
        self._train_theta = None
        self._tfidf = None
        if "idf" in state:
            transform = TfidfTransform(norm="l1")
            transform._idf = np.asarray(state["idf"], dtype=np.float64)
            self._tfidf = transform
