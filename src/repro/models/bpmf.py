"""Bayesian Probabilistic Matrix Factorization (Salakhutdinov & Mnih 2008).

The paper compares its hidden-layer models against BPMF (Section 5.2),
feeding it rankings derived from the binary install-base matrix ("if a
company has product x, its ranking is equal to 1").  Because that matrix is
dense and far from low-rank, BPMF degenerates: predicted scores pile up in
[0.9, 1.0] (Figure 5) and essentially every product is recommended at any
threshold below ~0.94 (Figure 6).  This implementation reproduces the model
family — Gibbs sampling with Normal-Wishart hyperpriors over user and item
factor distributions — so that the degeneracy can be demonstrated rather
than asserted.

The model consumes a rating triple list ``(row, col, value)``; the paper's
protocol of observing only the positive (owned) cells is the default when
fitting from a corpus.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._validation import as_rng, check_positive_float, check_positive_int
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel

__all__ = ["BayesianPMF"]


class BayesianPMF(GenerativeModel):
    """Gibbs-sampled Bayesian PMF over company x product ratings.

    Parameters
    ----------
    n_factors:
        Latent dimensionality D of company and product factors.
    n_iter:
        Gibbs sweeps; the second half is averaged for prediction.
    beta0, nu_extra:
        Normal-Wishart hyperprior strength (precision scaling and extra
        degrees of freedom beyond the minimum D).
    rating_precision:
        Observation noise precision (alpha in the original paper).
    observe_negatives:
        When fitting from a corpus: include the 0-cells as observed ratings
        (the paper's protocol observes only the 1s; setting this True is the
        ablation showing how much the negatives change the scores).
    seed:
        Randomness control.
    """

    name = "bpmf"

    def __init__(
        self,
        n_factors: int = 8,
        *,
        n_iter: int = 60,
        beta0: float = 2.0,
        nu_extra: int = 1,
        rating_precision: float = 2.0,
        observe_negatives: bool = False,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        self.n_factors = check_positive_int(n_factors, "n_factors")
        self.n_iter = check_positive_int(n_iter, "n_iter")
        self.beta0 = check_positive_float(beta0, "beta0")
        self.nu_extra = check_positive_int(nu_extra, "nu_extra")
        self.rating_precision = check_positive_float(rating_precision, "rating_precision")
        self.observe_negatives = bool(observe_negatives)
        self._seed = seed
        self._prediction: np.ndarray | None = None  # (N_train, M) posterior mean
        self._item_factors: np.ndarray | None = None  # (M, D) last-sample mean
        self._global_mean: float = 0.0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, corpus: Corpus) -> "BayesianPMF":
        binary = corpus.binary_matrix()
        rows, cols = np.nonzero(
            np.ones_like(binary) if self.observe_negatives else binary
        )
        values = binary[rows, cols]
        self.fit_ratings(rows, cols, values, shape=binary.shape)
        return self

    def fit_ratings(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        shape: tuple[int, int],
    ) -> "BayesianPMF":
        """Fit from an explicit rating triple list."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols and values must have equal length")
        if len(rows) == 0:
            raise ValueError("at least one rating is required")
        n_rows, n_cols = shape
        if rows.max() >= n_rows or cols.max() >= n_cols:
            raise ValueError("rating indices exceed the declared shape")
        rng = as_rng(self._seed)
        d = self.n_factors
        mean = float(values.mean())
        centered = values - mean

        user = rng.normal(0.0, 0.1, size=(n_rows, d))
        item = rng.normal(0.0, 0.1, size=(n_cols, d))

        # Pre-index ratings by row and by column for the conditional draws.
        by_row: list[tuple[np.ndarray, np.ndarray]] = []
        order = np.argsort(rows, kind="stable")
        sorted_rows, row_starts = np.unique(rows[order], return_index=True)
        row_map: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        boundaries = list(row_starts) + [len(order)]
        for idx, r in enumerate(sorted_rows):
            sel = order[boundaries[idx] : boundaries[idx + 1]]
            row_map[int(r)] = (cols[sel], centered[sel])
        col_map: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        order_c = np.argsort(cols, kind="stable")
        sorted_cols, col_starts = np.unique(cols[order_c], return_index=True)
        boundaries_c = list(col_starts) + [len(order_c)]
        for idx, c in enumerate(sorted_cols):
            sel = order_c[boundaries_c[idx] : boundaries_c[idx + 1]]
            col_map[int(c)] = (rows[sel], centered[sel])

        prediction_sum = np.zeros((n_rows, n_cols))
        item_sum = np.zeros((n_cols, d))
        n_saved = 0
        burn_in = self.n_iter // 2
        for sweep in range(self.n_iter):
            user_hyper = self._sample_hyper(user, rng)
            item_hyper = self._sample_hyper(item, rng)
            user = self._sample_factors(user, item, row_map, user_hyper, rng)
            item = self._sample_factors(item, user, col_map, item_hyper, rng)
            if sweep >= burn_in:
                prediction_sum += user @ item.T + mean
                item_sum += item
                n_saved += 1
        self._prediction = np.clip(prediction_sum / n_saved, 0.0, 1.0)
        self._item_factors = item_sum / n_saved
        self._global_mean = mean
        self._vocab_size = n_cols
        return self

    def _sample_hyper(
        self, factors: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw (mu, Lambda) from the Normal-Wishart conditional."""
        from scipy.stats import wishart

        n, d = factors.shape
        mean = factors.mean(axis=0)
        scatter = (factors - mean).T @ (factors - mean)
        beta_post = self.beta0 + n
        nu_post = d + self.nu_extra + n
        mu0 = np.zeros(d)
        scale_inv = (
            np.eye(d)
            + scatter
            + (self.beta0 * n / beta_post) * np.outer(mean - mu0, mean - mu0)
        )
        scale = np.linalg.inv(scale_inv)
        scale = (scale + scale.T) / 2.0
        precision = wishart.rvs(df=nu_post, scale=scale, random_state=rng)
        precision = np.atleast_2d(precision)
        mu_mean = (self.beta0 * mu0 + n * mean) / beta_post
        cov = np.linalg.inv(beta_post * precision)
        mu = rng.multivariate_normal(mu_mean, (cov + cov.T) / 2.0)
        return mu, precision

    def _sample_factors(
        self,
        factors: np.ndarray,
        other: np.ndarray,
        index: dict[int, tuple[np.ndarray, np.ndarray]],
        hyper: tuple[np.ndarray, np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw each factor row from its Gaussian conditional.

        The data-dependent contributions ``(alpha * V_i.T) @ V_i`` and
        ``(alpha * V_i.T) @ r_i`` are pre-assembled with one *stacked*
        matmul per distinct rating count instead of two small GEMMs per
        row.  Batched matmul over equal-shaped slices reproduces the
        per-row products bit-for-bit (each output slice is an independent
        GEMM), and the Gibbs draws stay in original row order, so the
        sampled chain is bit-identical to the historical per-row loop.
        """
        mu, precision = hyper
        alpha = self.rating_precision
        fresh = np.empty_like(factors)
        prior_term = precision @ mu
        n_rows = factors.shape[0]

        grams: list[np.ndarray | None] = [None] * n_rows
        rhs: list[np.ndarray | None] = [None] * n_rows
        by_count: dict[int, list[int]] = {}
        for i in range(n_rows):
            entry = index.get(i)
            if entry is not None:
                by_count.setdefault(len(entry[0]), []).append(i)
        for members in by_count.values():
            v_stack = np.stack([other[index[i][0]] for i in members])  # (g, k, d)
            r_stack = np.stack([index[i][1] for i in members])  # (g, k)
            # Replays the reference expression `alpha * v.T @ v`, which by
            # left associativity scales v.T before the product.
            scaled_t = alpha * v_stack.transpose(0, 2, 1)  # (g, d, k)
            gram_stack = np.matmul(scaled_t, v_stack)  # (g, d, d)
            rhs_stack = np.matmul(scaled_t, r_stack[..., None])[..., 0]  # (g, d)
            for pos, i in enumerate(members):
                grams[i] = gram_stack[pos]
                rhs[i] = rhs_stack[pos]

        # Rows with no observed ratings share one prior covariance; the
        # historical loop recomputed the same inverse for each of them.
        prior_cov: np.ndarray | None = None
        for i in range(n_rows):
            gram = grams[i]
            if gram is None:
                if prior_cov is None:
                    cov = np.linalg.inv(precision)
                    prior_cov = (cov + cov.T) / 2.0
                fresh[i] = rng.multivariate_normal(mu, prior_cov)
                continue
            post_precision = precision + gram
            post_cov = np.linalg.inv(post_precision)
            post_mean = post_cov @ (prior_term + rhs[i])
            fresh[i] = rng.multivariate_normal(post_mean, (post_cov + post_cov.T) / 2.0)
        return fresh

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    @property
    def prediction_matrix(self) -> np.ndarray:
        """Posterior-mean recommendation scores for the training companies."""
        self._check_fitted()
        assert self._prediction is not None
        return self._prediction

    def recommendation_scores(self) -> np.ndarray:
        """Flat view of all scores — the distribution boxed in Figure 5."""
        return self.prediction_matrix.ravel().copy()

    def log_prob(self, corpus: Corpus) -> float:
        """Bernoulli log-likelihood of held-out ownership under the scores.

        BPMF is not a generative product model, so Table 1 does not include
        it; this scoring exists for completeness and treats the clipped
        posterior mean as a Bernoulli parameter matched by item profile.
        """
        self._check_fitted()
        binary = corpus.binary_matrix()
        if binary.shape[1] != self.vocab_size:
            raise ValueError("product dimension mismatch")
        item_mean = np.clip(self.prediction_matrix.mean(axis=0), 1e-6, 1 - 1e-6)
        return float(
            (binary * np.log(item_mean) + (1 - binary) * np.log(1 - item_mean)).sum()
        )

    def next_product_proba(self, history: list[int]) -> np.ndarray:
        """Score products for a company described only by its history.

        A cold-start company is matched by averaging the posterior scores of
        the training rows; BPMF has no sequential component, so the history
        only serves input validation.  The point of the paper's Figure 5/6
        experiment is precisely that these scores are indiscriminate.
        """
        self._check_history(history)
        return self.prediction_matrix.mean(axis=0)

    def scores_for_company(self, binary_row: np.ndarray) -> np.ndarray:
        """Posterior scores for one company via ridge-projected factors."""
        self._check_fitted()
        assert self._item_factors is not None
        row = np.asarray(binary_row, dtype=np.float64).ravel()
        if row.shape[0] != self.vocab_size:
            raise ValueError("binary_row length must equal the product count")
        owned = np.flatnonzero(row)
        if len(owned) == 0:
            return self.prediction_matrix.mean(axis=0)
        v = self._item_factors[owned]
        gram = v.T @ v + 0.1 * np.eye(self.n_factors)
        user = np.linalg.solve(gram, v.T @ (row[owned] - self._global_mean))
        return np.clip(self._item_factors @ user + self._global_mean, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _get_state(self) -> dict[str, Any]:
        state = super()._get_state()
        state.update(
            n_factors=self.n_factors,
            n_iter=self.n_iter,
            beta0=self.beta0,
            nu_extra=self.nu_extra,
            rating_precision=self.rating_precision,
            observe_negatives=self.observe_negatives,
            global_mean=self._global_mean,
            prediction=self.prediction_matrix,
            item_factors=self._item_factors,
        )
        return state

    def _set_state(self, state: dict[str, Any]) -> None:
        super()._set_state(state)
        self.n_factors = int(state["n_factors"])
        self.n_iter = int(state["n_iter"])
        self.beta0 = float(state["beta0"])
        self.nu_extra = int(state["nu_extra"])
        self.rating_precision = float(state["rating_precision"])
        self.observe_negatives = bool(state["observe_negatives"])
        self._global_mean = float(state["global_mean"])
        self._prediction = np.asarray(state["prediction"], dtype=np.float64)
        self._item_factors = np.asarray(state["item_factors"], dtype=np.float64)
        self._seed = 0
