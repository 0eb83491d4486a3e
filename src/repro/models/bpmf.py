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

import warnings
from typing import Any, NamedTuple

import numpy as np

from repro._validation import as_rng, check_positive_float, check_positive_int
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel

__all__ = ["BayesianPMF"]


class _CountGroups(NamedTuple):
    """One side's ratings grouped by rating count, built once per fit.

    ``rated`` lists the rows with at least one rating, ascending.  Each
    entry of ``by_count`` holds the rows rated exactly ``k`` times: their
    positions in ``rated``, their partners' ids ``(g, k)`` and their
    centred ratings ``(g, k)``, each row's entries in input order.
    """

    rated: np.ndarray
    by_count: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _group_by_count(
    keys: np.ndarray, partners: np.ndarray, values: np.ndarray
) -> _CountGroups:
    """Group the ratings ``(keys[j], partners[j], values[j])`` by ``keys``."""
    order = np.argsort(keys, kind="stable")
    rated, starts, counts = np.unique(
        keys[order], return_index=True, return_counts=True
    )
    by_count = []
    for k in np.unique(counts):
        pos = np.flatnonzero(counts == k)
        sel = order[starts[pos, None] + np.arange(k)]
        by_count.append((pos, partners[sel], values[sel]))
    return _CountGroups(rated, tuple(by_count))


def _svd_factors(covs: np.ndarray) -> np.ndarray:
    """Stacked ``A`` with ``A @ A.T == cov`` for each covariance in ``covs``.

    Repeats ``Generator.multivariate_normal``'s ``method="svd"`` slice by
    slice: ``u * sqrt(s)`` from one stacked SVD, and the same
    positive-semidefinite check (its default ``tol=1e-8``), warning with
    the same ``RuntimeWarning``.
    """
    u, s, vh = np.linalg.svd(covs)
    rebuilt = (vh.transpose(0, 2, 1) * s[:, None, :]) @ vh
    if not np.isclose(rebuilt, covs, rtol=1e-8, atol=1e-8).all():
        warnings.warn(
            "covariance is not symmetric positive-semidefinite.",
            RuntimeWarning,
            stacklevel=2,
        )
    return u * np.sqrt(s)[:, None, :]


def _transform_normals(
    z: np.ndarray, means: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """Rows ``means[i] + z[i] @ factors[i].T`` in one stacked matmul.

    Each slice is the same vector-matrix product ``multivariate_normal``
    takes, so the draws match it bit for bit (``einsum`` does not).
    """
    return means + (z[:, None, :] @ factors.transpose(0, 2, 1))[:, 0, :]


def _wishart_draw(
    df: float, scale: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One Wishart(``df``, ``scale``) draw by Bartlett's decomposition.

    Takes the generator's variates as ``scipy.stats.wishart.rvs`` does:
    ``d(d-1)/2`` normals below the diagonal of ``A``, then one chi-square
    with ``df - i`` degrees of freedom for each diagonal entry ``i``; the
    draw is ``(C A)(C A).T`` with ``C`` the lower Cholesky factor of
    ``scale``.  The chain is therefore SciPy's up to the last bit of the
    Cholesky factor, which depends on the LAPACK build.
    """
    d = scale.shape[0]
    bartlett = np.zeros((d, d))
    bartlett[np.tril_indices(d, k=-1)] = rng.normal(size=d * (d - 1) // 2)
    bartlett[np.diag_indices(d)] = np.sqrt(
        [rng.chisquare(df - i, size=1)[0] for i in range(d)]
    )
    factor = np.dot(np.linalg.cholesky(scale), bartlett)
    return np.dot(factor, factor.T)


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

        by_row = _group_by_count(rows, cols, centered)
        by_col = _group_by_count(cols, rows, centered)

        prediction_sum = np.zeros((n_rows, n_cols))
        item_sum = np.zeros((n_cols, d))
        n_saved = 0
        burn_in = self.n_iter // 2
        for sweep in range(self.n_iter):
            user_hyper = self._sample_hyper(user, rng)
            item_hyper = self._sample_hyper(item, rng)
            user = self._sample_factors(user, item, by_row, user_hyper, rng)
            item = self._sample_factors(item, user, by_col, item_hyper, rng)
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
        precision = _wishart_draw(nu_post, scale, rng)
        mu_mean = (self.beta0 * mu0 + n * mean) / beta_post
        cov = np.linalg.inv(beta_post * precision)
        mu = rng.multivariate_normal(mu_mean, (cov + cov.T) / 2.0)
        return mu, precision

    def _sample_factors(
        self,
        factors: np.ndarray,
        other: np.ndarray,
        groups: _CountGroups,
        hyper: tuple[np.ndarray, np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw every factor row from its Gaussian conditional at once.

        Given the other side's factors the rows are independent, so one
        sweep side is a few stacked operations instead of an ``inv`` and a
        ``multivariate_normal`` call per row:

        - the data terms ``(alpha * V_i.T) @ V_i`` and ``(alpha * V_i.T) @
          r_i`` take one stacked matmul per rating count (``groups`` comes
          from ``fit_ratings``, once per fit);
        - one ``np.linalg.inv`` call inverts every posterior precision;
        - one stacked SVD factors the symmetrised covariances
          (``_svd_factors``, with ``multivariate_normal``'s PSD check);
        - ``rng.standard_normal((n_rows, d))`` hands out every row's
          normals in row order, and one stacked matmul transforms them.

        Rows with no rating take the prior draw at their own row position;
        the prior covariance takes one SVD.  Stacked ``inv``, ``svd`` and
        ``matmul`` make the per-row LAPACK or BLAS call slice by slice, and
        the generator yields the same normals in the same order, so the
        chain is bit-identical to the historical per-row loop.
        """
        mu, precision = hyper
        alpha = self.rating_precision
        n_rows, d = factors.shape
        n_rated = len(groups.rated)
        gram = np.empty((n_rated, d, d))
        rhs = np.empty((n_rated, d))
        for pos, partners, ratings in groups.by_count:
            v_stack = other[partners]  # (g, k, d)
            # Replays the reference expression `alpha * v.T @ v`, which by
            # left associativity scales v.T before the product.
            scaled_t = alpha * v_stack.transpose(0, 2, 1)  # (g, d, k)
            gram[pos] = scaled_t @ v_stack
            rhs[pos] = (scaled_t @ ratings[..., None])[..., 0]
        post_cov = np.linalg.inv(precision + gram)
        post_mean = (post_cov @ (precision @ mu + rhs)[..., None])[..., 0]

        means = np.empty((n_rows, d))
        scales = np.empty((n_rows, d, d))
        means[groups.rated] = post_mean
        scales[groups.rated] = _svd_factors(
            (post_cov + post_cov.transpose(0, 2, 1)) / 2.0
        )
        if n_rated < n_rows:
            unrated = np.ones(n_rows, dtype=bool)
            unrated[groups.rated] = False
            cov = np.linalg.inv(precision)
            means[unrated] = mu
            scales[unrated] = _svd_factors(((cov + cov.T) / 2.0)[None])
        return _transform_normals(rng.standard_normal((n_rows, d)), means, scales)

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
