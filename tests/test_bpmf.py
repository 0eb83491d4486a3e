"""Model-specific tests for Bayesian Probabilistic Matrix Factorization."""

import numpy as np
import pytest

from repro.models.bpmf import (
    BayesianPMF,
    _group_by_count,
    _svd_factors,
    _transform_normals,
    _wishart_draw,
)


class TestFitRatings:
    def test_recovers_low_rank_structure(self, rng):
        # A genuinely low-rank, partially observed matrix: BPMF must predict
        # held-out cells far better than the global mean.
        n_rows, n_cols, rank = 40, 15, 2
        u = rng.normal(size=(n_rows, rank))
        v = rng.normal(size=(n_cols, rank))
        truth = 1.0 / (1.0 + np.exp(-(u @ v.T)))
        mask = rng.random(truth.shape) < 0.6
        rows, cols = np.nonzero(mask)
        model = BayesianPMF(
            n_factors=4, n_iter=60, rating_precision=16.0, seed=0
        ).fit_ratings(rows, cols, truth[rows, cols], shape=truth.shape)
        predicted = model.prediction_matrix
        observed_error = np.abs(predicted[rows, cols] - truth[rows, cols]).mean()
        baseline_error = np.abs(
            truth[rows, cols].mean() - truth[rows, cols]
        ).mean()
        assert observed_error < baseline_error / 2.0

    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            BayesianPMF().fit_ratings([0], [0, 1], [1.0], shape=(2, 2))

    def test_validates_indices(self):
        with pytest.raises(ValueError, match="exceed"):
            BayesianPMF().fit_ratings([5], [0], [1.0], shape=(2, 2))

    def test_requires_ratings(self):
        with pytest.raises(ValueError, match="at least one"):
            BayesianPMF().fit_ratings([], [], [], shape=(2, 2))

    def test_deterministic_given_seed(self, split):
        a = BayesianPMF(n_factors=4, n_iter=10, seed=3).fit(split.train)
        b = BayesianPMF(n_factors=4, n_iter=10, seed=3).fit(split.train)
        assert np.allclose(a.prediction_matrix, b.prediction_matrix)


class TestDegeneracyOnDenseBinary:
    """The Figure 5/6 phenomenon: positives-only training degenerates."""

    @pytest.fixture(scope="class")
    def fitted(self, split):
        return BayesianPMF(n_factors=8, n_iter=30, seed=0).fit(split.train)

    def test_scores_concentrate_near_one(self, fitted):
        scores = fitted.recommendation_scores()
        # Paper Figure 5: virtually the whole boxplot sits in [0.9, 1.0].
        assert np.median(scores) > 0.95
        assert (scores >= 0.9).mean() > 0.9

    def test_scores_clipped_to_unit_interval(self, fitted):
        scores = fitted.recommendation_scores()
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0

    def test_low_thresholds_recommend_everything(self, fitted, split):
        predictions = fitted.prediction_matrix
        fraction_above = (predictions >= 0.9).mean()
        assert fraction_above > 0.9

    def test_observing_negatives_breaks_degeneracy(self, split):
        model = BayesianPMF(
            n_factors=8, n_iter=30, observe_negatives=True, seed=0
        ).fit(split.train)
        scores = model.recommendation_scores()
        # With the zeros observed the score distribution spreads out.
        assert np.median(scores) < 0.9
        assert scores.std() > 0.15


class TestAuxiliary:
    def test_scores_for_company(self, split):
        model = BayesianPMF(n_factors=4, n_iter=10, seed=0).fit(split.train)
        row = split.train.binary_matrix()[0]
        scores = model.scores_for_company(row)
        assert scores.shape == (38,)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_scores_for_company_validates_length(self, split):
        model = BayesianPMF(n_factors=4, n_iter=10, seed=0).fit(split.train)
        with pytest.raises(ValueError):
            model.scores_for_company(np.ones(10))

    def test_scores_for_empty_company_is_mean_profile(self, split):
        model = BayesianPMF(n_factors=4, n_iter=10, seed=0).fit(split.train)
        assert np.allclose(
            model.scores_for_company(np.zeros(38)),
            model.prediction_matrix.mean(axis=0),
        )

    def test_invalid_constructor_args(self):
        with pytest.raises((ValueError, TypeError)):
            BayesianPMF(n_factors=0)
        with pytest.raises(ValueError):
            BayesianPMF(rating_precision=-1.0)


class TestBatchedGramParity:
    """The batched Gibbs draw must not move a single bit.

    ``_sample_factors`` computes every row's precision/mean contributions
    with stacked matmuls per rating count, inverts and factors all
    covariances in stacked calls and transforms one block of normals; this
    replays the historical per-row loop and demands bit-identical draws.
    """

    @staticmethod
    def _reference_sample_factors(model, factors, other, index, hyper, rng):
        # Verbatim replica of the pre-batching per-row loop.
        mu, precision = hyper
        alpha = model.rating_precision
        fresh = np.empty_like(factors)
        prior_term = precision @ mu
        for i in range(factors.shape[0]):
            entry = index.get(i)
            if entry is None:
                cov = np.linalg.inv(precision)
                fresh[i] = rng.multivariate_normal(mu, (cov + cov.T) / 2.0)
                continue
            idx, ratings = entry
            v = other[idx]
            post_precision = precision + alpha * v.T @ v
            post_cov = np.linalg.inv(post_precision)
            post_mean = post_cov @ (prior_term + alpha * v.T @ ratings)
            fresh[i] = rng.multivariate_normal(
                post_mean, (post_cov + post_cov.T) / 2.0
            )
        return fresh

    @staticmethod
    def _historical_index(keys, partners, values):
        # Verbatim replica of the pre-batching per-fit index: a dict from
        # each rated row to its (partner ids, ratings), in input order.
        index = {}
        order = np.argsort(keys, kind="stable")
        sorted_keys, starts = np.unique(keys[order], return_index=True)
        boundaries = list(starts) + [len(order)]
        for idx, r in enumerate(sorted_keys):
            sel = order[boundaries[idx] : boundaries[idx + 1]]
            index[int(r)] = (partners[sel], values[sel])
        return index

    @staticmethod
    def _groups(index):
        # The per-fit count groups of a {row: (partner ids, ratings)} index.
        keys = [i for i, (idx, _) in index.items() for _j in idx]
        partners = [j for idx, _ in index.values() for j in idx]
        values = [v for _, ratings in index.values() for v in ratings]
        return _group_by_count(
            np.asarray(keys, dtype=np.int64),
            np.asarray(partners, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )

    @staticmethod
    def _hyper(rng, d):
        a_mat = np.linalg.qr(rng.normal(size=(d, d)))[0]
        precision = a_mat @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ a_mat.T
        precision = (precision + precision.T) / 2.0
        return rng.normal(size=d), precision

    def _assert_draws_match(self, model, factors, other, index, hyper):
        draw_new = model._sample_factors(
            factors, other, self._groups(index), hyper, np.random.default_rng(42)
        )
        draw_ref = self._reference_sample_factors(
            model, factors, other, index, hyper, np.random.default_rng(42)
        )
        assert np.array_equal(draw_new, draw_ref)

    def test_sample_factors_bit_identical_to_per_row_loop(self, rng):
        d, n_rows, n_cols = 5, 30, 20
        model = BayesianPMF(n_factors=d, seed=0)
        factors = rng.normal(size=(n_rows, d))
        other = rng.normal(size=(n_cols, d))
        # Ragged index with empty rows (2 and 13) and varied counts.
        index = {}
        for i in range(n_rows):
            if i in (2, 13):
                continue
            k = int(rng.integers(1, n_cols))
            idx = rng.choice(n_cols, size=k, replace=False)
            index[i] = (idx, rng.normal(size=k))
        a_mat = np.linalg.qr(rng.normal(size=(d, d)))[0]
        precision = a_mat @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ a_mat.T
        precision = (precision + precision.T) / 2.0
        hyper = (rng.normal(size=d), precision)
        draw_new = model._sample_factors(
            factors, other, self._groups(index), hyper, np.random.default_rng(42)
        )
        draw_ref = self._reference_sample_factors(
            model, factors, other, index, hyper, np.random.default_rng(42)
        )
        assert np.array_equal(draw_new, draw_ref)

    def test_full_fit_bit_identical_to_per_row_loop(self, rng):
        # End to end: patch _sample_factors back to the per-row replica and
        # compare fitted predictions bit-for-bit.
        n_rows, n_cols = 25, 12
        mask = rng.random((n_rows, n_cols)) < 0.3
        mask[4] = False  # an empty row exercises the hoisted prior draw
        rows, cols = np.nonzero(mask)
        values = rng.integers(1, 6, size=rows.size).astype(np.float64)
        kwargs = dict(n_factors=4, n_iter=8, seed=3)
        fast = BayesianPMF(**kwargs).fit_ratings(
            rows, cols, values, shape=(n_rows, n_cols)
        )
        slow = BayesianPMF(**kwargs)
        centered = values - values.mean()
        row_index = self._historical_index(rows, cols, centered)
        col_index = self._historical_index(cols, rows, centered)
        slow._sample_factors = (
            lambda factors, other, groups, hyper, rng_: self._reference_sample_factors(
                slow,
                factors,
                other,
                row_index if factors.shape[0] == n_rows else col_index,
                hyper,
                rng_,
            )
        )
        slow.fit_ratings(rows, cols, values, shape=(n_rows, n_cols))
        assert np.array_equal(fast._prediction, slow._prediction)
        assert np.array_equal(fast._item_factors, slow._item_factors)

    def test_unrated_rows_at_first_middle_and_last_position(self, rng):
        # Prior draws must land at their own row positions between the
        # posterior draws, wherever the unrated rows sit.
        d, n_rows, n_cols = 4, 21, 9
        model = BayesianPMF(n_factors=d, seed=0)
        factors = rng.normal(size=(n_rows, d))
        other = rng.normal(size=(n_cols, d))
        index = {}
        for i in range(n_rows):
            if i in (0, 10, n_rows - 1):
                continue
            k = int(rng.integers(1, n_cols))
            idx = rng.choice(n_cols, size=k, replace=False)
            index[i] = (idx, rng.normal(size=k))
        self._assert_draws_match(
            model, factors, other, index, self._hyper(rng, d)
        )

    def test_index_with_no_rated_row(self, rng):
        # Every row takes the prior draw.
        d, n_rows = 3, 7
        model = BayesianPMF(n_factors=d, seed=0)
        factors = rng.normal(size=(n_rows, d))
        other = rng.normal(size=(5, d))
        self._assert_draws_match(model, factors, other, {}, self._hyper(rng, d))

    def test_non_psd_covariance_warns_and_matches_generator(self):
        # multivariate_normal warns on a non-PSD covariance and still draws
        # through its SVD factor; the batched transform must do the same.
        mean = np.array([0.5, -1.0, 2.0])
        cov = np.array([[1.0, 0.0, 0.3], [0.0, -2.0, 0.1], [0.3, 0.1, 0.5]])
        with pytest.warns(RuntimeWarning, match="not symmetric positive-semidefinite"):
            expected = np.random.default_rng(5).multivariate_normal(mean, cov)
        with pytest.warns(RuntimeWarning, match="not symmetric positive-semidefinite"):
            factors = _svd_factors(cov[None])
        z = np.random.default_rng(5).standard_normal((1, 3))
        assert np.array_equal(_transform_normals(z, mean[None], factors)[0], expected)


class TestWishartParity:
    """The Bartlett draw replays ``scipy.stats.wishart.rvs`` (test-only import).

    Both take the same variates in the same order, so the generators must
    end in the same state; the values may differ only in the last bits of
    the two LAPACK builds' Cholesky factors.
    """

    @staticmethod
    def _hyper_scales(d, count, seed):
        # Posterior scales as _sample_hyper builds them, over factor blocks
        # of varied height and spread.
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 800))
            factors = rng.normal(0.0, rng.uniform(0.05, 2.0), size=(n, d))
            mean = factors.mean(axis=0)
            centred = factors - mean
            beta0 = 2.0
            scale = np.linalg.inv(
                np.eye(d) + centred.T @ centred
                + (beta0 * n / (beta0 + n)) * np.outer(mean, mean)
            )
            yield d + 1 + n, (scale + scale.T) / 2.0

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_scipy_draw_for_draw(self, d):
        from scipy.stats import wishart

        ours, theirs = np.random.default_rng(d), np.random.default_rng(d)
        for df, scale in self._hyper_scales(d, 500, seed=100 + d):
            got = _wishart_draw(df, scale, ours)
            want = np.atleast_2d(wishart.rvs(df=df, scale=scale, random_state=theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert got.shape == want.shape == (d, d)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
