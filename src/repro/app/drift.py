"""Concept-shift detection for the deployed model (Section 6).

"As LDA training is not done in a streaming fashion, it is done offline and
can be retrained on demand or when the concept shift is taken place."  The
tool therefore needs a way to *notice* concept shift.  :class:`DriftMonitor`
watches two complementary signals on incoming company batches:

* **fit degradation** — the deployed model's perplexity on the new batch
  relative to its perplexity on a held-out reference slice;
* **marginal shift** — Jensen-Shannon divergence between the reference
  product-frequency distribution and the new batch's.

Either signal crossing its threshold flags the batch, and the monitor keeps
an audit trail of every check.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_float
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel

__all__ = ["DriftReport", "DriftMonitor", "jensen_shannon_divergence"]


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JS divergence (base e) between two distributions on the same support.

    Symmetric, bounded by ln 2; zero iff the distributions coincide.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError(
            f"distributions must be 1-D, got shapes {p.shape} and {q.shape}"
        )
    if p.shape != q.shape:
        raise ValueError(
            f"length mismatch: {p.shape[0]} vs {q.shape[0]} bins — "
            "distributions must share a support"
        )
    # NaN slips past the `< 0` check below (NaN comparisons are False)
    # and would propagate into the result; reject it explicitly.
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("distributions must be finite (no NaN/inf bins)")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("distributions must be non-negative")
    p_sum, q_sum = p.sum(), q.sum()
    if p_sum <= 0 or q_sum <= 0:
        raise ValueError("distributions must have positive mass")
    p = p / p_sum
    q = q / q_sum
    mix = (p + q) / 2.0

    def _kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    return 0.5 * _kl(p, mix) + 0.5 * _kl(q, mix)


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check."""

    checked_at: dt.date | None
    n_companies: int
    perplexity: float
    reference_perplexity: float
    perplexity_ratio: float
    js_divergence: float
    drifted: bool
    #: True when the batch perplexity came back NaN/inf — a degenerate
    #: batch counts as fit degradation instead of silently never flagging.
    degenerate: bool = False

    def reasons(self) -> list[str]:
        """Human-readable explanation of why (or why not) the flag fired."""
        notes = []
        if self.degenerate:
            notes.append(
                f"non-finite batch perplexity {self.perplexity} — degenerate "
                "batch treated as fit degradation"
            )
        else:
            notes.append(
                f"perplexity {self.perplexity:.2f} vs reference "
                f"{self.reference_perplexity:.2f} (ratio {self.perplexity_ratio:.2f})"
            )
        notes.append(f"product-frequency JS divergence {self.js_divergence:.4f}")
        notes.append("drift detected" if self.drifted else "no drift")
        return notes


class DriftMonitor:
    """Watches incoming company batches for concept shift.

    Parameters
    ----------
    model:
        The deployed (fitted) generative model.
    reference:
        A held-out slice from the training period; its perplexity and
        product frequencies are the baseline.
    perplexity_tolerance:
        Flag when new-batch perplexity exceeds reference * tolerance.
    divergence_threshold:
        Flag when the product-frequency JS divergence exceeds this.
    reference_perplexity:
        The model's perplexity on ``reference`` when the caller has just
        measured it (the model registry's swap gate); measured here when
        omitted.
    """

    def __init__(
        self,
        model: GenerativeModel,
        reference: Corpus,
        *,
        perplexity_tolerance: float = 1.25,
        divergence_threshold: float = 0.05,
        reference_perplexity: float | None = None,
    ) -> None:
        if not isinstance(model, GenerativeModel) or not model.is_fitted:
            raise ValueError("model must be a fitted GenerativeModel")
        self.model = model
        self.perplexity_tolerance = check_positive_float(
            perplexity_tolerance, "perplexity_tolerance"
        )
        if self.perplexity_tolerance < 1.0:
            raise ValueError("perplexity_tolerance must be >= 1")
        self.divergence_threshold = check_positive_float(
            divergence_threshold, "divergence_threshold"
        )
        if reference_perplexity is None:
            reference_perplexity = model.perplexity(reference)
        self._reference_perplexity = reference_perplexity
        if not math.isfinite(self._reference_perplexity):
            raise ValueError(
                f"model perplexity on the reference slice is non-finite "
                f"({self._reference_perplexity}); the monitor needs a sound baseline"
            )
        counts = reference.binary_matrix().sum(axis=0)
        self._reference_frequency = counts / counts.sum()
        self.history: list[DriftReport] = []

    @property
    def reference_perplexity(self) -> float:
        """Model perplexity on the reference slice."""
        return self._reference_perplexity

    def check(
        self, batch: Corpus, *, checked_at: dt.date | None = None
    ) -> DriftReport:
        """Score one incoming batch; appends the report to the history."""
        if batch.n_products != len(self._reference_frequency):
            raise ValueError("batch vocabulary does not match the reference")
        perplexity = self.model.perplexity(batch)
        degenerate = not math.isfinite(perplexity)
        # A NaN batch perplexity would otherwise poison the ratio (NaN
        # compares False against any threshold) and the monitor would
        # silently never trigger; flag it explicitly instead.
        ratio = float("inf") if degenerate else perplexity / self._reference_perplexity
        counts = batch.binary_matrix().sum(axis=0)
        divergence = jensen_shannon_divergence(self._reference_frequency, counts)
        report = DriftReport(
            checked_at=checked_at,
            n_companies=batch.n_companies,
            perplexity=perplexity,
            reference_perplexity=self._reference_perplexity,
            perplexity_ratio=ratio,
            js_divergence=divergence,
            drifted=(
                degenerate
                or ratio > self.perplexity_tolerance
                or divergence > self.divergence_threshold
            ),
            degenerate=degenerate,
        )
        self.history.append(report)
        return report

    def should_retrain(self, *, consecutive: int = 2) -> bool:
        """True when the last ``consecutive`` checks all flagged drift.

        Requiring more than one flagged batch avoids retraining on a single
        noisy sample.
        """
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        if len(self.history) < consecutive:
            return False
        return all(report.drifted for report in self.history[-consecutive:])
