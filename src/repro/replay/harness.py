"""Time-sliced replay of a fitted model over historical traffic.

The sliding-window evaluator (``repro.recommend.evaluation``) answers
"how good is this *model family*" by retraining per window; the replay
harness answers the serving question — "how does this *already-fitted
artifact* hold up as traffic moves through time" — by sliding one frozen
model across the :class:`~repro.recommend.windows.SlidingWindowSpec`
windows.  A replay is the evaluator's no-retrain protocol with the model
given: :meth:`~repro.recommend.evaluation.RecommendationEvaluator.evaluate_fitted`
scores each window's cell through the one sweep loop, so a replay
journals, retries, injects faults and places cells (``n_jobs``) exactly
like every other sweep.  The harness adds marginal drift: the
Jensen-Shannon divergence between each window's arrival traffic and the
pre-replay reference distribution, the same signal
:class:`~repro.app.drift.DriftMonitor` watches live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._validation import check_probability
from repro.app.drift import jensen_shannon_divergence
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel
from repro.obs import get_logger
from repro.recommend.evaluation import RecommendationEvaluator, WindowObservation
from repro.recommend.windows import SlidingWindowSpec
from repro.runtime import RunJournal

__all__ = ["ReplayWindowResult", "ReplayReport", "ReplayHarness"]


@dataclass(frozen=True)
class ReplayWindowResult:
    """One window of a replay: its observation plus the drift signal."""

    #: The window's counts at the replay threshold, with its company count
    #: and the per-token recommendation and arrival counts — the canary
    #: compares the recommendation distributions of two models.
    observation: WindowObservation
    #: JS divergence of the window's arrival traffic vs the reference
    #: marginal; NaN when the window saw no arrivals.
    js_divergence: float
    drifted: bool


@dataclass(frozen=True)
class ReplayReport:
    """A full replay of one model across every window."""

    label: str
    threshold: float
    results: tuple[ReplayWindowResult, ...]

    @property
    def n_windows(self) -> int:
        return len(self.results)

    @property
    def windows_drifted(self) -> int:
        return sum(1 for r in self.results if r.drifted)

    def mean_recall(self) -> float:
        if not self.results:
            return float("nan")
        return float(np.mean([r.observation.recall for r in self.results]))

    def mean_precision(self) -> float:
        """Mean over windows where precision is defined (paper's rule)."""
        values = [
            r.observation.precision
            for r in self.results
            if not math.isnan(r.observation.precision)
        ]
        if not values:
            return float("nan")
        return float(np.mean(values))

    def recommendation_distribution(self) -> np.ndarray:
        """Total per-token recommendation counts across all windows."""
        if not self.results:
            return np.zeros(0, dtype=np.int64)
        return np.sum([r.observation.recommended for r in self.results], axis=0)


class ReplayHarness:
    """Slides fitted models through time-sliced traffic.

    Parameters
    ----------
    corpus:
        The full universe (any ``Corpus``, columnar included); arrival
        dates drive window membership.
    spec:
        Sliding windows to replay (paper defaults when omitted).
    threshold:
        The recommender's phi applied to every window.
    divergence_threshold:
        A window whose arrival traffic diverges from the reference
        marginal by more than this is flagged ``drifted``.
    n_jobs, retries, task_timeout, journal:
        The sweep loop's placement and fault tolerance, as in
        :class:`~repro.recommend.evaluation.RecommendationEvaluator`:
        journaled (label, window) cells replay from disk, and a cell
        retries before it fails.
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        spec: SlidingWindowSpec | None = None,
        threshold: float = 0.1,
        divergence_threshold: float = 0.05,
        n_jobs: int = 1,
        retries: int = 0,
        task_timeout: float | None = None,
        journal: RunJournal | None = None,
    ) -> None:
        self.corpus = corpus
        self.spec = spec or SlidingWindowSpec()
        self.threshold = check_probability(threshold, "threshold")
        if divergence_threshold <= 0:
            raise ValueError(
                f"divergence_threshold must be positive, got {divergence_threshold}"
            )
        self.divergence_threshold = float(divergence_threshold)
        self._log = get_logger("replay")
        self._windows = self.spec.windows()
        reference = corpus.truncated_before(self._windows[0].start)
        if reference.n_companies == 0:
            raise ValueError(
                f"no traffic before the first window {self._windows[0].start}; "
                "nothing to build a reference marginal from"
            )
        counts = reference.binary_matrix().sum(axis=0).astype(np.float64)
        self._reference_frequency = counts / counts.sum()
        self._evaluator = RecommendationEvaluator(
            corpus,
            spec=self.spec,
            thresholds=[self.threshold],
            n_jobs=n_jobs,
            retries=retries,
            task_timeout=task_timeout,
            journal=journal,
        )

    def replay(self, model: GenerativeModel, label: str) -> ReplayReport:
        """Score one fitted model across every window, refitting nothing.

        ``label`` names the model in the cells' journal keys and fault
        sites.  A window whose cell failed after its retries (journaled as
        failed) raises: a report always covers every window, so a canary
        never compares a partial replay.
        """
        curve = self._evaluator.evaluate_fitted({label: model})[label]
        observations = curve.observations[self.threshold]
        scored = {o.window_start for o in observations}
        failed = [w.start.isoformat() for w in self._windows if w.start not in scored]
        if failed:
            raise RuntimeError(
                f"replay of {label!r} failed at window(s) {', '.join(failed)}; "
                "see the runtime logs or journal"
            )
        report = ReplayReport(
            label=label,
            threshold=self.threshold,
            results=tuple(
                ReplayWindowResult(o, *self._drift(o.arrivals)) for o in observations
            ),
        )
        self._log.info(
            "replay %s: %d windows, mean recall %.3f, mean precision %.3f, "
            "%d drifted",
            label,
            report.n_windows,
            report.mean_recall(),
            report.mean_precision(),
            report.windows_drifted,
        )
        return report

    def _drift(self, arrivals: tuple[int, ...]) -> tuple[float, bool]:
        """JS divergence of a window's arrivals from the reference, and the flag."""
        if not any(arrivals):
            return float("nan"), False
        divergence = jensen_shannon_divergence(self._reference_frequency, arrivals)
        return divergence, divergence > self.divergence_threshold
