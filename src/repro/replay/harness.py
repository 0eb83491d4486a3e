"""Time-sliced replay of a fitted model over historical traffic.

The sliding-window evaluator (``repro.recommend.evaluation``) answers
"how good is this *model family*" by retraining per window; the replay
harness answers the serving question — "how does this *already-fitted
artifact* hold up as traffic moves through time" — by sliding one frozen
model across the :class:`~repro.recommend.windows.SlidingWindowSpec`
windows.  Per window it scores every company's history as of the window
start, thresholds the scores exactly like the paper's evaluator
(owned products excluded, micro-averaged counts), and additionally
measures marginal drift: the Jensen-Shannon divergence between the
window's arrival traffic and the pre-replay reference distribution,
the same signal :class:`~repro.app.drift.DriftMonitor` watches live.

Results journal through the standard checkpoint machinery, so an
interrupted replay resumes per (label, window) cell.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._validation import check_probability
from repro.app.drift import jensen_shannon_divergence
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel
from repro.obs import get_logger, trace
from repro.recommend.evaluation import WindowTasks, _boolean_masks, window_tasks
from repro.recommend.windows import SlidingWindowSpec, Window
from repro.runtime import RunJournal, cell_key

__all__ = ["ReplayWindowResult", "ReplayReport", "ReplayHarness"]


@dataclass(frozen=True)
class ReplayWindowResult:
    """One window of a replay: quality counts plus the drift signal."""

    window_start: dt.date
    window_end: dt.date
    n_companies: int
    n_retrieved: int
    n_correct: int
    n_relevant: int
    #: JS divergence of the window's arrival traffic vs the reference
    #: marginal; NaN when the window saw no arrivals.
    js_divergence: float
    drifted: bool
    #: Per-token recommendation counts (how often the model pushed each
    #: product this window) — the canary compares these distributions
    #: between incumbent and candidate.
    recommended: tuple[int, ...]

    @property
    def precision(self) -> float:
        if self.n_retrieved == 0:
            return float("nan")
        return self.n_correct / self.n_retrieved

    @property
    def recall(self) -> float:
        if self.n_relevant == 0:
            return 0.0
        return self.n_correct / self.n_relevant

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if math.isnan(p):
            return float("nan")
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)

    def as_json(self) -> dict[str, Any]:
        return {
            "window_start": self.window_start.isoformat(),
            "window_end": self.window_end.isoformat(),
            "n_companies": self.n_companies,
            "n_retrieved": self.n_retrieved,
            "n_correct": self.n_correct,
            "n_relevant": self.n_relevant,
            "js_divergence": None if math.isnan(self.js_divergence) else self.js_divergence,
            "drifted": self.drifted,
            "recommended": list(self.recommended),
        }

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "ReplayWindowResult":
        js = record["js_divergence"]
        return cls(
            window_start=dt.date.fromisoformat(record["window_start"]),
            window_end=dt.date.fromisoformat(record["window_end"]),
            n_companies=int(record["n_companies"]),
            n_retrieved=int(record["n_retrieved"]),
            n_correct=int(record["n_correct"]),
            n_relevant=int(record["n_relevant"]),
            js_divergence=float("nan") if js is None else float(js),
            drifted=bool(record["drifted"]),
            recommended=tuple(int(x) for x in record["recommended"]),
        )


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
        return float(np.mean([r.recall for r in self.results]))

    def mean_precision(self) -> float:
        """Mean over windows where precision is defined (paper's rule)."""
        values = [r.precision for r in self.results if not math.isnan(r.precision)]
        if not values:
            return float("nan")
        return float(np.mean(values))

    def max_divergence(self) -> float:
        values = [r.js_divergence for r in self.results if not math.isnan(r.js_divergence)]
        if not values:
            return float("nan")
        return float(max(values))

    def recommendation_distribution(self) -> np.ndarray:
        """Total per-token recommendation counts across all windows."""
        if not self.results:
            return np.zeros(0, dtype=np.int64)
        return np.sum([r.recommended for r in self.results], axis=0)

    def as_json(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "threshold": self.threshold,
            "results": [r.as_json() for r in self.results],
        }


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
    journal:
        Optional checkpoint journal; completed (label, window) cells are
        replayed from disk instead of re-scored.
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        spec: SlidingWindowSpec | None = None,
        threshold: float = 0.1,
        divergence_threshold: float = 0.05,
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
        self.journal = journal
        self._log = get_logger("replay")
        self._windows = self.spec.windows()
        self._tasks: dict[dt.date, WindowTasks] = {}
        reference = corpus.truncated_before(self._windows[0].start)
        if reference.n_companies == 0:
            raise ValueError(
                f"no traffic before the first window {self._windows[0].start}; "
                "nothing to build a reference marginal from"
            )
        counts = reference.binary_matrix().sum(axis=0).astype(np.float64)
        self._reference_frequency = counts / counts.sum()

    # ------------------------------------------------------------------
    def _window_tasks(self, window: Window) -> WindowTasks:
        """Histories/owned/truth token sets for one window (cached)."""
        if window.start not in self._tasks:
            self._tasks[window.start] = window_tasks(self.corpus, window)
        return self._tasks[window.start]

    def _window_divergence(self, truths: list[set[int]]) -> tuple[float, bool]:
        """Drift of the window's arrival traffic against the reference."""
        arrivals = np.zeros(len(self._reference_frequency), dtype=np.float64)
        for tokens in truths:
            for token in tokens:
                arrivals[token] += 1.0
        if arrivals.sum() == 0:
            return float("nan"), False
        divergence = jensen_shannon_divergence(self._reference_frequency, arrivals)
        return divergence, divergence > self.divergence_threshold

    def _cell_key(self, label: str, window: Window) -> str:
        return cell_key("replay", label, f"{self.threshold:g}", window.start.isoformat())

    def replay(self, model: GenerativeModel, label: str) -> ReplayReport:
        """Score one fitted model across every window."""
        if not model.is_fitted:
            raise ValueError(f"model for replay label {label!r} is not fitted")
        results: list[ReplayWindowResult] = []
        for window in self._windows:
            key = self._cell_key(label, window)
            if self.journal is not None:
                recorded = self.journal.completed(key)
                if recorded is not None:
                    results.append(ReplayWindowResult.from_json(recorded.value))
                    continue
            with trace.span("replay.window"):
                result = self._score_window(model, window)
            if self.journal is not None:
                self.journal.record_ok(key, result.as_json())
            results.append(result)
        report = ReplayReport(
            label=label, threshold=self.threshold, results=tuple(results)
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

    def _score_window(
        self, model: GenerativeModel, window: Window
    ) -> ReplayWindowResult:
        histories, owned_sets, truths = self._window_tasks(window)
        n_products = self.corpus.n_products
        if not histories:
            return ReplayWindowResult(
                window_start=window.start,
                window_end=window.end,
                n_companies=0,
                n_retrieved=0,
                n_correct=0,
                n_relevant=0,
                js_divergence=float("nan"),
                drifted=False,
                recommended=(0,) * n_products,
            )
        scores = model.batch_next_product_proba(histories)
        owned, truth = _boolean_masks(scores.shape, owned_sets, truths)
        hits = (scores >= self.threshold) & ~owned
        divergence, drifted = self._window_divergence(truths)
        return ReplayWindowResult(
            window_start=window.start,
            window_end=window.end,
            n_companies=len(histories),
            n_retrieved=int(hits.sum()),
            n_correct=int((hits & truth).sum()),
            n_relevant=int(truth.sum()),
            js_divergence=divergence,
            drifted=drifted,
            recommended=tuple(int(x) for x in hits.sum(axis=0)),
        )
