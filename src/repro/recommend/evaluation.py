"""Sliding-window evaluation of thresholded recommenders (Section 5.1).

For every window: retrain each model on everything strictly before the
window start, score every company's unowned products given its purchase
history, and compare the phi-thresholded recommendations with the products
that actually first appeared inside the window.

Aggregation follows the paper: each sliding window yields one accuracy
observation (micro-averaged over companies), so a sweep with l windows
gives l observations per threshold, from which the mean and a 95%
confidence interval are reported (Figures 3 and 4).  Precision is undefined
when nothing is retrieved; such windows are excluded from the precision
average, mirroring the paper's remark that "precision values are not
defined for this points".
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro._validation import check_probability
from repro.analysis.stats import mean_confidence_interval
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel
from repro.obs import get_logger, metrics, trace
from repro.recommend.windows import SlidingWindowSpec, Window
from repro.runtime import (
    FitCache,
    Ok,
    ParallelMap,
    RunJournal,
    TaskError,
    cell_key,
    faults,
    fit_model,
    resolve_grid_outcomes,
    resolve_n_jobs,
)

__all__ = ["WindowObservation", "ThresholdCurve", "RecommendationEvaluator"]


@dataclass(frozen=True)
class WindowObservation:
    """Micro-aggregated counts for one (window, threshold) cell.

    The per-token vectors break two of the counts down by product:
    ``recommended`` sums to ``n_retrieved`` and ``arrivals`` (the window's
    ground truth, the same at every threshold) to ``n_relevant``.
    """

    window_start: dt.date
    threshold: float
    n_retrieved: int
    n_correct: int
    n_relevant: int
    #: Companies scored in the window (those with history before it).
    n_companies: int = 0
    #: Per-token counts of the products first seen inside the window.
    arrivals: tuple[int, ...] = ()
    #: Per-token counts of the products recommended at the threshold.
    recommended: tuple[int, ...] = ()

    @property
    def precision(self) -> float:
        """Correct / retrieved; NaN when nothing was retrieved."""
        if self.n_retrieved == 0:
            return float("nan")
        return self.n_correct / self.n_retrieved

    @property
    def recall(self) -> float:
        """Correct / relevant; zero when nothing was relevant."""
        if self.n_relevant == 0:
            return 0.0
        return self.n_correct / self.n_relevant

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (NaN propagates)."""
        p, r = self.precision, self.recall
        if np.isnan(p) or p + r == 0.0:
            return float("nan") if np.isnan(p) else 0.0
        return 2.0 * p * r / (p + r)

    def as_json(self) -> dict[str, Any]:
        """JSON-serializable form, for the checkpoint journal."""
        return {
            "window_start": self.window_start.isoformat(),
            "threshold": self.threshold,
            "n_retrieved": self.n_retrieved,
            "n_correct": self.n_correct,
            "n_relevant": self.n_relevant,
            "n_companies": self.n_companies,
            "arrivals": list(self.arrivals),
            "recommended": list(self.recommended),
        }

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "WindowObservation":
        """Rebuild an observation journaled by :meth:`as_json`."""
        return cls(
            window_start=dt.date.fromisoformat(record["window_start"]),
            threshold=float(record["threshold"]),
            n_retrieved=int(record["n_retrieved"]),
            n_correct=int(record["n_correct"]),
            n_relevant=int(record["n_relevant"]),
            n_companies=int(record["n_companies"]),
            arrivals=tuple(int(x) for x in record["arrivals"]),
            recommended=tuple(int(x) for x in record["recommended"]),
        )


@dataclass
class ThresholdCurve:
    """Accuracy curves of one recommender across thresholds.

    Each metric maps a threshold to ``(mean, ci_low, ci_high)`` over the
    window observations.
    """

    name: str
    thresholds: list[float]
    observations: dict[float, list[WindowObservation]] = field(repr=False, default_factory=dict)

    def _aggregate(
        self, threshold: float, extract: Callable[[WindowObservation], float]
    ) -> tuple[float, float, float]:
        values = np.array(
            [extract(o) for o in self.observations[threshold]], dtype=np.float64
        )
        values = values[~np.isnan(values)]
        if values.size == 0:
            return float("nan"), float("nan"), float("nan")
        return mean_confidence_interval(values)

    def recall(self, threshold: float) -> tuple[float, float, float]:
        """Mean recall with 95% CI at a threshold."""
        return self._aggregate(threshold, lambda o: o.recall)

    def precision(self, threshold: float) -> tuple[float, float, float]:
        """Mean precision with 95% CI (over windows where it is defined)."""
        return self._aggregate(threshold, lambda o: o.precision)

    def f1(self, threshold: float) -> tuple[float, float, float]:
        """Mean F1 with 95% CI."""
        return self._aggregate(threshold, lambda o: o.f1)

    def retrieved(self, threshold: float) -> tuple[float, float, float]:
        """Mean number of retrieved products per window, with CI."""
        return self._aggregate(threshold, lambda o: float(o.n_retrieved))

    def correct(self, threshold: float) -> tuple[float, float, float]:
        """Mean number of correctly retrieved products per window, with CI."""
        return self._aggregate(threshold, lambda o: float(o.n_correct))

    def relevant(self, threshold: float) -> tuple[float, float, float]:
        """Mean number of relevant (ground-truth) products per window."""
        return self._aggregate(threshold, lambda o: float(o.n_relevant))

    def as_rows(self) -> list[dict[str, float]]:
        """Flat table: one row per threshold with all aggregate metrics."""
        rows = []
        for phi in self.thresholds:
            recall, recall_lo, recall_hi = self.recall(phi)
            precision, prec_lo, prec_hi = self.precision(phi)
            f1, f1_lo, f1_hi = self.f1(phi)
            rows.append(
                {
                    "threshold": phi,
                    "recall": recall,
                    "recall_lo": recall_lo,
                    "recall_hi": recall_hi,
                    "precision": precision,
                    "precision_lo": prec_lo,
                    "precision_hi": prec_hi,
                    "f1": f1,
                    "f1_lo": f1_lo,
                    "f1_hi": f1_hi,
                    "retrieved": self.retrieved(phi)[0],
                    "correct": self.correct(phi)[0],
                    "relevant": self.relevant(phi)[0],
                }
            )
        return rows


class RecommendationEvaluator:
    """Runs the paper's sliding-window protocol for a set of models.

    Parameters
    ----------
    corpus:
        The full corpus with dated products.
    spec:
        Window layout; defaults to the paper's 13 windows of 12 months.
    thresholds:
        The phi grid to sweep.
    retrain_per_window:
        Retrain each model on the data before every window (the paper's
        protocol).  With False, models are trained once on the data before
        the first window — cheaper, and a good approximation when windows
        are close together.
    n_jobs:
        Where the (window x model) fit+score cells run: the default ``1``
        runs the cell loop inline, ``N > 1`` on a pool of N worker
        processes, ``-1`` on every CPU.  It decides nothing else: curves,
        journal entries and failure handling are the same for any job
        count.
    fit_cache:
        Optional :class:`repro.runtime.FitCache`; fitted models are then
        keyed by (model class, hyperparameters, training-prefix
        fingerprint), so re-running a sweep — or two models sharing a
        training prefix across overlapping windows — never refits the
        same model twice.
    retries:
        Extra attempts per (window, model) cell after its first failure.
    task_timeout:
        Wall-clock seconds allowed per pooled cell (``n_jobs > 1`` only).
    journal:
        Optional :class:`repro.runtime.RunJournal`.  Under either protocol
        and any ``n_jobs``, every finished (window, model) cell is
        checkpointed with its observations; a resumed sweep replays
        journaled cells (``journal.skip``) and re-runs only the rest.  A
        cell that exhausts its attempts is recorded as failed and its
        window simply contributes no observation for that model.
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        spec: SlidingWindowSpec | None = None,
        thresholds: Sequence[float] = tuple(np.round(np.arange(0.0, 0.55, 0.05), 2)),
        retrain_per_window: bool = True,
        n_jobs: int = 1,
        fit_cache: FitCache | None = None,
        retries: int = 0,
        task_timeout: float | None = None,
        journal: RunJournal | None = None,
    ) -> None:
        self.corpus = corpus
        self.spec = spec if spec is not None else SlidingWindowSpec()
        self.thresholds = [check_probability(t, "threshold") for t in thresholds]
        if not self.thresholds:
            raise ValueError("at least one threshold is required")
        self.retrain_per_window = bool(retrain_per_window)
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.fit_cache = fit_cache
        self.retries = int(retries)
        self.task_timeout = task_timeout
        self.journal = journal

    def evaluate(
        self,
        model_factories: dict[str, Callable[[], GenerativeModel]],
        *,
        verbose: bool = False,
    ) -> dict[str, ThresholdCurve]:
        """Run the full protocol; returns one curve per model name.

        Every (window, model) cell runs through
        :func:`~repro.runtime.resolve_grid_outcomes`, the one cell loop of
        every sweep: journaled cells replay, the rest fit and score with
        ``retries`` (inline at ``n_jobs=1``, on a process pool otherwise),
        and a cell that exhausts its attempts contributes no observation.
        Observations are gathered in (window, model) order, so curves,
        journal and failures are the same for every job count.
        """
        if not model_factories:
            raise ValueError("at least one model factory is required")
        windows = self._windows()
        models: dict[str, GenerativeModel | TaskError] = {}
        if not self.retrain_per_window:
            models = self._fit_once(model_factories, windows)
        curves = self._sweep(
            windows,
            {
                name: (factory, models.get(name))
                for name, factory in model_factories.items()
            },
            retrain=self.retrain_per_window,
            verbose=verbose,
        )
        if all(
            not observations
            for curve in curves.values()
            for observations in curve.observations.values()
        ):
            raise RuntimeError(
                f"every evaluation cell failed ({len(windows) * len(curves)} "
                "recorded failures); see the runtime logs or journal"
            )
        return curves

    def evaluate_fitted(
        self, models: dict[str, GenerativeModel]
    ) -> dict[str, ThresholdCurve]:
        """Score already-fitted models on every window, refitting nothing.

        The no-retrain protocol with its fit given: each (window, model)
        cell scores the model through the same cell, loop, journal and
        failure handling as :meth:`evaluate`.  A cell that exhausts its
        attempts is journaled as failed and leaves its window without an
        observation; a caller that needs every window checks the curve.
        """
        for name, model in models.items():
            if not model.is_fitted:
                raise ValueError(f"model {name!r} is not fitted")
        return self._sweep(
            self._windows(),
            {name: (None, model) for name, model in models.items()},
            retrain=False,
        )

    def _windows(self) -> list[Window]:
        """The spec's windows in which at least one company has history."""
        windows = []
        all_windows = self.spec.windows()
        for window, n_companies in zip(
            all_windows, _history_counts(self.corpus, all_windows)
        ):
            if n_companies:
                metrics.inc("recommend.windows")
                metrics.inc("recommend.companies", n_companies)
                windows.append(window)
        if not windows:
            raise ValueError(
                "no sliding window had any company with history before its "
                "start; check the window spec against the corpus timeline"
            )
        return windows

    def _sweep(
        self,
        windows: list[Window],
        models: dict[str, tuple[Any, GenerativeModel | TaskError | None]],
        *,
        retrain: bool,
        verbose: bool = False,
    ) -> dict[str, ThresholdCurve]:
        """Build every (window, model) cell and run them through the sweep loop.

        ``models`` maps each name to its ``(factory, model)``: the model
        scores every window, or is None when the cell fits on the window's
        training prefix (``retrain``) or never runs (every cell journaled).
        """
        payloads = [
            {
                "cell": self._cell_key(name, window, retrain=retrain),
                "name": name,
                "corpus": self.corpus,
                "window": window,
                "factory": factory,
                "cache": self.fit_cache,
                "model": model,
                "thresholds": self.thresholds,
            }
            for window in windows
            for name, (factory, model) in models.items()
        ]
        values = resolve_grid_outcomes(
            _evaluate_cell,
            payloads,
            n_jobs=self.n_jobs,
            retries=self.retries,
            task_timeout=self.task_timeout,
            journal=self.journal,
            failure_value=_skip_window,
        )
        curves = {
            name: ThresholdCurve(name=name, thresholds=list(self.thresholds),
                                 observations={t: [] for t in self.thresholds})
            for name in models
        }
        for payload, records in zip(payloads, values):
            for record in records or ():
                observation = WindowObservation.from_json(record)
                curves[payload["name"]].observations[observation.threshold].append(
                    observation
                )
            if verbose:  # pragma: no cover - console convenience
                print(f"[{payload['window'].start}] {payload['name']} done")
        return curves

    def _cell_key(self, name: str, window: Window, *, retrain: bool) -> str:
        """Journal/fault-site identity of one (window, model) cell.

        The thresholds are part of it: they decide the cell's value.
        """
        return cell_key(
            "recommend",
            "retrain" if retrain else "shared",
            name,
            window.start.isoformat(),
            ",".join(f"{t:g}" for t in self.thresholds),
        )

    def _fit_once(
        self,
        model_factories: dict[str, Callable[[], GenerativeModel]],
        windows: list[Window],
    ) -> dict[str, GenerativeModel | TaskError]:
        """The no-retrain fits, on everything before the first window.

        Only models with a cell left to run are fitted: the others replay
        every cell from the journal, so no cell task of theirs runs.  A fit
        that exhausts its attempts is kept as its
        :class:`~repro.runtime.TaskError`, which fails each of the model's
        cells.
        """

        def journaled(key: str) -> bool:
            entry = self.journal.get(key) if self.journal is not None else None
            return entry is not None and entry.status == "ok"

        names = [
            name
            for name in model_factories
            if not all(
                journaled(self._cell_key(name, window, retrain=False))
                for window in windows
            )
        ]
        if not names:
            return {}
        train = self.corpus.truncated_before(windows[0].start)
        executor = ParallelMap(
            self.n_jobs, retries=self.retries, task_timeout=self.task_timeout
        )
        outcomes = executor.map_outcomes(
            _fit_task,
            [(model_factories[name], train, self.fit_cache) for name in names],
        )
        return {
            name: outcome.value if isinstance(outcome, Ok) else outcome
            for name, outcome in zip(names, outcomes)
        }


#: Per-window evaluation inputs: histories, owned token sets, truth sets.
WindowTasks = tuple[list[list[int]], list[set[int]], list[set[int]]]


def window_tasks(corpus: Corpus, window: Window) -> WindowTasks:
    """Histories, owned sets and ground truths of ``corpus`` for one window.

    Companies enter the evaluation when they own at least one product
    before the window starts (otherwise there is no history to condition
    on).  Histories are token lists in first-seen order; truths are the
    tokens first seen inside the window.
    """
    histories: list[list[int]] = []
    owned_sets: list[set[int]] = []
    truths: list[set[int]] = []
    for company in corpus.companies:
        before = company.categories_before(window.start)
        if not before:
            continue
        history = [corpus.token(c) for c, __ in before]
        truth = {
            corpus.token(c)
            for c in company.categories_within(window.start, window.end)
        }
        histories.append(history)
        owned_sets.append(set(history))
        truths.append(truth)
    return histories, owned_sets, truths


def _boolean_masks(
    shape: tuple[int, int],
    owned_sets: list[set[int]],
    truths: list[set[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-company owned / ground-truth indicator matrices for one window."""
    owned = np.zeros(shape, dtype=bool)
    truth = np.zeros(shape, dtype=bool)
    for i, tokens in enumerate(owned_sets):
        if tokens:
            owned[i, list(tokens)] = True
    for i, tokens in enumerate(truths):
        if tokens:
            truth[i, list(tokens)] = True
    return owned, truth


def count_observations(
    scores: np.ndarray,
    owned_sets: list[set[int]],
    truths: list[set[int]],
    thresholds: Sequence[float],
    window_start: dt.date,
) -> list[WindowObservation]:
    """One vectorized threshold pass over a window's score matrix.

    Owned products can never be recommended (their scores are excluded
    from every threshold), and hits are counted where a retrieved product
    appears in the company's ground truth — both via precomputed boolean
    matrices, one comparison per threshold.  Each observation also carries
    the per-token counts of its recommendations and of the window's
    arrivals.
    """
    owned, truth = _boolean_masks(scores.shape, owned_sets, truths)
    eligible = ~owned
    arrivals = tuple(int(x) for x in truth.sum(axis=0))
    relevant = int(truth.sum())
    observations = []
    for phi in thresholds:
        hits = (scores >= phi) & eligible
        observations.append(
            WindowObservation(
                window_start=window_start,
                threshold=phi,
                n_retrieved=int(hits.sum()),
                n_correct=int((hits & truth).sum()),
                n_relevant=relevant,
                n_companies=scores.shape[0],
                arrivals=arrivals,
                recommended=tuple(int(x) for x in hits.sum(axis=0)),
            )
        )
    return observations


def _score_cell(
    model: GenerativeModel,
    histories: list[list[int]],
    owned_sets: list[set[int]],
    truths: list[set[int]],
    thresholds: Sequence[float],
    window_start: dt.date,
) -> list[WindowObservation]:
    """Score one window with a fitted model and count its observations."""
    scores = model.batch_next_product_proba(histories)
    metrics.inc("recommend.candidates", scores.size)
    observations = count_observations(
        scores, owned_sets, truths, thresholds, window_start
    )
    _record_observation_metrics(observations)
    return observations


def _record_observation_metrics(observations: list[WindowObservation]) -> None:
    """Mirror the per-window metric increments of the historical loop."""
    if not observations:
        return
    metrics.inc("recommend.relevant", observations[0].n_relevant)
    for observation in observations:
        metrics.inc("recommend.retrieved", observation.n_retrieved)
        metrics.inc("recommend.hits", observation.n_correct)


def _history_counts(corpus: Corpus, windows: list[Window]) -> list[int]:
    """Companies owning at least one product before each window's start."""
    firsts = sorted(
        min(company.first_seen.values())
        for company in corpus.companies
        if company.first_seen
    )
    return [bisect.bisect_left(firsts, window.start) for window in windows]


def _fit_task(payload: tuple[Any, Corpus, FitCache | None]) -> GenerativeModel:
    """Worker task: fit one model (optionally through the cache)."""
    factory, train, cache = payload
    return fit_model(factory, train, cache)


def _evaluate_cell(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Cell task: fit (or take) one model and score one window.

    ``payload["model"]`` is the no-retrain protocol's one-off fit or its
    failure; ``None`` fits on everything before the window.  The window's
    inputs and training prefix are derived from the corpus inside the
    cell, so an inline sweep holds one window's inputs at a time.
    Returns the observations as JSON, the form the journal stores.
    """
    faults.inject(payload["cell"])
    corpus, window = payload["corpus"], payload["window"]
    model = payload["model"]
    if isinstance(model, TaskError):
        model.reraise()
    if model is None:
        model = fit_model(
            payload["factory"], corpus.truncated_before(window.start), payload["cache"]
        )
    with trace.span("recommend.window"):
        histories, owned_sets, truths = window_tasks(corpus, window)
    observations = _score_cell(
        model, histories, owned_sets, truths, payload["thresholds"], window.start
    )
    return [observation.as_json() for observation in observations]


def _skip_window(payload: dict[str, Any], error: TaskError) -> None:
    """A failed cell: logged, and its window gets no observation for the model."""
    get_logger("recommend").warning(
        "cell %s failed after %d attempt(s); window skipped for this model: %s",
        payload["cell"],
        error.attempts,
        error.describe(),
    )
