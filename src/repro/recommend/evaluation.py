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
    cell_key,
    faults,
    fingerprint_corpus,
    fit_model,
    resolve_n_jobs,
    run_with_retries,
)

__all__ = ["WindowObservation", "ThresholdCurve", "RecommendationEvaluator"]


@dataclass(frozen=True)
class WindowObservation:
    """Micro-aggregated counts for one (window, threshold) cell."""

    window_start: dt.date
    threshold: float
    n_retrieved: int
    n_correct: int
    n_relevant: int

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
        Worker processes for the (window x model) fit+score fan-out.  The
        default ``1`` runs everything in-process and is bit-identical to
        the historical serial implementation; ``-1`` uses every CPU.
        Results are deterministic for any fixed seed regardless of the
        job count.
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
        self._n_failed_cells = 0

    # ------------------------------------------------------------------
    def _fit_model(
        self,
        factory: Callable[[], GenerativeModel],
        train_corpus: Corpus,
        fingerprint: str | None = None,
    ) -> GenerativeModel:
        """Fit through the cache when one is configured, directly otherwise."""
        return fit_model(factory, train_corpus, self.fit_cache, fingerprint)

    def evaluate(
        self,
        model_factories: dict[str, Callable[[], GenerativeModel]],
        *,
        verbose: bool = False,
    ) -> dict[str, ThresholdCurve]:
        """Run the full protocol; returns one curve per model name.

        With ``n_jobs > 1`` the (window x model) fit+score cells run on a
        process pool; observations are gathered back in (window, model)
        order, so the resulting curves are identical to a serial run of
        the same seed.
        """
        if not model_factories:
            raise ValueError("at least one model factory is required")
        windows = self.spec.windows()
        curves = {
            name: ThresholdCurve(name=name, thresholds=list(self.thresholds),
                                 observations={t: [] for t in self.thresholds})
            for name in model_factories
        }
        self._n_failed_cells = 0
        if self.n_jobs > 1:
            self._evaluate_parallel(model_factories, windows, curves, verbose=verbose)
        else:
            self._evaluate_serial(model_factories, windows, curves, verbose=verbose)
        if all(
            not observations
            for curve in curves.values()
            for observations in curve.observations.values()
        ):
            if self._n_failed_cells:
                raise RuntimeError(
                    f"every evaluation cell failed ({self._n_failed_cells} "
                    "recorded failures); see the runtime logs or journal"
                )
            raise ValueError(
                "no sliding window had any company with history before its "
                "start; check the window spec against the corpus timeline"
            )
        return curves

    def _cell_key(self, name: str, window: Window) -> str:
        """Journal/fault-site identity of one (window, model) cell."""
        mode = "retrain" if self.retrain_per_window else "shared"
        return cell_key("recommend", mode, name, window.start.isoformat())

    def _replay_journal(self, key: str, curve: ThresholdCurve) -> bool:
        """Replay a journaled cell's observations into ``curve`` if present."""
        if self.journal is None:
            return False
        entry = self.journal.completed(key)
        if entry is None:
            return False
        for record in entry.value:
            observation = WindowObservation.from_json(record)
            curve.observations[observation.threshold].append(observation)
        return True

    def _journal_outcome(self, key: str, outcome: Any) -> None:
        """Checkpoint one cell outcome the moment it is final."""
        if self.journal is None:
            return
        if isinstance(outcome, Ok):
            self.journal.record_ok(
                key,
                [o.as_json() for o in outcome.value],
                attempts=outcome.attempts,
            )
        else:
            self.journal.record_failure(
                key, outcome.describe(), attempts=outcome.attempts
            )

    def _merge_outcome(self, key: str, outcome: Any, curve: ThresholdCurve) -> None:
        """Fold one cell outcome into its curve.

        A failed cell contributes no observation — the window is skipped
        for that model, recorded rather than fatal.
        """
        if isinstance(outcome, Ok):
            for observation in outcome.value:
                curve.observations[observation.threshold].append(observation)
            return
        self._n_failed_cells += 1
        get_logger("recommend").warning(
            "cell %s failed after %d attempt(s); window skipped for this "
            "model: %s",
            key,
            outcome.attempts,
            outcome.describe(),
        )

    def _absorb(self, key: str, outcome: Any, curve: ThresholdCurve) -> None:
        """Journal and fold one cell outcome (the serial-path combination)."""
        self._journal_outcome(key, outcome)
        self._merge_outcome(key, outcome, curve)

    def _evaluate_serial(
        self,
        model_factories: dict[str, Callable[[], GenerativeModel]],
        windows: list[Window],
        curves: dict[str, ThresholdCurve],
        *,
        verbose: bool,
    ) -> None:
        """The historical in-process loop (the ``n_jobs=1`` reference path)."""
        trained: dict[str, GenerativeModel] = {}
        shared_train: tuple[Corpus, str | None] | None = None
        for w_index, window in enumerate(windows):
            with trace.span("recommend.window"):
                histories, owned_sets, truths = window_tasks(self.corpus, window)
            if not histories:
                continue
            metrics.inc("recommend.windows")
            metrics.inc("recommend.companies", len(histories))
            train_corpus = self.corpus.truncated_before(window.start)
            fingerprint = (
                fingerprint_corpus(train_corpus)
                if self.fit_cache is not None
                else None
            )
            if shared_train is None:
                # The once-before-the-first-window corpus of the
                # no-retrain protocol; pinned here so a resume that skips
                # the first window still trains on the right prefix.
                shared_train = (train_corpus, fingerprint)
            for name, factory in model_factories.items():
                key = self._cell_key(name, window)
                if self._replay_journal(key, curves[name]):
                    continue

                def cell(
                    name: str = name,
                    factory: Callable[[], GenerativeModel] = factory,
                    key: str = key,
                ) -> list[WindowObservation]:
                    faults.inject(key)
                    if self.retrain_per_window:
                        model = self._fit_model(factory, train_corpus, fingerprint)
                    elif name not in trained:
                        corpus, shared_fingerprint = shared_train
                        model = self._fit_model(factory, corpus, shared_fingerprint)
                        trained[name] = model
                    else:
                        model = trained[name]
                    return _score_cell(
                        model, histories, owned_sets, truths, self.thresholds,
                        window.start,
                    )

                self._absorb(key, run_with_retries(cell, retries=self.retries),
                             curves[name])
                if verbose:  # pragma: no cover - console convenience
                    print(f"window {w_index + 1}/{len(windows)} [{window.start}] {name} done")

    def _evaluate_parallel(
        self,
        model_factories: dict[str, Callable[[], GenerativeModel]],
        windows: list[Window],
        curves: dict[str, ThresholdCurve],
        *,
        verbose: bool,
    ) -> None:
        """Fan the fit+score cells out over a process pool.

        With ``retrain_per_window`` every (window, model) cell is one task;
        otherwise the one-off fits are parallelized across models and the
        cheap scoring pass stays in-process.  Either way every cell is
        replayed from or written to the journal under the serial path's
        key.  Results merge in submission order, so curves match the
        serial path exactly.
        """
        prepared: list[tuple[Window, list[list[int]], list[set[int]], list[set[int]]]] = []
        for window in windows:
            with trace.span("recommend.window"):
                histories, owned_sets, truths = window_tasks(self.corpus, window)
            if not histories:
                continue
            metrics.inc("recommend.windows")
            metrics.inc("recommend.companies", len(histories))
            prepared.append((window, histories, owned_sets, truths))
        if not prepared:
            return
        executor = ParallelMap(
            self.n_jobs, retries=self.retries, task_timeout=self.task_timeout
        )
        if self.retrain_per_window:
            payloads = []
            for window, histories, owned_sets, truths in prepared:
                # The training prefix is built lazily: a fully journaled
                # window replays without paying for truncation/hashing.
                train_corpus: Corpus | None = None
                fingerprint: str | None = None
                for name, factory in model_factories.items():
                    key = self._cell_key(name, window)
                    if self._replay_journal(key, curves[name]):
                        continue
                    if train_corpus is None:
                        train_corpus = self.corpus.truncated_before(window.start)
                        fingerprint = (
                            fingerprint_corpus(train_corpus)
                            if self.fit_cache is not None
                            else None
                        )
                    payloads.append(
                        {
                            "name": name,
                            "cell": key,
                            "factory": factory,
                            "train": train_corpus,
                            "fingerprint": fingerprint,
                            "cache": self.fit_cache,
                            "histories": histories,
                            "owned_sets": owned_sets,
                            "truths": truths,
                            "thresholds": self.thresholds,
                            "window_start": window.start,
                        }
                    )
            def journal_outcome(position: int, outcome: Any) -> None:
                # Journaling happens per finished cell (completion order —
                # entries are keyed, so order is irrelevant) while curve
                # merging below stays in submission order for determinism.
                self._journal_outcome(payloads[position]["cell"], outcome)

            outcomes = executor.map_outcomes(
                _fit_score_task, payloads, on_outcome=journal_outcome
            )
            for payload, outcome in zip(payloads, outcomes):
                self._merge_outcome(payload["cell"], outcome, curves[payload["name"]])
                if verbose:  # pragma: no cover - console convenience
                    print(f"[{payload['window_start']}] {payload['name']} done")
        else:
            # Fit once on the prefix before the first window (as the serial
            # path does), and only the models with a cell not yet journaled.
            def journaled(key: str) -> bool:
                entry = self.journal.get(key) if self.journal is not None else None
                return entry is not None and entry.status == "ok"

            unfitted = [
                name
                for name in model_factories
                if not all(
                    journaled(self._cell_key(name, window))
                    for window, *_ in prepared
                )
            ]
            train_corpus = self.corpus.truncated_before(prepared[0][0].start)
            fingerprint = (
                fingerprint_corpus(train_corpus)
                if self.fit_cache is not None
                else None
            )
            fit_payloads = [
                {
                    "name": name,
                    "factory": model_factories[name],
                    "train": train_corpus,
                    "fingerprint": fingerprint,
                    "cache": self.fit_cache,
                }
                for name in unfitted
            ]
            models: dict[str, GenerativeModel] = {}
            for payload, outcome in zip(
                fit_payloads, executor.map_outcomes(_fit_task, fit_payloads)
            ):
                if isinstance(outcome, Ok):
                    models[payload["name"]] = outcome.value
                    continue
                self._n_failed_cells += 1
                get_logger("recommend").warning(
                    "fit of model %s failed after %d attempt(s); model "
                    "excluded from the sweep: %s",
                    payload["name"],
                    outcome.attempts,
                    outcome.describe(),
                )
            for window, histories, owned_sets, truths in prepared:
                for name in model_factories:
                    key = self._cell_key(name, window)
                    if self._replay_journal(key, curves[name]) or name not in models:
                        continue
                    observations = _score_cell(
                        models[name], histories, owned_sets, truths,
                        self.thresholds, window.start,
                    )
                    self._absorb(key, Ok(observations), curves[name])


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


def _count_observations(
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
    matrices, one comparison per threshold.
    """
    owned, truth = _boolean_masks(scores.shape, owned_sets, truths)
    eligible = ~owned
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
    observations = _count_observations(
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


def _fit_task(payload: dict[str, Any]) -> GenerativeModel:
    """Worker task: fit one model (optionally through the cache)."""
    return fit_model(
        payload["factory"],
        payload["train"],
        payload["cache"],
        payload["fingerprint"],
    )


def _fit_score_task(payload: dict[str, Any]) -> list[WindowObservation]:
    """Worker task: fit + score one (window, model) cell.

    Emits the same metric increments as the serial loop; the executor
    merges worker counters back into the parent registry.
    """
    faults.inject(payload["cell"])
    return _score_cell(
        _fit_task(payload),
        payload["histories"],
        payload["owned_sets"],
        payload["truths"],
        payload["thresholds"],
        payload["window_start"],
    )
