"""Model registry with validated, atomic hot-swap.

The serving layer never points at a model object directly; it resolves
models through this registry on every request.  A *swap* stages a
candidate (an in-memory model or a saved artifact path), validates it
against a held-out reference slice, and only then atomically replaces the
serving record.  Validation is :class:`~repro.app.drift.DriftMonitor`-
gated: the candidate's perplexity on the reference slice must be finite
and within ``perplexity_tolerance`` of the *currently serving* model's
reference perplexity (the monitor's baseline).  A candidate that fails to
load (corrupt artifact), is unfitted, disagrees on vocabulary, or flunks
the perplexity gate is rejected — the previous model keeps serving
throughout, bit-identically, and the rejection is recorded in the swap
history.

With a :class:`~repro.replay.canary.CanaryGate` installed, validation
extends from "is the artifact sane" to "does it survive yesterday's
traffic": the candidate is shadow-scored against the incumbent on
replayed time-sliced windows, and a candidate whose windowed quality or
recommendation distribution regresses is rejected on the same path —
the admin endpoint surfaces it as a 409 with the canary verdict
attached, and the fleet's all-or-nothing generation apply (which runs
:meth:`ModelRegistry.validate` per slot) inherits the gate for free.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.app.drift import DriftMonitor
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel
from repro.obs.logging import get_logger
from repro.recommend.recommender import ThresholdRecommender
from repro.replay.canary import CanaryGate
from repro.runtime import faults
from repro.serve.admission import AdmissionError

__all__ = ["SwapReport", "ModelRegistry"]


@dataclass(frozen=True)
class SwapReport:
    """Outcome of one staged swap attempt."""

    name: str
    status: str  # promoted | rejected
    reason: str
    version: int
    candidate_perplexity: float | None = None
    baseline_perplexity: float | None = None
    tolerance: float | None = None
    #: Registry-wide monotonic generation after this attempt; bumped only
    #: by promotions, so it names the model era an answer came from.
    generation: int = 0
    #: Canary verdict summary when a canary gate ran for this attempt.
    canary: dict[str, object] | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-encodable view for the admin endpoint response."""
        payload: dict[str, object] = {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "version": self.version,
            "candidate_perplexity": self.candidate_perplexity,
            "baseline_perplexity": self.baseline_perplexity,
            "tolerance": self.tolerance,
            "generation": self.generation,
        }
        if self.canary is not None:
            payload["canary"] = self.canary
        return payload


@dataclass(frozen=True)
class _Record:
    """One atomically-swapped serving slot."""

    model: GenerativeModel
    recommender: ThresholdRecommender
    monitor: DriftMonitor
    version: int


class ModelRegistry:
    """Named serving slots, each hot-swappable behind validation.

    Parameters
    ----------
    reference:
        Held-out slice used as the validation yardstick for every swap.
    perplexity_tolerance:
        A candidate may be at most this factor worse than the serving
        model on the reference slice.
    threshold:
        Default phi for the recommenders built around serving models.
    canary:
        Optional :class:`~repro.replay.canary.CanaryGate`; when set,
        every swap/validate additionally shadow-scores the candidate
        against the incumbent on replayed traffic.
    clock:
        Injectable seconds source recorded with swaps (tests).
    """

    def __init__(
        self,
        reference: Corpus,
        *,
        perplexity_tolerance: float = 1.25,
        threshold: float = 0.1,
        canary: CanaryGate | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if perplexity_tolerance < 1.0:
            raise ValueError("perplexity_tolerance must be >= 1")
        self.reference = reference
        self.perplexity_tolerance = perplexity_tolerance
        self.threshold = threshold
        self.canary = canary
        self._clock = clock
        self._records: dict[str, _Record] = {}
        self._swap_lock = threading.Lock()
        self.history: list[SwapReport] = []
        self._generation = 0
        self._subscribers: list[Callable[[SwapReport], None]] = []
        self._log = get_logger("serve.registry")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered slot names."""
        return sorted(self._records)

    def _record(self, name: str) -> _Record:
        try:
            return self._records[name]
        except KeyError:
            raise KeyError(f"no model registered under {name!r}") from None

    def model(self, name: str) -> GenerativeModel:
        """The currently serving model of a slot."""
        return self._record(name).model

    def recommender(self, name: str) -> ThresholdRecommender:
        """The recommender wrapping the currently serving model."""
        return self._record(name).recommender

    def monitor(self, name: str) -> DriftMonitor:
        """The drift monitor watching the currently serving model."""
        return self._record(name).monitor

    def version(self, name: str) -> int:
        """Monotonic version of a slot; bumped on every promotion."""
        return self._record(name).version

    @property
    def generation(self) -> int:
        """Registry-wide monotonic model generation.

        Bumped on every install and every promotion — never on a
        rejection.  Consumers that must not outlive a model era (the top-k
        result cache, the similarity tool's features) key or stamp their
        state with this value, so a hot-swap atomically orphans anything derived from the
        previous serving set.
        """
        return self._generation

    def subscribe(self, callback: Callable[[SwapReport], None]) -> None:
        """Register a callback fired after every successful promotion.

        Callbacks run synchronously inside the swap (before the admin
        response is returned), so cache invalidation and index refreshes
        are complete by the time the promotion is acknowledged.  Callback
        exceptions are logged, never propagated — a misbehaving consumer
        cannot turn a valid promotion into a failure.
        """
        self._subscribers.append(callback)

    def _notify(self, report: SwapReport) -> None:
        for callback in list(self._subscribers):
            try:
                callback(report)
            except Exception:  # noqa: BLE001 - consumers must not break swaps
                self._log.error(
                    "swap subscriber %r failed for %s v%d",
                    callback,
                    report.name,
                    report.version,
                    exc_info=True,
                )

    def serving_perplexity(self, name: str) -> float:
        """The serving model's perplexity on the reference slice."""
        return self._record(name).monitor.reference_perplexity

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Version/perplexity view of every slot for health endpoints."""
        return {
            name: {
                "version": record.version,
                "model": type(record.model).__name__,
                "reference_perplexity": record.monitor.reference_perplexity,
            }
            for name, record in sorted(self._records.items())
        }

    # ------------------------------------------------------------------
    # Install / swap
    # ------------------------------------------------------------------
    def _build_record(
        self,
        model: GenerativeModel,
        version: int,
        reference_perplexity: float | None = None,
    ) -> _Record:
        monitor = DriftMonitor(
            model,
            self.reference,
            perplexity_tolerance=self.perplexity_tolerance,
            reference_perplexity=reference_perplexity,
        )
        return _Record(
            model=model,
            recommender=ThresholdRecommender(model, threshold=self.threshold),
            monitor=monitor,
            version=version,
        )

    def install(self, name: str, model: GenerativeModel) -> None:
        """Install the initial model of a slot (validated, version 1)."""
        if name in self._records:
            raise ValueError(f"slot {name!r} already installed; use swap()")
        if not isinstance(model, GenerativeModel) or not model.is_fitted:
            raise ValueError(f"slot {name!r} needs a fitted GenerativeModel")
        if model.vocab_size != self.reference.n_products:
            raise ValueError(
                f"model vocabulary {model.vocab_size} does not match the "
                f"reference slice's {self.reference.n_products} products"
            )
        self._records[name] = self._build_record(model, version=1)
        self._generation += 1

    def _load_candidate(
        self,
        source: GenerativeModel | str | Path,
        mmap_mode: str | None = None,
    ) -> GenerativeModel:
        if isinstance(source, GenerativeModel):
            return source
        return GenerativeModel.load_any(source, mmap_mode=mmap_mode)

    def _gate(
        self,
        name: str,
        current: _Record,
        source: GenerativeModel | str | Path,
        mmap_mode: str | None,
    ) -> tuple[GenerativeModel | None, str, float | None, dict[str, object] | None]:
        """Stage + validate a candidate without committing.

        Returns ``(candidate, reason, perplexity, canary)`` — candidate
        is None when any gate fails, with the rejection reason; canary
        is the verdict summary when the canary gate ran.
        """
        baseline = current.monitor.reference_perplexity
        tolerance = self.perplexity_tolerance
        try:
            # The injection site lets the load harness stall or crash a
            # swap mid-validation; both degrade to a rejection.
            faults.inject(f"serve/swap/{name}")
            candidate = self._load_candidate(source, mmap_mode)
        except (ValueError, TypeError, faults.InjectedFault) as exc:
            return None, f"stage failed: {exc}", None, None
        if not isinstance(candidate, GenerativeModel) or not candidate.is_fitted:
            return None, "candidate is not a fitted GenerativeModel", None, None
        if candidate.vocab_size != self.reference.n_products:
            return None, (
                f"candidate vocabulary {candidate.vocab_size} does not match "
                f"the reference slice's {self.reference.n_products} products"
            ), None, None
        try:
            candidate_ppl = candidate.perplexity(self.reference)
        except Exception as exc:  # noqa: BLE001 - degrade, never propagate
            return None, (
                f"perplexity evaluation failed: {type(exc).__name__}: {exc}"
            ), None, None
        if not math.isfinite(candidate_ppl):
            return None, (
                f"candidate perplexity on the reference slice is non-finite "
                f"({candidate_ppl})"
            ), candidate_ppl, None
        if candidate_ppl > baseline * tolerance:
            return None, (
                f"candidate perplexity {candidate_ppl:.3f} exceeds the gate "
                f"{baseline:.3f} * {tolerance} = {baseline * tolerance:.3f}"
            ), candidate_ppl, None
        canary_info: dict[str, object] | None = None
        if self.canary is not None:
            try:
                verdict = self.canary.evaluate(current.model, candidate)
            except Exception as exc:  # noqa: BLE001 - degrade, never propagate
                return None, (
                    f"canary evaluation failed: {type(exc).__name__}: {exc}"
                ), candidate_ppl, None
            canary_info = verdict.as_dict()
            if not verdict.passed:
                return None, (
                    f"canary rejected ({verdict.reason}): {verdict.detail}"
                ), candidate_ppl, canary_info
        return candidate, "validation passed", candidate_ppl, canary_info

    def validate(
        self,
        name: str,
        source: GenerativeModel | str | Path,
        *,
        mmap_mode: str | None = None,
    ) -> tuple[GenerativeModel | None, str]:
        """Run every swap gate against a candidate WITHOUT committing.

        Returns ``(candidate, reason)``: the staged (possibly mmap'd)
        model ready to pass to :meth:`swap` when every gate passed, or
        ``(None, reason)`` on rejection.  The fleet's artifact watcher
        uses this to make a multi-slot generation all-or-nothing —
        every slot is validated before any slot is promoted, so a
        generation with one bad artifact never leaves a worker serving
        a torn mix of old and new models.
        """
        if name not in self._records:
            raise AdmissionError(404, "unknown_model", f"no serving slot named {name!r}")
        with self._swap_lock:
            candidate, reason, _ppl, _canary = self._gate(
                name, self._records[name], source, mmap_mode
            )
        return candidate, reason

    def swap(
        self,
        name: str,
        source: GenerativeModel | str | Path,
        *,
        mmap_mode: str | None = None,
    ) -> SwapReport:
        """Validate a staged candidate and atomically promote it.

        Never raises for a bad candidate: every failure mode yields a
        ``rejected`` report and the previous model keeps serving.  Unknown
        slot names raise :class:`AdmissionError` (the caller's fault).
        ``mmap_mode="r"`` maps the candidate's weights read-only in place
        (the fleet's shared-page path) instead of copying them.
        """
        if name not in self._records:
            raise AdmissionError(404, "unknown_model", f"no serving slot named {name!r}")
        with self._swap_lock:
            current = self._records[name]
            baseline = current.monitor.reference_perplexity
            tolerance = self.perplexity_tolerance

            def rejected(
                reason: str,
                candidate_ppl: float | None = None,
                canary: dict[str, object] | None = None,
            ) -> SwapReport:
                report = SwapReport(
                    name=name,
                    status="rejected",
                    reason=reason,
                    version=current.version,
                    candidate_perplexity=candidate_ppl,
                    baseline_perplexity=baseline,
                    tolerance=tolerance,
                    generation=self._generation,
                    canary=canary,
                )
                self.history.append(report)
                self._log.warning(
                    "hot-swap of %s rejected: %s (serving v%d unchanged)",
                    name,
                    reason,
                    current.version,
                )
                return report

            candidate, reason, candidate_ppl, canary_info = self._gate(
                name, current, source, mmap_mode
            )
            if candidate is None:
                return rejected(reason, candidate_ppl, canary_info)
            try:
                # The gate just measured the candidate on the reference
                # slice; its monitor reuses that value as its baseline.
                record = self._build_record(
                    candidate, version=current.version + 1,
                    reference_perplexity=candidate_ppl,
                )
            except Exception as exc:  # noqa: BLE001 - roll back, never propagate
                return rejected(f"promotion failed, rolled back: {type(exc).__name__}: {exc}",
                                candidate_ppl)
            self._records[name] = record
            self._generation += 1
            report = SwapReport(
                name=name,
                status="promoted",
                reason="validation passed",
                version=record.version,
                candidate_perplexity=candidate_ppl,
                baseline_perplexity=baseline,
                tolerance=tolerance,
                generation=self._generation,
                canary=canary_info,
            )
            self.history.append(report)
            self._log.info(
                "hot-swap of %s promoted to v%d, generation %d "
                "(perplexity %.3f vs baseline %.3f)",
                name,
                record.version,
                self._generation,
                candidate_ppl,
                baseline,
            )
            self._notify(report)
            return report
