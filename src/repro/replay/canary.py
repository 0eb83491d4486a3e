"""Canary gating: shadow-score a swap candidate on replayed traffic.

The registry's historical hot-swap gate asks "is the artifact sane"
(loads, finite perplexity within tolerance).  The canary extends that to
"does it survive yesterday's traffic": both incumbent and candidate are
replayed through the same :class:`~repro.replay.harness.ReplayHarness`
windows, and the candidate is rejected when its windowed quality
regresses past the margin or its recommendation distribution diverges
from the incumbent's — the signature of a model fitted on remapped or
drifted data that would silently change what the fleet recommends.

The verdict carries a machine-readable reason so a rejected promotion
surfaces as a 409 body an operator can act on, and both replay reports
so the rejection is auditable window by window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.app.drift import jensen_shannon_divergence
from repro.data.corpus import Corpus
from repro.models.base import GenerativeModel
from repro.obs import get_logger
from repro.recommend.windows import SlidingWindowSpec
from repro.replay.harness import ReplayHarness, ReplayReport

__all__ = ["CanaryVerdict", "CanaryGate"]


@dataclass(frozen=True)
class CanaryVerdict:
    """Outcome of one canary evaluation."""

    passed: bool
    #: Machine-readable slug: "passed", "quality_regression",
    #: "recommendation_divergence".
    reason: str
    detail: str
    regressed_windows: int
    n_windows: int
    #: JS divergence between incumbent and candidate recommendation
    #: distributions over the replayed traffic (NaN when undefined).
    recommendation_divergence: float
    incumbent: ReplayReport
    candidate: ReplayReport

    def as_dict(self) -> dict[str, Any]:
        """Compact JSON form for swap reports and HTTP bodies."""
        return {
            "passed": self.passed,
            "reason": self.reason,
            "detail": self.detail,
            "regressed_windows": self.regressed_windows,
            "n_windows": self.n_windows,
            "recommendation_divergence": (
                None
                if math.isnan(self.recommendation_divergence)
                else round(self.recommendation_divergence, 6)
            ),
            "incumbent_mean_recall": round(self.incumbent.mean_recall(), 6),
            "candidate_mean_recall": round(self.candidate.mean_recall(), 6),
        }


class CanaryGate:
    """Replay-based promotion gate between an incumbent and a candidate.

    Parameters
    ----------
    corpus:
        Traffic to replay — typically the registry's reference slice.
    spec:
        Windows to slide over; the default paper spec is usually far
        more than a gate needs, so callers pass a short spec
        (e.g. ``SlidingWindowSpec(n_windows=3)``).
    threshold:
        Recommender phi used for shadow scoring.
    quality_margin:
        Recall/precision slack per window: the candidate regresses a
        window when it falls more than this below the incumbent.
    max_regressed:
        Windows allowed to regress before the gate rejects (1 tolerates
        a single noisy window).
    divergence_threshold:
        Ceiling on the JS divergence between the two models' aggregate
        recommendation distributions.  Deliberately looser than the
        :class:`~repro.app.drift.DriftMonitor` default (0.05): healthy
        same-family refits land around 0.1–0.17 on small reference
        slices, while drift-injected candidates clear 0.25.
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        spec: SlidingWindowSpec | None = None,
        threshold: float = 0.1,
        quality_margin: float = 0.05,
        max_regressed: int = 1,
        divergence_threshold: float = 0.2,
    ) -> None:
        if quality_margin < 0:
            raise ValueError(f"quality_margin must be >= 0, got {quality_margin}")
        if max_regressed < 0:
            raise ValueError(f"max_regressed must be >= 0, got {max_regressed}")
        if divergence_threshold <= 0:
            raise ValueError(
                f"divergence_threshold must be positive, got {divergence_threshold}"
            )
        self.quality_margin = float(quality_margin)
        self.max_regressed = int(max_regressed)
        self.divergence_threshold = float(divergence_threshold)
        # Inline (n_jobs=1): the gate runs inside a serving process.  A
        # window's traffic drift is judged by the harness's own threshold,
        # not by this gate's recommendation-divergence ceiling.
        self.harness = ReplayHarness(
            corpus, spec=spec or SlidingWindowSpec(n_windows=3), threshold=threshold
        )
        self._log = get_logger("replay.canary")
        #: Incumbent replays cached by model identity — the incumbent
        #: does not change between candidate evaluations, so repeated
        #: swap attempts only pay for the candidate's replay.
        self._incumbent_cache: dict[int, ReplayReport] = {}

    def _replay_incumbent(self, incumbent: GenerativeModel) -> ReplayReport:
        key = id(incumbent)
        cached = self._incumbent_cache.get(key)
        if cached is None:
            cached = self.harness.replay(incumbent, "incumbent")
            self._incumbent_cache = {key: cached}
        return cached

    def _window_regressed(self, incumbent, candidate) -> bool:
        if incumbent.recall - candidate.recall > self.quality_margin:
            return True
        inc_p, cand_p = incumbent.precision, candidate.precision
        if math.isnan(inc_p):
            return False  # incumbent retrieved nothing: no precision bar
        if math.isnan(cand_p):
            # Incumbent had defined precision, candidate retrieved
            # nothing at all — only a regression if there was anything
            # to retrieve.
            return incumbent.n_retrieved > 0
        return inc_p - cand_p > self.quality_margin

    def evaluate(
        self, incumbent: GenerativeModel, candidate: GenerativeModel
    ) -> CanaryVerdict:
        """Shadow-score ``candidate`` against ``incumbent`` on replay."""
        return self.compare(
            self._replay_incumbent(incumbent),
            self.harness.replay(candidate, "candidate"),
        )

    def compare(
        self, incumbent_report: ReplayReport, candidate_report: ReplayReport
    ) -> CanaryVerdict:
        """The verdict on two replays of the same windows."""
        regressed = sum(
            1
            for inc, cand in zip(
                incumbent_report.results, candidate_report.results, strict=True
            )
            if self._window_regressed(inc.observation, cand.observation)
        )
        inc_dist = incumbent_report.recommendation_distribution()
        cand_dist = candidate_report.recommendation_distribution()
        if inc_dist.sum() > 0 and cand_dist.sum() > 0:
            divergence = jensen_shannon_divergence(inc_dist, cand_dist)
        else:
            divergence = float("nan")

        if regressed > self.max_regressed:
            verdict = CanaryVerdict(
                passed=False,
                reason="quality_regression",
                detail=(
                    f"candidate regressed {regressed}/{incumbent_report.n_windows} "
                    f"replay windows beyond the {self.quality_margin:g} margin "
                    f"(allowed: {self.max_regressed})"
                ),
                regressed_windows=regressed,
                n_windows=incumbent_report.n_windows,
                recommendation_divergence=divergence,
                incumbent=incumbent_report,
                candidate=candidate_report,
            )
        elif not math.isnan(divergence) and divergence > self.divergence_threshold:
            verdict = CanaryVerdict(
                passed=False,
                reason="recommendation_divergence",
                detail=(
                    f"candidate recommendation distribution diverges from the "
                    f"incumbent's (JS {divergence:.4f} > "
                    f"{self.divergence_threshold:g}) on replayed traffic"
                ),
                regressed_windows=regressed,
                n_windows=incumbent_report.n_windows,
                recommendation_divergence=divergence,
                incumbent=incumbent_report,
                candidate=candidate_report,
            )
        else:
            verdict = CanaryVerdict(
                passed=True,
                reason="passed",
                detail=(
                    f"candidate held quality over {incumbent_report.n_windows} "
                    f"replay windows ({regressed} regressed, allowed "
                    f"{self.max_regressed})"
                ),
                regressed_windows=regressed,
                n_windows=incumbent_report.n_windows,
                recommendation_divergence=divergence,
                incumbent=incumbent_report,
                candidate=candidate_report,
            )
        self._log.info(
            "canary %s: %s", "passed" if verdict.passed else "REJECTED", verdict.detail
        )
        return verdict
