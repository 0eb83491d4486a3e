"""Resilient online serving layer for the Section 6 recommendation tool.

The paper ships a *deployed* sales tool; this package is the harness that
makes the reproduction's pipeline survive deployment conditions — dirty
payloads, slow or broken models, mid-flight model refreshes, overload —
while never answering a degradable failure with a 5xx:

* :mod:`repro.serve.admission` — schema/vocabulary validation + quarantine;
* :mod:`repro.serve.breaker` — per-tier circuit breakers (injectable clock);
* :mod:`repro.serve.ladder` — LDA → n-gram → popularity degradation ladder
  under per-request deadline budgets;
* :mod:`repro.serve.registry` — DriftMonitor-gated, atomic model hot-swap;
* :mod:`repro.serve.batch` — deadline-aware micro-batching of /recommend;
* :mod:`repro.serve.topk_cache` — generation-keyed LRU of top-k results;
* :mod:`repro.serve.service` — the transport-agnostic request core;
* :mod:`repro.serve.http` — stdlib ``ThreadingHTTPServer`` transport;
* :mod:`repro.serve.bootstrap` — the standard demo stack builder.

Scale-out serving stacks the same core across processes:

* :mod:`repro.serve.artifact` — generation-numbered mmap'd model store
  with atomic symlink publish;
* :mod:`repro.serve.fleet` — pre-fork supervisor, SO_REUSEPORT workers
  (each a full replica), per-worker artifact watcher;
* :mod:`repro.serve.router` — least-loaded router and fleet
  metrics/health aggregation.
"""

from __future__ import annotations

from repro.serve.admission import (
    AdmissionError,
    AdmissionPolicy,
    QuarantineLog,
    SimilarRequest,
    ValidatedRequest,
)
from repro.serve.artifact import ArtifactStore, PublishedGeneration
from repro.serve.batch import BatchedAnswer, MicroBatcher
from repro.serve.bootstrap import (
    build_demo_models,
    build_demo_service,
    demo_service_factory,
    publish_demo_artifacts,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.fleet import (
    ArtifactWatcher,
    FleetSupervisor,
    WorkerState,
    read_fleet_state,
    run_worker,
)
from repro.serve.http import ServiceHTTPServer, start_server
from repro.serve.ladder import DegradationLadder, LadderResult, Tier, TierOutcome
from repro.serve.registry import ModelRegistry, SwapReport
from repro.serve.router import FleetRouter, RouterHTTPServer, start_router
from repro.serve.service import RecommendationService, ServiceConfig, ServiceResponse
from repro.serve.topk_cache import TopKCache

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "QuarantineLog",
    "SimilarRequest",
    "ValidatedRequest",
    "BatchedAnswer",
    "MicroBatcher",
    "TopKCache",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DegradationLadder",
    "LadderResult",
    "Tier",
    "TierOutcome",
    "ModelRegistry",
    "SwapReport",
    "RecommendationService",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceHTTPServer",
    "start_server",
    "build_demo_models",
    "build_demo_service",
    "demo_service_factory",
    "publish_demo_artifacts",
    "ArtifactStore",
    "PublishedGeneration",
    "ArtifactWatcher",
    "FleetSupervisor",
    "WorkerState",
    "read_fleet_state",
    "run_worker",
    "FleetRouter",
    "RouterHTTPServer",
    "start_router",
]
