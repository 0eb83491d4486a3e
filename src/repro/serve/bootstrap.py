"""Assemble a full serving stack from a synthetic universe.

The CLI's ``repro serve``, the load harness and the tests all need the
same thing: a corpus, fitted models for every ladder tier, a reference
slice for swap validation, the internal sales database, and a
:class:`~repro.serve.service.RecommendationService` wired through a
:class:`~repro.serve.registry.ModelRegistry`.  This module is that one
recipe, deterministic in ``(n_companies, seed)``.

The recipe is split so the pre-fork fleet can share work: model fitting
(:func:`build_demo_models`) is the expensive part and runs once in the
parent, which publishes the weights to an
:class:`~repro.serve.artifact.ArtifactStore`; each forked worker then
runs :func:`demo_service_factory`'s closure, rebuilding the cheap
deterministic data and memory-mapping the published weights read-only —
N workers, one page-cache copy.
"""

from __future__ import annotations

from repro.app.tool import SalesRecommendationTool
from repro.data.internal import InternalSalesDatabase
from repro.experiments.common import load_corpus_data, make_experiment_data
from repro.models.base import GenerativeModel
from repro.models.lda import LatentDirichletAllocation
from repro.models.ngram import NGramModel
from repro.obs.logging import get_logger
from repro.recommend.windows import SlidingWindowSpec
from repro.replay.canary import CanaryGate
from repro.scenarios.packs import load_scenario_manifest
from repro.serve.artifact import ArtifactStore, PublishedGeneration
from repro.serve.registry import ModelRegistry
from repro.serve.service import RecommendationService, ServiceConfig
from typing import Callable

__all__ = [
    "build_demo_models",
    "build_demo_service",
    "publish_demo_artifacts",
    "demo_service_factory",
]


def _demo_data(n_companies: int, seed: int, corpus_dir: str | None):
    """The serving corpus: a memmap-backed load or an in-process simulation.

    With ``corpus_dir`` the stack serves a published columnar corpus —
    token columns stay on disk and every worker that opens the same
    directory shares one page-cache copy, so bootstrap memory stays
    bounded at any corpus size.
    """
    if corpus_dir:
        return load_corpus_data(corpus_dir)
    return make_experiment_data(n_companies, seed=seed)


def build_demo_models(
    n_companies: int = 300,
    *,
    seed: int = 7,
    lda_topics: int = 3,
    lda_iterations: int = 60,
    corpus_dir: str | None = None,
):
    """Fit the demo ladder's model set once.

    Returns ``(data, models)`` where ``models`` maps registry slot names
    to fitted models.  Deterministic in ``(n_companies, seed)`` — two
    processes calling this with the same arguments fit bit-identical
    models, which is what lets workers rebuild the corpus locally while
    the weights come from a shared artifact.  With ``corpus_dir`` the
    corpus is opened from a published columnar directory instead
    (determinism then keys on the directory's content fingerprint).
    """
    data = _demo_data(n_companies, seed, corpus_dir)
    train = data.split.train
    lda = LatentDirichletAllocation(
        n_topics=lda_topics, inference="variational", n_iter=lda_iterations, seed=0
    ).fit(train)
    ngram = NGramModel(order=2).fit(train)
    return data, {"lda": lda, "ngram": ngram}


def build_demo_service(
    n_companies: int = 300,
    *,
    seed: int = 7,
    config: ServiceConfig | None = None,
    lda_topics: int = 3,
    lda_iterations: int = 60,
    with_tool: bool = True,
    models: dict[str, GenerativeModel] | None = None,
    corpus_dir: str | None = None,
) -> RecommendationService:
    """Build the standard LDA → n-gram → popularity serving stack.

    Models are fitted on the train split; the validation split is the
    registry's reference slice for hot-swap gating.  Deterministic in
    ``(n_companies, seed)``.  Passing ``models`` (slot name → fitted
    model, e.g. memory-mapped from an artifact store) skips the fit and
    installs those instead — the data is still rebuilt locally.  With
    ``corpus_dir`` the corpus is memory-mapped from a published columnar
    directory rather than simulated, keeping bootstrap memory bounded.
    """
    config = config or ServiceConfig()
    log = get_logger("serve.bootstrap")
    if models is None:
        data, models = build_demo_models(
            n_companies,
            seed=seed,
            lda_topics=lda_topics,
            lda_iterations=lda_iterations,
            corpus_dir=corpus_dir,
        )
    else:
        data = _demo_data(n_companies, seed, corpus_dir)
    reference = data.split.validation
    lda = models["lda"]

    canary = None
    if config.canary_windows > 0:
        canary = CanaryGate(
            reference,
            spec=SlidingWindowSpec(n_windows=config.canary_windows),
            threshold=config.default_threshold,
            quality_margin=config.canary_quality_margin,
            max_regressed=config.canary_max_regressed,
            divergence_threshold=config.canary_divergence_threshold,
        )
    registry = ModelRegistry(
        reference,
        perplexity_tolerance=config.swap_tolerance,
        threshold=config.default_threshold,
        canary=canary,
    )
    for slot, model in models.items():
        registry.install(slot, model)
    log.info(
        "serving stack ready: %d companies, %d products, lda ppl %.2f, ngram ppl %.2f",
        data.corpus.n_companies,
        data.corpus.n_products,
        registry.serving_perplexity("lda"),
        registry.serving_perplexity("ngram"),
    )

    tool = None
    if with_tool:
        internal = InternalSalesDatabase(data.corpus.companies, seed=seed)
        tool = SalesRecommendationTool(
            data.corpus, lda.company_features(data.corpus), internal
        )
        tool.model_version = registry.generation

    # A corpus published by ``repro scenario build`` carries its
    # corruption manifest; merger events there become admission aliases
    # so a D-U-N-S absorbed by an M&A event resolves to its survivor.
    aliases = None
    if corpus_dir:
        scenario = load_scenario_manifest(corpus_dir)
        if scenario is not None:
            aliases = scenario.merger_aliases() or None
            if aliases:
                log.info(
                    "scenario corpus: %d merger aliases admitted from %s",
                    len(aliases),
                    scenario.pack,
                )

    return RecommendationService(
        corpus=data.corpus,
        registry=registry,
        tiers=tuple(slot for slot in ("lda", "ngram") if slot in models),
        tool=tool,
        feature_slot="lda" if with_tool else None,
        config=config,
        aliases=aliases,
    )


def publish_demo_artifacts(
    store: ArtifactStore,
    n_companies: int = 300,
    *,
    seed: int = 7,
    lda_topics: int = 3,
    lda_iterations: int = 60,
    corpus_dir: str | None = None,
) -> PublishedGeneration:
    """Fit the demo models once and publish them as a new generation."""
    _data, models = build_demo_models(
        n_companies,
        seed=seed,
        lda_topics=lda_topics,
        lda_iterations=lda_iterations,
        corpus_dir=corpus_dir,
    )
    return store.publish(models)


def demo_service_factory(
    store: ArtifactStore,
    n_companies: int = 300,
    *,
    seed: int = 7,
    config: ServiceConfig | None = None,
    with_tool: bool = True,
    corpus_dir: str | None = None,
) -> Callable[[], RecommendationService]:
    """A fleet ``service_factory`` serving mmap'd models from ``store``.

    The returned closure runs inside each forked worker: it memory-maps
    every slot of the store's current generation read-only (sharing one
    page-cache copy of the weights across the fleet) and rebuilds the
    deterministic corpus/reference data locally — or, with ``corpus_dir``,
    re-opens the published columnar corpus so the token columns are also
    one shared page-cache copy.
    """

    def factory() -> RecommendationService:
        published = store.current()
        if published is None:
            raise RuntimeError(
                f"artifact store at {store.root} has no published generation"
            )
        models = {
            slot: published.load(slot, mmap_mode="r") for slot in published.slots()
        }
        return build_demo_service(
            n_companies,
            seed=seed,
            config=config,
            with_tool=with_tool,
            models=models,
            corpus_dir=corpus_dir,
        )

    return factory
