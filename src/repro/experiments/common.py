"""Shared setup for all experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.columnar import open_corpus
from repro.data.corpus import Corpus, CorpusSplit
from repro.data.synthetic import InstallBaseSimulator, SimulatedUniverse, SimulatorConfig
from repro.obs import trace

__all__ = [
    "ExperimentData",
    "make_experiment_data",
    "load_corpus_data",
]


@dataclass
class ExperimentData:
    """A corpus with its standard 70/10/20 split.

    ``universe`` carries the simulator's raw feed and ground truth when the
    data was generated in-process; corpora loaded from a published columnar
    directory have no universe (``None``) — drivers that need simulator
    ground truth must generate, not load.
    """

    universe: SimulatedUniverse | None
    corpus: Corpus
    split: CorpusSplit


def make_experiment_data(
    n_companies: int = 2000,
    *,
    seed: int = 7,
    split_seed: int = 1,
    config: SimulatorConfig | None = None,
) -> ExperimentData:
    """Generate the standard experiment corpus.

    All benchmarks use this entry point so that the same ``(n_companies,
    seed)`` pair always produces the identical universe, split 70/10/20 as
    in Section 5.
    """
    if config is None:
        config = SimulatorConfig(n_companies=n_companies)
    elif config.n_companies != n_companies:
        raise ValueError(
            "n_companies argument disagrees with config.n_companies; set one"
        )
    with trace.span("exp.data.simulate"):
        simulator = InstallBaseSimulator(config)
        universe = simulator.generate(seed=seed)
        corpus = Corpus(universe.companies, simulator.catalog.categories)
        trace.add_counter("n_companies", corpus.n_companies)
        trace.add_counter("n_products", corpus.n_products)
    with trace.span("exp.data.split"):
        split = corpus.split((0.7, 0.1, 0.2), seed=split_seed)
    return ExperimentData(universe=universe, corpus=corpus, split=split)


def load_corpus_data(
    corpus_dir: str,
    *,
    split_seed: int = 1,
) -> ExperimentData:
    """Open a published columnar corpus with the standard 70/10/20 split.

    The memmap-backed counterpart of :func:`make_experiment_data`: the
    corpus streams from disk, the split is an index view (no companies are
    materialised), and ``universe`` is ``None`` because a published corpus
    carries no simulator ground truth.  A single-chunk columnar build of
    ``(n_companies, seed)`` loaded here yields bit-identical matrices,
    sequences and fingerprints to ``make_experiment_data(n_companies,
    seed=seed)`` at the same ``split_seed``.
    """
    with trace.span("exp.data.load"):
        corpus = open_corpus(corpus_dir)
        trace.add_counter("n_companies", corpus.n_companies)
        trace.add_counter("n_products", corpus.n_products)
    with trace.span("exp.data.split"):
        split = corpus.split((0.7, 0.1, 0.2), seed=split_seed)
    return ExperimentData(universe=None, corpus=corpus, split=split)

