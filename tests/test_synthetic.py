"""Tests for the install-base simulator."""

import datetime as dt
import hashlib

import numpy as np
import pytest

from repro.data.catalog import (
    HARDWARE_CATEGORIES,
    ProductCatalog,
    ProductType,
    Vendor,
)
from repro.data.columnar import simulate_to_columnar
from repro.data.company import InstallRecord, aggregate_domestic
from repro.data.corpus import Corpus
from repro.data.io import write_records_csv
from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig
from repro.experiments.common import make_experiment_data


class TestSimulatorConfig:
    def test_defaults_valid(self):
        SimulatorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_companies": 0},
            {"n_profiles": 0},
            {"mixture_concentration": 0.0},
            {"core_size": 0.0},
            {"core_softness": 0.0},
            {"ownership_cap": 1.5},
            {"background_rate": -0.1},
            {"size_jitter_sd": -1.0},
            {"shared_head": -1},
            {"temporal_coherence": 1.5},
            {"min_products": 0},
            {"max_sites": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            SimulatorConfig(**kwargs)

    def test_date_ordering_enforced(self):
        with pytest.raises(ValueError):
            SimulatorConfig(
                earliest_start=dt.date(2010, 1, 1), latest_start=dt.date(2000, 1, 1)
            )


class TestGeneration:
    def test_company_count(self, universe):
        assert len(universe.companies) == 300

    def test_deterministic_given_seed(self, simulator):
        a = simulator.generate(seed=3)
        b = simulator.generate(seed=3)
        assert [c.duns.value for c in a.companies] == [c.duns.value for c in b.companies]
        assert all(
            x.first_seen == y.first_seen
            for x, y in zip(a.companies, b.companies)
        )

    def test_different_seeds_differ(self, simulator):
        a = simulator.generate(seed=3)
        b = simulator.generate(seed=4)
        assert any(
            x.first_seen != y.first_seen for x, y in zip(a.companies, b.companies)
        )

    def test_every_company_has_min_products(self, universe):
        for company in universe.companies:
            assert len(company) >= universe.config.min_products

    def test_categories_are_hardware(self, universe):
        valid = set(HARDWARE_CATEGORIES)
        for company in universe.companies:
            assert company.categories <= valid

    def test_dates_within_observation_period(self, universe):
        config = universe.config
        for company in universe.companies:
            for date in company.first_seen.values():
                assert config.earliest_start <= date <= config.observation_end

    def test_some_products_in_evaluation_period(self, universe):
        # The sliding-window harness needs ground truth after 2013.
        eval_start = dt.date(2013, 1, 1)
        count = sum(
            1
            for company in universe.companies
            for date in company.first_seen.values()
            if date >= eval_start
        )
        assert count > 50

    def test_sites_resolve_to_companies(self, universe):
        ultimates = {c.duns.value for c in universe.companies}
        for site in universe.sites:
            resolved = universe.registry.domestic_ultimate(site.duns).value
            assert resolved in ultimates

    def test_sic2_assignments_cover_companies(self, universe):
        for company in universe.companies:
            assert company.duns.value in universe.sic2_by_ultimate

    def test_ground_truth_shapes(self, universe):
        truth = universe.ground_truth
        n_profiles = universe.config.n_profiles
        assert truth.profile_product.shape == (n_profiles, 38)
        assert truth.company_mixture.shape == (universe.config.n_companies, n_profiles)
        assert np.allclose(truth.profile_product.sum(axis=1), 1.0)
        assert np.allclose(truth.company_mixture.sum(axis=1), 1.0)
        assert truth.stages.shape == (38,)

    def test_generate_companies_shortcut(self, simulator):
        companies = simulator.generate_companies(seed=5)
        assert len(companies) == 300


class TestStatisticalShape:
    """The calibration targets that make the paper's results reproducible."""

    @pytest.fixture(scope="class")
    def big_corpus(self):
        simulator = InstallBaseSimulator(SimulatorConfig(n_companies=800))
        universe = simulator.generate(seed=42)
        return Corpus(universe.companies, simulator.catalog.categories), universe

    def test_density_is_moderate(self, big_corpus):
        corpus, __ = big_corpus
        density = corpus.binary_matrix().mean()
        # "The data in our deployment is relatively dense" — a fifth-ish of
        # the 38 categories owned on average.
        assert 0.1 < density < 0.35

    def test_unigram_entropy_near_paper(self, big_corpus):
        corpus, __ = big_corpus
        matrix = corpus.binary_matrix()
        counts = matrix.sum(axis=0)
        proba = counts / counts.sum()
        perplexity = np.exp(-(proba[proba > 0] * np.log(proba[proba > 0])).sum())
        # Paper: unigram perplexity 19.5.  Allow a generous band.
        assert 15.0 < perplexity < 25.0

    def test_popular_categories_are_popular(self, big_corpus):
        corpus, __ = big_corpus
        matrix = corpus.binary_matrix()
        popularity = matrix.mean(axis=0)
        universal = max(
            popularity[corpus.token(c)]
            for c in ("OS", "network_HW", "server_HW", "printers")
        )
        median_rate = float(np.median(popularity))
        assert universal > 1.5 * median_rate

    def test_profiles_drive_ownership(self, big_corpus):
        # Companies with the same dominant profile share far more products
        # than companies with different profiles.
        corpus, universe = big_corpus
        labels = universe.ground_truth.company_mixture.argmax(axis=1)
        matrix = corpus.binary_matrix()
        same, diff = [], []
        rng = np.random.default_rng(0)
        for __ in range(400):
            i, j = rng.integers(len(matrix), size=2)
            if i == j:
                continue
            overlap = (matrix[i] * matrix[j]).sum() / max(
                min(matrix[i].sum(), matrix[j].sum()), 1
            )
            (same if labels[i] == labels[j] else diff).append(overlap)
        assert np.mean(same) > np.mean(diff) + 0.2

    def test_foreign_sites_create_extra_companies(self):
        config = SimulatorConfig(n_companies=60, foreign_site_rate=0.5)
        universe = InstallBaseSimulator(config).generate(seed=1)
        assert len(universe.companies) > 60
        assert any(c.country != "US" for c in universe.companies)

    def test_batch_kernel_matches_loop_distribution(self):
        # The batch kernel consumes randomness in a different order, so
        # universes are not bit-identical — but the marginals must agree.
        config = SimulatorConfig(n_companies=800)
        simulator = InstallBaseSimulator(config)
        loop = simulator.generate(seed=3, method="loop")
        batch = simulator.generate(seed=3, method="batch")
        assert len(batch.companies) == len(loop.companies)
        mean_loop = np.mean([len(c) for c in loop.companies])
        mean_batch = np.mean([len(c) for c in batch.companies])
        assert abs(mean_loop - mean_batch) / mean_loop < 0.05
        categories = simulator.catalog.categories
        freq_loop = np.array(
            [sum(cat in c.categories for c in loop.companies) for cat in categories],
            dtype=np.float64,
        ) / len(loop.companies)
        freq_batch = np.array(
            [sum(cat in c.categories for c in batch.companies) for cat in categories],
            dtype=np.float64,
        ) / len(batch.companies)
        assert np.max(np.abs(freq_loop - freq_batch)) < 0.06

    def test_batch_kernel_respects_invariants(self):
        config = SimulatorConfig(
            n_companies=400, foreign_site_rate=0.1, granularity="product_type"
        )
        simulator = InstallBaseSimulator(config)
        universe = simulator.generate(seed=5, method="batch")
        for company in universe.companies:
            assert len(company) >= 1
            for date in company.first_seen.values():
                assert config.earliest_start <= date <= config.observation_end

    def test_batch_kernel_min_products(self):
        config = SimulatorConfig(n_companies=300, min_products=3)
        universe = InstallBaseSimulator(config).generate(seed=2, method="batch")
        domestic = [c for c in universe.companies if c.country == "US"]
        assert all(len(c) >= 3 for c in domestic)

    def test_auto_method_is_loop_below_threshold(self, simulator):
        # Tier-1 corpora stay on the bit-stable loop path: auto == loop.
        auto = simulator.generate(seed=7, method="auto")
        loop = simulator.generate(seed=7, method="loop")
        assert [c.first_seen for c in auto.companies] == [
            c.first_seen for c in loop.companies
        ]
        assert np.array_equal(
            auto.ground_truth.company_mixture, loop.ground_truth.company_mixture
        )

    def test_invalid_method_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.generate(seed=0, method="vectorised")

    def test_batch_kernel_deterministic_given_seed(self):
        config = SimulatorConfig(n_companies=300)
        simulator = InstallBaseSimulator(config)
        a = simulator.generate(seed=11, method="batch")
        b = simulator.generate(seed=11, method="batch")
        assert [c.first_seen for c in a.companies] == [
            c.first_seen for c in b.companies
        ]

    def test_stage_ordering_biases_sequences(self):
        # With full temporal coherence, early-stage categories come first.
        config = SimulatorConfig(n_companies=100, temporal_coherence=1.0)
        simulator = InstallBaseSimulator(config)
        universe = simulator.generate(seed=0)
        stages = universe.ground_truth.stages
        corpus = Corpus(universe.companies, simulator.catalog.categories)
        violations = total = 0
        for seq in corpus.sequences():
            for a, b in zip(seq, seq[1:]):
                total += 1
                if stages[a] > stages[b]:
                    violations += 1
        assert violations / max(total, 1) < 0.25


def _company_fields(company):
    return (
        company.duns,
        company.name,
        company.country,
        company.sic2,
        company.n_sites,
        list(company.first_seen.items()),  # insertion order included
    )


class TestBatchAggregation:
    """The batch kernel aggregates companies from its draws, not its feed."""

    @pytest.mark.parametrize(
        "overrides, duns_start",
        [
            ({}, 0),
            ({"foreign_site_rate": 0.3}, 0),
            ({"max_sites": 1}, 0),
            ({"granularity": "product_type", "foreign_site_rate": 0.2}, 0),
            ({"min_products": 12}, 0),  # most companies need top-ups
            ({"foreign_site_rate": 0.3}, 123_456),
            ({"observation_end": dt.date(2016, 1, 10), "foreign_site_rate": 0.3}, 0),
        ],
    )
    def test_companies_equal_aggregated_feed(self, overrides, duns_start):
        config = SimulatorConfig(n_companies=600, **overrides)
        universe = InstallBaseSimulator(config).generate(
            seed=3, method="batch", duns_start=duns_start
        )
        self._assert_companies_aggregate_feed(universe)

    def test_type_name_shared_by_two_categories(self):
        # A custom catalog may reuse a product-type name across categories:
        # aggregation merges by name, keeping the earliest date.
        types = [
            ProductType("shared", "server_HW", "v"),
            ProductType("server_only", "server_HW", "v"),
            ProductType("shared", "storage_HW", "v"),
            ProductType("storage_only", "storage_HW", "v"),
            ProductType("os_a", "OS", "v"),
            ProductType("os_b", "OS", "v"),
        ]
        simulator = InstallBaseSimulator(
            SimulatorConfig(
                n_companies=300, granularity="product_type", foreign_site_rate=0.3
            ),
            catalog=ProductCatalog([Vendor("v", types)]),
        )
        universe = simulator.generate(seed=3, method="batch")
        self._assert_companies_aggregate_feed(universe)
        assert any("shared" in c.first_seen for c in universe.companies)

    @staticmethod
    def _assert_companies_aggregate_feed(universe):
        companies = universe.companies  # read before the feed exists
        reference = aggregate_domestic(
            universe.sites,
            universe.registry,
            sic2_by_ultimate=universe.sic2_by_ultimate,
        )
        reference = [c for c in reference if len(c) > 0]
        assert [_company_fields(c) for c in companies] == [
            _company_fields(c) for c in reference
        ]
        assert universe.n_sites == len(universe.sites) == len(universe.registry)

    @pytest.mark.parametrize("granularity", ["category", "product_type"])
    def test_mid_month_observation_end(self, granularity):
        # Echoes and second types may land in the final month after the end
        # day; they clamp to the end date, as in the loop kernel.
        end = dt.date(2016, 1, 10)
        config = SimulatorConfig(
            n_companies=5000, observation_end=end, granularity=granularity
        )
        universe = InstallBaseSimulator(config).generate(seed=3, method="batch")
        assert all(
            date <= end for c in universe.companies for date in c.first_seen.values()
        )
        assert all(
            r.first_seen <= r.last_seen <= end
            for site in universe.sites
            for r in site.records
        )

    def test_companies_and_corpus_build_construct_no_records(
        self, monkeypatch, tmp_path
    ):
        built = []
        check = InstallRecord.__post_init__

        def counting(record):
            built.append(record)
            check(record)

        monkeypatch.setattr(InstallRecord, "__post_init__", counting)
        config = SimulatorConfig(n_companies=500, foreign_site_rate=0.3)
        universe = InstallBaseSimulator(config).generate(seed=1, method="batch")
        assert len(universe.companies) > 500
        # Two 5000-company chunks: both above the batch threshold.
        simulate_to_columnar(
            tmp_path / "corpus", n_companies=10_000, seed=7, chunk_size=5000
        )
        assert built == []
        records = sum(len(site.records) for site in universe.sites)
        assert len(built) == records > 0


class TestPinnedOutput:
    """Outputs recorded while the batch kernel still built its feed eagerly."""

    def test_served_corpus_fingerprint(self):
        corpus = make_experiment_data(20_000, seed=7).corpus
        assert corpus.fingerprint() == (
            "f45ee86c9d2ab917ba7bd3a1d2d4c3792e8d7dbd619c445eb07853697e9822c3"
        )

    def test_chunked_columnar_fingerprint(self, tmp_path):
        manifest = simulate_to_columnar(
            tmp_path / "corpus", n_companies=10_000, seed=7, chunk_size=5000
        )
        assert manifest["fingerprint"] == (
            "11fb429311575ca849802abf293643adcdac177e0bcde9064a88b04342b44d1e"
        )

    def test_raw_feed_csv(self, tmp_path):
        config = SimulatorConfig(n_companies=5000, foreign_site_rate=0.3)
        universe = InstallBaseSimulator(config).generate(seed=7, method="batch")
        path = tmp_path / "records.csv"
        assert write_records_csv(universe, path) == 42_669
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "31e48105f3abb5e6f6450765dfd18af2957134608c5db0900426b592642c6888"
        )
