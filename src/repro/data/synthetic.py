"""Synthetic install-base universe: the stand-in for the HG Data feed.

The paper trains on a proprietary database of 860k companies' IT install
bases.  We cannot ship that data, so this module implements an explicit
generative simulator whose output has the statistical shape the paper's
findings depend on (see DESIGN.md Section 2 for the substitution argument):

* a **dense, small-vocabulary** binary company x category matrix over the
  paper's 38 hardware categories;
* companies generated from a handful of **latent IT profiles** (a topic
  mixture), which is why low-topic-count LDA fits well;
* **moderate sequential structure** in acquisition order — products have
  typical adoption stages (base hardware before virtualization before
  cloud), perturbed by noise, reproducing the paper's measurement that a
  majority of bigrams are significantly non-i.i.d. while sequence models
  still do not beat LDA;
* a long-tailed **popularity skew** with a few near-universal categories
  (operating systems, network hardware, ...), the phenomenon that defeats
  naive similarity and co-clustering in Section 3.1;
* full provider-feed realism: per-site records with D-U-N-S identifiers,
  confidence levels, first/last-seen dates, SIC2 industries, and a site
  hierarchy that exercises the domestic-ultimate aggregation path.

The simulator exposes its ground truth (topic mixtures and topic-product
distributions) so tests can verify that the models recover it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro._validation import (
    as_rng,
    check_in_choices,
    check_non_negative_int,
    check_positive_int,
    check_probability,
)
from repro.data.catalog import (
    CATEGORY_PARENTS,
    HARDWARE_CATEGORIES,
    ProductCatalog,
    build_default_catalog,
)
from repro.data.company import (
    CONFIDENCE_LEVELS,
    Company,
    CompanySite,
    InstallRecord,
    aggregate_domestic,
)
from repro.data.duns import DunsNumber, DunsRegistry, duns_values_from_sequences
from repro.data.industries import SIC2_CODES
from repro.preprocessing.timeutil import (
    add_months,
    date_from_month_index,
    month_index,
    months_between,
)

__all__ = ["SimulatorConfig", "SimulatorGroundTruth", "SimulatedUniverse", "InstallBaseSimulator"]

#: Categories that are near-universal across profiles; they produce the
#: popularity skew that biases naive company comparison (Section 2).
_POPULAR_CATEGORIES: tuple[str, ...] = (
    "OS",
    "network_HW",
    "electronics_PCs_SW",
    "security_management",
    "printers",
    "server_HW",
)

#: Typical adoption stage (0 = early, 1 = late) per category parent; the
#: temporal component of the generator orders acquisitions by stage.
_PARENT_STAGE: dict[str, float] = {
    "Hardware (Basic)": 0.05,
    "System Software": 0.15,
    "IT Management": 0.35,
    "Enterprise Applications": 0.50,
    "Communications": 0.55,
    "Security": 0.65,
    "Virtualization": 0.75,
    "Data Center Solution": 0.90,
}

#: Parent groups emphasised by each latent profile, cycled when the
#: configured number of profiles exceeds the list length.
_PROFILE_THEMES: tuple[tuple[str, ...], ...] = (
    ("Hardware (Basic)", "Data Center Solution", "Virtualization", "System Software"),
    ("Enterprise Applications", "IT Management", "System Software"),
    ("Communications", "Security", "Enterprise Applications"),
    ("Data Center Solution", "Security", "Virtualization"),
    ("Hardware (Basic)", "Communications", "IT Management"),
)

_NAME_ADJECTIVES: tuple[str, ...] = (
    "Apex", "Blue Ridge", "Cascade", "Crestline", "Dynamo", "Eastgate",
    "Fairview", "Granite", "Harbor", "Ironwood", "Juniper", "Keystone",
    "Lakeside", "Meridian", "Northwind", "Oakmont", "Pinnacle", "Quantum",
    "Redstone", "Silverline", "Trailhead", "Union", "Vanguard", "Westfield",
    "Yellowtail", "Zenith", "Anchor", "Bright", "Civic", "Delta",
)

_NAME_NOUNS: tuple[str, ...] = (
    "Logistics", "Manufacturing", "Health", "Foods", "Energy", "Retailers",
    "Financial", "Insurance", "Media", "Airlines", "Freight", "Materials",
    "Pharma", "Textiles", "Motors", "Utilities", "Hospitality", "Packaging",
    "Chemicals", "Builders", "Outfitters", "Analytics", "Holdings", "Labs",
)

_NAME_SUFFIXES: tuple[str, ...] = ("Inc.", "LLC", "Corp.", "Co.", "Group", "Ltd.")


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs of the synthetic universe.

    The defaults are calibrated so that the paper's qualitative results hold
    on corpora of a few thousand companies: unigram perplexity well above
    LDA perplexity, and a majority of bigrams significantly non-i.i.d.
    """

    n_companies: int = 2000
    n_profiles: int = 4
    #: Dirichlet concentration of company profile mixtures; small values
    #: make companies commit to one dominant profile.
    mixture_concentration: float = 0.08
    #: Number of core products in a profile: ownership probability stays
    #: near :attr:`ownership_cap` for the first ``core_size`` preference
    #: ranks and falls off beyond them.  This is the main lever on the
    #: per-profile entropy and therefore on the achievable LDA perplexity.
    core_size: float = 6.0
    #: Width (in ranks) of the ownership fall-off beyond the core; smaller
    #: values give sharper profiles and lower LDA perplexity.
    core_softness: float = 0.35
    #: Maximum ownership probability of a core product.
    ownership_cap: float = 0.97
    #: Baseline ownership probability of any category regardless of profile
    #: (the long tail of odd purchases).
    background_rate: float = 0.004
    #: Standard deviation of the per-company jitter on the core size, giving
    #: companies of the same profile different install-base depths.
    size_jitter_sd: float = 0.3
    #: Minimum number of owned categories.
    min_products: int = 2
    #: How many of the near-universal "popular" categories are interleaved
    #: into every profile's core (the overlap between profiles); the rest of
    #: the popular block lands just beyond the core.  Smaller values make
    #: profiles more distinct, raising the marginal (unigram) entropy
    #: without touching the per-profile entropy.
    shared_head: int = 1
    #: Weight of the adoption-stage component in acquisition order; 0 makes
    #: order i.i.d., 1 makes it deterministic by stage.
    temporal_coherence: float = 0.3
    #: First month a company may start acquiring IT.
    earliest_start: dt.date = dt.date(1990, 1, 1)
    #: Latest month a company may start acquiring IT.
    latest_start: dt.date = dt.date(2010, 1, 1)
    #: End of the observation period (paper: end of January 2016).
    observation_end: dt.date = dt.date(2016, 1, 31)
    #: Probability that a company's SIC2 industry is drawn from the codes
    #: associated with its dominant profile (industry-profile correlation).
    industry_alignment: float = 0.7
    #: Maximum number of sites per company.
    max_sites: int = 6
    #: Probability that a non-HQ site is in a foreign country (such sites
    #: aggregate into separate domestic companies).
    foreign_site_rate: float = 0.0
    #: Observation granularity: ``"category"`` (the paper's study level,
    #: default) or ``"product_type"`` (the catalog's leaf level, the
    #: paper's declared future-work direction).  At type level, an owned
    #: category materialises as one or two concrete product types.
    granularity: str = "category"
    #: Probability that a company owning a category also owns its second
    #: product type (type-level granularity only).
    second_type_rate: float = 0.4

    def __post_init__(self) -> None:
        check_positive_int(self.n_companies, "n_companies")
        check_positive_int(self.n_profiles, "n_profiles")
        check_positive_int(self.min_products, "min_products")
        check_positive_int(self.max_sites, "max_sites")
        check_probability(self.temporal_coherence, "temporal_coherence")
        check_probability(self.industry_alignment, "industry_alignment")
        check_probability(self.foreign_site_rate, "foreign_site_rate")
        check_probability(self.ownership_cap, "ownership_cap")
        check_probability(self.background_rate, "background_rate")
        if self.mixture_concentration <= 0:
            raise ValueError("mixture_concentration must be positive")
        if self.core_size <= 0:
            raise ValueError(f"core_size must be positive, got {self.core_size}")
        if self.core_softness <= 0:
            raise ValueError(
                f"core_softness must be positive, got {self.core_softness}"
            )
        if self.size_jitter_sd < 0:
            raise ValueError(
                f"size_jitter_sd must be >= 0, got {self.size_jitter_sd}"
            )
        if self.shared_head < 0:
            raise ValueError(f"shared_head must be >= 0, got {self.shared_head}")
        if self.granularity not in ("category", "product_type"):
            raise ValueError(
                f"granularity must be 'category' or 'product_type', "
                f"got {self.granularity!r}"
            )
        check_probability(self.second_type_rate, "second_type_rate")
        if self.latest_start <= self.earliest_start:
            raise ValueError("latest_start must follow earliest_start")
        if self.observation_end <= self.latest_start:
            raise ValueError("observation_end must follow latest_start")


@dataclass
class SimulatorGroundTruth:
    """True generative parameters, kept for model-recovery tests."""

    #: ``(n_profiles, n_categories)`` topic-product distributions.
    profile_product: np.ndarray
    #: ``(n_companies, n_profiles)`` company mixture weights.
    company_mixture: np.ndarray
    #: Category order matching the distributions' columns.
    categories: tuple[str, ...]
    #: Adoption stage in [0, 1] per category (same order as categories).
    stages: np.ndarray


#: The raw feed: per-site records, the site hierarchy, and the SIC2 code of
#: every domestic ultimate.
_Feed = tuple[list[CompanySite], DunsRegistry, dict[str, int]]


@dataclass
class SimulatedUniverse:
    """Everything the simulator emits: aggregated view plus raw feed.

    ``companies`` is the domestic-ultimate aggregation of the raw feed
    (``sites``, ``registry``, ``sic2_by_ultimate``).  The feed is built by
    ``build_feed`` on first access: the batch kernel aggregates companies
    straight from its draws, so a caller that reads only ``companies``
    never pays for the per-site objects.
    """

    companies: list[Company]
    ground_truth: SimulatorGroundTruth
    #: Number of sites in the raw feed, i.e. D-U-N-S sequence numbers used.
    n_sites: int
    #: Zero-argument callable returning ``(sites, registry, sic2_by_ultimate)``.
    build_feed: Callable[[], _Feed] = field(repr=False, compare=False)
    config: SimulatorConfig = field(repr=False, default_factory=SimulatorConfig)

    @cached_property
    def _feed(self) -> _Feed:
        return self.build_feed()

    @property
    def sites(self) -> list[CompanySite]:
        """Per-site raw install records, in D-U-N-S order."""
        return self._feed[0]

    @property
    def registry(self) -> DunsRegistry:
        """Site hierarchy resolving each site to its domestic ultimate."""
        return self._feed[1]

    @property
    def sic2_by_ultimate(self) -> dict[str, int]:
        """SIC2 code per domestic-ultimate D-U-N-S value."""
        return self._feed[2]


class InstallBaseSimulator:
    """Latent-profile generator of synthetic install-base universes.

    Parameters
    ----------
    config:
        Generation knobs; see :class:`SimulatorConfig`.
    catalog:
        Category universe.  Defaults to the paper's 38 hardware categories.

    Examples
    --------
    >>> sim = InstallBaseSimulator(SimulatorConfig(n_companies=100))
    >>> universe = sim.generate(seed=0)
    >>> len(universe.companies)
    100
    """

    def __init__(
        self,
        config: SimulatorConfig | None = None,
        *,
        catalog: ProductCatalog | None = None,
    ) -> None:
        self.config = config if config is not None else SimulatorConfig()
        self.catalog = catalog if catalog is not None else build_default_catalog()
        self._categories = self.catalog.categories
        self._stages = np.array(
            [self._category_stage(c, i) for i, c in enumerate(self._categories)]
        )

    @staticmethod
    def _category_stage(category: str, index: int) -> float:
        """Adoption stage of a category: parent stage plus a stable jitter.

        Near-universal categories adopt very early regardless of parent —
        companies stand up generic infrastructure (operating systems,
        networking, PCs) before the specialised categories that reveal
        their IT profile.  This early-generic/late-specific pattern is
        what makes prefix-based sequence prediction genuinely harder than
        whole-set inference on install-base data.
        """
        if category in _POPULAR_CATEGORIES:
            base = 0.02 + 0.015 * _POPULAR_CATEGORIES.index(category)
        else:
            parent = CATEGORY_PARENTS.get(category, "Enterprise Applications")
            base = 0.3 + 0.7 * _PARENT_STAGE.get(parent, 0.5)
        # Deterministic within-parent jitter so categories in the same group
        # still have a canonical order.
        jitter = ((index * 2654435761) % 97) / 97.0 * 0.08
        return float(np.clip(base + jitter, 0.0, 1.0))

    def _build_rankings(self) -> np.ndarray:
        """Preference rank of each category under each profile.

        Returns an ``(n_profiles, M)`` integer array where entry ``[k, c]``
        is the rank (0 = most preferred) of category ``c`` under profile
        ``k``.  Each profile interleaves the near-universal "popular"
        categories with its themed categories at the head of the ranking —
        a datacenter-heavy firm buys servers and storage before printers —
        and pushes everything else to the tail.
        """
        cfg = self.config
        n_cat = len(self._categories)
        popular = [c for c in self._categories if c in _POPULAR_CATEGORIES]
        rankings = np.empty((cfg.n_profiles, n_cat), dtype=np.int64)
        for k in range(cfg.n_profiles):
            themes = set(_PROFILE_THEMES[k % len(_PROFILE_THEMES)])
            themed = [
                c
                for c in self._categories
                if CATEGORY_PARENTS.get(c, "Software & Services") in themes
                and c not in _POPULAR_CATEGORIES
            ]
            rest = [
                c
                for c in self._categories
                if c not in _POPULAR_CATEGORIES and c not in themed
            ]
            # Rotate the popular block so profiles do not agree on the exact
            # head order, then interleave only the first ``shared_head``
            # popular categories into the core; the rest follow the themed
            # block so profile cores stay mostly distinct.
            rotated_popular = popular[k % len(popular) :] + popular[: k % len(popular)]
            head_popular = rotated_popular[: cfg.shared_head]
            late_popular = rotated_popular[cfg.shared_head :]
            ranking: list[str] = []
            for pair in zip(head_popular, themed):
                ranking.extend(pair)
            longer = head_popular if len(head_popular) > len(themed) else themed
            ranking.extend(longer[min(len(head_popular), len(themed)) :])
            ranking.extend(late_popular)
            ranking.extend(rest)
            for rank, category in enumerate(ranking):
                rankings[k, self.catalog.category_index(category)] = rank
        return rankings

    def _ownership_curves(self, rankings: np.ndarray, core_shift: float = 0.0) -> np.ndarray:
        """Ownership probability of each category under each profile.

        A logistic fall-off around ``core_size + core_shift``: core products
        are owned with probability near :attr:`SimulatorConfig.ownership_cap`,
        tail products near :attr:`SimulatorConfig.background_rate`.
        """
        cfg = self.config
        logits = (cfg.core_size + core_shift - rankings) / cfg.core_softness
        curve = cfg.ownership_cap / (1.0 + np.exp(-logits))
        return np.clip(curve + cfg.background_rate, 0.0, 1.0)

    def _build_profiles(self) -> np.ndarray:
        """Normalised topic-product distributions phi (the ground truth).

        The per-profile ownership curve, normalised to sum to one, is the
        expected per-token product distribution of companies committed to
        that profile — the quantity LDA estimates.
        """
        curves = self._ownership_curves(self._build_rankings())
        return curves / curves.sum(axis=1, keepdims=True)

    def _industry_groups(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Partition the 83 SIC2 codes into one group per profile."""
        codes = np.array(SIC2_CODES)
        shuffled = rng.permutation(codes)
        return [shuffled[k :: self.config.n_profiles] for k in range(self.config.n_profiles)]

    def _sample_install_base(
        self,
        theta: np.ndarray,
        rankings: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Owned category indices for one company.

        The company's ownership probability for each category blends the
        profile curves by its mixture theta (with a per-company jitter on
        the core size); ownership is then independent Bernoulli.  If fewer
        than ``min_products`` categories come up, the highest-probability
        missing ones are added so no company is empty.
        """
        cfg = self.config
        jitter = rng.normal(0.0, cfg.size_jitter_sd)
        curves = self._ownership_curves(rankings, core_shift=jitter)
        probs = theta @ curves
        owned = np.flatnonzero(rng.random(len(probs)) < probs)
        if len(owned) < cfg.min_products:
            missing = np.setdiff1d(np.argsort(-probs), owned, assume_unique=False)
            owned = np.concatenate([owned, missing[: cfg.min_products - len(owned)]])
        owned = np.asarray(np.sort(owned), dtype=np.int64)
        return owned

    def _company_name(self, rng: np.random.Generator, index: int) -> str:
        adjective = _NAME_ADJECTIVES[int(rng.integers(len(_NAME_ADJECTIVES)))]
        noun = _NAME_NOUNS[int(rng.integers(len(_NAME_NOUNS)))]
        suffix = _NAME_SUFFIXES[index % len(_NAME_SUFFIXES)]
        return f"{adjective} {noun} {suffix}"

    def _acquisition_dates(
        self,
        owned: np.ndarray,
        start: dt.date,
        rng: np.random.Generator,
    ) -> list[dt.date]:
        """First-seen dates for owned categories, stage-ordered plus noise."""
        cfg = self.config
        horizon = months_between(start, cfg.observation_end)
        stage = self._stages[owned]
        noise = rng.random(len(owned))
        position = cfg.temporal_coherence * stage + (1.0 - cfg.temporal_coherence) * noise
        months = np.floor(position * max(horizon - 1, 1)).astype(int)
        dates = []
        for offset in months:
            month_first = add_months(start.replace(day=1), int(offset))
            day = int(rng.integers(1, 28))
            dates.append(month_first.replace(day=day))
        return dates

    def _observations(
        self, category: str, seen, rng: np.random.Generator
    ) -> list[tuple[str, "dt.date"]]:
        """Observation labels for one owned category.

        At category granularity the label is the category itself; at
        product-type granularity it is one concrete type (the category's
        first type, at the category's date) plus, with probability
        ``second_type_rate``, the second type a few months later.
        """
        if self.config.granularity == "category":
            return [(category, seen)]
        types = sorted(pt.name for pt in self.catalog.product_types(category))
        observations = [(types[0], seen)]
        if len(types) > 1 and rng.random() < self.config.second_type_rate:
            lag = int(rng.integers(1, 30))
            later = min(add_months(seen, lag), self.config.observation_end)
            observations.append((types[1], later))
        return observations

    #: ``method="auto"`` switches from the per-company loop to the batch
    #: generator at this universe size.  Below it (which covers every test
    #: corpus) the loop path keeps historical bit-for-bit reproducibility.
    _BATCH_THRESHOLD = 4096

    def generate(
        self,
        seed: int | np.random.Generator | None = None,
        *,
        method: str = "auto",
        duns_start: int = 0,
    ) -> SimulatedUniverse:
        """Generate a full universe: sites, registry, and aggregated companies.

        ``method`` selects the generation kernel: ``"loop"`` is the
        historical per-company implementation, ``"batch"`` draws every
        random quantity array-wise, aggregates the companies from those
        arrays, and builds the raw per-site feed only when it is first
        read (an order of magnitude faster at 100k companies), and
        ``"auto"`` (default) picks ``"batch"`` at or above
        ``_BATCH_THRESHOLD`` companies.  Both kernels sample the same
        generative process, but they consume the random stream in
        different orders, so for a given seed they produce *different,
        distributionally equivalent* universes.

        ``duns_start`` offsets the D-U-N-S sequence counter so chunked
        generation (the streaming corpus builder generating one batch of
        companies per call) produces globally unique identifiers: pass the
        running total of previously generated sites.  ``duns_start=0``
        reproduces the historical output exactly.
        """
        check_in_choices(method, "method", ("auto", "loop", "batch"))
        check_non_negative_int(duns_start, "duns_start")
        if method == "auto":
            method = "batch" if self.config.n_companies >= self._BATCH_THRESHOLD else "loop"
        rng = as_rng(seed)
        if method == "batch":
            return self._generate_batch(rng, duns_start=duns_start)
        return self._generate_loop(rng, duns_start=duns_start)

    def _generate_loop(
        self, rng: np.random.Generator, *, duns_start: int = 0
    ) -> SimulatedUniverse:
        """Reference per-company generation (bit-stable across releases)."""
        cfg = self.config
        rankings = self._build_rankings()
        profiles = self._build_profiles()
        industry_groups = self._industry_groups(rng)
        start_span = months_between(cfg.earliest_start, cfg.latest_start)

        mixtures = rng.dirichlet(
            np.full(cfg.n_profiles, cfg.mixture_concentration), size=cfg.n_companies
        )

        registry = DunsRegistry()
        sites: list[CompanySite] = []
        sic2_by_ultimate: dict[str, int] = {}
        duns_counter = duns_start

        for i in range(cfg.n_companies):
            theta = mixtures[i]
            owned = self._sample_install_base(theta, rankings, rng)

            start = add_months(cfg.earliest_start, int(rng.integers(start_span + 1)))
            first_seen = self._acquisition_dates(owned, start, rng)

            dominant = int(np.argmax(theta))
            if rng.random() < cfg.industry_alignment:
                pool = industry_groups[dominant]
            else:
                pool = np.array(SIC2_CODES)
            sic2 = int(pool[int(rng.integers(len(pool)))])

            name = self._company_name(rng, i)
            hq_duns = DunsNumber.from_sequence(duns_counter)
            duns_counter += 1
            registry.register(hq_duns, country="US")
            sic2_by_ultimate[hq_duns.value] = sic2

            n_sites = 1 + int(rng.geometric(0.6)) - 1
            n_sites = min(max(n_sites, 1), cfg.max_sites)
            company_sites = [CompanySite(duns=hq_duns, name=name, country="US")]
            for s in range(1, n_sites):
                child = DunsNumber.from_sequence(duns_counter)
                duns_counter += 1
                if rng.random() < cfg.foreign_site_rate:
                    country = "DE" if s % 2 else "GB"
                    registry.register(child, country=country, parent=hq_duns)
                    sic2_by_ultimate[child.value] = sic2
                else:
                    country = "US"
                    registry.register(child, country=country, parent=hq_duns)
                company_sites.append(
                    CompanySite(duns=child, name=f"{name} Site {s}", country=country)
                )

            for category_idx, seen in zip(owned, first_seen):
                category = self._categories[category_idx]
                for label, label_seen in self._observations(category, seen, rng):
                    # The HQ always reports the product; other sites echo it
                    # with probability 1/2, possibly with later dates.
                    reporting = [0] + [
                        s for s in range(1, n_sites) if rng.random() < 0.5
                    ]
                    for s in reporting:
                        site_seen = label_seen
                        if s > 0:
                            lag = int(rng.integers(0, 18))
                            site_seen = min(
                                add_months(label_seen, lag), cfg.observation_end
                            )
                        confirm_months = int(rng.exponential(24.0)) + 1
                        last = min(
                            add_months(site_seen, confirm_months), cfg.observation_end
                        )
                        confidence = str(
                            rng.choice(["high", "medium", "low"], p=[0.8, 0.15, 0.05])
                        )
                        company_sites[s].records.append(
                            InstallRecord(
                                duns=company_sites[s].duns,
                                category=label,
                                first_seen=site_seen,
                                last_seen=max(last, site_seen),
                                confidence=confidence,
                            )
                        )
            sites.extend(company_sites)

        companies = aggregate_domestic(
            sites, registry, sic2_by_ultimate=sic2_by_ultimate
        )
        # Foreign sites with no records of their own aggregate to empty
        # companies; drop those to keep the corpus meaningful.
        companies = [c for c in companies if len(c) > 0]

        ground_truth = SimulatorGroundTruth(
            profile_product=profiles,
            company_mixture=mixtures,
            categories=self._categories,
            stages=self._stages.copy(),
        )
        return SimulatedUniverse(
            companies=companies,
            ground_truth=ground_truth,
            n_sites=len(sites),
            build_feed=lambda: (sites, registry, sic2_by_ultimate),
            config=cfg,
        )

    def _generate_batch(
        self, rng: np.random.Generator, *, duns_start: int = 0
    ) -> SimulatedUniverse:
        """Array-wise generation: same process as the loop, drawn in bulk.

        Every random quantity (ownership, dates, site echoes, confidences)
        is sampled as a flat array over the exploded company x category x
        site incidence structure.  Companies are aggregated from those
        arrays directly (:class:`_BatchDraws`); the per-site feed objects
        are built only if the universe's ``sites``, ``registry`` or
        ``sic2_by_ultimate`` is read.
        """
        cfg = self.config
        n = cfg.n_companies
        n_cat = len(self._categories)
        rankings = self._build_rankings()
        profiles = self._build_profiles()
        industry_groups = self._industry_groups(rng)
        start_span = months_between(cfg.earliest_start, cfg.latest_start)
        base_idx = month_index(cfg.earliest_start)
        end_idx = month_index(cfg.observation_end)

        mixtures = rng.dirichlet(
            np.full(cfg.n_profiles, cfg.mixture_concentration), size=n
        )

        # --- ownership -------------------------------------------------
        jitter = rng.normal(0.0, cfg.size_jitter_sd, size=n)
        probs = np.empty((n, n_cat))
        chunk = 4096  # keeps the (chunk, profiles, categories) logits in cache
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            logits = (
                cfg.core_size + jitter[lo:hi, None, None] - rankings[None, :, :]
            ) / cfg.core_softness
            curves = np.clip(
                cfg.ownership_cap / (1.0 + np.exp(-logits)) + cfg.background_rate,
                0.0,
                1.0,
            )
            probs[lo:hi] = np.einsum("cp,cpm->cm", mixtures[lo:hi], curves)
        owned = rng.random((n, n_cat)) < probs
        counts = owned.sum(axis=1)
        for i in np.flatnonzero(counts < cfg.min_products):
            have = np.flatnonzero(owned[i])
            missing = np.setdiff1d(np.argsort(-probs[i]), have, assume_unique=False)
            owned[i, missing[: cfg.min_products - len(have)]] = True
        del probs

        # --- acquisition months, per owned (company, category) pair ----
        start_off = rng.integers(start_span + 1, size=n)
        horizon_factor = np.maximum(end_idx - (base_idx + start_off) - 1, 1)
        pair_comp, pair_cat = np.nonzero(owned)
        n_pairs = len(pair_comp)
        # A uniform for every company x category cell; only the owned
        # cells' are kept.
        noise = rng.random((n, n_cat))[pair_comp, pair_cat]
        position = (
            cfg.temporal_coherence * self._stages[pair_cat]
            + (1.0 - cfg.temporal_coherence) * noise
        )
        month_off = np.floor(position * horizon_factor[pair_comp]).astype(np.int64)
        pair_midx = base_idx + start_off[pair_comp] + month_off
        pair_day = rng.integers(1, 28, size=n_pairs)

        # --- industries, names, site counts ----------------------------
        dominant = np.argmax(mixtures, axis=1)
        aligned = rng.random(n) < cfg.industry_alignment
        all_codes = np.asarray(SIC2_CODES, dtype=np.int64)
        group_lens = np.array([len(g) for g in industry_groups], dtype=np.int64)
        group_mat = np.zeros((cfg.n_profiles, int(group_lens.max())), dtype=np.int64)
        for k, group in enumerate(industry_groups):
            group_mat[k, : len(group)] = group
        pool_len = np.where(aligned, group_lens[dominant], len(all_codes))
        pick = (rng.random(n) * pool_len).astype(np.int64)
        sic2_arr = np.where(
            aligned,
            group_mat[dominant, np.minimum(pick, group_lens[dominant] - 1)],
            all_codes[np.minimum(pick, len(all_codes) - 1)],
        )
        adj_idx = rng.integers(len(_NAME_ADJECTIVES), size=n)
        noun_idx = rng.integers(len(_NAME_NOUNS), size=n)
        n_sites_arr = np.minimum(rng.geometric(0.6, size=n), cfg.max_sites)
        max_extra = cfg.max_sites - 1
        foreign_mask = (
            rng.random((n, max_extra)) < cfg.foreign_site_rate
            if max_extra
            else np.zeros((n, 0), dtype=bool)
        )

        # --- observations (category or product-type granularity) -------
        if cfg.granularity == "category":
            obs_comp = pair_comp
            obs_label = list(self._categories)
            obs_label_idx = pair_cat
            obs_midx = pair_midx
            obs_day = pair_day
        else:
            types_sorted = [
                sorted(pt.name for pt in self.catalog.product_types(c))
                for c in self._categories
            ]
            has_second = np.array([len(t) > 1 for t in types_sorted])
            second = (rng.random(n_pairs) < cfg.second_type_rate) & has_second[pair_cat]
            lag2 = rng.integers(1, 30, size=n_pairs)
            obs_comp = np.concatenate([pair_comp, pair_comp[second]])
            # Labels indexed as first types then second types of the catalog.
            obs_label = [t[0] for t in types_sorted] + [
                (t[1] if len(t) > 1 else t[0]) for t in types_sorted
            ]
            obs_label_idx = np.concatenate([pair_cat, pair_cat[second] + n_cat])
            obs_midx = np.concatenate([pair_midx, pair_midx[second] + lag2[second]])
            obs_day = np.concatenate([pair_day, pair_day[second]])
        n_obs = len(obs_comp)

        # --- records: HQ always reports, other sites echo at p = 1/2 ---
        extra_sites = np.maximum(n_sites_arr - 1, 0)
        echo = rng.random((n_obs, max_extra)) < 0.5 if max_extra else np.zeros((n_obs, 0), bool)
        echo &= np.arange(max_extra)[None, :] < extra_sites[obs_comp, None]
        echo_obs, echo_slot = np.nonzero(echo)
        lag = rng.integers(0, 18, size=len(echo_obs))

        rec_obs = np.concatenate([np.arange(n_obs), echo_obs])
        rec_slot = np.concatenate(
            [np.zeros(n_obs, dtype=np.int64), echo_slot + 1]
        )
        rec_midx = np.concatenate([obs_midx, obs_midx[echo_obs] + lag])
        n_rec = len(rec_obs)
        confirm = rng.exponential(24.0, size=n_rec).astype(np.int64) + 1
        conf_u = rng.random(n_rec)
        conf_code = np.where(conf_u < 0.8, 2, np.where(conf_u < 0.95, 1, 0)).astype(
            np.int64
        )

        draws = _BatchDraws(
            cfg,
            duns_start=duns_start,
            names=[
                f"{_NAME_ADJECTIVES[a]} {_NAME_NOUNS[b]} "
                f"{_NAME_SUFFIXES[i % len(_NAME_SUFFIXES)]}"
                for i, (a, b) in enumerate(zip(adj_idx.tolist(), noun_idx.tolist()))
            ],
            n_sites=n_sites_arr,
            foreign=foreign_mask,
            sic2=sic2_arr,
            labels=obs_label,
            rec_comp=obs_comp[rec_obs],
            rec_slot=rec_slot,
            rec_label=obs_label_idx[rec_obs],
            rec_midx=rec_midx,
            rec_day=obs_day[rec_obs],
            rec_confirm=confirm,
            rec_confidence=conf_code,
        )
        ground_truth = SimulatorGroundTruth(
            profile_product=profiles,
            company_mixture=mixtures,
            categories=self._categories,
            stages=self._stages.copy(),
        )
        return SimulatedUniverse(
            companies=draws.companies(),
            ground_truth=ground_truth,
            n_sites=draws.n_sites_total,
            build_feed=draws.feed,
            config=cfg,
        )

    def generate_companies(
        self,
        seed: int | np.random.Generator | None = None,
        *,
        method: str = "auto",
    ) -> list[Company]:
        """Convenience wrapper returning only the aggregated companies."""
        return self.generate(seed, method=method).companies


class _BatchDraws:
    """The batch kernel's record draws and the two views built from them.

    :meth:`companies` is :func:`aggregate_domestic` over the raw feed,
    computed on the arrays; :meth:`feed` builds the per-site objects
    themselves and runs only when a caller reads the feed.  Site ``s`` of
    company ``i`` is global site ``offsets[i] + s`` (slot 0 is the HQ), and
    global site ``g`` carries D-U-N-S sequence number ``duns_start + g``.
    """

    #: Dates are keyed ``(month - first month) * 32 + day``: integers that
    #: sort like the dates and index :attr:`dates`.
    _DAYS = 32

    def __init__(
        self,
        config: SimulatorConfig,
        *,
        duns_start: int,
        names: list[str],
        n_sites: np.ndarray,
        foreign: np.ndarray,
        sic2: np.ndarray,
        labels: list[str],
        rec_comp: np.ndarray,
        rec_slot: np.ndarray,
        rec_label: np.ndarray,
        rec_midx: np.ndarray,
        rec_day: np.ndarray,
        rec_confirm: np.ndarray,
        rec_confidence: np.ndarray,
    ) -> None:
        self.duns_start = duns_start
        self.names = names
        self.n_sites = n_sites
        self.foreign = foreign
        self.sic2 = sic2
        self.labels = labels
        self.rec_label = rec_label
        self.rec_confidence = rec_confidence
        self.offsets = np.concatenate([[0], np.cumsum(n_sites)])
        self.n_sites_total = int(self.offsets[-1])
        self.rec_site = self.offsets[rec_comp] + rec_slot

        # Clamp by date, as the loop kernel's min(add_months(...), end):
        # an echo or second type may land in the final month after the
        # end day, and its confirmation past the end.
        base = month_index(config.earliest_start)
        end = config.observation_end
        end_key = (month_index(end) - base) * self._DAYS + end.day
        day_keys = (rec_midx - base) * self._DAYS + rec_day
        self.first_key = np.minimum(day_keys, end_key)
        self.last_key = np.minimum(day_keys + rec_confirm * self._DAYS, end_key)
        n_months = month_index(end) - base + 1
        self.dates: list[dt.date | None] = [None] * (n_months * self._DAYS)
        for m in range(n_months):
            first = date_from_month_index(base + m)
            for day in range(1, 28):  # drawn days are 1-27
                self.dates[m * self._DAYS + day] = first.replace(day=day)
        self.dates[end_key] = end

    def companies(self) -> list[Company]:
        """Domestic-ultimate companies, equal to aggregating :meth:`feed`.

        A record belongs to its site's domestic ultimate: the company's HQ,
        or the site itself when it is foreign.  Each (ultimate, label) keeps
        its earliest date, and a company's labels keep the order they first
        appear in the feed, which is the order of their first records: the
        HQ reports every observation, before any echo.  Companies come out
        in D-U-N-S (= site) order; ultimates without records never appear.
        """
        n = len(self.n_sites)
        slot_foreign = np.concatenate([np.zeros((n, 1), dtype=bool), self.foreign], axis=1)
        site_comp = np.repeat(np.arange(n), self.n_sites)
        site_slot = np.arange(self.n_sites_total) - self.offsets[site_comp]
        site_foreign = slot_foreign[site_comp, site_slot]
        site_ult = np.where(
            site_foreign, np.arange(self.n_sites_total), self.offsets[site_comp]
        )
        rec_ult = site_ult[self.rec_site]

        # Grouped minimum over (ultimate, label); distinct labels may share
        # a name (product types of a custom catalog), so group by name.
        names = list(dict.fromkeys(self.labels))
        name_id = {name: k for k, name in enumerate(names)}
        rec_name = np.array([name_id[label] for label in self.labels])[self.rec_label]
        group = rec_ult * len(names) + rec_name
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        starts = np.flatnonzero(np.r_[True, sorted_group[1:] != sorted_group[:-1]])
        first_rec = order[starts]  # stable sort: each group's first record
        first_key = np.minimum.reduceat(self.first_key[order], starts)
        entry = np.lexsort((first_rec, rec_ult[first_rec]))
        first_rec, first_key = first_rec[entry], first_key[entry]

        entry_ult = rec_ult[first_rec]
        cuts = np.flatnonzero(np.r_[True, entry_ult[1:] != entry_ult[:-1]])
        ults = entry_ult[cuts]
        labels = [names[k] for k in rec_name[first_rec].tolist()]
        dates = [self.dates[k] for k in first_key.tolist()]
        domestic = np.bincount(site_comp[~site_foreign], minlength=n)
        comp, slot = site_comp[ults], site_slot[ults]
        companies = []
        for value, i, s, sites, sic2, lo, hi in zip(
            duns_values_from_sequences(ults + self.duns_start),
            comp.tolist(),
            slot.tolist(),
            np.where(slot == 0, domestic[comp], 1).tolist(),
            self.sic2[comp].tolist(),
            cuts.tolist(),
            cuts[1:].tolist() + [len(labels)],
        ):
            companies.append(
                Company(
                    duns=DunsNumber._trusted(value),
                    name=self.names[i] if s == 0 else f"{self.names[i]} Site {s}",
                    country="US" if s == 0 else ("DE" if s % 2 else "GB"),
                    sic2=sic2,
                    first_seen=dict(zip(labels[lo:hi], dates[lo:hi])),
                    n_sites=sites,
                )
            )
        return companies

    def feed(self) -> _Feed:
        """The raw feed: sites with their records, registry, SIC2 codes."""
        duns_values = duns_values_from_sequences(
            np.arange(self.n_sites_total) + self.duns_start
        )
        registry = DunsRegistry()
        sites: list[CompanySite] = []
        sic2_by_ultimate: dict[str, int] = {}
        for i, (name, base, n_sites, sic2) in enumerate(
            zip(
                self.names,
                self.offsets.tolist(),
                self.n_sites.tolist(),
                self.sic2.tolist(),
            )
        ):
            hq = DunsNumber._trusted(duns_values[base])
            registry.register(hq, country="US")
            sic2_by_ultimate[hq.value] = sic2
            sites.append(CompanySite(duns=hq, name=name, country="US"))
            for s in range(1, n_sites):
                child = DunsNumber._trusted(duns_values[base + s])
                if self.foreign[i, s - 1]:
                    country = "DE" if s % 2 else "GB"
                    registry.register(child, country=country, parent=hq)
                    sic2_by_ultimate[child.value] = sic2
                else:
                    country = "US"
                    registry.register(child, country=country, parent=hq)
                sites.append(
                    CompanySite(duns=child, name=f"{name} Site {s}", country=country)
                )

        labels, dates = self.labels, self.dates
        for site_index, label, first, last, code in zip(
            self.rec_site.tolist(),
            self.rec_label.tolist(),
            self.first_key.tolist(),
            self.last_key.tolist(),
            self.rec_confidence.tolist(),
        ):
            site = sites[site_index]
            # confirm >= 1 puts last in a later month (or at the clamp), so
            # last >= first always holds; no max() needed.
            site.records.append(
                InstallRecord(
                    duns=site.duns,
                    category=labels[label],
                    first_seen=dates[first],
                    last_seen=dates[last],
                    confidence=CONFIDENCE_LEVELS[code],
                )
            )
        return sites, registry, sic2_by_ultimate
