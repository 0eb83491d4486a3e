"""Simulated internal sales database and firmographics.

Section 6 of the paper deploys the trained company representations in a
sales tool: external (HG-Data-style) similarity search is combined with an
*internal* database recording which products the provider has already sold
to which client, plus firmographic filters (industry, location, number of
employees, revenue).  This module simulates that internal side:

* :class:`FirmographicRecord` — revenue / employee / location attributes;
* :class:`InternalSalesDatabase` — per-client sold-product sets, the "gaps"
  source of the recommendation tool.

The simulation derives firmographics from observable company structure
(site count, install-base size) so that filters in the app behave plausibly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_rng, check_probability
from repro.data.company import Company

__all__ = ["FirmographicRecord", "InternalSalesDatabase"]


@dataclass(frozen=True)
class FirmographicRecord:
    """Attributes the sales tool filters on (Section 6)."""

    duns: str
    name: str
    country: str
    sic2: int
    employees: int
    revenue_musd: float

    def __post_init__(self) -> None:
        if self.employees < 1:
            raise ValueError(f"employees must be >= 1, got {self.employees}")
        if self.revenue_musd < 0:
            raise ValueError(f"revenue must be >= 0, got {self.revenue_musd}")


class InternalSalesDatabase:
    """Provider-internal view: who is a client, and what was sold to them.

    Parameters
    ----------
    companies:
        The aggregated external universe; a random subset becomes "existing
        clients" for which sold products are recorded.
    client_rate:
        Fraction of companies that are existing clients.
    coverage:
        For an existing client, the probability that each owned product is
        recorded as *sold by us* (the rest of the install base came from
        competitors — those are the whitespace opportunities).
    seed:
        Randomness control.
    """

    def __init__(
        self,
        companies: list[Company],
        *,
        client_rate: float = 0.3,
        coverage: float = 0.6,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not companies:
            raise ValueError("internal database needs at least one company")
        check_probability(client_rate, "client_rate")
        check_probability(coverage, "coverage")
        rng = as_rng(seed)

        self._firmographics: dict[str, FirmographicRecord] = {}
        self._sold: dict[str, frozenset[str]] = {}

        for company in companies:
            key = company.duns.value
            employees = self._derive_employees(company, rng)
            revenue = self._derive_revenue(employees, rng)
            self._firmographics[key] = FirmographicRecord(
                duns=key,
                name=company.name,
                country=company.country,
                sic2=company.sic2,
                employees=employees,
                revenue_musd=revenue,
            )
            if rng.random() < client_rate:
                # One draw per owned product, in name order: iterating the
                # ``categories`` frozenset would follow the process's string
                # hash seed and give every process different sales.
                sold = frozenset(
                    category
                    for category in sorted(company.first_seen)
                    if rng.random() < coverage
                )
                self._sold[key] = sold

    @staticmethod
    def _derive_employees(company: Company, rng: np.random.Generator) -> int:
        """Headcount grows with sites and install-base size, log-normally."""
        scale = 1.0 + 0.6 * company.n_sites + 0.25 * len(company)
        return max(1, int(rng.lognormal(mean=np.log(40.0 * scale), sigma=0.8)))

    @staticmethod
    def _derive_revenue(employees: int, rng: np.random.Generator) -> float:
        """Revenue in millions USD, roughly proportional to headcount."""
        per_head_kusd = rng.lognormal(mean=np.log(220.0), sigma=0.5)
        return round(employees * per_head_kusd / 1000.0, 3)

    # ------------------------------------------------------------------
    # Queries used by the sales application
    # ------------------------------------------------------------------
    def is_client(self, duns: str) -> bool:
        """Whether the company is an existing client."""
        return duns in self._sold

    def clients(self) -> list[str]:
        """D-U-N-S values of all existing clients, sorted."""
        return sorted(self._sold)

    def sold_products(self, duns: str) -> frozenset[str]:
        """Products we already sold to a client (empty set for non-clients)."""
        return self._sold.get(duns, frozenset())

    def firmographics(self, duns: str) -> FirmographicRecord:
        """Firmographic record for any company in the universe."""
        try:
            return self._firmographics[duns]
        except KeyError:
            raise KeyError(f"unknown company {duns}") from None

    def whitespace(self, company: Company) -> frozenset[str]:
        """Owned-but-not-sold-by-us products: the sales opportunity set."""
        return frozenset(company.categories) - self.sold_products(company.duns.value)

    def __len__(self) -> int:
        return len(self._firmographics)

    def __contains__(self, duns: str) -> bool:
        return duns in self._firmographics
