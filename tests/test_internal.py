"""Tests for the simulated internal sales database."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.internal import FirmographicRecord, InternalSalesDatabase


class TestFirmographicRecord:
    def test_rejects_zero_employees(self):
        with pytest.raises(ValueError):
            FirmographicRecord(
                duns="000000000", name="X", country="US", sic2=80,
                employees=0, revenue_musd=1.0,
            )

    def test_rejects_negative_revenue(self):
        with pytest.raises(ValueError):
            FirmographicRecord(
                duns="000000000", name="X", country="US", sic2=80,
                employees=10, revenue_musd=-1.0,
            )


class TestInternalSalesDatabase:
    @pytest.fixture(scope="class")
    def db(self, universe):
        return InternalSalesDatabase(universe.companies, client_rate=0.4, seed=0)

    def test_requires_companies(self):
        with pytest.raises(ValueError):
            InternalSalesDatabase([])

    def test_every_company_has_firmographics(self, db, universe):
        for company in universe.companies:
            record = db.firmographics(company.duns.value)
            assert record.employees >= 1
            assert record.revenue_musd >= 0.0
            assert record.sic2 == company.sic2

    def test_unknown_company_raises(self, db):
        with pytest.raises(KeyError):
            db.firmographics("999999999")

    def test_client_rate_roughly_respected(self, db, universe):
        fraction = len(db.clients()) / len(universe.companies)
        assert 0.25 < fraction < 0.55

    def test_sold_products_subset_of_install_base(self, db, universe):
        by_duns = {c.duns.value: c for c in universe.companies}
        for duns in db.clients():
            sold = db.sold_products(duns)
            assert sold <= by_duns[duns].categories

    def test_non_client_has_no_sales(self, db, universe):
        non_clients = [
            c for c in universe.companies if not db.is_client(c.duns.value)
        ]
        assert non_clients
        assert db.sold_products(non_clients[0].duns.value) == frozenset()

    def test_whitespace_complements_sales(self, db, universe):
        for company in universe.companies[:50]:
            whitespace = db.whitespace(company)
            sold = db.sold_products(company.duns.value)
            assert whitespace | sold == company.categories
            assert not whitespace & sold

    def test_deterministic_given_seed(self, universe):
        a = InternalSalesDatabase(universe.companies, seed=3)
        b = InternalSalesDatabase(universe.companies, seed=3)
        assert a.clients() == b.clients()

    #: Builds the 300-company, seed-7 database and prints its sold sets and
    #: firmographics, one line per company.
    DUMP = (
        "from repro.data.internal import InternalSalesDatabase\n"
        "from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig\n"
        "universe = InstallBaseSimulator(SimulatorConfig(n_companies=300)).generate(seed=7)\n"
        "db = InternalSalesDatabase(universe.companies, seed=7)\n"
        "for c in universe.companies:\n"
        "    key = c.duns.value\n"
        "    print(key, sorted(db.sold_products(key)), db.firmographics(key))\n"
    )

    def test_same_sales_under_any_string_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        dumps = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            dumps.append(
                subprocess.run(
                    [sys.executable, "-c", self.DUMP],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert any("[]" not in line for line in dumps[0].splitlines())
        assert dumps[0] == dumps[1]

    def test_larger_companies_tend_to_more_employees(self, db, universe):
        small = [c for c in universe.companies if c.n_sites == 1]
        large = [c for c in universe.companies if c.n_sites >= 3]
        if not small or not large:
            pytest.skip("universe lacks size contrast")
        mean = lambda cs: sum(
            db.firmographics(c.duns.value).employees for c in cs
        ) / len(cs)
        assert mean(large) > mean(small)

    def test_len_and_contains(self, db, universe):
        assert len(db) == len(universe.companies)
        assert universe.companies[0].duns.value in db
        assert "999999999" not in db
