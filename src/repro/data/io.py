"""CSV interchange for install-base data.

A downstream adopter has their own provider feed, not our simulator.  This
module defines a plain-CSV on-disk format for the two things the pipeline
needs — per-site install records and company firmographics — plus writers
so simulated universes can be exported as fixtures.

Format
------
``records.csv`` (one row per install record)::

    duns,parent_duns,company_name,country,sic2,category,first_seen,last_seen,confidence
    001234567,,Acme Corp,US,80,server_HW,2004-06-15,2015-11-02,high
    001234575,001234567,Acme Corp Site 1,US,80,DBMS,2006-01-20,2014-03-11,medium

``parent_duns`` is empty for domestic-ultimate sites.  Dates are ISO
(YYYY-MM-DD).  ``sic2`` must be given at least for ultimate sites.

The loader rebuilds the :class:`~repro.data.duns.DunsRegistry`, the site
list, and runs the same domestic aggregation the simulator path uses, so a
corpus built from CSV behaves identically to a simulated one.
"""

from __future__ import annotations

import csv
import datetime as dt
from pathlib import Path

from repro.data.company import Company, CompanySite, InstallRecord, aggregate_domestic
from repro.data.duns import DunsNumber, DunsRegistry
from repro.data.synthetic import SimulatedUniverse

__all__ = ["write_records_csv", "read_records_csv", "load_companies_csv"]

_COLUMNS = (
    "duns",
    "parent_duns",
    "company_name",
    "country",
    "sic2",
    "category",
    "first_seen",
    "last_seen",
    "confidence",
)


def write_records_csv(universe: SimulatedUniverse, path: str | Path) -> int:
    """Export a simulated universe's raw feed; returns the row count.

    Sites without records still contribute one row with an empty category so
    the site hierarchy round-trips.
    """
    registry = universe.registry
    n_rows = 0
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_COLUMNS)
        for site in universe.sites:
            ultimate = registry.domestic_ultimate(site.duns).value
            sic2 = universe.sic2_by_ultimate.get(ultimate, "")
            parent = registry.parent_of(site.duns)
            base = [
                site.duns.value,
                "" if parent is None else parent.value,
                site.name,
                site.country,
                sic2,
            ]
            if not site.records:
                writer.writerow(base + ["", "", "", ""])
                n_rows += 1
                continue
            for record in site.records:
                writer.writerow(
                    base
                    + [
                        record.category,
                        record.first_seen.isoformat(),
                        record.last_seen.isoformat(),
                        record.confidence,
                    ]
                )
                n_rows += 1
    return n_rows


def read_records_csv(
    path: str | Path,
) -> tuple[list[CompanySite], DunsRegistry, dict[str, int]]:
    """Parse a records CSV back into sites, registry and SIC2 map.

    Raises :class:`ValueError` with the offending line number on malformed
    rows; a feed that parses silently wrong is worse than one that fails.
    """
    sites: dict[str, CompanySite] = {}
    parents: dict[str, str] = {}
    countries: dict[str, str] = {}
    sic2_raw: dict[str, int] = {}
    with open(Path(path), newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"records CSV missing columns: {sorted(missing)}")
        for line_number, row in enumerate(reader, start=2):
            duns_value = row["duns"].strip()
            try:
                duns = DunsNumber(duns_value)
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from exc
            if duns_value not in sites:
                sites[duns_value] = CompanySite(
                    duns=duns,
                    name=row["company_name"].strip(),
                    country=row["country"].strip(),
                )
                parent = row["parent_duns"].strip()
                if parent:
                    parents[duns_value] = parent
                countries[duns_value] = row["country"].strip()
            if row["sic2"].strip():
                try:
                    sic2_raw[duns_value] = int(row["sic2"])
                except ValueError:
                    raise ValueError(
                        f"line {line_number}: sic2 {row['sic2']!r} is not an integer"
                    ) from None
            category = row["category"].strip()
            if not category:
                continue
            try:
                first_seen = dt.date.fromisoformat(row["first_seen"].strip())
                last_seen = dt.date.fromisoformat(row["last_seen"].strip())
            except ValueError:
                raise ValueError(
                    f"line {line_number}: dates must be ISO YYYY-MM-DD"
                ) from None
            confidence = row["confidence"].strip() or "high"
            try:
                record = InstallRecord(
                    duns=duns,
                    category=category,
                    first_seen=first_seen,
                    last_seen=last_seen,
                    confidence=confidence,
                )
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from exc
            sites[duns_value].records.append(record)

    # Rebuild the registry parents-first (ultimates before children).
    registry = DunsRegistry()
    remaining = dict(parents)
    for duns_value in sites:
        if duns_value not in remaining:
            registry.register(DunsNumber(duns_value), country=countries[duns_value])
    while remaining:
        progressed = False
        for child, parent in list(remaining.items()):
            if DunsNumber(parent) in registry:
                registry.register(
                    DunsNumber(child),
                    country=countries[child],
                    parent=DunsNumber(parent),
                )
                del remaining[child]
                progressed = True
        if not progressed:
            raise ValueError(
                f"unresolvable parent references: {sorted(remaining.items())[:3]}"
            )

    # Propagate SIC2 codes to the domestic ultimates.
    sic2_by_ultimate: dict[str, int] = {}
    for duns_value, code in sic2_raw.items():
        ultimate = registry.domestic_ultimate(DunsNumber(duns_value)).value
        sic2_by_ultimate.setdefault(ultimate, code)
    return list(sites.values()), registry, sic2_by_ultimate


def load_companies_csv(path: str | Path, *, min_confidence: str = "low") -> list[Company]:
    """One-call loader: CSV feed -> aggregated domestic companies."""
    sites, registry, sic2_by_ultimate = read_records_csv(path)
    return aggregate_domestic(
        sites, registry, sic2_by_ultimate=sic2_by_ultimate,
        min_confidence=min_confidence,
    )
