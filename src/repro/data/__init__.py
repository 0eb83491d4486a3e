"""Data substrate: product catalog, company entities, simulator, corpus.

This package replaces the proprietary HG Data Company install-base database
used in the paper with a faithful synthetic equivalent (see DESIGN.md,
Section 2) and provides the corpus abstraction every model consumes.
"""

from repro.data.catalog import (
    HARDWARE_CATEGORIES,
    FULL_CATEGORY_UNIVERSE,
    Category,
    ProductCatalog,
    ProductType,
    Vendor,
    build_default_catalog,
)
from repro.data.columnar import (
    ColumnarStore,
    ColumnarWriter,
    CorpusFormatError,
    manifest_fingerprint,
    open_corpus,
    simulate_to_columnar,
    write_corpus,
)
from repro.data.company import Company, CompanySite, InstallRecord, aggregate_domestic
from repro.data.corpus import Corpus, CorpusSplit
from repro.data.duns import (
    DunsNumber,
    DunsRegistry,
    duns_check_digit,
    is_valid_duns,
)
from repro.data.industries import SIC2_INDUSTRIES, industry_name
from repro.data.internal import FirmographicRecord, InternalSalesDatabase
from repro.data.io import load_companies_csv, read_records_csv, write_records_csv
from repro.data.linkage import (
    CompanyNameMatcher,
    jaro_similarity,
    jaro_winkler_similarity,
    normalize_company_name,
)
from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig

__all__ = [
    "HARDWARE_CATEGORIES",
    "FULL_CATEGORY_UNIVERSE",
    "Category",
    "ProductCatalog",
    "ProductType",
    "Vendor",
    "build_default_catalog",
    "Company",
    "CompanySite",
    "InstallRecord",
    "aggregate_domestic",
    "Corpus",
    "CorpusSplit",
    "ColumnarStore",
    "ColumnarWriter",
    "CorpusFormatError",
    "manifest_fingerprint",
    "open_corpus",
    "simulate_to_columnar",
    "write_corpus",
    "DunsNumber",
    "DunsRegistry",
    "duns_check_digit",
    "is_valid_duns",
    "SIC2_INDUSTRIES",
    "industry_name",
    "FirmographicRecord",
    "InternalSalesDatabase",
    "load_companies_csv",
    "read_records_csv",
    "write_records_csv",
    "CompanyNameMatcher",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "normalize_company_name",
    "InstallBaseSimulator",
    "SimulatorConfig",
]
