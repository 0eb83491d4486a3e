"""The column store behind every corpus, and its on-disk format.

A :class:`~repro.data.corpus.Corpus` is a row view over one
:class:`ColumnarStore`.  The store has two origins and one set of columns:

* **in RAM**, built from :class:`~repro.data.company.Company` objects by
  ``Corpus(companies, vocabulary)`` (:meth:`ColumnarStore.from_companies`);
  the store keeps those objects, so a view hands them back for every row
  it has not cut;
* **memory-mapped** from a corpus directory by :func:`open_corpus`
  (:meth:`ColumnarStore.open`).  The paper's deployment fits models over an
  860k-company install base; mapped columns let a million-company
  universe stream through models and evaluators in bounded RSS.

:func:`company_columns` is the one code path from companies to columns:
the in-RAM store calls it once, and :class:`ColumnarWriter` calls it per
batch and appends the arrays to disk.  A corpus directory holds:

``tokens.npy`` / ``dates.npy`` / ``indptr.npy``
    CSR-style install-base columns: company *i*'s products are
    ``tokens[indptr[i]:indptr[i+1]]`` (vocabulary token ids, ``int32``)
    with matching first-seen dates as proleptic-Gregorian ordinals
    (``int32``), sorted by (date, category name) — exactly the order of
    :meth:`Company.sorted_categories`.
``duns.npy`` / ``sic2.npy`` / ``n_sites.npy`` / ``country_code.npy``
    Firmographics, one row per company.  Countries are dictionary-encoded
    against the manifest's ``countries`` list.
``name_indptr.npy`` / ``name_bytes.npy``
    Company names as concatenated UTF-8 bytes plus offsets.
``manifest.json``
    Vocabulary, column inventory (dtype + length per column), row/token
    counts and the corpus content fingerprint.  The manifest is written
    *last* via write-to-temp + fsync + atomic rename, so a torn build
    leaves a directory without a manifest — a clean
    :class:`CorpusFormatError` on open, never a garbage corpus.

The fingerprint in the manifest is byte-identical to
:meth:`~repro.data.corpus.Corpus.fingerprint` of the same content built in
RAM: the writer digests each batch's columns with
:meth:`ColumnarStore.digest_rows`, the one digest of a corpus's rows.
That is what lets :class:`~repro.runtime.cache.FitCache` keys transfer
between the two store origins.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import struct
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro._validation import check_positive_int
from repro.data.company import Company
from repro.data.duns import DunsNumber

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.corpus import Corpus

__all__ = [
    "CorpusFormatError",
    "ColumnarWriter",
    "ColumnarStore",
    "open_corpus",
    "write_corpus",
    "simulate_to_columnar",
    "manifest_fingerprint",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"
_FORMAT_NAME = "repro-columnar"
_FORMAT_VERSION = 1

#: Column name -> on-disk dtype.  ``indptr``-style columns have one entry
#: per company plus one; ``tokens``/``dates`` have one entry per install
#: record; ``name_bytes`` one per UTF-8 byte; the rest one per company.
_COLUMN_DTYPES: dict[str, str] = {
    "indptr": "<i8",
    "tokens": "<i4",
    "dates": "<i4",
    "duns": "|S9",
    "name_indptr": "<i8",
    "name_bytes": "|u1",
    "country_code": "<u2",
    "sic2": "<i2",
    "n_sites": "<i4",
}


class CorpusFormatError(Exception):
    """A columnar corpus directory is missing, torn, or inconsistent."""


# ---------------------------------------------------------------------------
# Companies -> columns
# ---------------------------------------------------------------------------


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i] + lengths[i])`` per row.

    The standard vectorised multi-slice gather: one ``np.arange`` over the
    total length, rebased per row.  Returns an empty int64 array when every
    range is empty.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    row_base = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths[:-1]))), lengths)
    return np.arange(total, dtype=np.int64) + row_base


def _name_rank(token: Mapping[str, int]) -> np.ndarray:
    """Alphabetical rank of each token id's category name."""
    rank = np.empty(len(token), dtype=np.int64)
    rank[[token[name] for name in sorted(token)]] = np.arange(len(token))
    return rank


def token_columns(
    companies: Sequence[Company], token: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR install-base columns ``(indptr, tokens, dates)`` of ``companies``.

    Company ``i``'s products are ``tokens[indptr[i]:indptr[i + 1]]``
    (``int32`` ids from ``token``) with their first-seen dates as
    proleptic-Gregorian ordinals (``int32``), in the order of
    :meth:`Company.sorted_categories`: by date, then category name.  It
    checks the vocabulary on the same pass: the first company owning a
    category missing from ``token`` raises ``ValueError``.
    """
    first_seen = [company.first_seen for company in companies]
    lengths = np.fromiter(map(len, first_seen), dtype=np.int64, count=len(first_seen))
    indptr = np.zeros(len(first_seen) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    n_tokens = int(indptr[-1])
    tokens = np.fromiter(
        map(token.get, chain.from_iterable(first_seen), repeat(-1)),
        dtype=np.int32,
        count=n_tokens,
    )
    if n_tokens and tokens.min() < 0:
        first_unknown = int(np.argmax(tokens < 0))
        company = companies[int(np.searchsorted(indptr, first_unknown, side="right")) - 1]
        raise ValueError(
            f"company {company.name!r} owns categories outside the "
            f"vocabulary: {sorted(company.categories - token.keys())}"
        )
    dates = np.fromiter(
        map(dt.date.toordinal, chain.from_iterable(seen.values() for seen in first_seen)),
        dtype=np.int32,
        count=n_tokens,
    )
    if n_tokens:
        # One packed key per record orders rows by (date, category name):
        # row, then day offset, then the name's alphabetical rank.  Exact
        # while companies x days spanned x vocabulary stays below 2**63.
        day = dates.astype(np.int64) - int(dates.min())
        span = int(day.max()) + 1
        row = np.repeat(np.arange(len(first_seen), dtype=np.int64), lengths)
        order = np.argsort(
            (row * span + day) * len(token) + _name_rank(token)[tokens], kind="stable"
        )
        tokens, dates = tokens[order], dates[order]
    return indptr, tokens, dates


def company_columns(
    companies: Sequence[Company], token: Mapping[str, int], countries: dict[str, int]
) -> dict[str, np.ndarray]:
    """Every column of ``companies``, keyed and ordered like ``_COLUMN_DTYPES``.

    The install-base columns of :func:`token_columns`, then the
    firmographics; both offset columns start at 0.  Countries are coded
    against ``countries``, which gains each new country in order of first
    appearance.  Shared by :meth:`ColumnarStore.from_companies` and
    :meth:`ColumnarWriter.append`, so both store origins hold the same
    arrays.
    """
    indptr, tokens, dates = token_columns(companies, token)
    names = [company.name.encode("utf-8") for company in companies]
    name_indptr = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, names), dtype=np.int64, count=len(names)),
              out=name_indptr[1:])
    codes = [countries.setdefault(company.country, len(countries)) for company in companies]
    if len(countries) > np.iinfo(np.uint16).max + 1:
        raise ValueError("more than 65536 distinct countries")
    return {
        "indptr": indptr,
        "tokens": tokens,
        "dates": dates,
        "duns": np.array([company.duns.value.encode("ascii") for company in companies],
                         dtype="S9"),
        "name_indptr": name_indptr,
        "name_bytes": np.frombuffer(b"".join(names), dtype=np.uint8),
        "country_code": np.array(codes, dtype=np.uint16),
        "sic2": np.array([company.sic2 for company in companies], dtype=np.int16),
        "n_sites": np.array([company.n_sites for company in companies], dtype=np.int32),
    }


# ---------------------------------------------------------------------------
# Appendable .npy columns
# ---------------------------------------------------------------------------

_NPY_HEADER_LEN = 128


def _npy_header(dtype: np.dtype, length: int) -> bytes:
    """A fixed-size (128-byte) .npy v1 header for a 1-D array of ``length``.

    The standard format pads the header dict with spaces, so reserving a
    constant size lets the writer append data and rewrite the final shape
    in place; the files stay loadable with ``np.load(..., mmap_mode='r')``.
    """
    descr = np.lib.format.dtype_to_descr(dtype)
    body = "{'descr': %r, 'fortran_order': False, 'shape': (%d,), }" % (descr, length)
    magic = b"\x93NUMPY\x01\x00"
    payload_len = _NPY_HEADER_LEN - len(magic) - 2
    if len(body) >= payload_len:
        raise ValueError(f"npy header too large for fixed slot: {body!r}")
    text = body.ljust(payload_len - 1) + "\n"
    return magic + struct.pack("<H", payload_len) + text.encode("latin1")


class _ColumnAppender:
    """Chunk-appendable 1-D .npy file with a rewritable fixed-size header."""

    def __init__(self, path: Path, dtype: str) -> None:
        self.path = path
        self.dtype = np.dtype(dtype)
        self.length = 0
        self._handle = open(path, "wb")
        self._handle.write(_npy_header(self.dtype, 0))

    def append(self, values: np.ndarray) -> None:
        array = np.ascontiguousarray(values, dtype=self.dtype)
        if array.ndim != 1:
            raise ValueError(f"column chunks must be 1-D, got shape {array.shape}")
        self._handle.write(array.tobytes())
        self.length += len(array)

    def close(self) -> None:
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(_npy_header(self.dtype, self.length))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()

    def abort(self) -> None:
        if not self._handle.closed:
            self._handle.close()


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class ColumnarWriter:
    """Stream companies into a columnar corpus directory.

    Append batches with :meth:`append`; :meth:`close` finalises every
    column and atomically publishes ``manifest.json``.  If the process
    dies mid-build the directory has no manifest and :func:`open_corpus`
    refuses it with a clean error.  The content fingerprint is digested
    as companies stream through, so closing costs no extra pass.
    """

    def __init__(self, path: str | Path, vocabulary: tuple[str, ...]) -> None:
        if len(set(vocabulary)) != len(vocabulary):
            raise ValueError("vocabulary contains duplicate categories")
        if not vocabulary:
            raise ValueError("vocabulary must be non-empty")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise FileExistsError(
                f"{self.path} already contains a columnar corpus manifest"
            )
        self.vocabulary = tuple(vocabulary)
        self._token = {name: i for i, name in enumerate(self.vocabulary)}
        self._countries: dict[str, int] = {}
        self._columns = {
            name: _ColumnAppender(self.path / f"{name}.npy", dtype)
            for name, dtype in _COLUMN_DTYPES.items()
        }
        self._columns["indptr"].append(np.zeros(1, dtype=np.int64))
        self._columns["name_indptr"].append(np.zeros(1, dtype=np.int64))
        self._n_companies = 0
        self._n_tokens = 0
        self._name_bytes_total = 0
        self._digest = hashlib.sha256()
        self._digest.update(repr(self.vocabulary).encode())
        self._closed = False

    def append(self, companies: Iterable[Company]) -> int:
        """Append a batch of companies; returns the batch size."""
        if self._closed:
            raise RuntimeError("writer is closed")
        batch = list(companies)
        columns = company_columns(batch, self._token, self._countries)
        batch_store = ColumnarStore(
            vocabulary=self.vocabulary, countries=tuple(self._countries), **columns
        )
        batch_store.digest_rows(
            self._digest, np.arange(len(batch)), columns["indptr"][:-1], columns["indptr"][1:]
        )
        columns["indptr"] = columns["indptr"][1:] + self._n_tokens
        columns["name_indptr"] = columns["name_indptr"][1:] + self._name_bytes_total
        for name, values in columns.items():
            self._columns[name].append(values)
        self._n_tokens += len(columns["tokens"])
        self._name_bytes_total += len(columns["name_bytes"])
        self._n_companies += len(batch)
        return len(batch)

    def close(self) -> dict:
        """Finalise columns and atomically publish the manifest."""
        if self._closed:
            raise RuntimeError("writer is closed")
        if self._n_companies == 0:
            self.abort()
            raise ValueError("corpus must contain at least one company")
        self._closed = True
        for column in self._columns.values():
            column.close()
        manifest = {
            "format": _FORMAT_NAME,
            "version": _FORMAT_VERSION,
            "n_companies": self._n_companies,
            "n_tokens": self._n_tokens,
            "vocabulary": list(self.vocabulary),
            "countries": [
                country
                for country, __ in sorted(self._countries.items(), key=lambda kv: kv[1])
            ],
            "fingerprint": self._digest.hexdigest(),
            "columns": {
                name: {
                    "file": f"{name}.npy",
                    "dtype": _COLUMN_DTYPES[name],
                    "length": appender.length,
                }
                for name, appender in self._columns.items()
            },
        }
        tmp_path = self.path / (MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path / MANIFEST_NAME)
        dir_fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return manifest

    def abort(self) -> None:
        """Close file handles without publishing a manifest."""
        self._closed = True
        for column in self._columns.values():
            column.abort()

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            self.abort()


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class ColumnarStore:
    """The columns of a corpus: in RAM, or memmap'd from a corpus directory.

    Holds the full universe; :class:`~repro.data.corpus.Corpus` layers row
    views on top.  ``path`` is the directory of a mapped store and ``None``
    for an in-RAM one.  ``companies`` are the :class:`Company` objects an
    in-RAM store was built from (:meth:`from_companies`), row for row, and
    ``None`` for a mapped store or a derived one (the result of
    ``restrict_vocabulary``).
    """

    def __init__(
        self,
        *,
        vocabulary: tuple[str, ...],
        countries: tuple[str, ...],
        indptr: np.ndarray,
        tokens: np.ndarray,
        dates: np.ndarray,
        duns: np.ndarray,
        name_indptr: np.ndarray,
        name_bytes: np.ndarray,
        country_code: np.ndarray,
        sic2: np.ndarray,
        n_sites: np.ndarray,
        fingerprint: str | None = None,
        path: Path | None = None,
        companies: list[Company] | None = None,
    ) -> None:
        self.vocabulary = vocabulary
        self.countries = countries
        self.indptr = indptr
        self.tokens = tokens
        self.dates = dates
        self.duns = duns
        self.name_indptr = name_indptr
        self.name_bytes = name_bytes
        self.country_code = country_code
        self.sic2 = sic2
        self.n_sites = n_sites
        self.fingerprint = fingerprint
        self.path = path
        self.companies = companies

    @property
    def n_companies(self) -> int:
        """Number of companies in the store (full universe)."""
        return len(self.indptr) - 1

    @classmethod
    def from_companies(
        cls, companies: list[Company], vocabulary: tuple[str, ...]
    ) -> "ColumnarStore":
        """An in-RAM store of ``companies`` that keeps the objects themselves.

        A company owning a category outside ``vocabulary`` raises
        ``ValueError`` (:func:`token_columns`).
        """
        countries: dict[str, int] = {}
        token = {name: i for i, name in enumerate(vocabulary)}
        columns = company_columns(companies, token, countries)
        return cls(
            vocabulary=vocabulary,
            countries=tuple(countries),
            companies=companies,
            **columns,
        )

    @classmethod
    def open(cls, path: str | Path) -> "ColumnarStore":
        """Memory-map a corpus directory, validating structure eagerly.

        Every failure mode — missing directory, absent or torn manifest,
        truncated or wrong-dtype column files, inconsistent offsets or
        out-of-range token ids — raises :class:`CorpusFormatError` with a
        message naming the defect.
        """
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise CorpusFormatError(
                f"{root} is not a columnar corpus: missing {MANIFEST_NAME} "
                "(directory absent or build did not complete)"
            )
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CorpusFormatError(f"corrupt manifest at {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT_NAME:
            raise CorpusFormatError(
                f"{manifest_path} is not a {_FORMAT_NAME} manifest"
            )
        if manifest.get("version") != _FORMAT_VERSION:
            raise CorpusFormatError(
                f"unsupported corpus format version {manifest.get('version')!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        for key in ("n_companies", "n_tokens", "vocabulary", "countries",
                    "fingerprint", "columns"):
            if key not in manifest:
                raise CorpusFormatError(f"manifest missing required key {key!r}")
        vocabulary = tuple(manifest["vocabulary"])
        if not vocabulary or len(set(vocabulary)) != len(vocabulary):
            raise CorpusFormatError("manifest vocabulary is empty or has duplicates")
        n = int(manifest["n_companies"])
        n_tokens = int(manifest["n_tokens"])
        if n < 1:
            raise CorpusFormatError(f"manifest declares {n} companies")

        arrays: dict[str, np.ndarray] = {}
        for name, dtype in _COLUMN_DTYPES.items():
            spec = manifest["columns"].get(name)
            if spec is None:
                raise CorpusFormatError(f"manifest missing column {name!r}")
            if spec.get("dtype") != dtype:
                raise CorpusFormatError(
                    f"column {name!r} has dtype {spec.get('dtype')!r}, "
                    f"expected {dtype!r}"
                )
            file_path = root / spec["file"]
            if not file_path.is_file():
                raise CorpusFormatError(f"column file missing: {file_path}")
            try:
                if int(spec.get("length", 0)) == 0:
                    # mmap cannot map a zero-byte payload; an empty column
                    # (e.g. no foreign names) loads as a plain empty array.
                    array = np.load(file_path, allow_pickle=False)
                else:
                    array = np.load(file_path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise CorpusFormatError(
                    f"column file {file_path} is unreadable or truncated: {exc}"
                ) from exc
            if array.ndim != 1 or array.dtype != np.dtype(dtype):
                raise CorpusFormatError(
                    f"column file {file_path} has shape {array.shape} dtype "
                    f"{array.dtype}, expected 1-D {dtype}"
                )
            if len(array) != int(spec["length"]):
                raise CorpusFormatError(
                    f"column {name!r} has {len(array)} entries, manifest "
                    f"declares {spec['length']} (truncated file?)"
                )
            arrays[name] = array

        expected_lengths = {
            "indptr": n + 1,
            "tokens": n_tokens,
            "dates": n_tokens,
            "duns": n,
            "name_indptr": n + 1,
            "country_code": n,
            "sic2": n,
            "n_sites": n,
        }
        for name, expected in expected_lengths.items():
            if len(arrays[name]) != expected:
                raise CorpusFormatError(
                    f"column {name!r} has {len(arrays[name])} entries, "
                    f"expected {expected} for {n} companies / {n_tokens} tokens"
                )
        indptr = arrays["indptr"]
        if int(indptr[0]) != 0 or int(indptr[-1]) != n_tokens:
            raise CorpusFormatError("indptr does not span [0, n_tokens]")
        if np.any(np.diff(indptr) < 0):
            raise CorpusFormatError("indptr is not monotonically non-decreasing")
        if n_tokens and (
            int(arrays["tokens"].min()) < 0
            or int(arrays["tokens"].max()) >= len(vocabulary)
        ):
            raise CorpusFormatError("token ids fall outside the vocabulary")
        name_indptr = arrays["name_indptr"]
        if (
            int(name_indptr[0]) != 0
            or int(name_indptr[-1]) != len(arrays["name_bytes"])
            or np.any(np.diff(name_indptr) < 0)
        ):
            raise CorpusFormatError("name offsets do not span the name bytes")
        countries = tuple(manifest["countries"])
        if n and len(countries) == 0:
            raise CorpusFormatError("manifest declares no countries")
        if n and int(arrays["country_code"].max()) >= len(countries):
            raise CorpusFormatError("country codes fall outside the dictionary")
        return cls(
            vocabulary=vocabulary,
            countries=countries,
            fingerprint=str(manifest["fingerprint"]),
            path=root,
            **{name: arrays[name] for name in _COLUMN_DTYPES},
        )

    # -- row accessors (python-native types, fingerprint-safe) ----------
    def duns_value(self, row: int) -> str:
        """Nine-digit D-U-N-S value of a row, as ``str``."""
        return self.duns[row].decode("ascii")

    def name(self, row: int) -> str:
        """Company name of a row, decoded from the UTF-8 byte column."""
        start, end = int(self.name_indptr[row]), int(self.name_indptr[row + 1])
        return bytes(self.name_bytes[start:end]).decode("utf-8")

    def country(self, row: int) -> str:
        """Country of a row, resolved through the manifest dictionary."""
        return self.countries[int(self.country_code[row])]

    def sic2_code(self, row: int) -> int:
        """SIC2 industry code of a row, as python ``int``."""
        return int(self.sic2[row])

    def n_sites_of(self, row: int) -> int:
        """Site count of a row, as python ``int``."""
        return int(self.n_sites[row])

    def company(self, row: int, start: int, end: int) -> Company:
        """Row ``row`` rebuilt as a :class:`Company` owning records ``[start, end)``."""
        first_seen = {
            self.vocabulary[token]: dt.date.fromordinal(ordinal)
            for token, ordinal in zip(
                self.tokens[start:end].tolist(), self.dates[start:end].tolist()
            )
        }
        return Company(
            duns=DunsNumber._trusted(self.duns_value(row)),
            name=self.name(row),
            country=self.country(row),
            sic2=self.sic2_code(row),
            first_seen=first_seen,
            n_sites=self.n_sites_of(row),
        )

    def digest_rows(
        self, digest, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        """Feed rows' modelling content into a corpus digest, row by row.

        Row ``rows[i]`` owns the records ``[starts[i], ends[i])``.  Its
        canonical block is ``repr((duns, name, country, sic2, n_sites,
        records))`` with ``records`` its ``(category, iso-date)`` pairs
        sorted alphabetically.  The one digest of a corpus's content: every
        view's fingerprint and the manifest's (streamed by the writer) feed
        it.
        """
        lengths = ends - starts
        flat = gather_ranges(starts, lengths)
        tokens = np.asarray(self.tokens[flat], dtype=np.int64)
        # A row owns each category once, so ordering its records by
        # category name sorts its (category, date) pairs.
        name_rank = _name_rank({name: i for i, name in enumerate(self.vocabulary)})
        order = np.lexsort((name_rank[tokens], np.repeat(np.arange(len(rows)), lengths)))
        ordinals, day = np.unique(np.asarray(self.dates[flat])[order], return_inverse=True)
        iso = [dt.date.fromordinal(ordinal).isoformat() for ordinal in ordinals.tolist()]
        records = [
            (self.vocabulary[token], iso[d])
            for token, d in zip(tokens[order].tolist(), day.tolist())
        ]
        bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
        for row, lo, hi in zip(rows.tolist(), bounds, bounds[1:]):
            block = (
                self.duns_value(row),
                self.name(row),
                self.country(row),
                self.sic2_code(row),
                self.n_sites_of(row),
                records[lo:hi],
            )
            digest.update(repr(block).encode())


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def open_corpus(path: str | Path) -> "Corpus":
    """Open a columnar corpus directory as a memmap-backed corpus."""
    from repro.data.corpus import Corpus

    return Corpus._view(ColumnarStore.open(path))


def manifest_fingerprint(path: str | Path) -> str:
    """Read just the content fingerprint from a corpus directory's manifest."""
    manifest_path = Path(path) / MANIFEST_NAME
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorpusFormatError(f"corrupt manifest at {manifest_path}: {exc}") from exc
    if "fingerprint" not in manifest:
        raise CorpusFormatError(f"manifest at {manifest_path} has no fingerprint")
    return str(manifest["fingerprint"])


def write_corpus(
    corpus: Corpus, path: str | Path, *, batch_size: int = 8192
) -> dict:
    """Write any corpus view, in RAM or mapped, to a columnar directory.

    Streams ``batch_size`` companies at a time, so a large mapped view
    can be re-published without materialising every row at once.  Returns
    the manifest dict; the manifest fingerprint equals the source corpus's
    :meth:`~repro.data.corpus.Corpus.fingerprint`.
    """
    check_positive_int(batch_size, "batch_size")
    writer = ColumnarWriter(path, corpus.vocabulary)
    try:
        batch: list[Company] = []
        for company in corpus.companies:
            batch.append(company)
            if len(batch) >= batch_size:
                writer.append(batch)
                batch = []
        if batch:
            writer.append(batch)
        return writer.close()
    except BaseException:
        writer.abort()
        raise


def simulate_to_columnar(
    path: str | Path,
    *,
    n_companies: int,
    seed: int = 7,
    chunk_size: int = 50_000,
    config=None,
    progress=None,
) -> dict:
    """Stream a simulated universe straight to a columnar corpus directory.

    Generates ``chunk_size`` companies per simulator call and appends each
    batch, so peak memory is bounded by the chunk, not the universe.  The
    D-U-N-S sequence is offset per chunk so identifiers stay globally
    unique.  Deterministic in ``(n_companies, seed, chunk_size, config)``:
    chunk ``i`` derives its generator from ``SeedSequence(seed).spawn()``,
    except a single-chunk build (``chunk_size >= n_companies``) which uses
    ``seed`` directly and therefore reproduces, bit for bit, the corpus
    ``make_experiment_data(n_companies, seed=seed)`` builds in memory.

    Returns the manifest dict.  ``progress``, if given, is called with
    ``(companies_done, n_companies)`` after each chunk.
    """
    from repro.data.catalog import build_default_catalog
    from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig

    check_positive_int(n_companies, "n_companies")
    check_positive_int(chunk_size, "chunk_size")
    base_config = config if config is not None else SimulatorConfig()
    if base_config.granularity != "category":
        raise ValueError(
            "simulate_to_columnar supports category granularity only; "
            "product-type universes must be written via write_corpus"
        )
    catalog = build_default_catalog()
    writer = ColumnarWriter(path, catalog.categories)
    try:
        import dataclasses

        seed_children = np.random.SeedSequence(seed).spawn(
            max(1, -(-n_companies // chunk_size))
        )
        done = 0
        duns_start = 0
        chunk_index = 0
        single_chunk = chunk_size >= n_companies
        while done < n_companies:
            size = min(chunk_size, n_companies - done)
            simulator = InstallBaseSimulator(
                dataclasses.replace(base_config, n_companies=size), catalog=catalog
            )
            chunk_seed = (
                seed
                if single_chunk
                else np.random.default_rng(seed_children[chunk_index])
            )
            universe = simulator.generate(seed=chunk_seed, duns_start=duns_start)
            writer.append(universe.companies)
            duns_start += universe.n_sites
            done += size
            chunk_index += 1
            if progress is not None:
                progress(done, n_companies)
        return writer.close()
    except BaseException:
        writer.abort()
        raise
