"""Columnar on-disk corpus: memmap'd arrays behind the ``Corpus`` API.

The paper's deployment fits models over an 860k-company install base; an
in-memory list of :class:`~repro.data.company.Company` objects caps our
runs far below that.  This module stores a corpus as a directory of flat,
memory-mappable arrays so a million-company universe streams through
models and evaluators in bounded RSS:

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
:func:`repro.runtime.fingerprint.fingerprint_corpus` over the equivalent
in-memory corpus (the writer digests companies as they stream to disk),
which is what lets :class:`~repro.runtime.cache.FitCache` keys transfer
between the two backends.

:class:`ColumnarCorpus` subclasses :class:`~repro.data.corpus.Corpus` and
serves every view from the mapped columns: ``binary_matrix(rows=...)``
gathers directly from ``tokens``/``indptr``, ``sequences()`` and
``companies`` are lazy row views, and ``split`` / ``subset`` /
``truncated_before`` return index views over the same store instead of
copied object lists.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._validation import check_positive_int
from repro.data.company import Company
from repro.data.corpus import Corpus, gather_ranges, token_columns, update_fingerprint
from repro.data.duns import DunsNumber

__all__ = [
    "CorpusFormatError",
    "ColumnarWriter",
    "ColumnarStore",
    "ColumnarCorpus",
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
        indptr, tokens, dates = token_columns(batch, self._token)
        duns: list[bytes] = []
        name_indptr: list[int] = []
        name_chunks: list[bytes] = []
        country_codes: list[int] = []
        sic2: list[int] = []
        n_sites: list[int] = []
        for company in batch:
            duns.append(company.duns.value.encode("ascii"))
            encoded = company.name.encode("utf-8")
            name_chunks.append(encoded)
            self._name_bytes_total += len(encoded)
            name_indptr.append(self._name_bytes_total)
            code = self._countries.setdefault(company.country, len(self._countries))
            if code > np.iinfo(np.uint16).max:
                raise ValueError("more than 65536 distinct countries")
            country_codes.append(code)
            sic2.append(company.sic2)
            n_sites.append(company.n_sites)
            update_fingerprint(self._digest, company)
        self._columns["tokens"].append(tokens)
        self._columns["dates"].append(dates)
        self._columns["indptr"].append(indptr[1:] + self._n_tokens)
        self._n_tokens += len(tokens)
        self._columns["duns"].append(np.asarray(duns, dtype="S9"))
        self._columns["name_indptr"].append(np.asarray(name_indptr, dtype=np.int64))
        self._columns["name_bytes"].append(
            np.frombuffer(b"".join(name_chunks), dtype=np.uint8)
        )
        self._columns["country_code"].append(
            np.asarray(country_codes, dtype=np.uint16)
        )
        self._columns["sic2"].append(np.asarray(sic2, dtype=np.int16))
        self._columns["n_sites"].append(np.asarray(n_sites, dtype=np.int32))
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
    """The raw columns of a columnar corpus, memmap'd when disk-backed.

    Holds the full universe; :class:`ColumnarCorpus` layers row views on
    top.  ``path`` is ``None`` for derived in-RAM stores (the result of
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

    @property
    def n_companies(self) -> int:
        """Number of companies in the store (full universe)."""
        return len(self.indptr) - 1

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


# ---------------------------------------------------------------------------
# Lazy row views
# ---------------------------------------------------------------------------


class _LazyCompanies(Sequence):
    """Read-only ``Sequence[Company]`` materialising rows on access."""

    def __init__(self, corpus: "ColumnarCorpus") -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.n_companies

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"company index {index} out of range")
        return self._materialize(i)

    def __iter__(self) -> Iterator[Company]:
        for i in range(len(self)):
            yield self._materialize(i)

    def _materialize(self, i: int) -> Company:
        corpus = self._corpus
        store = corpus._store
        row = int(corpus._rows[i])
        start, end = int(corpus._starts[i]), int(corpus._ends[i])
        vocab = corpus.vocabulary
        first_seen = {
            vocab[token]: dt.date.fromordinal(ordinal)
            for token, ordinal in zip(
                store.tokens[start:end].tolist(), store.dates[start:end].tolist()
            )
        }
        return Company(
            duns=DunsNumber._trusted(store.duns_value(row)),
            name=store.name(row),
            country=store.country(row),
            sic2=store.sic2_code(row),
            first_seen=first_seen,
            n_sites=store.n_sites_of(row),
        )


class _SequenceRows(Sequence):
    """Lazy ``Sequence`` of per-company token (or dated-token) lists."""

    def __init__(self, corpus: "ColumnarCorpus", dated: bool) -> None:
        self._corpus = corpus
        self._dated = dated

    def __len__(self) -> int:
        return self._corpus.n_companies

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sequence index {index} out of range")
        return self._row(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self._row(i)

    def _row(self, i: int):
        corpus = self._corpus
        store = corpus._store
        start, end = int(corpus._starts[i]), int(corpus._ends[i])
        tokens = store.tokens[start:end].tolist()
        if not self._dated:
            return tokens
        ordinals = store.dates[start:end].tolist()
        return [
            (token, dt.date.fromordinal(ordinal))
            for token, ordinal in zip(tokens, ordinals)
        ]


# ---------------------------------------------------------------------------
# ColumnarCorpus
# ---------------------------------------------------------------------------


def _reopen_view(path, rows, ends, fingerprint):
    corpus = ColumnarCorpus(ColumnarStore.open(path), rows=rows, ends=ends)
    corpus._fingerprint = fingerprint
    return corpus


def _rebuild_view(store, rows, ends, fingerprint):
    corpus = ColumnarCorpus(store, rows=rows, ends=ends)
    corpus._fingerprint = fingerprint
    return corpus


class ColumnarCorpus(Corpus):
    """A (possibly partial) row view over a :class:`ColumnarStore`.

    Implements the full :class:`~repro.data.corpus.Corpus` API without
    materialising ``Company`` objects: the binary matrix gathers straight
    from the token columns, ``companies`` / ``sequences()`` /
    ``dated_sequences()`` are lazy per-row views, and partitioning methods
    return new index views over the same store.  ``ends`` allows a view to
    expose only a prefix of each row's (date-sorted) tokens, which is how
    ``truncated_before`` works without copying columns.
    """

    def __init__(
        self,
        store: ColumnarStore,
        *,
        rows: np.ndarray | None = None,
        ends: np.ndarray | None = None,
    ) -> None:
        self._store = store
        self._vocabulary = tuple(store.vocabulary)
        self._token = {name: i for i, name in enumerate(self._vocabulary)}
        self._fingerprint: str | None = None
        indptr = np.asarray(store.indptr, dtype=np.int64)
        if rows is None:
            self._rows = np.arange(store.n_companies, dtype=np.int64)
            self._starts = indptr[:-1].copy()
            self._ends = indptr[1:].copy()
            self._pristine = True
        else:
            self._rows = np.asarray(rows, dtype=np.int64).ravel()
            self._starts = indptr[self._rows]
            self._ends = (
                indptr[self._rows + 1]
                if ends is None
                else np.asarray(ends, dtype=np.int64).ravel()
            )
            self._pristine = False

    # -- basic accessors -------------------------------------------------
    @property
    def store(self) -> ColumnarStore:
        """The backing store (shared across views)."""
        return self._store

    @property
    def companies(self) -> Sequence:
        """Lazy ``Sequence[Company]``; rows materialise on access."""
        return _LazyCompanies(self)

    @property
    def n_companies(self) -> int:
        """Number of companies in this view."""
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        source = self._store.path or "<memory>"
        return (
            f"ColumnarCorpus(n_companies={self.n_companies}, "
            f"n_products={self.n_products}, source={source})"
        )

    # -- columnar substrate ----------------------------------------------
    def token_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, tokens)`` over the store's mapped token column."""
        return self._starts, self._ends, self._store.tokens

    # -- model inputs ----------------------------------------------------
    def sequences(self) -> Sequence:
        """The sequences ``A^S`` as a lazy per-row view (list-compatible)."""
        return _SequenceRows(self, dated=False)

    def dated_sequences(self) -> Sequence:
        """Dated sequences as a lazy per-row view (list-compatible)."""
        return _SequenceRows(self, dated=True)

    def industries(self) -> np.ndarray:
        """SIC2 code per company, aligned with matrix rows."""
        return np.asarray(self._store.sic2[self._rows], dtype=np.int64)

    def total_products(self) -> int:
        """Total number of (company, product) pairs in this view."""
        return int((self._ends - self._starts).sum())

    # -- fingerprint -----------------------------------------------------
    def fingerprint(self) -> str:
        """Content fingerprint; the manifest value for pristine full views.

        Partial views (splits, subsets, truncations) digest their rows with
        the shared per-company algorithm, staying byte-identical to the
        in-memory corpus of the same content.
        """
        if self._fingerprint is None:
            if self._pristine and self._store.fingerprint is not None:
                self._fingerprint = self._store.fingerprint
            else:
                self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(self._vocabulary).encode())
        store = self._store
        vocab = self._vocabulary
        for i in range(len(self._rows)):
            row = int(self._rows[i])
            start, end = int(self._starts[i]), int(self._ends[i])
            records = sorted(
                (vocab[token], dt.date.fromordinal(ordinal).isoformat())
                for token, ordinal in zip(
                    store.tokens[start:end].tolist(), store.dates[start:end].tolist()
                )
            )
            digest.update(
                repr(
                    (
                        store.duns_value(row),
                        store.name(row),
                        store.country(row),
                        store.sic2_code(row),
                        store.n_sites_of(row),
                        records,
                    )
                ).encode()
            )
        return digest.hexdigest()

    # -- partitioning ----------------------------------------------------
    def _select(self, indices: np.ndarray) -> "ColumnarCorpus":
        index = np.asarray(indices, dtype=np.int64).ravel()
        return ColumnarCorpus(
            self._store, rows=self._rows[index], ends=self._ends[index]
        )

    def truncated_before(self, cutoff: dt.date) -> "ColumnarCorpus":
        """Index view keeping only products first seen strictly before ``cutoff``.

        Tokens are date-sorted per row, so truncation is a per-row prefix:
        the view keeps the same store and shrinks each row's end pointer;
        companies with nothing before the cutoff are dropped.
        """
        ordinal = cutoff.toordinal()
        lengths = self._ends - self._starts
        flat = gather_ranges(self._starts, lengths)
        mask = np.asarray(self._store.dates[flat]) < ordinal
        cumulative = np.concatenate(([0], np.cumsum(mask)))
        boundaries = np.concatenate(([0], np.cumsum(lengths)))
        counts = cumulative[boundaries[1:]] - cumulative[boundaries[:-1]]
        keep = counts > 0
        if not keep.any():
            raise ValueError(f"no company has any product before {cutoff}")
        return ColumnarCorpus(
            self._store,
            rows=self._rows[keep],
            ends=self._starts[keep] + counts[keep],
        )

    def restrict_vocabulary(self, vocabulary: tuple[str, ...]) -> "ColumnarCorpus":
        """Project onto a smaller vocabulary (Section 2's 91 -> 38).

        Builds a derived in-RAM store with remapped token ids; companies
        left without any product are removed.
        """
        if len(set(vocabulary)) != len(vocabulary) or not vocabulary:
            raise ValueError("vocabulary must be non-empty and duplicate-free")
        unknown = set(vocabulary) - set(self._vocabulary)
        if unknown:
            raise ValueError(
                f"restriction vocabulary contains unknown categories: {sorted(unknown)}"
            )
        mapping = np.full(len(self._vocabulary), -1, dtype=np.int32)
        for new_id, category in enumerate(vocabulary):
            mapping[self._token[category]] = new_id
        lengths = self._ends - self._starts
        flat = gather_ranges(self._starts, lengths)
        old_tokens = np.asarray(self._store.tokens[flat])
        new_tokens = mapping[old_tokens]
        kept_mask = new_tokens >= 0
        cumulative = np.concatenate(([0], np.cumsum(kept_mask)))
        boundaries = np.concatenate(([0], np.cumsum(lengths)))
        counts = cumulative[boundaries[1:]] - cumulative[boundaries[:-1]]
        keep = counts > 0
        if not keep.any():
            raise ValueError("restriction removed every company from the corpus")
        rows_kept = self._rows[keep]
        store = self._store
        indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(counts[keep], out=indptr[1:])
        name_starts = np.asarray(store.name_indptr, dtype=np.int64)[rows_kept]
        name_lengths = (
            np.asarray(store.name_indptr, dtype=np.int64)[rows_kept + 1] - name_starts
        )
        name_flat = gather_ranges(name_starts, name_lengths)
        name_indptr = np.zeros(len(rows_kept) + 1, dtype=np.int64)
        np.cumsum(name_lengths, out=name_indptr[1:])
        derived = ColumnarStore(
            vocabulary=tuple(vocabulary),
            countries=store.countries,
            indptr=indptr,
            tokens=new_tokens[kept_mask].astype(np.int32),
            dates=np.asarray(self._store.dates[flat])[kept_mask].astype(np.int32),
            duns=np.asarray(store.duns[rows_kept]),
            name_indptr=name_indptr,
            name_bytes=np.asarray(store.name_bytes[name_flat]),
            country_code=np.asarray(store.country_code[rows_kept]),
            sic2=np.asarray(store.sic2[rows_kept]),
            n_sites=np.asarray(store.n_sites[rows_kept]),
            fingerprint=None,
            path=None,
        )
        return ColumnarCorpus(derived)

    # -- pickling (memmaps reopen from path in worker processes) ---------
    def __reduce__(self):
        if self._pristine:
            rows, ends = None, None
        else:
            rows, ends = np.asarray(self._rows), np.asarray(self._ends)
        if self._store.path is not None:
            return (
                _reopen_view,
                (str(self._store.path), rows, ends, self._fingerprint),
            )
        return (_rebuild_view, (self._store, rows, ends, self._fingerprint))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def open_corpus(path: str | Path) -> ColumnarCorpus:
    """Open a columnar corpus directory as a memmap-backed corpus."""
    return ColumnarCorpus(ColumnarStore.open(path))


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
    """Write any corpus (in-memory or columnar view) to a columnar directory.

    Streams ``batch_size`` companies at a time, so a large columnar view
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
