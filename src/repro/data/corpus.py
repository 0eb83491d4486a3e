"""Corpus: the modelling view of a set of aggregated companies.

Section 2 of the paper defines two inputs for the models:

* ``A`` — the binary company x product matrix (equations 2–3), used by the
  non-sequential models (unigram, LDA, BPMF, TF-IDF transforms);
* ``A^S`` — per-company product sequences sorted by first-appearance date,
  used by the sequential models (n-gram, CHH, LSTM).

:class:`Corpus` materialises both views over a shared vocabulary and knows
how to split itself 70/10/20 into train/validation/test (Section 5) and how
to truncate itself at a date for the sliding-window recommendation harness.

It is the one corpus class: a row view — store rows plus each row's start
and end in the token columns — over a
:class:`~repro.data.columnar.ColumnarStore`.  ``Corpus(companies,
vocabulary)`` builds the store in RAM and keeps the companies;
:func:`~repro.data.columnar.open_corpus` maps it from a corpus directory.
Either way every view is the same code over the same columns: ``split``
and ``subset`` pick rows, ``truncated_before`` shortens each row to its
records before the cutoff, and ``restrict_vocabulary`` builds a derived
in-RAM store of the kept records, so no view walks or rebuilds companies.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator, Sequence

import numpy as np

from repro._validation import as_rng, check_fraction_triple
from repro.data.columnar import ColumnarStore, gather_ranges
from repro.data.company import Company

__all__ = ["Corpus", "CorpusSplit"]


@dataclass(frozen=True)
class CorpusSplit:
    """Train/validation/test partition of a corpus."""

    train: "Corpus"
    validation: "Corpus"
    test: "Corpus"

    def __iter__(self):
        return iter((self.train, self.validation, self.test))


class _LazyCompanies(Sequence):
    """Read-only ``Sequence[Company]`` rebuilding rows from the columns on access."""

    def __init__(self, corpus: "Corpus") -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.n_companies

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"company index {index} out of range")
        corpus = self._corpus
        return corpus._store.company(
            int(corpus._rows[i]), int(corpus._starts[i]), int(corpus._ends[i])
        )

    def __iter__(self) -> Iterator[Company]:
        for i in range(len(self)):
            yield self[i]


def _kept_per_row(keep: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many records of each row a flat ``keep`` mask holds."""
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[bounds[1:]] - kept_before[bounds[:-1]]


def _restore_view(source, rows, ends, fingerprint) -> "Corpus":
    """Unpickle a view: ``source`` is its store, or a mapped store's path."""
    store = ColumnarStore.open(source) if isinstance(source, str) else source
    corpus = Corpus._view(store, rows, ends)
    corpus._fingerprint = fingerprint
    return corpus


class Corpus:
    """Vocabulary-indexed view over aggregated companies.

    Parameters
    ----------
    companies:
        Aggregated (domestic-ultimate) companies.
    vocabulary:
        Category order defining the columns of the binary matrix and the
        token ids of the sequences.  Categories owned by a company but
        missing from the vocabulary raise — silent vocabulary drift between
        corpora is the classic source of irreproducible results.
    """

    def __init__(self, companies: list[Company], vocabulary: tuple[str, ...]) -> None:
        if not companies:
            raise ValueError("corpus must contain at least one company")
        if len(set(vocabulary)) != len(vocabulary):
            raise ValueError("vocabulary contains duplicate categories")
        if not vocabulary:
            raise ValueError("vocabulary must be non-empty")
        self._bind(ColumnarStore.from_companies(list(companies), tuple(vocabulary)))

    @classmethod
    def _view(
        cls,
        store: ColumnarStore,
        rows: np.ndarray | None = None,
        ends: np.ndarray | None = None,
    ) -> "Corpus":
        """View over ``store``: every row whole, or ``rows`` ending at ``ends``."""
        corpus = cls.__new__(cls)
        corpus._bind(store, rows, ends)
        return corpus

    def _bind(
        self,
        store: ColumnarStore,
        rows: np.ndarray | None = None,
        ends: np.ndarray | None = None,
    ) -> None:
        """Point this view at ``store``'s ``rows``, each ending at ``ends``.

        Row ``i`` of the view owns the token-column records
        ``[starts[i], ends[i])``, its start the store row's.  Without
        ``rows`` the view is every store row, uncut.  A zero-row view (a
        split fraction of exactly zero) is representable.
        """
        self._store = store
        self._vocabulary = store.vocabulary
        self._token = {name: i for i, name in enumerate(self._vocabulary)}
        self._fingerprint: str | None = None
        self._companies: Sequence[Company] | None = None
        indptr = np.asarray(store.indptr, dtype=np.int64)
        self._pristine = rows is None
        if rows is None:
            self._rows = np.arange(store.n_companies, dtype=np.int64)
            self._starts, self._ends = indptr[:-1], indptr[1:]
        else:
            self._rows = np.asarray(rows, dtype=np.int64)
            self._starts = indptr[self._rows]
            self._ends = np.asarray(ends, dtype=np.int64)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnarStore:
        """The backing column store (shared across views)."""
        return self._store

    @property
    def companies(self) -> Sequence[Company]:
        """The view's companies, in row order (shared, do not mutate).

        When the store keeps the companies it was built from, this is a
        list holding those same objects for every row the view has not
        cut; a cut row is rebuilt from the columns.  A mapped or derived
        store keeps none, and the rows are rebuilt on access instead.
        """
        if self._companies is None:
            kept = self._store.companies
            if kept is None:
                self._companies = _LazyCompanies(self)
            else:
                whole = self._ends == np.asarray(self._store.indptr)[self._rows + 1]
                self._companies = [
                    kept[row] if intact else self._store.company(row, start, end)
                    for row, intact, start, end in zip(
                        self._rows.tolist(),
                        whole.tolist(),
                        self._starts.tolist(),
                        self._ends.tolist(),
                    )
                ]
        return self._companies

    @property
    def vocabulary(self) -> tuple[str, ...]:
        """Category names in column/token order."""
        return self._vocabulary

    @property
    def n_companies(self) -> int:
        """Number of companies (matrix rows)."""
        return len(self._rows)

    @property
    def n_products(self) -> int:
        """Vocabulary size M (matrix columns)."""
        return len(self._vocabulary)

    def token(self, category: str) -> int:
        """Token id of a category name."""
        try:
            return self._token[category]
        except KeyError:
            raise KeyError(f"category {category!r} not in vocabulary") from None

    def category(self, token: int) -> str:
        """Category name of a token id."""
        if not 0 <= token < len(self._vocabulary):
            raise IndexError(f"token {token} out of range")
        return self._vocabulary[token]

    def __len__(self) -> int:
        return self.n_companies

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        source = self._store.path or "<memory>"
        return (
            f"Corpus(n_companies={self.n_companies}, n_products={self.n_products}, "
            f"source={source})"
        )

    # ------------------------------------------------------------------
    # Columnar token arrays (shared substrate of every view)
    # ------------------------------------------------------------------
    def token_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, tokens)``: per-row slices into a flat token column.

        ``tokens[starts[i]:ends[i]]`` are row ``i``'s token ids in
        first-seen order (date, then category name): the sequence
        ``A^S_i`` without a Python list per row.  ``tokens`` is the store's
        own column, mapped from disk for an opened corpus.
        """
        return self._starts, self._ends, self._store.tokens

    def _records(self) -> tuple[np.ndarray, np.ndarray]:
        """Where this view's records sit in the store's token columns.

        Returns ``(flat, bounds)``: row ``i``'s records are at
        ``flat[bounds[i]:bounds[i + 1]]``.
        """
        lengths = self._ends - self._starts
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        return gather_ranges(self._starts, lengths), bounds

    # ------------------------------------------------------------------
    # Model inputs
    # ------------------------------------------------------------------
    def binary_matrix(self, rows: np.ndarray | list[int] | None = None) -> np.ndarray:
        """The matrix ``A`` of Section 2: shape (N, M), dtype float64, 0/1.

        ``rows`` selects a subset of matrix rows (in the given order), so
        large corpora can be streamed in bounded-memory chunks:
        ``corpus.binary_matrix(rows=range(0, 4096))`` materialises only that
        chunk.  The default materialises every company, exactly as before.
        """
        starts, ends, tokens = self.token_rows()
        if rows is not None:
            index = np.asarray(rows)
            if index.dtype.kind not in "iu":
                if index.size == 0:
                    index = index.astype(np.int64)
                else:
                    raise TypeError(
                        f"rows must be integer indices, got dtype {index.dtype}"
                    )
            index = index.ravel().astype(np.int64)
            if index.size and (index.min() < 0 or index.max() >= len(starts)):
                raise IndexError(
                    f"rows out of range for corpus of {len(starts)} companies"
                )
            starts, ends = starts[index], ends[index]
        lengths = ends - starts
        matrix = np.zeros((len(starts), self.n_products))
        flat = gather_ranges(starts, lengths)
        if flat.size:
            row_ids = np.repeat(np.arange(len(starts)), lengths)
            matrix[row_ids, np.asarray(tokens[flat], dtype=np.int64)] = 1.0
        return matrix

    def iter_matrix_chunks(self, chunk_size: int = 8192):
        """Yield ``(row_offset, chunk_matrix)`` pairs covering every company.

        The streaming counterpart of :meth:`binary_matrix` for evaluators
        that scan the universe without holding the dense ``(N, M)`` array.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for lo in range(0, self.n_companies, chunk_size):
            hi = min(lo + chunk_size, self.n_companies)
            yield lo, self.binary_matrix(rows=np.arange(lo, hi))

    def sequences(self) -> list[list[int]]:
        """The sequences ``A^S``: token ids sorted by first-seen date."""
        flat, bounds = self._records()
        tokens = self._store.tokens[flat].tolist()
        return [tokens[lo:hi] for lo, hi in pairwise(bounds.tolist())]

    def dated_sequences(self) -> list[list[tuple[int, dt.date]]]:
        """Sequences with their first-seen dates, for windowed evaluation."""
        flat, bounds = self._records()
        dated = list(
            zip(
                self._store.tokens[flat].tolist(),
                map(dt.date.fromordinal, self._store.dates[flat].tolist()),
            )
        )
        return [dated[lo:hi] for lo, hi in pairwise(bounds.tolist())]

    def industries(self) -> np.ndarray:
        """SIC2 code per company, aligned with matrix rows."""
        return np.asarray(self._store.sic2[self._rows], dtype=np.int64)

    def duns_values(self) -> list[str]:
        """D-U-N-S value per company, aligned with matrix rows.

        Read from the store's column, so unlike a walk over
        :attr:`companies` it rebuilds no ``Company`` of a mapped corpus.
        """
        return [value.decode("ascii") for value in self._store.duns[self._rows].tolist()]

    def names(self) -> list[str]:
        """Company name per company, aligned with matrix rows.

        Decoded from the store's name column, like :meth:`duns_values`.
        """
        offsets = np.asarray(self._store.name_indptr, dtype=np.int64)
        lengths = offsets[self._rows + 1] - offsets[self._rows]
        blob = self._store.name_bytes[gather_ranges(offsets[self._rows], lengths)].tobytes()
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        return [blob[lo:hi].decode("utf-8") for lo, hi in pairwise(bounds.tolist())]

    def total_products(self) -> int:
        """Total number of (company, product) pairs — the ``n`` of perplexity."""
        return int((self._ends - self._starts).sum())

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hex digest of the corpus's full modelling content.

        Covers the vocabulary (order included — it defines token ids) and,
        per company, identity, firmographics and every install record
        (category + first-seen date).  Two corpora with identical
        fingerprints produce identical binary matrices, sequences and
        truncations.  Computed once and cached; an opened corpus, before
        any view is taken, reads it from its manifest instead of walking N
        rows.
        """
        if self._fingerprint is None:
            if self._pristine and self._store.fingerprint is not None:
                self._fingerprint = self._store.fingerprint
            else:
                digest = hashlib.sha256(repr(self._vocabulary).encode())
                self._store.digest_rows(digest, self._rows, self._starts, self._ends)
                self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def split(
        self,
        fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> CorpusSplit:
        """Random 70/10/20 company-level split (Section 5's protocol).

        Every resulting part shares this corpus's vocabulary.  Fractions
        must sum to one.  A part whose fraction is exactly zero comes back
        as a true empty corpus view; a *positive* fraction that rounds to
        zero companies raises instead — a training company is never
        substituted into validation or test, so no part can silently
        evaluate on a train row.
        """
        train_frac, valid_frac, __ = check_fraction_triple(fractions)
        rng = as_rng(seed)
        order = rng.permutation(self.n_companies)
        n_train = int(round(train_frac * self.n_companies))
        n_valid = int(round(valid_frac * self.n_companies))
        n_train = max(1, min(n_train, self.n_companies))
        train_idx = order[:n_train]
        valid_idx = order[n_train : n_train + n_valid]
        test_idx = order[n_train + n_valid :]
        for name, index, fraction in (
            ("validation", valid_idx, fractions[1]),
            ("test", test_idx, fractions[2]),
        ):
            if len(index) == 0 and fraction > 0:
                raise ValueError(
                    f"{name} fraction {fraction} yields no companies for corpus "
                    f"of size {self.n_companies}; use a larger corpus"
                )
        return CorpusSplit(
            train=self._select(train_idx),
            validation=self._select(valid_idx),
            test=self._select(test_idx),
        )

    def _select(self, indices: np.ndarray) -> "Corpus":
        """View of already-validated row indices (may be empty)."""
        index = np.asarray(indices, dtype=np.int64).ravel()
        return Corpus._view(self._store, self._rows[index], self._ends[index])

    def subset(
        self,
        indices: np.ndarray | list[int],
        *,
        allow_duplicates: bool = False,
    ) -> "Corpus":
        """Corpus over a subset of companies, preserving the vocabulary.

        Indices must be unique integers in ``[0, n_companies)``: negative
        indices are rejected rather than Python-wrapped, and duplicates are
        rejected so an evaluation subset can never silently double-count a
        company.  ``allow_duplicates=True`` opts into repetition for callers
        that genuinely want it (e.g. scoring-additivity checks).
        """
        array = np.asarray(indices)
        if array.size == 0:
            raise ValueError("subset requires at least one index")
        if array.dtype.kind not in "iu":
            raise TypeError(
                f"subset indices must be integers, got dtype {array.dtype}"
            )
        array = array.ravel().astype(np.int64)
        if int(array.min()) < 0 or int(array.max()) >= self.n_companies:
            raise ValueError(
                f"subset indices must be in [0, {self.n_companies}); negative "
                "indices are not wrapped"
            )
        if not allow_duplicates and len(np.unique(array)) != len(array):
            raise ValueError(
                "subset indices contain duplicates; a company would be "
                "double-counted (pass allow_duplicates=True to permit this)"
            )
        return self._select(array)

    def truncated_before(self, cutoff: dt.date) -> "Corpus":
        """Corpus containing only products first seen strictly before ``cutoff``.

        This is the training view of a sliding recommendation window: "all
        the previous information that happened before the start of a sliding
        window is used for model training" (Section 4.3).  Companies with no
        products before the cutoff are dropped.  Each row's records are
        date-sorted, so the kept ones are a prefix: the view keeps the same
        store and moves each row's end.
        """
        flat, bounds = self._records()
        before = np.asarray(self._store.dates[flat]) < cutoff.toordinal()
        counts = _kept_per_row(before, bounds)
        keep = counts > 0
        if not keep.any():
            raise ValueError(f"no company has any product before {cutoff}")
        return Corpus._view(
            self._store, self._rows[keep], self._starts[keep] + counts[keep]
        )

    def restrict_vocabulary(self, vocabulary: tuple[str, ...]) -> "Corpus":
        """Project the corpus onto a smaller vocabulary (Section 2's 91 -> 38).

        Products outside ``vocabulary`` are dropped from every company;
        companies left without any product are removed.  This is the
        restriction step the paper applies to keep only the hardware and
        low-level-management categories.  Token ids change, so the result
        is a view over a derived in-RAM store of the kept records.
        """
        if len(set(vocabulary)) != len(vocabulary) or not vocabulary:
            raise ValueError("vocabulary must be non-empty and duplicate-free")
        unknown = set(vocabulary) - set(self._vocabulary)
        if unknown:
            raise ValueError(
                f"restriction vocabulary contains unknown categories: {sorted(unknown)}"
            )
        mapping = np.full(len(self._vocabulary), -1, dtype=np.int32)
        mapping[[self._token[category] for category in vocabulary]] = np.arange(
            len(vocabulary)
        )
        store = self._store
        flat, bounds = self._records()
        tokens = mapping[np.asarray(store.tokens[flat])]
        kept_records = tokens >= 0
        counts = _kept_per_row(kept_records, bounds)
        keep = counts > 0
        if not keep.any():
            raise ValueError("restriction removed every company from the corpus")
        rows = self._rows[keep]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts[keep], out=indptr[1:])
        name_offsets = np.asarray(store.name_indptr, dtype=np.int64)
        name_lengths = name_offsets[rows + 1] - name_offsets[rows]
        name_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(name_lengths, out=name_indptr[1:])
        derived = ColumnarStore(
            vocabulary=tuple(vocabulary),
            countries=store.countries,
            indptr=indptr,
            tokens=tokens[kept_records],
            dates=np.asarray(store.dates[flat])[kept_records],
            duns=np.asarray(store.duns[rows]),
            name_indptr=name_indptr,
            name_bytes=np.asarray(
                store.name_bytes[gather_ranges(name_offsets[rows], name_lengths)]
            ),
            country_code=np.asarray(store.country_code[rows]),
            sic2=np.asarray(store.sic2[rows]),
            n_sites=np.asarray(store.n_sites[rows]),
        )
        return Corpus._view(derived)

    @classmethod
    def from_companies(cls, companies: list[Company]) -> "Corpus":
        """Build a corpus whose vocabulary is the sorted union of categories."""
        vocabulary = tuple(sorted({c for company in companies for c in company.categories}))
        return cls(companies, vocabulary)

    # ------------------------------------------------------------------
    # Pickling: a mapped store reopens from its path in worker processes,
    # an in-RAM store travels whole.
    # ------------------------------------------------------------------
    def __reduce__(self):
        rows, ends = (None, None) if self._pristine else (self._rows, self._ends)
        source = self._store if self._store.path is None else str(self._store.path)
        return (_restore_view, (source, rows, ends, self._fingerprint))
