"""Corpus: the modelling view of a set of aggregated companies.

Section 2 of the paper defines two inputs for the models:

* ``A`` — the binary company x product matrix (equations 2–3), used by the
  non-sequential models (unigram, LDA, BPMF, TF-IDF transforms);
* ``A^S`` — per-company product sequences sorted by first-appearance date,
  used by the sequential models (n-gram, CHH, LSTM).

:class:`Corpus` materialises both views over a shared vocabulary and knows
how to split itself 70/10/20 into train/validation/test (Section 5) and how
to truncate itself at a date for the sliding-window recommendation harness.

Two implementations share the API: this in-memory class over
:class:`~repro.data.company.Company` objects, and the memmap-backed
:class:`~repro.data.columnar.ColumnarCorpus` over an on-disk columnar
store.  Both serve every view from the same CSR token columns: a root
in-memory corpus builds them once with :func:`token_columns` (which the
columnar writer also uses), and its splits, subsets, truncations and
restrictions slice the parent's columns, so the views are bit-identical
across backends.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from itertools import chain, pairwise, repeat
from typing import Mapping, Sequence

import numpy as np

from repro._validation import as_rng, check_fraction_triple
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


def token_columns(
    companies: Sequence[Company], token: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR install-base columns ``(indptr, tokens, dates)`` of ``companies``.

    Company ``i``'s products are ``tokens[indptr[i]:indptr[i + 1]]``
    (``int32`` ids from ``token``) with their first-seen dates as
    proleptic-Gregorian ordinals (``int32``), in the order of
    :meth:`Company.sorted_categories`: by date, then category name.  The
    one code path from companies to columns, shared by :class:`Corpus` and
    the columnar writer.  It checks the vocabulary on the same pass: the
    first company owning a category missing from ``token`` raises
    ``ValueError``.
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
        name_rank = np.empty(len(token), dtype=np.int64)
        name_rank[[token[name] for name in sorted(token)]] = np.arange(len(token))
        day = dates.astype(np.int64) - int(dates.min())
        span = int(day.max()) + 1
        row = np.repeat(np.arange(len(first_seen), dtype=np.int64), lengths)
        order = np.argsort((row * span + day) * len(token) + name_rank[tokens], kind="stable")
        tokens, dates = tokens[order], dates[order]
    return indptr, tokens, dates


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
        self._companies = list(companies)
        self._vocabulary = tuple(vocabulary)
        self._token = {name: i for i, name in enumerate(self._vocabulary)}
        self._fingerprint: str | None = None
        self._indptr, self._tokens, self._dates = token_columns(
            self._companies, self._token
        )

    @classmethod
    def _from_columns(
        cls,
        companies: list[Company],
        vocabulary: tuple[str, ...],
        columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> "Corpus":
        """View over companies whose ``(indptr, tokens, dates)`` are known.

        Internal constructor of the derived views (:meth:`split`,
        :meth:`subset`, :meth:`truncated_before`,
        :meth:`restrict_vocabulary`): they slice the parent's columns, so
        no company is walked or re-validated, and a zero-company part (a
        fraction of exactly zero) is representable.
        """
        corpus = cls.__new__(cls)
        corpus._companies = companies
        corpus._vocabulary = tuple(vocabulary)
        corpus._token = {name: i for i, name in enumerate(corpus._vocabulary)}
        corpus._fingerprint = None
        corpus._indptr, corpus._tokens, corpus._dates = columns
        return corpus

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def companies(self) -> list[Company]:
        """The underlying companies (shared, do not mutate)."""
        return self._companies

    @property
    def vocabulary(self) -> tuple[str, ...]:
        """Category names in column/token order."""
        return self._vocabulary

    @property
    def n_companies(self) -> int:
        """Number of companies (matrix rows)."""
        return len(self._companies)

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
        return f"Corpus(n_companies={self.n_companies}, n_products={self.n_products})"

    # ------------------------------------------------------------------
    # Columnar token arrays (shared substrate of every view)
    # ------------------------------------------------------------------
    def token_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, tokens)``: per-row slices into a flat token column.

        ``tokens[starts[i]:ends[i]]`` are row ``i``'s token ids in
        first-seen order (date, then category name): the sequence
        ``A^S_i`` without a Python list per row.  The memmap-backed corpus
        serves the same triple straight from its on-disk columns.
        """
        return self._indptr[:-1], self._indptr[1:], self._tokens

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
        tokens = self._tokens.tolist()
        return [tokens[start:end] for start, end in pairwise(self._indptr.tolist())]

    def dated_sequences(self) -> list[list[tuple[int, dt.date]]]:
        """Sequences with their first-seen dates, for windowed evaluation."""
        dated = list(
            zip(self._tokens.tolist(), map(dt.date.fromordinal, self._dates.tolist()))
        )
        return [dated[start:end] for start, end in pairwise(self._indptr.tolist())]

    def industries(self) -> np.ndarray:
        """SIC2 code per company, aligned with matrix rows."""
        return np.array([company.sic2 for company in self._companies], dtype=np.int64)

    def total_products(self) -> int:
        """Total number of (company, product) pairs — the ``n`` of perplexity."""
        return int(self._indptr[-1])

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hex digest of the corpus's full modelling content.

        Covers the vocabulary (order included — it defines token ids) and,
        per company, identity, firmographics and every install record
        (category + first-seen date).  Two corpora with identical
        fingerprints produce identical binary matrices, sequences and
        truncations.  Computed once and cached (companies are not to be
        mutated); the columnar corpus reads it from its manifest instead
        of walking N rows.
        """
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(self._vocabulary).encode())
        for company in self._companies:
            update_fingerprint(digest, company)
        return digest.hexdigest()

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
        """Index view over already-validated row indices (may be empty)."""
        index = np.asarray(indices, dtype=np.int64)
        starts = self._indptr[index]
        lengths = self._indptr[index + 1] - starts
        flat = gather_ranges(starts, lengths)
        indptr = np.zeros(len(index) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return Corpus._from_columns(
            [self._companies[i] for i in index.tolist()],
            self._vocabulary,
            (indptr, self._tokens[flat], self._dates[flat]),
        )

    def _filtered(
        self,
        companies: list[Company],
        vocabulary: tuple[str, ...],
        keep: np.ndarray,
        tokens: np.ndarray,
    ) -> "Corpus":
        """View keeping the records where ``keep`` holds; emptied rows go.

        ``companies`` are this corpus's companies cut the same way and
        ``tokens`` the token column in ``vocabulary``'s ids.  Filtering
        keeps each row's (date, name) order, so the kept records need no
        re-sort.
        """
        kept_before = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
        counts = kept_before[self._indptr[1:]] - kept_before[self._indptr[:-1]]
        indptr = np.zeros(len(companies) + 1, dtype=np.int64)
        np.cumsum(counts[counts > 0], out=indptr[1:])
        return Corpus._from_columns(
            companies, vocabulary, (indptr, tokens[keep], self._dates[keep])
        )

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
        products before the cutoff are dropped.
        """
        truncated = []
        for company in self._companies:
            kept = {c: d for c, d in company.first_seen.items() if d < cutoff}
            if kept:
                truncated.append(
                    Company(
                        duns=company.duns,
                        name=company.name,
                        country=company.country,
                        sic2=company.sic2,
                        first_seen=kept,
                        n_sites=company.n_sites,
                    )
                )
        if not truncated:
            raise ValueError(f"no company has any product before {cutoff}")
        keep = self._dates < cutoff.toordinal()
        return self._filtered(truncated, self._vocabulary, keep, self._tokens)

    def restrict_vocabulary(self, vocabulary: tuple[str, ...]) -> "Corpus":
        """Project the corpus onto a smaller vocabulary (Section 2's 91 -> 38).

        Products outside ``vocabulary`` are dropped from every company;
        companies left without any product are removed.  This is the
        restriction step the paper applies to keep only the hardware and
        low-level-management categories.
        """
        if len(set(vocabulary)) != len(vocabulary) or not vocabulary:
            raise ValueError("vocabulary must be non-empty and duplicate-free")
        keep = set(vocabulary)
        unknown = keep - set(self._vocabulary)
        if unknown:
            raise ValueError(
                f"restriction vocabulary contains unknown categories: {sorted(unknown)}"
            )
        restricted = []
        for company in self._companies:
            kept = {c: d for c, d in company.first_seen.items() if c in keep}
            if kept:
                restricted.append(
                    Company(
                        duns=company.duns,
                        name=company.name,
                        country=company.country,
                        sic2=company.sic2,
                        first_seen=kept,
                        n_sites=company.n_sites,
                    )
                )
        if not restricted:
            raise ValueError("restriction removed every company from the corpus")
        mapping = np.full(len(self._vocabulary), -1, dtype=np.int32)
        mapping[[self._token[category] for category in vocabulary]] = np.arange(
            len(vocabulary)
        )
        tokens = mapping[self._tokens]
        return self._filtered(restricted, tuple(vocabulary), tokens >= 0, tokens)

    @classmethod
    def from_companies(cls, companies: list[Company]) -> "Corpus":
        """Build a corpus whose vocabulary is the sorted union of categories."""
        vocabulary = tuple(sorted({c for company in companies for c in company.categories}))
        return cls(companies, vocabulary)


def update_fingerprint(digest, company: Company) -> None:
    """Feed one company's modelling content into a corpus digest.

    The canonical per-company block of the corpus fingerprint: identity,
    firmographics and the (category, first-seen) records sorted
    alphabetically.  Shared by the in-memory walk, the columnar writer
    (which digests companies as they stream to disk) and the columnar
    row walk, so all three produce byte-identical fingerprints for the
    same content.
    """
    records = sorted(
        (category, date.isoformat()) for category, date in company.first_seen.items()
    )
    digest.update(
        repr(
            (
                company.duns.value,
                company.name,
                company.country,
                company.sic2,
                company.n_sites,
                records,
            )
        ).encode()
    )
