"""Tests for the corpus abstraction."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import ColumnarWriter, open_corpus
from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from tests.corpus_strategies import DAYS, corpora, split_parts, vocabularies


def _company(i, first_seen, sic2=80):
    return Company(
        duns=DunsNumber.from_sequence(i),
        name=f"C{i}",
        country="US",
        sic2=sic2,
        first_seen=first_seen,
    )


@pytest.fixture()
def small_corpus():
    companies = [
        _company(0, {"OS": dt.date(2000, 1, 1), "DBMS": dt.date(2005, 1, 1)}),
        _company(1, {"OS": dt.date(2001, 1, 1)}),
        _company(2, {"retail": dt.date(2014, 6, 1), "OS": dt.date(2010, 1, 1)}),
    ]
    return Corpus(companies, ("DBMS", "OS", "retail"))


class TestConstruction:
    def test_requires_companies(self):
        with pytest.raises(ValueError, match="at least one company"):
            Corpus([], ("OS",))

    def test_requires_vocabulary(self, small_corpus):
        with pytest.raises(ValueError, match="non-empty"):
            Corpus(small_corpus.companies, ())

    def test_rejects_duplicate_vocabulary(self, small_corpus):
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(small_corpus.companies, ("OS", "OS"))

    def test_rejects_unknown_company_categories(self):
        company = _company(0, {"OS": dt.date(2000, 1, 1)})
        with pytest.raises(ValueError, match="outside the vocabulary"):
            Corpus([company], ("DBMS",))

    def test_from_companies_builds_sorted_union_vocabulary(self):
        companies = [
            _company(0, {"retail": dt.date(2000, 1, 1)}),
            _company(1, {"OS": dt.date(2000, 1, 1)}),
        ]
        corpus = Corpus.from_companies(companies)
        assert corpus.vocabulary == ("OS", "retail")


class TestViews:
    def test_binary_matrix(self, small_corpus):
        matrix = small_corpus.binary_matrix()
        expected = np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]], dtype=float)
        assert np.array_equal(matrix, expected)

    def test_sequences_time_sorted(self, small_corpus):
        sequences = small_corpus.sequences()
        # Company 0: OS (2000) then DBMS (2005).
        assert sequences[0] == [small_corpus.token("OS"), small_corpus.token("DBMS")]
        # Company 2: OS (2010) then retail (2014).
        assert sequences[2] == [small_corpus.token("OS"), small_corpus.token("retail")]

    def test_dated_sequences(self, small_corpus):
        dated = small_corpus.dated_sequences()
        assert dated[0][0] == (small_corpus.token("OS"), dt.date(2000, 1, 1))

    def test_token_category_roundtrip(self, small_corpus):
        for i, name in enumerate(small_corpus.vocabulary):
            assert small_corpus.token(name) == i
            assert small_corpus.category(i) == name

    def test_unknown_token_raises(self, small_corpus):
        with pytest.raises(KeyError):
            small_corpus.token("nonexistent")
        with pytest.raises(IndexError):
            small_corpus.category(99)

    def test_industries(self, small_corpus):
        assert np.array_equal(small_corpus.industries(), [80, 80, 80])

    def test_total_products(self, small_corpus):
        assert small_corpus.total_products() == 5


class TestSplit:
    def test_split_covers_all_companies(self, corpus):
        split = corpus.split((0.7, 0.1, 0.2), seed=0)
        total = split.train.n_companies + split.validation.n_companies + split.test.n_companies
        assert total == corpus.n_companies

    def test_split_is_disjoint(self, corpus):
        split = corpus.split((0.7, 0.1, 0.2), seed=0)
        names = lambda c: {x.duns.value for x in c.companies}
        assert not names(split.train) & names(split.test)
        assert not names(split.train) & names(split.validation)
        assert not names(split.validation) & names(split.test)

    def test_split_deterministic(self, corpus):
        a = corpus.split(seed=5)
        b = corpus.split(seed=5)
        assert [c.duns.value for c in a.train.companies] == [
            c.duns.value for c in b.train.companies
        ]

    def test_split_shares_vocabulary(self, corpus):
        split = corpus.split(seed=0)
        assert split.train.vocabulary == corpus.vocabulary
        assert split.test.vocabulary == corpus.vocabulary

    def test_split_iterable(self, corpus):
        train, valid, test = corpus.split(seed=0)
        assert train.n_companies > test.n_companies > 0
        assert valid.n_companies > 0

    def test_bad_fractions_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.split((0.5, 0.4, 0.3))

    def test_tiny_corpus_with_test_fraction_raises(self, small_corpus):
        with pytest.raises(ValueError, match="larger corpus"):
            small_corpus.split((0.9, 0.1, 0.0))  # rounds test away -> but frac 0 ok
            small_corpus.subset([0]).split((0.7, 0.1, 0.2))

    def test_rounded_away_fraction_never_leaks_a_train_company(self):
        # Regression: a positive fraction rounding to zero companies used to
        # substitute the first *training* company into that part, so the
        # model could be evaluated on a row it trained on.  It must raise.
        companies = [
            _company(i, {"OS": dt.date(2000 + i, 1, 1)}) for i in range(4)
        ]
        corpus = Corpus(companies, ("OS",))
        with pytest.raises(ValueError, match="yields no companies"):
            corpus.split((0.85, 0.05, 0.10), seed=0)

    def test_zero_fraction_part_is_a_true_empty_view(self):
        companies = [
            _company(i, {"OS": dt.date(2000 + i, 1, 1)}) for i in range(10)
        ]
        corpus = Corpus(companies, ("OS",))
        split = corpus.split((0.8, 0.2, 0.0), seed=3)
        assert split.test.n_companies == 0
        assert split.test.binary_matrix().shape == (0, 1)
        assert split.test.sequences() == []
        # ... and the zero part shares no company with train/validation.
        train_duns = {c.duns.value for c in split.train.companies}
        valid_duns = {c.duns.value for c in split.validation.companies}
        assert train_duns.isdisjoint(valid_duns)
        assert len(train_duns) + len(valid_duns) == corpus.n_companies


class TestSubsetValidation:
    def test_negative_indices_rejected(self, small_corpus):
        with pytest.raises(ValueError, match="negative indices"):
            small_corpus.subset([-1])

    def test_out_of_range_indices_rejected(self, small_corpus):
        with pytest.raises(ValueError, match=r"must be in \[0, 3\)"):
            small_corpus.subset([0, 3])

    def test_duplicate_indices_rejected_by_default(self, small_corpus):
        with pytest.raises(ValueError, match="duplicate"):
            small_corpus.subset([0, 0])

    def test_duplicates_allowed_when_opted_in(self, small_corpus):
        doubled = small_corpus.subset([0, 0], allow_duplicates=True)
        assert doubled.n_companies == 2
        assert doubled.companies[0] == doubled.companies[1]

    def test_non_integer_indices_rejected(self, small_corpus):
        with pytest.raises(TypeError, match="integer"):
            small_corpus.subset([0.5])


class TestSubsetAndTruncate:
    def test_subset(self, small_corpus):
        sub = small_corpus.subset([2, 0])
        assert sub.n_companies == 2
        assert sub.companies[0].name == "C2"

    def test_subset_requires_indices(self, small_corpus):
        with pytest.raises(ValueError):
            small_corpus.subset([])

    def test_truncated_before_drops_later_products(self, small_corpus):
        truncated = small_corpus.truncated_before(dt.date(2004, 1, 1))
        # Company 0 keeps only OS; company 2 (OS@2010) disappears entirely...
        kept = {c.name: set(c.categories) for c in truncated.companies}
        assert kept == {"C0": {"OS"}, "C1": {"OS"}}

    def test_truncated_before_everything_raises(self, small_corpus):
        with pytest.raises(ValueError, match="no company"):
            small_corpus.truncated_before(dt.date(1980, 1, 1))

    def test_truncation_preserves_vocabulary(self, small_corpus):
        truncated = small_corpus.truncated_before(dt.date(2004, 1, 1))
        assert truncated.vocabulary == small_corpus.vocabulary


def _assert_views_match_company_walk(corpus):
    """Every token-column view equals a ``sorted_categories()`` walk."""
    walk = [company.sorted_categories() for company in corpus.companies]
    sequences = [[corpus.token(name) for name, __ in records] for records in walk]
    assert corpus.sequences() == sequences
    assert corpus.dated_sequences() == [
        [(corpus.token(name), date) for name, date in records] for records in walk
    ]
    matrix = np.zeros((corpus.n_companies, corpus.n_products))
    for row, sequence in enumerate(sequences):
        matrix[row, sequence] = 1.0
    assert np.array_equal(corpus.binary_matrix(), matrix)
    assert corpus.total_products() == sum(len(company) for company in corpus.companies)
    assert corpus.duns_values() == [company.duns.value for company in corpus.companies]
    assert corpus.names() == [company.name for company in corpus.companies]


def _derived_views(corpus, cutoff, vocabulary):
    """Truncations and restrictions of ``corpus`` that leave a company."""
    views = []
    if any(d < cutoff for c in corpus.companies for d in c.first_seen.values()):
        views.append(corpus.truncated_before(cutoff))
    if any(set(vocabulary) & c.categories for c in corpus.companies):
        views.append(corpus.restrict_vocabulary(vocabulary))
    return views


class TestColumnParity:
    """The token columns against the company walk they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(corpus=corpora(), data=st.data())
    def test_every_view_matches_the_company_walk(self, corpus, data):
        subset = data.draw(
            st.lists(st.integers(0, corpus.n_companies - 1), min_size=1, unique=True)
        )
        cutoff = data.draw(st.sampled_from(DAYS))
        kept = [
            name for name in data.draw(vocabularies()) if name in corpus.vocabulary
        ] or [corpus.vocabulary[0]]
        bases = [corpus, *split_parts(corpus), corpus.subset(subset)]
        for base in bases:
            for view in [base, *_derived_views(base, cutoff, tuple(kept))]:
                _assert_views_match_company_walk(view)
                # A view of a view slices the sliced columns again.
                if view.n_companies:
                    _assert_views_match_company_walk(view.subset([view.n_companies - 1]))

    def test_empty_rows_before_an_unknown_category(self):
        companies = [
            _company(0, {}),
            _company(1, {"OS": dt.date(2000, 1, 1)}),
            _company(2, {"retail": dt.date(2001, 1, 1), "ERP": dt.date(2001, 1, 1),
                         "OS": dt.date(2002, 1, 1)}),
        ]
        message = "company 'C2' owns categories outside the vocabulary: ['ERP', 'retail']"
        with pytest.raises(ValueError) as corpus_error:
            Corpus(companies, ("OS",))
        assert str(corpus_error.value) == message

    def test_writer_rejects_a_batch_whole(self, tmp_path):
        good = _company(0, {"OS": dt.date(2000, 1, 1)})
        bad = _company(1, {"retail": dt.date(2001, 1, 1), "OS": dt.date(2001, 1, 1)})
        writer = ColumnarWriter(tmp_path / "c", ("OS",))
        with pytest.raises(ValueError) as writer_error:
            writer.append([good, bad])
        assert str(writer_error.value) == (
            "company 'C1' owns categories outside the vocabulary: ['retail']"
        )
        # The rejected batch left nothing behind: the store holds only what
        # was appended after it.
        writer.append([good])
        manifest = writer.close()
        assert manifest["n_tokens"] == 1
        expected = Corpus([good], ("OS",))
        reopened = open_corpus(tmp_path / "c")
        assert list(reopened.sequences()) == expected.sequences()
        assert reopened.fingerprint() == expected.fingerprint()
