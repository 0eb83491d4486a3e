"""Round-trip and fault tests for the columnar on-disk corpus."""

import datetime as dt
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import (
    MANIFEST_NAME,
    ColumnarStore,
    CorpusFormatError,
    manifest_fingerprint,
    open_corpus,
    simulate_to_columnar,
    write_corpus,
)
from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from repro.experiments import make_experiment_data
from repro.serve import build_demo_service
from tests.corpus_strategies import DAYS, corpora


def _company(i, first_seen, *, country="US", sic2=80, n_sites=1):
    return Company(
        duns=DunsNumber.from_sequence(i),
        name=f"Company {i}",
        country=country,
        sic2=sic2,
        first_seen=first_seen,
        n_sites=n_sites,
    )


@pytest.fixture()
def corpus():
    companies = [
        _company(0, {"OS": dt.date(2000, 1, 1), "DBMS": dt.date(2005, 1, 1)}),
        _company(1, {"OS": dt.date(2001, 1, 1)}, country="DE", sic2=35),
        _company(2, {"retail": dt.date(2014, 6, 1), "OS": dt.date(2010, 1, 1)}),
        _company(3, {"DBMS": dt.date(1999, 3, 2)}, n_sites=4),
    ]
    return Corpus(companies, ("DBMS", "OS", "retail"))


@pytest.fixture()
def reopened(corpus, tmp_path):
    write_corpus(corpus, tmp_path / "c")
    return open_corpus(tmp_path / "c")


def _assert_equivalent(left: Corpus, right: Corpus):
    """Both corpora expose bit-identical views through the public API."""
    assert left.vocabulary == right.vocabulary
    assert left.n_companies == right.n_companies
    assert np.array_equal(left.binary_matrix(), right.binary_matrix())
    assert list(left.sequences()) == list(right.sequences())
    assert list(left.dated_sequences()) == list(right.dated_sequences())
    assert np.array_equal(left.industries(), right.industries())
    assert left.total_products() == right.total_products()
    assert list(left.companies) == list(right.companies)
    assert left.duns_values() == right.duns_values()
    assert left.names() == right.names()
    assert left.fingerprint() == right.fingerprint()


class TestRoundTrip:
    def test_write_reopen_is_bit_identical(self, corpus, reopened):
        assert type(reopened) is Corpus and reopened.store.path is not None
        _assert_equivalent(corpus, reopened)

    def test_manifest_fingerprint_matches_runtime_fingerprint(
        self, corpus, tmp_path
    ):
        manifest = write_corpus(corpus, tmp_path / "c")
        assert manifest["fingerprint"] == corpus.fingerprint()
        assert manifest_fingerprint(tmp_path / "c") == corpus.fingerprint()

    def test_split_views_match_in_memory_backend(self, tmp_path):
        data = make_experiment_data(60, seed=3)
        write_corpus(data.corpus, tmp_path / "c")
        columnar = open_corpus(tmp_path / "c")
        for mem_part, col_part in zip(
            data.corpus.split((0.7, 0.1, 0.2), seed=1),
            columnar.split((0.7, 0.1, 0.2), seed=1),
        ):
            _assert_equivalent(mem_part, col_part)

    def test_truncated_before_matches_in_memory_backend(self, corpus, reopened):
        cutoff = dt.date(2004, 1, 1)
        _assert_equivalent(
            corpus.truncated_before(cutoff), reopened.truncated_before(cutoff)
        )

    def test_restrict_vocabulary_matches_in_memory_backend(self, corpus, reopened):
        _assert_equivalent(
            corpus.restrict_vocabulary(("DBMS", "OS")),
            reopened.restrict_vocabulary(("DBMS", "OS")),
        )

    def test_binary_matrix_rows_chunking(self, reopened):
        full = reopened.binary_matrix()
        chunked = np.vstack(
            [chunk for __, chunk in reopened.iter_matrix_chunks(chunk_size=2)]
        )
        assert np.array_equal(full, chunked)
        assert np.array_equal(full[[2, 0]], reopened.binary_matrix(rows=[2, 0]))

    def test_views_survive_pickling(self, reopened):
        split = reopened.split((0.5, 0.25, 0.25), seed=0)
        revived = pickle.loads(pickle.dumps(split.train))
        _assert_equivalent(split.train, revived)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(10, 30))
    def test_simulated_round_trip_property(self, tmp_path_factory, seed, n):
        target = tmp_path_factory.mktemp("prop") / "c"
        simulate_to_columnar(target, n_companies=n, seed=seed, chunk_size=n)
        in_memory = make_experiment_data(n, seed=seed).corpus
        _assert_equivalent(in_memory, open_corpus(target))


@st.composite
def view_steps(draw, corpus: Corpus):
    """One view operation fit for ``corpus``, as a function of a corpus.

    A split part, a subset (duplicates allowed or not), a truncation at a
    drawn day, or a restriction to drawn categories in drawn order.
    """
    kind = draw(st.sampled_from(["split", "subset", "truncate", "restrict"]))
    if kind == "split":
        fractions = draw(st.sampled_from([(0.5, 0.5, 0.0), (0.7, 0.1, 0.2), (0.4, 0.3, 0.3)]))
        seed, part = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        return lambda view: list(view.split(fractions, seed=seed))[part]
    if kind == "subset" and corpus.n_companies:
        duplicates = draw(st.booleans())
        indices = draw(st.lists(st.integers(0, corpus.n_companies - 1), min_size=1,
                                max_size=8, unique=not duplicates))
        return lambda view: view.subset(indices, allow_duplicates=duplicates)
    if kind == "truncate":
        cutoff = draw(st.sampled_from(DAYS + (DAYS[-1] + dt.timedelta(days=1),)))
        return lambda view: view.truncated_before(cutoff)
    kept = draw(st.lists(st.sampled_from(corpus.vocabulary), min_size=1, unique=True))
    return lambda view: view.restrict_vocabulary(tuple(kept))


def _apply(step, view):
    """``step(view)``, or the message of the ``ValueError`` it raises."""
    try:
        return step(view)
    except ValueError as exc:
        return str(exc)


class TestChainedViewParity:
    """A corpus built in RAM and its reopened copy, under the same views."""

    @settings(max_examples=60, deadline=None)
    @given(corpus=corpora(), data=st.data())
    def test_chained_views_match_and_survive_pickling(
        self, tmp_path_factory, corpus, data
    ):
        target = tmp_path_factory.mktemp("chain") / "c"
        write_corpus(corpus, target)
        views = [corpus, open_corpus(target)]
        for depth in range(data.draw(st.integers(1, 3)) + 1):
            if depth:
                step = data.draw(view_steps(views[0]))
                views = [_apply(step, view) for view in views]
                if isinstance(views[0], str):
                    # Both refuse the step, with the same message.
                    assert views[0] == views[1]
                    return
            _assert_equivalent(*views)
            for view in views:
                _assert_equivalent(view, pickle.loads(pickle.dumps(view)))


class TestStreamingBuild:
    def test_same_seed_builds_fingerprint_identically(self, tmp_path):
        a = simulate_to_columnar(tmp_path / "a", n_companies=30, seed=5, chunk_size=7)
        b = simulate_to_columnar(tmp_path / "b", n_companies=30, seed=5, chunk_size=7)
        assert a["fingerprint"] == b["fingerprint"]

    def test_single_chunk_build_matches_in_memory_universe(self, tmp_path):
        simulate_to_columnar(tmp_path / "c", n_companies=40, seed=9, chunk_size=40)
        expected = make_experiment_data(40, seed=9).corpus.fingerprint()
        assert manifest_fingerprint(tmp_path / "c") == expected

    def test_chunked_build_is_deterministic_and_duns_unique(self, tmp_path):
        simulate_to_columnar(tmp_path / "c", n_companies=50, seed=2, chunk_size=8)
        columnar = open_corpus(tmp_path / "c")
        duns = [company.duns.value for company in columnar.companies]
        assert len(set(duns)) == len(duns) == 50

    def test_refuses_to_overwrite_existing_corpus(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c")
        with pytest.raises(FileExistsError):
            write_corpus(corpus, tmp_path / "c")


class TestFaults:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="missing manifest.json"):
            open_corpus(tmp_path / "nowhere")

    def test_torn_manifest(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c")
        manifest = tmp_path / "c" / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[: manifest.stat().st_size // 2])
        with pytest.raises(CorpusFormatError, match="corrupt manifest"):
            open_corpus(tmp_path / "c")

    def test_truncated_column_file(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c")
        tokens = tmp_path / "c" / "tokens.npy"
        raw = tokens.read_bytes()
        tokens.write_bytes(raw[: len(raw) - 4])
        with pytest.raises(CorpusFormatError, match="truncated"):
            open_corpus(tmp_path / "c")

    def test_missing_column_file(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c")
        os.remove(tmp_path / "c" / "dates.npy")
        with pytest.raises(CorpusFormatError, match="column file missing"):
            open_corpus(tmp_path / "c")

    def test_wrong_format_manifest(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c")
        manifest = tmp_path / "c" / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["format"] = "something-else"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match="manifest"):
            open_corpus(tmp_path / "c")

    def test_inconsistent_indptr(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c")
        indptr_path = tmp_path / "c" / "indptr.npy"
        indptr = np.load(indptr_path)
        indptr[-1] += 1
        np.save(indptr_path, indptr)
        with pytest.raises(CorpusFormatError):
            open_corpus(tmp_path / "c")

    def test_aborted_build_leaves_no_manifest(self, corpus, tmp_path):
        class Boom(RuntimeError):
            pass

        def exploding_batches():
            yield corpus.companies[:2]
            raise Boom()

        from repro.data.columnar import ColumnarWriter

        target = tmp_path / "c"
        with pytest.raises(Boom):
            with ColumnarWriter(target, corpus.vocabulary) as writer:
                for batch in exploding_batches():
                    writer.append(batch)
        assert not (target / MANIFEST_NAME).exists()
        with pytest.raises(CorpusFormatError, match="build did not complete"):
            open_corpus(target)


class TestMappedServing:
    """A stack served from a corpus directory reads its columns, not companies."""

    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        path = tmp_path / "corpus"
        simulate_to_columnar(path, n_companies=300, seed=7)
        return str(path)

    def test_bootstrap_rebuilds_each_company_at_most_once(self, corpus_dir, monkeypatch):
        rebuilt = []
        company = ColumnarStore.company

        def counting(self, row, start, end):
            rebuilt.append(row)
            return company(self, row, start, end)

        monkeypatch.setattr(ColumnarStore, "company", counting)
        service = build_demo_service(300, seed=7, lda_iterations=10, corpus_dir=corpus_dir)
        assert len(rebuilt) <= service.corpus.n_companies
        assert len(set(rebuilt)) == len(rebuilt)

        rebuilt.clear()
        duns = service.corpus.duns_values()[0]
        assert len(service.tool.similar_companies(duns, k=5)) == 5
        assert rebuilt == []

    def test_mapped_and_in_memory_stacks_answer_alike(self, corpus_dir):
        mapped = build_demo_service(300, seed=7, lda_iterations=10, corpus_dir=corpus_dir)
        in_memory = build_demo_service(300, seed=7, lda_iterations=10)
        for duns in mapped.corpus.duns_values()[:20]:
            assert mapped.tool.similar_companies(duns, k=5) == (
                in_memory.tool.similar_companies(duns, k=5)
            )
            assert mapped.tool.whitespace_report(duns) == (
                in_memory.tool.whitespace_report(duns)
            )
