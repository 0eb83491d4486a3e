"""Model-specific tests for the unigram and n-gram baselines."""

import datetime as dt
import tempfile
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import open_corpus, write_corpus
from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber
from repro.models.ngram import NGramModel
from repro.models.unigram import UnigramModel
from tests.corpus_strategies import corpora, split_parts


def _corpus_from_sequences(sequences, vocabulary):
    """Build a corpus whose time-sorted sequences equal ``sequences``."""
    companies = []
    for i, seq in enumerate(sequences):
        first_seen = {
            vocabulary[token]: dt.date(2000, 1, 1) + dt.timedelta(days=30 * t)
            for t, token in enumerate(seq)
        }
        companies.append(
            Company(
                duns=DunsNumber.from_sequence(i),
                name=f"C{i}",
                country="US",
                sic2=80,
                first_seen=first_seen,
            )
        )
    return Corpus(companies, vocabulary)


VOCAB = ("a", "b", "c", "d")


class TestUnigram:
    def test_probabilities_match_frequencies(self):
        corpus = _corpus_from_sequences([[0, 1], [0, 2], [0, 3]], VOCAB)
        model = UnigramModel(smoothing=1e-9).fit(corpus)
        assert model.proba[0] == pytest.approx(0.5, abs=1e-6)
        assert model.proba[1] == pytest.approx(1 / 6, abs=1e-6)

    def test_probabilities_sum_to_one(self, split):
        model = UnigramModel().fit(split.train)
        assert model.proba.sum() == pytest.approx(1.0)

    def test_smoothing_keeps_unseen_products_finite(self):
        corpus = _corpus_from_sequences([[0, 1]], VOCAB)
        model = UnigramModel().fit(corpus)
        held_out = _corpus_from_sequences([[2, 3]], VOCAB)
        assert np.isfinite(model.log_prob(held_out))

    def test_history_does_not_change_prediction(self, split):
        model = UnigramModel().fit(split.train)
        assert np.allclose(
            model.next_product_proba([]), model.next_product_proba([0, 1, 2])
        )

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            UnigramModel(smoothing=0.0)


class TestNGram:
    def test_bigram_learns_transition(self):
        # 'a' is always followed by 'b'.
        corpus = _corpus_from_sequences([[0, 1], [0, 1], [0, 1], [0, 1]], VOCAB)
        model = NGramModel(order=2, interpolation=0.9).fit(corpus)
        proba = model.next_product_proba([0])
        assert proba.argmax() == 1
        assert proba[1] > 0.8

    def test_bos_context_learns_first_product(self):
        corpus = _corpus_from_sequences([[2, 0], [2, 1], [2, 3]], VOCAB)
        model = NGramModel(order=2, interpolation=0.9).fit(corpus)
        proba = model.next_product_proba([])
        assert proba.argmax() == 2

    def test_conditional_distributions_sum_to_one(self, split):
        model = NGramModel(order=2).fit(split.train)
        for history in ([], [0], [5, 3], [1, 2, 3, 4]):
            assert model.next_product_proba(history).sum() == pytest.approx(1.0)

    def test_trigram_uses_two_tokens_of_context(self):
        # 'c' follows (a, b) but 'd' follows (b, a): order matters.
        corpus = _corpus_from_sequences(
            [[0, 1, 2], [0, 1, 2], [1, 0, 3], [1, 0, 3]], VOCAB
        )
        model = NGramModel(order=3, interpolation=0.95).fit(corpus)
        assert model.next_product_proba([0, 1]).argmax() == 2
        assert model.next_product_proba([1, 0]).argmax() == 3

    def test_unseen_context_backs_off_to_unigram(self):
        corpus = _corpus_from_sequences([[0, 1], [0, 1], [2, 3]], VOCAB)
        model = NGramModel(order=2, interpolation=0.9).fit(corpus)
        backoff = model.next_product_proba([3])  # context 'd' never seen
        assert np.all(backoff > 0.0)
        assert backoff.sum() == pytest.approx(1.0)

    def test_order_one_equals_sequence_unigram(self, split):
        model = NGramModel(order=1).fit(split.train)
        assert np.allclose(
            model.next_product_proba([]), model.next_product_proba([0])
        )

    def test_sequence_log_prob_additive(self):
        corpus = _corpus_from_sequences([[0, 1, 2]], VOCAB)
        model = NGramModel(order=2).fit(corpus)
        total = model.sequence_log_prob([0, 1, 2])
        assert total < 0.0
        assert np.isfinite(total)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_log_prob_computes_each_context_once(self, split, order, monkeypatch):
        model = NGramModel(order=order).fit(split.train)
        sequences = split.validation.sequences()
        expected = sum(model.sequence_log_prob(seq) for seq in sequences)
        contexts = []
        conditional = NGramModel._conditional

        def counting(self, context):
            contexts.append(context)
            return conditional(self, context)

        monkeypatch.setattr(NGramModel, "_conditional", counting)
        assert model.log_prob(split.validation) == expected  # bit-identical
        assert len(contexts) == len(set(contexts))

    def test_rules_extraction(self):
        corpus = _corpus_from_sequences([[0, 1]] * 10, VOCAB)
        model = NGramModel(order=2).fit(corpus)
        rules = model.rules(min_count=5, min_confidence=0.5)
        assert ((0,), 1) in [(ctx, nxt) for ctx, nxt, *__ in rules]
        for __, __, confidence, count in rules:
            assert confidence >= 0.5
            assert count >= 5

    def test_rules_empty_for_unigram_order(self, split):
        assert NGramModel(order=1).fit(split.train).rules() == []

    def test_invalid_parameters(self):
        with pytest.raises((ValueError, TypeError)):
            NGramModel(order=0)
        with pytest.raises(ValueError):
            NGramModel(order=2, interpolation=1.5)

    def test_bigram_beats_unigram_on_sequential_data(self, split):
        unigram = UnigramModel().fit(split.train)
        bigram = NGramModel(order=2).fit(split.train)
        assert bigram.perplexity(split.test) < unigram.perplexity(split.test)


def _reference_fit(model, corpus):
    """``model`` fitted by the per-token ``Counter`` walk over ``sequences()``.

    The loop the column-counting fit replaced, kept verbatim as its
    reference: the fit must agree with it to the bit, including the order
    in which contexts and next tokens enter the count tables.
    """
    vocab = corpus.n_products
    unigram_counts = np.full(vocab, model.smoothing)
    counts = [defaultdict(Counter) for __ in range(model.order - 1)]
    totals = [defaultdict(int) for __ in range(model.order - 1)]
    for seq in corpus.sequences():
        padded = [model.BOS] * (model.order - 1) + seq
        for t, token in enumerate(seq):
            unigram_counts[token] += 1.0
            position = t + model.order - 1
            for level in range(1, model.order):
                context = tuple(padded[position - level : position])
                counts[level - 1][context][token] += 1
                totals[level - 1][context] += 1
    model._unigram = unigram_counts / unigram_counts.sum()
    model._counts = [dict(level) for level in counts]
    model._totals = [dict(level) for level in totals]
    model._vocab_size = vocab
    return model


def _assert_same_fit(fitted, reference):
    """Equal unigram bits, count tables in insertion order and state arrays."""
    assert fitted._unigram.tobytes() == reference._unigram.tobytes()
    assert fitted._vocab_size == reference._vocab_size
    for ours, theirs in zip(fitted._counts, reference._counts, strict=True):
        assert list(ours) == list(theirs)
        for context, counter in ours.items():
            assert type(counter) is Counter
            assert list(counter.items()) == list(theirs[context].items())
    for ours, theirs in zip(fitted._totals, reference._totals, strict=True):
        assert list(ours.items()) == list(theirs.items())
    state, expected = fitted._get_state(), reference._get_state()
    assert state.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert state[key].dtype == value.dtype
            assert state[key].tobytes() == value.tobytes(), key
        else:
            assert state[key] == value, key


class TestFitParity:
    """The column-counting fit against the per-token walk it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        corpus=corpora(),
        order=st.integers(1, 3),
        smoothing=st.sampled_from([0.5, 0.1, 1e-3, 2.75]),
    )
    def test_fit_matches_the_per_token_walk(self, corpus, order, smoothing):
        for part in [corpus, *split_parts(corpus)]:
            fitted = NGramModel(order=order, smoothing=smoothing).fit(part)
            reference = _reference_fit(NGramModel(order=order, smoothing=smoothing), part)
            _assert_same_fit(fitted, reference)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_simulated_train_split_matches_the_per_token_walk(self, split, order):
        fitted = NGramModel(order=order, smoothing=0.1).fit(split.train)
        reference = _reference_fit(NGramModel(order=order, smoothing=0.1), split.train)
        _assert_same_fit(fitted, reference)

    @settings(max_examples=40, deadline=None)
    @given(corpus=corpora(), order=st.integers(1, 3))
    def test_columnar_fit_equals_in_memory_fit(self, corpus, order):
        with tempfile.TemporaryDirectory() as root:
            write_corpus(corpus, f"{root}/c")
            columnar = open_corpus(f"{root}/c")
            for memory_part, columnar_part in zip(
                [corpus, *split_parts(corpus)], [columnar, *split_parts(columnar)],
                strict=True,
            ):
                _assert_same_fit(
                    NGramModel(order=order).fit(columnar_part),
                    NGramModel(order=order).fit(memory_part),
                )
