"""Tests for record linkage: normalisation, Jaro-Winkler, blocked matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import linkage
from repro.data.linkage import (
    CompanyNameMatcher,
    EntityResolver,
    jaro_similarity,
    jaro_winkler_similarity,
    normalize_company_name,
)


class TestNormalizeCompanyName:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Acme Corp.", "acme"),
            ("ACME CORPORATION", "acme"),
            ("Acme Holdings, LLC", "acme"),
            ("  Acme   Inc  ", "acme"),
            ("Johnson & Johnson", "johnson and johnson"),
            ("Müller GmbH", "muller"),  # diacritics fold to their base letter
            ("A.B.C. Ltd", "a b c"),
            ("Café Sociedad Anónima", "cafe sociedad anonima"),
            ("Ｆｕｌｌｗｉｄｔｈ Ｃｏ", "fullwidth"),  # compatibility forms collapse
            ("Acme’s – Apex · Co", "acme s apex"),  # unicode punctuation strips
        ],
    )
    def test_normalisation(self, raw, expected):
        assert normalize_company_name(raw) == expected

    def test_pure_suffix_normalises_to_empty(self):
        assert normalize_company_name("Inc.") == ""

    def test_pure_punctuation_normalises_to_empty(self):
        assert normalize_company_name("’–·") == ""

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            normalize_company_name(42)

    def test_idempotent(self):
        once = normalize_company_name("Acme Widget Co.")
        assert normalize_company_name(once) == once

    @given(st.text(max_size=24))
    def test_total_over_text(self, raw):
        # Never raises, never returns non-string, always idempotent.
        normal = normalize_company_name(raw)
        assert isinstance(normal, str)
        assert normalize_company_name(normal) == normal


class TestJaroSimilarity:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_known_value(self):
        # Classic textbook pair.
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric_and_bounded(self, a, b):
        s = jaro_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(jaro_similarity(b, a))

    @given(st.text(min_size=1, max_size=12))
    def test_identity(self, a):
        assert jaro_similarity(a, a) == 1.0


class TestJaroWinkler:
    def test_prefix_boost(self):
        plain = jaro_similarity("acme labs", "acme labz")
        boosted = jaro_winkler_similarity("acme labs", "acme labz")
        assert boosted > plain

    def test_known_value(self):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(0.9611, abs=1e-3)

    def test_invalid_prefix_scale(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_scale=0.3)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_dominates_jaro(self, a, b):
        assert jaro_winkler_similarity(a, b) >= jaro_similarity(a, b) - 1e-12


class TestCompanyNameMatcher:
    REFERENCE = [
        "Acme Manufacturing Inc.",
        "Acme Fabrication LLC",
        "Northwind Traders",
        "Contoso Ltd.",
        "Blue Ridge Logistics Corp.",
    ]

    def test_exact_normalised_match(self):
        matcher = CompanyNameMatcher(self.REFERENCE)
        result = matcher.match("ACME MANUFACTURING CORPORATION")
        # 'corporation' strips away but 'inc' on the reference side too.
        assert result is not None
        index, score = result
        assert self.REFERENCE[index].startswith("Acme Manufacturing")
        assert score == 1.0

    def test_fuzzy_match_within_block(self):
        matcher = CompanyNameMatcher(self.REFERENCE)
        result = matcher.match("Acme Manufactuing")  # typo
        assert result is not None
        assert self.REFERENCE[result[0]] == "Acme Manufacturing Inc."

    def test_below_threshold_returns_none(self):
        matcher = CompanyNameMatcher(self.REFERENCE, threshold=0.97)
        assert matcher.match("Acme Manufactuing Grp") is None

    def test_first_token_typo_rescued_by_fuzzy_blocks(self):
        # 'Akme' lands in the wrong block; the default fuzzy-block pass
        # rescues it by scanning Jaro-Winkler-close block keys.
        matcher = CompanyNameMatcher(self.REFERENCE)
        result = matcher.match("Akme Manufacturing")
        assert result is not None
        assert self.REFERENCE[result[0]] == "Acme Manufacturing Inc."

    def test_exact_blocking_without_fuzzy_rescue(self):
        matcher = CompanyNameMatcher(self.REFERENCE, fuzzy_blocks=False)
        # 'Akme' blocks under 'akme', no candidates there.
        assert matcher.match("Akme Manufacturing") is None

    def test_invalid_block_threshold(self):
        with pytest.raises(ValueError):
            CompanyNameMatcher(self.REFERENCE, block_threshold=0.0)

    def test_empty_query(self):
        matcher = CompanyNameMatcher(self.REFERENCE)
        assert matcher.match("LLC") is None

    def test_match_all(self):
        matcher = CompanyNameMatcher(self.REFERENCE)
        results = matcher.match_all(["Contoso", "Unknown Company"])
        assert results[0] is not None and self.REFERENCE[results[0][0]] == "Contoso Ltd."
        assert results[1] is None

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CompanyNameMatcher(self.REFERENCE, threshold=0.0)

    def test_len(self):
        assert len(CompanyNameMatcher(self.REFERENCE)) == 5

    def test_each_distinct_reference_name_normalised_once(self, monkeypatch):
        names = self.REFERENCE * 3 + ["Contoso Ltd.", "contoso ltd"]
        expected = CompanyNameMatcher(names)
        calls = []

        def counting(name):
            calls.append(name)
            return normalize_company_name(name)

        monkeypatch.setattr(linkage, "normalize_company_name", counting)
        matcher = CompanyNameMatcher(names)
        assert sorted(calls) == sorted(set(names))
        assert matcher._normal == expected._normal
        assert matcher._by_normal == expected._by_normal
        assert matcher._blocks == expected._blocks

    def test_simulator_names_link_to_themselves(self, universe):
        names = [c.name for c in universe.companies[:50]]
        matcher = CompanyNameMatcher(names)
        for i, name in enumerate(names):
            result = matcher.match(name.upper())
            assert result is not None
            # Generated names may repeat; the match must normalise equally.
            assert normalize_company_name(names[result[0]]) == normalize_company_name(name)

    def test_recall_floor_under_alias_corruption(self, corpus):
        """The hardened matcher must relink most scenario-aliased names.

        The ``aliases`` pack's manifest is ground truth: every alias
        event records the clean name (``before``) and its corrupted form
        (``after``).  Querying the corrupted names against the clean
        reference list must recover the original entity for at least
        85% of events — the floor that makes messy-feed linkage usable.
        """
        from repro.scenarios import build_scenario

        result = build_scenario(corpus, "aliases", seed=5)
        events = result.manifest.by_kind("alias")
        assert len(events) >= 50
        names = [c.name for c in corpus.companies]
        matcher = CompanyNameMatcher(names)
        relinked = 0
        for event in events:
            match = matcher.match(event.after)
            if match is not None and (
                normalize_company_name(names[match[0]])
                == normalize_company_name(event.before)
            ):
                relinked += 1
        assert relinked / len(events) >= 0.85


class TestEntityResolver:
    REFERENCE = [
        "Acme Manufacturing Inc.",
        "Northwind Traders",
        "Contoso Ltd.",
        "Blue Ridge Logistics Corp.",
    ]

    def test_exact_resolves(self):
        decision = EntityResolver(self.REFERENCE).resolve("ACME MANUFACTURING")
        assert decision.resolved
        assert decision.status == "resolved"
        assert decision.reason == "exact_normalized"
        assert decision.score == 1.0

    def test_close_typo_resolves_fuzzy(self):
        decision = EntityResolver(self.REFERENCE).resolve("Northwind Tradres")
        assert decision.resolved
        assert decision.reason == "fuzzy_accept"
        assert decision.index == 1

    def test_marginal_candidate_goes_to_review(self):
        resolver = EntityResolver(self.REFERENCE, accept=0.97, review=0.85)
        decision = resolver.resolve("Northwind Tradres Grp")
        assert decision.status == "review"
        assert decision.reason == "needs_review"
        assert decision.index == 1
        assert 0.85 <= decision.score < 0.97

    def test_unrelated_name_unmatched(self):
        decision = EntityResolver(self.REFERENCE).resolve("Zephyr Quantum Labs")
        assert decision.status == "unmatched"
        assert decision.reason == "below_threshold"
        assert decision.index is None

    def test_empty_name_unmatched_with_reason(self):
        decision = EntityResolver(self.REFERENCE).resolve("LLC")
        assert decision.status == "unmatched"
        assert decision.reason == "empty_name"

    def test_as_dict_is_machine_readable(self):
        payload = EntityResolver(self.REFERENCE).resolve("Contoso").as_dict()
        assert payload == {
            "status": "resolved",
            "index": 2,
            "score": 1.0,
            "reason": "exact_normalized",
        }

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            EntityResolver(self.REFERENCE).resolve(None)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            EntityResolver(self.REFERENCE, accept=0.8, review=0.9)

    @given(st.text(max_size=20))
    def test_total_over_text(self, query):
        decision = EntityResolver(self.REFERENCE).resolve(query)
        assert decision.status in ("resolved", "review", "unmatched")
        assert 0.0 <= decision.score <= 1.0
