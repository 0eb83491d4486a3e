"""Tests for D-U-N-S identifiers and the site hierarchy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.duns import DunsNumber, DunsRegistry, duns_check_digit, is_valid_duns


class TestCheckDigit:
    def test_known_value_is_stable(self):
        # Regression pin: the Luhn digit of this payload must never change,
        # otherwise persisted identifiers would stop validating.
        assert duns_check_digit("00000000") == 0
        assert duns_check_digit("00000001") == 8

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            duns_check_digit("1234567")

    def test_rejects_non_digits(self):
        with pytest.raises(ValueError):
            duns_check_digit("12a45678")

    @given(st.integers(min_value=0, max_value=99_999_999))
    def test_check_digit_in_range(self, payload):
        digit = duns_check_digit(f"{payload:08d}")
        assert 0 <= digit <= 9

    @given(st.integers(min_value=0, max_value=99_999_999))
    def test_single_digit_change_detected(self, payload):
        # Luhn guarantees detection of any single-digit substitution.
        text = f"{payload:08d}"
        digit = duns_check_digit(text)
        position = payload % 8
        original = int(text[position])
        replacement = (original + 1) % 10
        altered = text[:position] + str(replacement) + text[position + 1 :]
        assert duns_check_digit(altered) != digit or altered == text


class TestIsValidDuns:
    def test_valid_roundtrip(self):
        number = DunsNumber.from_sequence(12345)
        assert is_valid_duns(number.value)

    def test_rejects_wrong_check_digit(self):
        number = DunsNumber.from_sequence(12345).value
        corrupted = number[:8] + str((int(number[8]) + 1) % 10)
        assert not is_valid_duns(corrupted)

    @pytest.mark.parametrize("bad", ["", "12345678", "1234567890", "abcdefghi", 123456789])
    def test_rejects_malformed(self, bad):
        assert not is_valid_duns(bad)


class TestDunsNumber:
    def test_from_sequence_deterministic(self):
        assert DunsNumber.from_sequence(7) == DunsNumber.from_sequence(7)

    def test_from_sequence_unique(self):
        values = {DunsNumber.from_sequence(i).value for i in range(1000)}
        assert len(values) == 1000

    def test_from_sequence_range_check(self):
        with pytest.raises(ValueError):
            DunsNumber.from_sequence(100_000_000)
        with pytest.raises(ValueError):
            DunsNumber.from_sequence(-1)

    def test_invalid_literal_rejected(self):
        with pytest.raises(ValueError, match="invalid D-U-N-S"):
            DunsNumber("123456789" if not is_valid_duns("123456789") else "123456780")

    def test_str(self):
        number = DunsNumber.from_sequence(0)
        assert str(number) == number.value


class TestDunsRegistry:
    def _make_family(self):
        registry = DunsRegistry()
        hq = DunsNumber.from_sequence(0)
        us_branch = DunsNumber.from_sequence(1)
        de_sub = DunsNumber.from_sequence(2)
        de_branch = DunsNumber.from_sequence(3)
        registry.register(hq, country="US")
        registry.register(us_branch, country="US", parent=hq)
        registry.register(de_sub, country="DE", parent=hq)
        registry.register(de_branch, country="DE", parent=de_sub)
        return registry, hq, us_branch, de_sub, de_branch

    def test_domestic_ultimate_same_country_walks_up(self):
        registry, hq, us_branch, *_ = self._make_family()
        assert registry.domestic_ultimate(us_branch) == hq
        assert registry.domestic_ultimate(hq) == hq

    def test_domestic_ultimate_stops_at_country_boundary(self):
        # The German subtree aggregates separately from the US ultimate.
        registry, __, __, de_sub, de_branch = self._make_family()
        assert registry.domestic_ultimate(de_branch) == de_sub
        assert registry.domestic_ultimate(de_sub) == de_sub

    def test_children_of(self):
        registry, hq, us_branch, de_sub, __ = self._make_family()
        children = {c.value for c in registry.children_of(hq)}
        assert children == {us_branch.value, de_sub.value}

    def test_parent_of(self):
        registry, hq, us_branch, de_sub, de_branch = self._make_family()
        assert registry.parent_of(hq) is None
        assert registry.parent_of(us_branch) == hq
        assert registry.parent_of(de_sub) == hq
        assert registry.parent_of(de_branch) == de_sub

    def test_country_of(self):
        registry, hq, *_ = self._make_family()
        assert registry.country_of(hq) == "US"

    def test_duplicate_registration_rejected(self):
        registry, hq, *_ = self._make_family()
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(hq, country="US")

    def test_unregistered_parent_rejected(self):
        registry = DunsRegistry()
        child = DunsNumber.from_sequence(10)
        ghost = DunsNumber.from_sequence(11)
        with pytest.raises(ValueError, match="not registered"):
            registry.register(child, country="US", parent=ghost)

    def test_self_parent_rejected(self):
        registry = DunsRegistry()
        site = DunsNumber.from_sequence(12)
        with pytest.raises(ValueError, match="own parent"):
            registry.register(site, country="US", parent=site)

    def test_unregistered_lookup_raises(self):
        registry = DunsRegistry()
        with pytest.raises(KeyError):
            registry.domestic_ultimate(DunsNumber.from_sequence(99))
        with pytest.raises(KeyError):
            registry.country_of(DunsNumber.from_sequence(99))
        with pytest.raises(KeyError):
            registry.children_of(DunsNumber.from_sequence(99))
        with pytest.raises(KeyError):
            registry.parent_of(DunsNumber.from_sequence(99))

    def test_len_iter_contains(self):
        registry, hq, *_ = self._make_family()
        assert len(registry) == 4
        assert hq in registry
        assert len(list(registry)) == 4


class TestVectorisedHelpers:
    def test_batch_values_match_scalar(self):
        from repro.data.duns import duns_values_from_sequences

        sequences = list(range(50)) + [12345678, 99_999_999, 7]
        batch = duns_values_from_sequences(sequences)
        scalar = [DunsNumber.from_sequence(s).value for s in sequences]
        assert batch == scalar
        assert all(is_valid_duns(v) for v in batch)

    def test_batch_rejects_out_of_range(self):
        from repro.data.duns import duns_values_from_sequences

        with pytest.raises(ValueError):
            duns_values_from_sequences([-1])
        with pytest.raises(ValueError):
            duns_values_from_sequences([100_000_000])

    def test_batch_empty_input(self):
        from repro.data.duns import duns_values_from_sequences

        assert duns_values_from_sequences([]) == []

    def test_trusted_skips_validation_but_preserves_value(self):
        number = DunsNumber._trusted("000000174")
        assert number.value == DunsNumber.from_sequence(17).value
