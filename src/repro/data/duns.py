"""D-U-N-S®-style company identifiers and their site hierarchy.

The paper's companies are identified by D-U-N-S numbers — unique 9-digit
identifiers assigned per *business location*, organised hierarchically:
branches and subsidiaries point to parents, and a "domestic ultimate" roots
each country's subtree (Section 2).  Company aggregation in the experiments
is performed at the domestic-ultimate level ("all company sites in one
country are aggregated", Section 5).

This module implements the identifier format (including the mod-10 check
digit commonly used for 9-digit identifiers) and a registry that resolves
any site's D-U-N-S number to its domestic ultimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "DunsNumber",
    "DunsRegistry",
    "duns_check_digit",
    "duns_values_from_sequences",
    "is_valid_duns",
]


def duns_check_digit(first_eight: str) -> int:
    """Compute the Luhn (mod-10) check digit for an 8-digit prefix.

    The real D-U-N-S format historically carried a mod-10 check digit in the
    ninth position; we adopt the Luhn scheme so generated identifiers are
    self-validating in tests.
    """
    if len(first_eight) != 8 or not first_eight.isdigit():
        raise ValueError(f"expected 8 digits, got {first_eight!r}")
    total = 0
    # Luhn: double every second digit from the right of the payload.
    for i, char in enumerate(reversed(first_eight)):
        digit = int(char)
        if i % 2 == 0:
            digit *= 2
            if digit > 9:
                digit -= 9
        total += digit
    return (10 - total % 10) % 10


def duns_values_from_sequences(sequences) -> list[str]:
    """Vectorised :meth:`DunsNumber.from_sequence` for an array of counters.

    Computes every Luhn check digit with array arithmetic instead of the
    per-string digit loop; the batch simulator derives all site identifiers
    of a universe in one call.  Returns the 9-digit string values in input
    order (identical to calling ``from_sequence`` per element).
    """
    seq = np.asarray(sequences, dtype=np.int64)
    if seq.size and (int(seq.min()) < 0 or int(seq.max()) > 99_999_999):
        raise ValueError("sequence out of range for 8-digit payload")
    # (n, 8) digit matrix, most significant first.
    digits = (seq[:, None] // 10 ** np.arange(7, -1, -1)) % 10
    # Luhn doubles every second digit from the right of the payload, i.e.
    # columns 1, 3, 5, 7 of the MSB-first matrix.
    doubled = digits[:, 1::2] * 2
    doubled = np.where(doubled > 9, doubled - 9, doubled)
    total = digits[:, 0::2].sum(axis=1) + doubled.sum(axis=1)
    check = (10 - total % 10) % 10
    return [f"{s:08d}{c}" for s, c in zip(seq.tolist(), check.tolist())]


def is_valid_duns(number: str) -> bool:
    """Whether ``number`` is a well-formed 9-digit identifier with valid check digit."""
    if not isinstance(number, str) or len(number) != 9 or not number.isdigit():
        return False
    return int(number[8]) == duns_check_digit(number[:8])


@dataclass(frozen=True)
class DunsNumber:
    """A validated 9-digit site identifier."""

    value: str

    def __post_init__(self) -> None:
        if not is_valid_duns(self.value):
            raise ValueError(f"invalid D-U-N-S number {self.value!r}")

    @classmethod
    def _trusted(cls, value: str) -> "DunsNumber":
        """Wrap a value known to be valid, skipping re-validation.

        Internal fast path for call sites that only handle identifiers
        which already passed validation (generated payloads, registry
        keys).  Hot loops over registered sites spend a measurable share
        of their time re-running the Luhn check otherwise.
        """
        number = cls.__new__(cls)
        object.__setattr__(number, "value", value)
        return number

    @classmethod
    def from_sequence(cls, sequence: int) -> "DunsNumber":
        """Deterministically derive a valid identifier from a counter.

        Used by the simulator: site ``k`` of the synthetic universe receives
        the identifier whose payload is ``k`` zero-padded to 8 digits.
        """
        if sequence < 0 or sequence > 99_999_999:
            raise ValueError(f"sequence {sequence} out of range for 8-digit payload")
        payload = f"{sequence:08d}"
        return cls._trusted(payload + str(duns_check_digit(payload)))

    def __str__(self) -> str:
        return self.value


class DunsRegistry:
    """Hierarchy of site identifiers with domestic-ultimate resolution.

    Each registered site carries its parent identifier (``None`` for a
    domestic ultimate) and a country code.  ``domestic_ultimate`` walks the
    parent chain within a single country; crossing a country boundary stops
    the walk, mirroring how global families decompose into domestic trees.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str | None] = {}
        self._country: dict[str, str] = {}

    def register(self, duns: DunsNumber, *, country: str, parent: DunsNumber | None = None) -> None:
        """Register a site; the parent (if given) must already be registered."""
        key = duns.value
        if key in self._parent:
            raise ValueError(f"duplicate registration of {key}")
        if parent is not None and parent.value == key:
            raise ValueError("a site cannot be its own parent")
        if parent is not None and parent.value not in self._parent:
            raise ValueError(f"parent {parent.value} not registered")
        self._parent[key] = parent.value if parent is not None else None
        self._country[key] = country

    def country_of(self, duns: DunsNumber) -> str:
        """Country code of a registered site."""
        try:
            return self._country[duns.value]
        except KeyError:
            raise KeyError(f"unregistered D-U-N-S {duns.value}") from None

    def domestic_ultimate(self, duns: DunsNumber) -> DunsNumber:
        """Walk up the tree while staying in the site's country.

        The returned identifier is the aggregation key used by the corpus
        builder: all sites mapping to the same domestic ultimate merge into
        one modelled "company".
        """
        key = duns.value
        if key not in self._parent:
            raise KeyError(f"unregistered D-U-N-S {duns.value}")
        country = self._country[key]
        seen = {key}
        while True:
            parent = self._parent[key]
            if parent is None or self._country[parent] != country:
                # Registered keys were validated at registration time.
                return DunsNumber._trusted(key)
            if parent in seen:
                raise ValueError(f"cycle detected in D-U-N-S hierarchy at {parent}")
            seen.add(parent)
            key = parent

    def parent_of(self, duns: DunsNumber) -> DunsNumber | None:
        """Direct parent of a site; ``None`` for a root of the hierarchy."""
        try:
            parent = self._parent[duns.value]
        except KeyError:
            raise KeyError(f"unregistered D-U-N-S {duns.value}") from None
        # Registered keys were validated at registration time.
        return None if parent is None else DunsNumber._trusted(parent)

    def children_of(self, duns: DunsNumber) -> list[DunsNumber]:
        """Direct children of a site."""
        if duns.value not in self._parent:
            raise KeyError(f"unregistered D-U-N-S {duns.value}")
        return [DunsNumber(k) for k, p in self._parent.items() if p == duns.value]

    def __len__(self) -> int:
        return len(self._parent)

    def __iter__(self) -> Iterator[DunsNumber]:
        return (DunsNumber(k) for k in self._parent)

    def __contains__(self, duns: DunsNumber) -> bool:
        return duns.value in self._parent
