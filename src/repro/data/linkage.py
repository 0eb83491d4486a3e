"""Record linkage: matching company names across databases.

The paper joins the external HG-Data-style feed with an internal sales
database and acknowledges a company-name-matching algorithm used "for record
linkage" (Section 8).  This module provides that substrate:

* :func:`normalize_company_name` — casefolding, punctuation stripping and
  legal-suffix removal so "Acme Corp." and "ACME CORPORATION" normalise to
  the same key;
* :func:`jaro_winkler_similarity` — the fuzzy string metric standard in
  record-linkage literature;
* :class:`CompanyNameMatcher` — a blocked matcher that indexes one side by
  normalised first token and resolves queries with Jaro-Winkler scoring,
  avoiding the quadratic all-pairs comparison.
"""

from __future__ import annotations

import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "normalize_company_name",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "CompanyNameMatcher",
    "ResolutionDecision",
    "EntityResolver",
]

#: Legal-form suffixes dropped during normalisation.
_LEGAL_SUFFIXES: frozenset[str] = frozenset(
    {
        "inc",
        "incorporated",
        "llc",
        "llp",
        "ltd",
        "limited",
        "corp",
        "corporation",
        "co",
        "company",
        "group",
        "holdings",
        "plc",
        "gmbh",
        "ag",
        "sa",
        "nv",
        "bv",
        "srl",
        "spa",
    }
)

_NON_ALNUM = re.compile(r"[^a-z0-9 ]+")
_WHITESPACE = re.compile(r"\s+")


def normalize_company_name(name: str) -> str:
    """Canonical form of a company name for blocking and exact matching.

    Unicode-folds (NFKD decomposition with combining marks stripped, so
    "Müller" and "Muller" share a key and full-width/compatibility forms
    collapse), casefolds, strips punctuation — ASCII and Unicode alike —
    removes trailing legal-form suffixes ("inc", "gmbh", ...), and
    collapses whitespace.  The empty string is returned for names that
    normalise away entirely; callers should treat that as unmatchable.
    Never raises for string input: empty, single-character and
    all-punctuation names normalise to a (possibly empty) string.
    """
    if not isinstance(name, str):
        raise TypeError(f"name must be a string, got {type(name).__name__}")
    decomposed = unicodedata.normalize("NFKD", name)
    folded = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    lowered = folded.casefold().replace("&", " and ")
    stripped = _NON_ALNUM.sub(" ", lowered)
    tokens = _WHITESPACE.sub(" ", stripped).strip().split(" ")
    while tokens and tokens[-1] in _LEGAL_SUFFIXES:
        tokens.pop()
    return " ".join(t for t in tokens if t)


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity in [0, 1]; 1 means identical, 0 means disjoint.

    Total over all string pairs: empty strings, single characters and
    unicode input return a finite value in [0, 1], never NaN.
    """
    if not isinstance(left, str) or not isinstance(right, str):
        raise TypeError(
            f"jaro_similarity expects strings, got "
            f"{type(left).__name__} and {type(right).__name__}"
        )
    if left == right:
        return 1.0
    len_l, len_r = len(left), len(right)
    if len_l == 0 or len_r == 0:
        return 0.0
    match_window = max(len_l, len_r) // 2 - 1
    match_window = max(match_window, 0)

    left_matched = [False] * len_l
    right_matched = [False] * len_r
    matches = 0
    for i, char in enumerate(left):
        lo = max(0, i - match_window)
        hi = min(len_r, i + match_window + 1)
        for j in range(lo, hi):
            if not right_matched[j] and right[j] == char:
                left_matched[i] = True
                right_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    # Count transpositions between the matched characters in order.
    transpositions = 0
    j = 0
    for i in range(len_l):
        if left_matched[i]:
            while not right_matched[j]:
                j += 1
            if left[i] != right[j]:
                transpositions += 1
            j += 1
    transpositions //= 2

    m = float(matches)
    return (m / len_l + m / len_r + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(left: str, right: str, *, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a shared prefix of length <= 4."""
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError(f"prefix_scale must be in [0, 0.25], got {prefix_scale}")
    jaro = jaro_similarity(left, right)
    prefix = 0
    for l_char, r_char in zip(left[:4], right[:4]):
        if l_char != r_char:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


class CompanyNameMatcher:
    """Blocked fuzzy matcher from query names to a reference name list.

    Reference names are indexed by the first token of their normalised form;
    a query first scores against names sharing its block (plus exact
    normalised matches, which short-circuit at similarity 1.0).  This is the
    standard blocking trick that keeps linkage linear-ish in practice.

    A misspelling *inside the first token* lands the query in the wrong
    block, where exact-block matching silently fragments the entity.  With
    ``fuzzy_blocks`` (the default) a query that fails its own block is
    rescued by also scoring blocks whose key is Jaro-Winkler-close to the
    query's first token — one pass over the distinct block keys, not over
    the reference list, so the cost stays sublinear in references.
    """

    def __init__(
        self,
        reference_names: list[str],
        *,
        threshold: float = 0.88,
        fuzzy_blocks: bool = True,
        block_threshold: float = 0.82,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if not 0.0 < block_threshold <= 1.0:
            raise ValueError(
                f"block_threshold must be in (0, 1], got {block_threshold}"
            )
        self.threshold = threshold
        self.fuzzy_blocks = bool(fuzzy_blocks)
        self.block_threshold = block_threshold
        self._reference = list(reference_names)
        # Universes repeat names (20,000 companies carry ~4,300 distinct
        # ones); the pure normaliser runs once per distinct name.
        normal_of = {
            name: normalize_company_name(name) for name in dict.fromkeys(self._reference)
        }
        self._normal: list[str] = [normal_of[name] for name in self._reference]
        self._by_normal: dict[str, int] = {}
        self._blocks: dict[str, list[int]] = defaultdict(list)
        for index, normal in enumerate(self._normal):
            if not normal:
                continue
            self._by_normal.setdefault(normal, index)
            first_token = normal.split(" ", 1)[0]
            self._blocks[first_token].append(index)

    def _best_in(
        self, indices: list[int], normal: str, best: tuple[int, float]
    ) -> tuple[int, float]:
        best_index, best_score = best
        for index in indices:
            score = jaro_winkler_similarity(normal, self._normal[index])
            if score > best_score:
                best_index, best_score = index, score
        return best_index, best_score

    def match(self, query: str) -> tuple[int, float] | None:
        """Best reference index for ``query``, or ``None`` below threshold.

        Returns ``(index, similarity)``; exact normalised matches return
        similarity 1.0 without fuzzy scoring.
        """
        normal = normalize_company_name(query)
        if not normal:
            return None
        exact = self._by_normal.get(normal)
        if exact is not None:
            return exact, 1.0
        first_token = normal.split(" ", 1)[0]
        best = self._best_in(self._blocks.get(first_token, []), normal, (-1, 0.0))
        if best[1] < self.threshold and self.fuzzy_blocks:
            for key, indices in self._blocks.items():
                if key == first_token:
                    continue
                if jaro_winkler_similarity(first_token, key) >= self.block_threshold:
                    best = self._best_in(indices, normal, best)
        if best[0] >= 0 and best[1] >= self.threshold:
            return best
        return None

    def match_all(self, queries: list[str]) -> list[tuple[int, float] | None]:
        """Vector form of :meth:`match`."""
        return [self.match(q) for q in queries]

    def __len__(self) -> int:
        return len(self._reference)


@dataclass(frozen=True)
class ResolutionDecision:
    """Outcome of resolving one query name against the reference list.

    ``status`` is one of ``"resolved"`` (safe to link automatically),
    ``"review"`` (a plausible candidate exists but below the automatic
    threshold — route to manual review / quarantine, never silently
    link), or ``"unmatched"``.  ``reason`` is a machine-readable slug
    suitable for quarantine records and HTTP error bodies.
    """

    status: str
    index: int | None
    score: float
    reason: str

    @property
    def resolved(self) -> bool:
        """True when the match is safe to link automatically."""
        return self.status == "resolved"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form for quarantine records and HTTP bodies."""
        return {
            "status": self.status,
            "index": self.index,
            "score": round(self.score, 4),
            "reason": self.reason,
        }


class EntityResolver:
    """Three-way name resolution: resolve, review, or reject.

    Wraps :class:`CompanyNameMatcher` with the two-threshold policy
    standard in record linkage: scores at or above ``accept`` link
    automatically, scores in ``[review, accept)`` are flagged for manual
    review (the caller quarantines them with the candidate attached),
    and anything below is unmatched.  This is what keeps aliased
    companies from silently fragmenting install histories: an ambiguous
    name surfaces as an explicit decision instead of a miss.
    """

    def __init__(
        self,
        reference_names: list[str],
        *,
        accept: float = 0.92,
        review: float = 0.85,
    ) -> None:
        if not 0.0 < review <= accept <= 1.0:
            raise ValueError(
                f"need 0 < review <= accept <= 1, got review={review}, accept={accept}"
            )
        self.accept = accept
        self.review = review
        self._matcher = CompanyNameMatcher(reference_names, threshold=review)

    def resolve(self, query: str) -> ResolutionDecision:
        """Resolve one name; never raises for string input."""
        if not isinstance(query, str):
            raise TypeError(f"query must be a string, got {type(query).__name__}")
        if not normalize_company_name(query):
            return ResolutionDecision(
                status="unmatched", index=None, score=0.0, reason="empty_name"
            )
        match = self._matcher.match(query)
        if match is None:
            return ResolutionDecision(
                status="unmatched", index=None, score=0.0, reason="below_threshold"
            )
        index, score = match
        if score >= 1.0:
            return ResolutionDecision(
                status="resolved", index=index, score=1.0, reason="exact_normalized"
            )
        if score >= self.accept:
            return ResolutionDecision(
                status="resolved", index=index, score=score, reason="fuzzy_accept"
            )
        return ResolutionDecision(
            status="review", index=index, score=score, reason="needs_review"
        )
