"""The deployed recommendation tool of Section 6.

The pipeline the paper ships: LDA company representations from the external
(HG-Data-style) corpus drive a top-k similar-company search; the internal
sales database then supplies the actual recommendations — products that
similar companies own but the target does not, weighted by the similarity
strength of the companies contributing the evidence ("the strength of the
recommendation is ... measured via the strength of the company similarity",
Section 4).  Firmographic filters restrict the candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_matrix, check_positive_int
from repro.analysis.similarity import top_k_from_scores
from repro.app.filters import FirmographicFilter
from repro.data.corpus import Corpus
from repro.data.internal import InternalSalesDatabase
from repro.obs.logging import get_logger

__all__ = ["SimilarCompany", "SalesRecommendation", "SalesRecommendationTool"]


@dataclass(frozen=True)
class SimilarCompany:
    """One similarity-search hit."""

    duns: str
    name: str
    similarity: float


@dataclass(frozen=True)
class SalesRecommendation:
    """One recommended product with its evidence strength."""

    category: str
    strength: float
    n_supporters: int


class SalesRecommendationTool:
    """Similar-company search and whitespace recommendations.

    Parameters
    ----------
    corpus:
        The external universe the representations were learned on.
    features:
        Company representations aligned with ``corpus`` rows (typically LDA
        topic mixtures; any ``(N, L)`` array works).
    internal:
        The provider's internal database (clients, sold products,
        firmographics).
    """

    def __init__(
        self,
        corpus: Corpus,
        features: np.ndarray,
        internal: InternalSalesDatabase,
    ) -> None:
        matrix = check_matrix(features, "features")
        if matrix.shape[0] != corpus.n_companies:
            raise ValueError(
                f"features have {matrix.shape[0]} rows for {corpus.n_companies} companies"
            )
        # D-U-N-S values and names come from the corpus columns: a mapped
        # corpus would rebuild every ``Company`` on each walk of ``companies``.
        self._duns = corpus.duns_values()
        missing = [duns for duns in self._duns if duns not in internal]
        if missing:
            raise ValueError(
                f"{len(missing)} companies lack firmographics, e.g. {missing[:3]}"
            )
        self.corpus = corpus
        self.features = matrix
        self.internal = internal
        self._names = corpus.names()
        self._index_by_duns = {duns: i for i, duns in enumerate(self._duns)}
        self._refresh_unit()
        #: Version stamp of the model whose features are loaded; bumped by
        #: refresh_features on hot-swap.
        self.model_version = 0

    def _refresh_unit(self) -> None:
        """Precompute unit-normalized feature rows for similarity search.

        Normalizing once at construction (and on refresh) turns every
        exact similarity query into a single matrix–vector product.
        """
        norms = np.linalg.norm(self.features, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        self._unit = self.features / safe[:, None]
        self._zero_rows = norms == 0.0

    # ------------------------------------------------------------------
    def company_index(self, duns: str) -> int:
        """Corpus row of a company by its D-U-N-S value."""
        try:
            return self._index_by_duns[duns]
        except KeyError:
            raise KeyError(f"unknown company {duns}") from None

    def refresh_features(
        self, features: np.ndarray, *, model_version: int | None = None
    ) -> None:
        """Swap in new company representations (the hot-swap hook).

        The unit rows are recomputed and ``model_version`` is stamped with
        the registry generation that produced the features.
        """
        matrix = check_matrix(features, "features")
        if matrix.shape[0] != self.corpus.n_companies:
            raise ValueError(
                f"features have {matrix.shape[0]} rows for "
                f"{self.corpus.n_companies} companies"
            )
        self.features = matrix
        self._refresh_unit()
        if model_version is not None:
            self.model_version = model_version

    def similar_companies(
        self,
        duns: str,
        *,
        k: int = 10,
        filters: FirmographicFilter | None = None,
    ) -> list[SimilarCompany]:
        """Top-k companies most similar to ``duns`` passing the filters.

        See :meth:`similar_companies_detail`; this drops the backend tag.
        """
        return self.similar_companies_detail(duns, k=k, filters=filters)[0]

    def similar_companies_detail(
        self,
        duns: str,
        *,
        k: int = 10,
        filters: FirmographicFilter | None = None,
    ) -> tuple[list[SimilarCompany], str]:
        """Top-k similar companies plus the backend tag ``"exact"``.

        True cosine scores come from one matrix–vector product over the
        precomputed unit rows, selected with ``argpartition`` — no
        per-company loop, no full sort.  The tag is what ``/similar``
        reports as its ``backend``.

        Asking for more companies than the (possibly filtered) candidate
        pool contains clamps ``k`` to the pool size with a logged warning
        instead of erroring — a small pool after firmographic filtering
        still yields recommendations.
        """
        check_positive_int(k, "k")
        query = self.company_index(duns)
        if filters is None:
            mask = None
            available = self.corpus.n_companies - 1
        else:
            mask = np.array(
                [
                    filters.matches(self.internal.firmographics(duns))
                    for duns in self._duns
                ],
                dtype=bool,
            )
            available = int(mask.sum()) - int(mask[query])
        if k > available:
            get_logger("app.tool").warning(
                "similar_companies k=%d exceeds the %d candidate companies "
                "for %s; clamping",
                k,
                available,
                duns,
            )
            if available == 0:
                return [], "exact"
            k = available
        scores = self._unit @ self._unit[query]
        if self._zero_rows[query]:
            scores = np.zeros(self.corpus.n_companies)
        scores[self._zero_rows] = 0.0
        ranked = top_k_from_scores(scores, k, exclude=query, candidate_mask=mask)
        return [
            SimilarCompany(self._duns[i], self._names[i], float(scores[i]))
            for i in ranked
        ], "exact"

    def recommend_products(
        self,
        duns: str,
        *,
        k_neighbors: int = 20,
        top_n: int = 5,
        filters: FirmographicFilter | None = None,
        clients_only: bool = True,
    ) -> list[SalesRecommendation]:
        """Whitespace products for ``duns``, ranked by similarity evidence.

        For each of the k most similar companies (optionally restricted to
        existing clients, whose install bases we know from the internal
        side), every product they own that the target lacks votes with the
        neighbour's similarity.  The vote totals, normalised by the total
        similarity mass, rank the recommendations.
        """
        check_positive_int(k_neighbors, "k_neighbors")
        check_positive_int(top_n, "top_n")
        target = self.corpus.companies[self.company_index(duns)]
        target_owned = target.categories
        neighbors = self.similar_companies(duns, k=k_neighbors, filters=filters)
        votes: dict[str, float] = {}
        supporters: dict[str, int] = {}
        total_similarity = 0.0
        for neighbor in neighbors:
            if clients_only and not self.internal.is_client(neighbor.duns):
                continue
            weight = max(neighbor.similarity, 0.0)
            if weight == 0.0:
                continue
            total_similarity += weight
            other = self.corpus.companies[self.company_index(neighbor.duns)]
            for category in other.categories - target_owned:
                votes[category] = votes.get(category, 0.0) + weight
                supporters[category] = supporters.get(category, 0) + 1
        if total_similarity == 0.0:
            return []
        ranked = sorted(
            votes.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            SalesRecommendation(
                category=category,
                strength=strength / total_similarity,
                n_supporters=supporters[category],
            )
            for category, strength in ranked[:top_n]
        ]

    def prospect_list(
        self,
        *,
        k_neighbors: int = 15,
        top_n: int = 3,
        max_prospects: int | None = None,
        filters: FirmographicFilter | None = None,
    ) -> list[tuple[str, float, list[SalesRecommendation]]]:
        """Prioritised non-client prospects by total whitespace strength.

        For every company that is not yet a client, computes its top
        recommendations and ranks prospects by the summed strength —
        the batch view a sales team consumes.  Returns
        ``(duns, total_strength, recommendations)`` triples, strongest
        first.
        """
        check_positive_int(k_neighbors, "k_neighbors")
        check_positive_int(top_n, "top_n")
        if max_prospects is not None:
            check_positive_int(max_prospects, "max_prospects")
        prospects = []
        for duns in self._duns:
            if self.internal.is_client(duns):
                continue
            if filters is not None and not filters.matches(
                self.internal.firmographics(duns)
            ):
                continue
            recommendations = self.recommend_products(
                duns, k_neighbors=k_neighbors, top_n=top_n
            )
            if recommendations:
                total = sum(r.strength for r in recommendations)
                prospects.append((duns, total, recommendations))
        prospects.sort(key=lambda item: (-item[1], item[0]))
        if max_prospects is not None:
            prospects = prospects[:max_prospects]
        return prospects

    def whitespace_report(self, duns: str) -> dict[str, frozenset[str]]:
        """Owned / sold-by-us / opportunity breakdown for one company."""
        company = self.corpus.companies[self.company_index(duns)]
        sold = self.internal.sold_products(duns)
        return {
            "owned": frozenset(company.categories),
            "sold_by_us": sold,
            "competitor_owned": frozenset(company.categories) - sold,
        }
