"""Hypothesis strategies for small, messy in-memory corpora.

Shared by the corpus-view, n-gram and LDA parity tests.  The corpora are
built to reach the corners of the token-column code: vocabularies whose
token order is not alphabetical (mixed case and non-ASCII names included),
many first-seen date ties, companies owning nothing, company names that
are not ASCII, and ``first_seen`` dicts in random insertion order.
:func:`corpora_with_repeats` also makes companies share product sets, as
real install bases do.
"""

import datetime as dt

from hypothesis import strategies as st

from repro.data.company import Company
from repro.data.corpus import Corpus
from repro.data.duns import DunsNumber

#: Category names a vocabulary is drawn from; code-point order puts the
#: upper-case names first and the non-ASCII one last.
NAMES = ("OS", "DBMS", "retail", "storage_HW", "server_HW", "ERP", "crm", "Übersicht")

#: Few distinct days, so first-seen ties are common.
DAYS = tuple(dt.date(2010, 1, 1) + dt.timedelta(days=30 * d) for d in range(4))


def company(i: int, first_seen: dict[str, dt.date]) -> Company:
    """Company ``i`` owning ``first_seen``; every third name is not ASCII."""
    return Company(
        duns=DunsNumber.from_sequence(i),
        name=f"C{i}" if i % 3 else f"Société {i}",
        country="US",
        sic2=80,
        first_seen=first_seen,
    )


@st.composite
def vocabularies(draw) -> tuple[str, ...]:
    """A non-empty vocabulary in random (usually non-alphabetical) order."""
    names = draw(st.permutations(NAMES))
    return tuple(names[: draw(st.integers(1, len(NAMES)))])


@st.composite
def corpora(draw, max_companies: int = 12) -> Corpus:
    """A corpus of 1..``max_companies`` companies over a drawn vocabulary."""
    vocabulary = draw(vocabularies())
    companies = []
    for i in range(draw(st.integers(1, max_companies))):
        owned = draw(st.lists(st.sampled_from(vocabulary), unique=True))
        companies.append(company(i, {name: draw(st.sampled_from(DAYS)) for name in owned}))
    return Corpus(companies, vocabulary)


@st.composite
def corpora_with_repeats(draw, max_companies: int = 12) -> Corpus:
    """A corpus of 2..``max_companies`` companies, at least two sharing a set.

    Each company owns one of a few drawn product sets (with its own
    first-seen dates), so binary rows repeat; at least one set is owned
    twice.
    """
    vocabulary = draw(vocabularies())
    owned_sets = draw(
        st.lists(st.lists(st.sampled_from(vocabulary), unique=True), min_size=1, max_size=4)
    )
    picks = draw(
        st.lists(st.integers(0, len(owned_sets) - 1), min_size=1, max_size=max_companies - 1)
    )
    picks.append(picks[0])
    companies = [
        company(i, {name: draw(st.sampled_from(DAYS)) for name in owned_sets[pick]})
        for i, pick in enumerate(draw(st.permutations(picks)))
    ]
    return Corpus(companies, vocabulary)


def split_parts(corpus: Corpus) -> list[Corpus]:
    """The corpus's (0.5, 0.5, 0) split parts, the last one empty.

    A one-company corpus has no such split; it yields no parts.
    """
    if corpus.n_companies < 2:
        return []
    return list(corpus.split((0.5, 0.5, 0.0), seed=0))
