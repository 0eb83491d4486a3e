"""Scenario infrastructure: corruption events, manifests and packs.

The clean simulator undersells the linkage/aggregation machinery: real
install-base feeds arrive with misspelled names, missing firmographics,
conflicting industry labels, M&A events that merge D-U-N-S site trees,
taxonomy remaps and churn waves.  A :class:`ScenarioPack` composes
deterministic, seeded :class:`CorruptionGenerator` s over any corpus
(in-memory or columnar — generators only read the ``Corpus`` API) and
emits a ground-truth :class:`CorruptionManifest` alongside the corrupted
corpus, so tests and the replay harness can assert exactly what was
injected rather than eyeballing aggregate statistics.

Determinism contract: the same ``(pack, seed, corpus)`` triple always
produces the same manifest digest and the same corrupted-corpus
fingerprint.  Each generator draws from its own child of a single
``SeedSequence``, so adding a generator to the end of a pack never
perturbs the draws of the generators before it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as _field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.company import Company
from repro.data.corpus import Corpus

__all__ = [
    "CorruptionEvent",
    "CorruptionManifest",
    "CorruptionGenerator",
    "ScenarioResult",
    "ScenarioPack",
]

MANIFEST_FILENAME = "scenario_manifest.json"


@dataclass(frozen=True)
class CorruptionEvent:
    """One injected corruption, recorded as ground truth.

    ``kind`` names the corruption family ("alias", "missing_field",
    "conflicting_label", "merger", "taxonomy_remap", "adoption",
    "churn"); ``duns`` is the primary affected company ("*" for
    corpus-global events such as taxonomy remaps); ``field`` is the
    attribute touched; ``before``/``after`` are its values as strings.
    ``detail`` carries kind-specific extras (the absorbed D-U-N-S of a
    merger, the perturbation flavour of an alias, ...).
    """

    kind: str
    duns: str
    field: str | None = None
    before: str | None = None
    after: str | None = None
    detail: dict[str, object] = _field(default_factory=dict)

    def as_json(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "duns": self.duns,
            "field": self.field,
            "before": self.before,
            "after": self.after,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "CorruptionEvent":
        return cls(
            kind=str(payload["kind"]),
            duns=str(payload["duns"]),
            field=payload.get("field"),  # type: ignore[arg-type]
            before=payload.get("before"),  # type: ignore[arg-type]
            after=payload.get("after"),  # type: ignore[arg-type]
            detail=dict(payload.get("detail", {})),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class CorruptionManifest:
    """Ground truth for one scenario build: what was injected, and by whom.

    The manifest is JSON-serialisable and carries a stable content
    digest, so CI can assert "same seed → same manifest → same corpus
    fingerprint" byte for byte.
    """

    pack: str
    seed: int
    events: tuple[CorruptionEvent, ...]
    source_fingerprint: str | None = None
    result_fingerprint: str | None = None

    def by_kind(self, kind: str) -> tuple[CorruptionEvent, ...]:
        return tuple(event for event in self.events if event.kind == kind)

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def merger_aliases(self) -> dict[str, str]:
        """Absorbed D-U-N-S → surviving D-U-N-S, for admission resolution."""
        aliases: dict[str, str] = {}
        for event in self.by_kind("merger"):
            absorbed = event.detail.get("absorbed")
            if isinstance(absorbed, str):
                aliases[absorbed] = event.duns
        return aliases

    def as_json(self) -> dict[str, object]:
        return {
            "pack": self.pack,
            "seed": self.seed,
            "source_fingerprint": self.source_fingerprint,
            "result_fingerprint": self.result_fingerprint,
            "events": [event.as_json() for event in self.events],
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (fingerprints excluded).

        Excluding the fingerprints keeps the digest a pure function of
        the injected events, so the acceptance chain reads
        ``seed → digest → corpus fingerprint`` with no cycles.
        """
        payload = {
            "pack": self.pack,
            "seed": self.seed,
            "events": [event.as_json() for event in self.events],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        payload = self.as_json()
        payload["digest"] = self.digest()
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CorruptionManifest":
        payload = json.loads(Path(path).read_text())
        manifest = cls(
            pack=str(payload["pack"]),
            seed=int(payload["seed"]),
            events=tuple(
                CorruptionEvent.from_json(event) for event in payload["events"]
            ),
            source_fingerprint=payload.get("source_fingerprint"),
            result_fingerprint=payload.get("result_fingerprint"),
        )
        recorded = payload.get("digest")
        if recorded is not None and recorded != manifest.digest():
            raise ValueError(
                f"manifest digest mismatch at {path}: recorded {recorded}, "
                f"recomputed {manifest.digest()}"
            )
        return manifest


class CorruptionGenerator:
    """Base class: a seeded transform over a company list.

    Subclasses override :meth:`apply`, which must be a pure function of
    ``(companies, vocabulary, rng)`` — no hidden state, no mutation of
    the input ``Company`` objects (they may be shared with a live
    corpus; build replacements with ``dataclasses.replace`` or fresh
    constructors).
    """

    #: Corruption family name; used for manifest grouping and display.
    name: str = "corruption"

    def apply(
        self,
        companies: list[Company],
        vocabulary: tuple[str, ...],
        rng: np.random.Generator,
    ) -> tuple[list[Company], list[CorruptionEvent]]:
        raise NotImplementedError


@dataclass(frozen=True)
class ScenarioResult:
    """A corrupted corpus plus the ground truth of its corruption."""

    corpus: Corpus
    manifest: CorruptionManifest


class ScenarioPack:
    """An ordered, seeded composition of corruption generators."""

    def __init__(
        self,
        name: str,
        generators: Sequence[CorruptionGenerator],
        *,
        seed: int = 0,
    ) -> None:
        if not name:
            raise ValueError("pack name must be non-empty")
        if not generators:
            raise ValueError("a scenario pack needs at least one generator")
        self.name = name
        self.generators = tuple(generators)
        self.seed = int(seed)

    def apply(self, corpus: Corpus) -> ScenarioResult:
        """Run every generator in order over ``corpus``.

        Works on any corpus — a mapped one is read through its lazy
        company sequence — and the corrupted result is materialised in
        memory (write it back out with ``repro.data.columnar.write_corpus``
        for serving).
        """
        companies = list(corpus.companies)
        if not companies:
            raise ValueError("cannot corrupt an empty corpus")
        vocabulary = corpus.vocabulary
        source_fingerprint = corpus.fingerprint()
        events: list[CorruptionEvent] = []
        children = np.random.SeedSequence(self.seed).spawn(len(self.generators))
        for generator, child in zip(self.generators, children):
            rng = np.random.default_rng(child)
            companies, new_events = generator.apply(companies, vocabulary, rng)
            if not companies:
                raise ValueError(
                    f"generator {generator.name!r} removed every company"
                )
            events.extend(new_events)
        corrupted = Corpus(companies, vocabulary=vocabulary)
        manifest = CorruptionManifest(
            pack=self.name,
            seed=self.seed,
            events=tuple(events),
            source_fingerprint=source_fingerprint,
            result_fingerprint=corrupted.fingerprint(),
        )
        return ScenarioResult(corpus=corrupted, manifest=manifest)
