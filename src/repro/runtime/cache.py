"""Content-addressed cache of fitted models.

Retraining dominates the cost of the paper's protocols: the sliding-window
evaluation refits every model 13 times per sweep, and repeated benchmark or
CLI runs refit the same (model, training-prefix) pairs over and over.  The
cache stores each fitted model once, keyed by *what determined the fit* —
model class, canonicalized hyperparameters (seed included) and the training
corpus's :meth:`~repro.data.corpus.Corpus.fingerprint` — and replays it
through the model's own ``save``/``load`` round-trip, so a hit returns a
model whose parameters are bit-identical to the freshly fitted ones.

Failure policy: anything unexpected — a corrupted file, a class the
artifact does not match, a model that cannot serialise — degrades to a
cache *miss* and a fresh fit, never an error and never a wrong model.
Writes go through a temp file + atomic rename so concurrent workers racing
on the same key simply overwrite each other with identical bytes.

Hits and misses are counted on the instance (``hits`` / ``misses``) and,
when metrics are enabled, on the ``cache.hit`` / ``cache.miss`` counters.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, TYPE_CHECKING

from repro.obs import get_logger, metrics, trace
from repro.runtime import faults
from repro.runtime.fingerprint import Uncacheable, cache_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.corpus import Corpus
    from repro.models.base import GenerativeModel

__all__ = ["FitCache", "fit_model"]

#: Temp files older than this are orphans of a dead writer, safe to sweep.
_ORPHAN_AGE_S = 3600.0


def fit_model(
    factory: Callable[[], "GenerativeModel"],
    corpus: "Corpus",
    cache: "FitCache | None" = None,
    fingerprint: str | None = None,
) -> "GenerativeModel":
    """``factory().fit(corpus)``, through ``cache`` when one is given.

    The shared fit entry point for experiment drivers and worker tasks:
    callers stay oblivious to whether a cache is configured.
    """
    if cache is not None:
        return cache.fit(factory, corpus, corpus_fingerprint=fingerprint)
    return factory().fit(corpus)


class FitCache:
    """Directory-backed store of fitted models, addressed by content key.

    Parameters
    ----------
    root:
        Cache directory; created on first use.  Safe to share between
        processes — entries are immutable once written.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._sweep_orphans()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FitCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"

    # Picklability: a cache shipped to a worker process is just its path;
    # hit/miss tallies stay local to each process (the shared metrics
    # counters are merged back by the executor).
    def __getstate__(self) -> dict[str, Any]:
        return {"root": self.root}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = state["root"]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def fit(
        self,
        factory: Callable[[], "GenerativeModel"],
        corpus: "Corpus",
        *,
        corpus_fingerprint: str | None = None,
    ) -> "GenerativeModel":
        """``factory().fit(corpus)``, memoized by content key.

        ``corpus_fingerprint`` short-circuits re-hashing when the caller
        already fingerprinted the corpus (the grid sweeps fingerprint
        their shared train split once and pass it to every cell).
        """
        model = factory()
        try:
            fingerprint = (
                corpus_fingerprint
                if corpus_fingerprint is not None
                else corpus.fingerprint()
            )
            key = cache_key(model, fingerprint)
        except Uncacheable:
            return model.fit(corpus)
        cached = self.load(type(model), key)
        if cached is not None:
            self.hits += 1
            metrics.inc("cache.hit")
            trace.add_counter("cache.hit")
            return cached
        self.misses += 1
        metrics.inc("cache.miss")
        trace.add_counter("cache.miss")
        fitted = model.fit(corpus)
        self.store(fitted, key)
        return fitted

    def load(self, model_cls: type, key: str) -> "GenerativeModel | None":
        """The cached model under ``key``, or None (corruption == miss)."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return model_cls.load(path)
        except Exception:
            return None

    def store(self, model: "GenerativeModel", key: str) -> None:
        """Persist a fitted model under ``key`` (best effort, atomic)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                suffix=".npz", prefix=".tmp-", dir=self.root
            )
            os.close(fd)
            try:
                model.save(tmp_name)
                os.replace(tmp_name, self._path(key))
                faults.corrupt_artifact(self._path(key), f"cache/{key}")
            finally:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)
        except Exception:
            # A cache that cannot write is merely a cache that never hits —
            # but never a silent one.
            metrics.inc("cache.store_failed")
            trace.add_counter("cache.store_failed")
            get_logger("runtime.cache").warning(
                "failed to store cache entry %s", key, exc_info=True
            )

    def _sweep_orphans(self) -> None:
        """Delete stale ``.tmp-*.npz`` left by writers that died mid-store.

        ``mkstemp`` + ``os.replace`` is atomic for the entry itself, but a
        process killed between the two leaks the temp file forever.  Only
        files older than an hour are swept, so a live concurrent writer's
        temp file is never yanked out from under it.
        """
        if not self.root.is_dir():
            return
        cutoff = time.time() - _ORPHAN_AGE_S
        for orphan in self.root.glob(".tmp-*.npz"):
            try:
                if orphan.stat().st_mtime < cutoff:
                    orphan.unlink()
            except OSError:  # pragma: no cover - raced with another sweeper
                continue
