"""Content addressing for fitted models: corpus + hyperparameter digests.

The fit cache (:mod:`repro.runtime.cache`) keys fitted artifacts by *what
went into the fit*, not by when it ran: the model class, its canonicalized
constructor state, and a fingerprint of the training corpus.  Any change to
a company's install records — a new product, a shifted first-seen date, a
different vocabulary — changes the corpus fingerprint and therefore the
cache key, so stale artifacts can never be returned for fresh data.

Canonicalization is deliberately conservative: values the digest cannot
represent stably (live random generators, arbitrary objects) mark the model
*uncacheable* rather than risking a wrong hit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.data.corpus import Corpus

__all__ = ["Uncacheable", "canonical_params", "cache_key"]


class Uncacheable(Exception):
    """Raised when a model's state cannot be digested into a stable key."""


def _canonical_value(value: Any) -> Any:
    """JSON-encodable stand-in for one attribute value.

    Raises :class:`Uncacheable` for values without a stable representation.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return {
            "__ndarray__": hashlib.sha256(array.tobytes()).hexdigest(),
            "shape": list(array.shape),
            "dtype": str(array.dtype),
        }
    if isinstance(value, Corpus):
        return {"__corpus__": value.fingerprint()}
    if isinstance(value, np.random.Generator):
        raise Uncacheable("live random generators have no stable fingerprint")
    raise Uncacheable(f"cannot canonicalize {type(value).__name__} value")


def canonical_params(model: Any) -> dict[str, Any]:
    """Canonical constructor-state dict of an (unfitted) model instance.

    Every instance attribute participates — including private ones like the
    stored seed, since they change what ``fit`` computes.  Raises
    :class:`Uncacheable` when any attribute resists canonicalization.
    """
    return {
        name: _canonical_value(value)
        for name, value in sorted(vars(model).items())
    }


def cache_key(model: Any, corpus_fingerprint: str) -> str:
    """Content-addressed key for ``fit(model, corpus)``.

    Raises :class:`Uncacheable` when the model's state has no stable
    digest (callers treat that as "always refit").
    """
    payload = json.dumps(
        {
            "class": type(model).__qualname__,
            "params": canonical_params(model),
            "corpus": corpus_fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()
