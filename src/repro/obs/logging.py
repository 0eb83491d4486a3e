"""Structured logging setup: plain-text console plus JSON-lines file output.

All library logging hangs off the ``repro`` logger hierarchy.  Nothing is
emitted until :func:`configure` is called (normally once, by the CLI from
``--log-level`` / ``--log-json``); libraries embedding :mod:`repro` can call
it themselves or attach their own handlers.

Structured payloads ride on the standard :mod:`logging` ``extra``
mechanism under the ``obs`` key::

    get_logger("cli").info("command finished", extra={"obs": {"wall_s": 1.2}})

The plain-text handler renders only the message; the JSON-lines handler
merges the ``obs`` dict into the record object, one JSON document per line.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from typing import IO, Any

__all__ = ["LOGGER_NAME", "JsonLinesFormatter", "configure", "get_logger"]

#: Root of the library's logger hierarchy.
LOGGER_NAME = "repro"

#: Handlers installed by :func:`configure`, removed on reconfiguration so
#: repeated calls (tests, long-lived embedding processes) never stack
#: duplicate handlers.
_installed: list[logging.Handler] = []


def _json_safe(value: Any) -> Any:
    """Recursively coerce ``value`` into strictly valid JSON.

    ``json.dumps`` happily emits ``NaN``/``Infinity`` (invalid JSON that
    downstream parsers reject) and raises on unknown types; log emission
    must do neither, so non-finite floats become strings and anything
    unencodable falls back to ``repr``.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


class _CurrentStderrHandler(logging.StreamHandler):
    """Console handler that writes to whatever ``sys.stderr`` is at emit time.

    Binding the stream at :func:`configure` time would keep a replaced
    ``sys.stderr`` (a test's capture buffer, a closed pipe) for good, and
    every later record would fail with ``I/O operation on closed file``.
    Resolving it per record is what :data:`logging.lastResort` does.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> IO[str]:
        """The interpreter's current ``sys.stderr``."""
        return sys.stderr


class JsonLinesFormatter(logging.Formatter):
    """Format records as one JSON document per line.

    Standard fields: ``ts`` (epoch seconds), ``level``, ``logger``,
    ``message``; any dict passed as ``extra={"obs": {...}}`` is merged in,
    and exception info is rendered under ``exc_info``.  When the record is
    emitted inside a request scope (:mod:`repro.obs.context`), the line is
    stamped with that request's ``request_id`` and ``trace_id`` so log
    lines join up with metrics exemplars and flight-recorder entries.
    Values that are not JSON-serialisable (or are non-finite floats) are
    coerced rather than raised on — a log call must never take down the
    caller.
    """

    def format(self, record: logging.LogRecord) -> str:
        """Render one record as a single-line JSON document."""
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        # Imported here: repro.obs.context pulls in trace machinery that
        # must not become a hard import dependency of basic logging setup.
        from repro.obs import context as obs_context

        ctx = obs_context.current()
        if ctx is not None:
            payload["request_id"] = ctx.request_id
            payload["trace_id"] = ctx.trace_id
        structured = getattr(record, "obs", None)
        if isinstance(structured, dict):
            payload.update(structured)
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(_json_safe(payload), default=repr, allow_nan=False)


def configure(
    level: int | str = "WARNING",
    *,
    json_path: str | Path | None = None,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Configure the ``repro`` logger; idempotent.

    Parameters
    ----------
    level:
        Threshold for the plain-text console handler (name or number).
    json_path:
        When given, also append JSON-lines records (at INFO and above,
        regardless of the console level) to this file.
    stream:
        Console destination.  By default each record goes to the
        ``sys.stderr`` of the moment it is emitted, so replacing or
        closing an earlier ``sys.stderr`` never loses a record.

    Returns the configured ``repro`` logger.
    """
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
        if not isinstance(level, int):
            raise ValueError(f"unknown log level {level!r}")
    logger = logging.getLogger(LOGGER_NAME)
    for handler in _installed:
        logger.removeHandler(handler)
        handler.close()
    _installed.clear()

    console = (
        logging.StreamHandler(stream) if stream is not None else _CurrentStderrHandler()
    )
    console.setLevel(level)
    console.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    logger.addHandler(console)
    _installed.append(console)

    if json_path is not None:
        file_handler = logging.FileHandler(Path(json_path), encoding="utf-8")
        file_handler.setLevel(min(level, logging.INFO))
        file_handler.setFormatter(JsonLinesFormatter())
        logger.addHandler(file_handler)
        _installed.append(file_handler)

    # The logger itself passes everything any handler might want; the
    # handlers apply their own thresholds.
    logger.setLevel(min(level, logging.INFO))
    logger.propagate = False
    return logger


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if name is None:
        return logging.getLogger(LOGGER_NAME)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")
