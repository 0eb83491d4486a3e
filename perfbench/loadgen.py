"""One-process HTTP load generation: closed-loop keep-alive and open-loop.

Both loops use the standard library client only and only send and
record: a transport error, a timeout or an unparsable body surfaces as a
:class:`TransportError`, and whether an answer is *right* is decided after
the phase by the workload's checker, so checking never competes with the
server for CPU while latency is measured.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Callable, Iterator

#: Client-side socket timeout; a request slower than this is a failure.
TIMEOUT_S = 10.0


class TransportError(Exception):
    """The request never produced a parsable HTTP answer."""


class Client:
    """One HTTP connection; ``keep_alive=False`` opens a fresh one per request."""

    def __init__(self, host: str, port: int, *, keep_alive: bool) -> None:
        self.host = host
        self.port = port
        self.keep_alive = keep_alive
        self.connections = 0
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
            self.connections += 1
        return self._conn

    def close(self) -> None:
        """Drop the current connection (the next request reconnects)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def call(
        self, method: str, path: str, payload: Any = None, request_id: str | None = None
    ) -> tuple[int, Any]:
        """Send one request; returns ``(status, json body)``."""
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json", "Accept": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        conn = self._connection()
        try:
            conn.request(method, path, body, headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException, socket.timeout) as exc:
            self.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            if not self.keep_alive:
                self.close()
        if response.will_close:
            self.close()
        try:
            parsed = json.loads(raw) if raw else None
        except ValueError as exc:
            raise TransportError(f"unparsable body: {raw[:80]!r}") from exc
        return status, parsed


def closed_loop(
    make_client: Callable[[], Client],
    jobs: Iterator[Any],
    run_job: Callable[[Client, Any], None],
    *,
    clients: int,
    seconds: float,
) -> tuple[float, int]:
    """Run ``clients`` threads, each taking the next job when its last ends.

    Returns ``(elapsed seconds, connections opened)``.  Stops taking jobs
    once ``seconds`` have passed; a job in flight finishes.
    """
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    opened: list[Client] = []

    def worker() -> None:
        client = make_client()
        with lock:
            opened.append(client)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    job = next(jobs, None)
                if job is None:
                    return
                run_job(client, job)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 4 * TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop client did not finish")
    return time.perf_counter() - started, sum(c.connections for c in opened)


def open_loop(
    schedule: list[tuple[float, Any]],
    run_item: Callable[[Any, float], None],
    *,
    concurrency: int,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Send each ``(offset, item)`` at its due time with bounded concurrency.

    ``run_item(item, due)`` performs and times the request from ``due``
    (the scheduled instant), so a stall delays every later request and
    shows up in their latency.  When all ``concurrency`` senders are busy,
    due items wait: that wait (send time minus due time) is generator
    lateness.  Returns the elapsed wall time of the phase.
    """
    lock = threading.Lock()
    position = [0]
    started = clock()

    def worker() -> None:
        while True:
            with lock:
                index = position[0]
                if index >= len(schedule):
                    return
                position[0] += 1
            offset, item = schedule[index]
            due = started + offset
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            run_item(item, due)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    horizon = (schedule[-1][0] if schedule else 0.0) + 4 * TIMEOUT_S
    for thread in threads:
        thread.join(horizon)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop sender did not finish")
    return clock() - started
