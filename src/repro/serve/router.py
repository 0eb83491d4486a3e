"""Shared-nothing HTTP router over a fleet of serving workers.

Two jobs sit in front of a :mod:`repro.serve.fleet` deployment:

* **Routing.**  Every worker is a full replica, so every POST
  (``/recommend``, ``/similar``, admin calls) goes to the least-loaded
  worker — the router tracks its own in-flight count per worker.  A
  worker that refuses the connection (mid-restart) is retried on the
  next candidate, so a supervisor-restarted worker never surfaces as a
  client-visible error.
* **Aggregation.**  ``GET /metrics`` scrapes every worker's JSON
  snapshot and merges them with
  :func:`repro.obs.metrics.merge_snapshots` (counters summed, fleet
  percentiles as conservative worst-worker bounds), so ``repro obs top``
  and the SLO tooling see the whole fleet through one URL.  ``/healthz``
  and ``/readyz`` aggregate per-worker probes; ``/slo`` nests each
  worker's burn-rate view and unions the firing alerts.

The router is stateless: worker discovery is re-read from the fleet
state dir (with a tiny TTL cache), so restarts that change a worker's
direct port are picked up without reconfiguration.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer
from typing import Callable, Mapping

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.serve.fleet import WorkerState, read_fleet_state
from repro.serve.http import _OneWriteHandler

__all__ = ["FleetRouter", "RouterHTTPServer", "start_router"]


class _WorkerUnavailable(Exception):
    """A candidate worker refused the connection (likely mid-restart)."""


class FleetRouter:
    """Stateless routing + aggregation core (transport-agnostic).

    Parameters
    ----------
    workers_provider:
        Returns the current fleet view (``WorkerState`` list); typically
        a closure over :func:`repro.serve.fleet.read_fleet_state`.
    refresh_ttl_s:
        Discovery cache lifetime; the provider is re-polled after this.
    timeout_s:
        Per-forward upstream timeout.
    """

    def __init__(
        self,
        workers_provider: Callable[[], list[WorkerState]],
        *,
        refresh_ttl_s: float = 0.25,
        timeout_s: float = 30.0,
        retries: int = 2,
    ) -> None:
        self.workers_provider = workers_provider
        self.refresh_ttl_s = refresh_ttl_s
        self.timeout_s = timeout_s
        self.retries = retries
        self.metrics = MetricsRegistry()
        self._cache: list[WorkerState] = []
        self._cached_at = 0.0
        self._inflight: dict[int, int] = {}
        self._lock = threading.Lock()
        self._log = get_logger("serve.router")

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def workers(self) -> list[WorkerState]:
        now = time.monotonic()
        with self._lock:
            if self._cache and now - self._cached_at < self.refresh_ttl_s:
                return list(self._cache)
        fresh = self.workers_provider()
        with self._lock:
            self._cache = list(fresh)
            self._cached_at = now
        return list(fresh)

    def _candidates(self) -> list[WorkerState]:
        """Routing order for one request: least-loaded first, then by index."""
        workers = self.workers()
        with self._lock:
            loads = dict(self._inflight)
        return sorted(workers, key=lambda w: (loads.get(w.index, 0), w.index))

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _forward_once(
        self,
        worker: WorkerState,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, bytes, dict[str, str]]:
        request = urllib.request.Request(
            worker.direct_url + path,
            data=body,
            method=method,
            headers=dict(headers),
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), dict(exc.headers)
        except (urllib.error.URLError, OSError, ConnectionError) as exc:
            raise _WorkerUnavailable(str(exc)) from exc

    def forward(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, bytes, dict[str, str]]:
        """Route one request to the fleet; retries across candidates.

        A connection-refused candidate (worker mid-restart) is skipped
        and the next-least-loaded worker tried, so a supervisor restart
        under load never becomes a client-visible failure.  With no
        reachable worker at all the router sheds with 503 + Retry-After.
        """
        attempts = self._candidates()[: self.retries + 1]
        for worker in attempts:
            with self._lock:
                self._inflight[worker.index] = self._inflight.get(worker.index, 0) + 1
            try:
                status, payload, resp_headers = self._forward_once(
                    worker, method, path, body, headers
                )
                self.metrics.counter(
                    "router.forwarded", {"worker": str(worker.index)}
                ).inc()
                return status, payload, resp_headers
            except _WorkerUnavailable as exc:
                self.metrics.counter(
                    "router.unreachable", {"worker": str(worker.index)}
                ).inc()
                self._log.warning(
                    "worker %d unreachable (%s); trying next candidate",
                    worker.index,
                    exc,
                )
                with self._lock:
                    self._cache = []  # force re-discovery: ports may have moved
            finally:
                with self._lock:
                    self._inflight[worker.index] = max(
                        0, self._inflight.get(worker.index, 1) - 1
                    )
        self.metrics.counter("router.no_backend").inc()
        payload = json.dumps(
            {"error": "unavailable", "detail": "no serving worker reachable"}
        ).encode("utf-8")
        return 503, payload, {"Retry-After": "1"}

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _scrape(self, worker: WorkerState, path: str) -> dict | None:
        request = urllib.request.Request(
            worker.direct_url + path, headers={"Accept": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, OSError, ValueError):
            return None

    def aggregate_metrics(self) -> dict:
        """Fleet-level /metrics: merged instruments + per-worker detail."""
        workers = self.workers()
        snapshots: dict[int, dict] = {}
        for worker in workers:
            snap = self._scrape(worker, "/metrics")
            if snap is not None:
                snapshots[worker.index] = snap
        merged = merge_snapshots(list(snapshots.values()))
        router_counters = self.metrics.snapshot()["counters"]
        merged["router"] = {"counters": router_counters}
        merged["per_worker"] = {
            str(index): {
                section: snap.get(section)
                for section in ("models", "breakers", "quarantine", "flight", "tiers")
                if section in snap
            }
            for index, snap in sorted(snapshots.items())
        }
        merged["fleet"] = {
            "workers": [w.as_dict() for w in workers],
            "scraped": len(snapshots),
        }
        return merged

    def aggregate_health(self, probe: str) -> tuple[int, dict]:
        """Fleet /healthz (alive if any worker is) or /readyz (all ready)."""
        workers = self.workers()
        per_worker: dict[str, dict] = {}
        healthy = 0
        for worker in workers:
            result = self._scrape(worker, probe)
            ok = result is not None and (
                result.get("status") == "alive" or result.get("ready") is True
            )
            healthy += 1 if ok else 0
            per_worker[str(worker.index)] = {
                "ok": ok,
                "pid": worker.pid,
                "generation": worker.generation,
                **({"detail": result} if result is not None else {}),
            }
        if probe == "/readyz":
            status = 200 if workers and healthy == len(workers) else 503
        else:
            status = 200 if healthy >= 1 else 503
        return status, {
            "fleet": probe.lstrip("/"),
            "healthy": healthy,
            "workers": len(workers),
            "per_worker": per_worker,
        }

    def aggregate_slo(self) -> dict:
        """Per-worker SLO views with the firing alerts unioned."""
        alerts: set[str] = set()
        per_worker: dict[str, dict] = {}
        for worker in self.workers():
            view = self._scrape(worker, "/slo")
            if view is None:
                continue
            per_worker[str(worker.index)] = view
            alerts.update(view.get("alerts", []))
        return {"alerts": sorted(alerts), "per_worker": per_worker}

    def topology(self) -> dict:
        """The /fleet view: every worker's advertised state."""
        return {"workers": [w.as_dict() for w in self.workers()]}


class _RouterHandler(_OneWriteHandler):
    """HTTP shell translating requests into :class:`FleetRouter` calls."""

    server_version = "repro-router/1"
    protocol_version = "HTTP/1.1"

    @property
    def router(self) -> FleetRouter:
        return self.server.router  # type: ignore[attr-defined]

    def _send(
        self,
        status: int,
        payload: bytes,
        headers: Mapping[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            if name.lower() in ("content-length", "content-type", "connection",
                                "transfer-encoding", "server", "date"):
                continue
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()

    def _send_json(self, status: int, body: dict) -> None:
        self._send(status, json.dumps(body, sort_keys=True).encode("utf-8"))

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        path = self.path.partition("?")[0]
        try:
            if path == "/metrics":
                self._send_json(200, self.router.aggregate_metrics())
            elif path in ("/healthz", "/readyz"):
                status, body = self.router.aggregate_health(path)
                self._send_json(status, body)
            elif path == "/slo":
                self._send_json(200, self.router.aggregate_slo())
            elif path == "/fleet":
                self._send_json(200, self.router.topology())
            else:
                # Anything else (admin/debug etc.) goes to one worker.
                status, payload, headers = self.router.forward(
                    "GET", self.path, None, dict(self.headers.items())
                )
                self._send(status, payload, headers,
                           headers.get("Content-Type", "application/json"))
        except Exception:  # noqa: BLE001 - the router itself must not 5xx-leak
            get_logger("serve.router").error("router GET failed", exc_info=True)
            self._send_json(503, {"error": "unavailable", "detail": "router error"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        try:
            length = int(self.headers.get("Content-Length", "0") or "0")
        except ValueError:
            length = 0
        body = self.rfile.read(max(0, length)) if length > 0 else None
        try:
            status, payload, headers = self.router.forward(
                "POST", self.path, body, dict(self.headers.items())
            )
            self._send(status, payload, headers,
                       headers.get("Content-Type", "application/json"))
        except Exception:  # noqa: BLE001
            get_logger("serve.router").error("router POST failed", exc_info=True)
            self._send_json(503, {"error": "unavailable", "detail": "router error"})

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        get_logger("serve.router").debug(format, *args)


class RouterHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`FleetRouter`."""

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], router: FleetRouter) -> None:
        super().__init__(address, _RouterHandler)
        self.router = router


def start_router(
    state_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[RouterHTTPServer, threading.Thread]:
    """Start a router over a fleet state dir on a background thread."""
    router = FleetRouter(lambda: read_fleet_state(state_dir))
    server = RouterHTTPServer((host, port), router)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-router-http", daemon=True
    )
    thread.start()
    return server, thread
