"""Pre-fork worker fleet: one supervisor, N shared-nothing serving workers.

A single :class:`~http.server.ThreadingHTTPServer` caps the serving tier
at one GIL and one heap copy of the models.  This module scales the
transport-agnostic :class:`~repro.serve.service.RecommendationService`
across processes the classic pre-fork way:

* the **supervisor** reserves the fleet port, forks ``n_workers``
  children, restarts crashed ones with exponential backoff, and drains
  the fleet gracefully on SIGTERM;
* each **worker** is a full replica serving every company.  It binds the
  shared fleet port with SO_REUSEPORT (the kernel spreads accepts across
  processes — shared-nothing, no router needed for the fast path) or
  adopts a socket the supervisor bound once pre-fork where SO_REUSEPORT
  is unavailable, plus its *own* direct port for per-worker scrapes,
  routed traffic and health probes.  A worker whose supervisor dies
  drains and exits as on SIGTERM;
* model weights come from a generation-numbered
  :class:`~repro.serve.artifact.ArtifactStore` and are loaded with
  ``mmap_mode="r"`` — N workers share one page-cache copy;
* a per-worker **artifact watcher** polls the store's bump file (and
  wakes on SIGHUP) and remaps on a new generation through the registry's
  DriftMonitor gate, so promotion/rejection semantics, the generation
  counter, top-k-cache invalidation and the similarity-feature refresh
  are exactly the single process's — per worker.

Worker discovery is filesystem-based: each worker atomically rewrites
``state_dir/worker-<index>.json`` (pid, ports, applied model
generation), which the supervisor, the router and the load harness read.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs.logging import get_logger
from repro.runtime.executor import watch_parent
from repro.serve.artifact import ArtifactStore
from repro.serve.http import ServiceHTTPServer
from repro.serve.service import RecommendationService

__all__ = ["WorkerState", "ArtifactWatcher", "FleetSupervisor", "run_worker"]

_HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")


@dataclass(frozen=True)
class WorkerState:
    """One worker's advertised state, as written to the state dir."""

    index: int
    pid: int
    fleet_port: int
    direct_port: int
    generation: int
    started_at: float

    @property
    def direct_url(self) -> str:
        return f"http://127.0.0.1:{self.direct_port}"

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "pid": self.pid,
            "fleet_port": self.fleet_port,
            "direct_port": self.direct_port,
            "generation": self.generation,
            "started_at": self.started_at,
        }

    @staticmethod
    def read(path: Path) -> "WorkerState | None":
        """Parse a state file; a torn or missing file reads as None."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return WorkerState(**{k: data[k] for k in (
                "index", "pid", "fleet_port", "direct_port",
                "generation", "started_at",
            )})
        except (OSError, ValueError, KeyError, TypeError):
            return None


def _write_state(state_dir: Path, state: WorkerState) -> None:
    """Atomically publish a worker state file (tmp + rename)."""
    state_dir.mkdir(parents=True, exist_ok=True)
    target = state_dir / f"worker-{state.index}.json"
    temp = state_dir / f".worker-{state.index}.json.tmp"
    temp.write_text(json.dumps(state.as_dict()) + "\n", encoding="utf-8")
    os.replace(temp, target)


def read_fleet_state(state_dir: str | Path) -> list[WorkerState]:
    """Every live worker state file in a fleet state dir, by index."""
    states = []
    for path in sorted(Path(state_dir).glob("worker-*.json")):
        state = WorkerState.read(path)
        if state is not None:
            states.append(state)
    return sorted(states, key=lambda s: s.index)


class ArtifactWatcher:
    """Background thread remapping a worker's models on generation bumps.

    Polls :meth:`ArtifactStore.generation` every ``poll_interval`` seconds
    (and immediately when :meth:`wake` is called — the worker's SIGHUP
    handler).  A new generation is applied slot by slot through
    ``registry.swap(..., mmap_mode="r")``: the DriftMonitor gate, the
    registry generation counter, and the cache-invalidation and
    feature-refresh subscribers all fire exactly as they do for an
    in-process hot-swap.
    A rejected candidate leaves the incumbent serving and is not retried
    until the *next* bump, so a bad publish cannot become a reload storm.
    """

    def __init__(
        self,
        service: RecommendationService,
        store: ArtifactStore,
        *,
        poll_interval: float = 0.25,
        applied: int | None = None,
        on_applied: Callable[[int], None] | None = None,
    ) -> None:
        self.service = service
        self.store = store
        self.poll_interval = poll_interval
        self.applied = applied if applied is not None else (store.generation() or 0)
        self.attempted = self.applied
        self.on_applied = on_applied
        self.swaps: list[dict[str, str]] = []
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._log = get_logger("serve.fleet.watcher")

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-artifact-watcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def wake(self) -> None:
        """Trigger an immediate check (SIGHUP handler calls this)."""
        self._wake.set()

    def check_once(self) -> bool:
        """Apply the latest published generation if it is new; True if applied."""
        number = self.store.generation()
        if number is None or number <= self.attempted:
            return False
        self.attempted = number
        published = self.store.current()
        if published is None or published.number != number:
            # Torn read: bump visible but directory not yet resolvable
            # (or already superseded).  The next poll re-reads.
            self.attempted = self.applied
            return False
        registry = self.service.registry
        # All-or-nothing: every slot is staged and gate-validated BEFORE
        # any slot is promoted.  A generation with one bad artifact is
        # rejected whole — a worker never serves a torn mix of old and
        # new models.
        candidates: dict[str, object] = {}
        for slot in published.slots():
            if slot not in registry.names():
                continue
            candidate, reason = registry.validate(
                slot, published.slot_path(slot), mmap_mode="r"
            )
            if candidate is None:
                self.swaps.append(
                    {"slot": slot, "status": "rejected", "reason": reason}
                )
                self._log.warning(
                    "artifact generation %d rejected whole: slot %s failed "
                    "validation (%s); incumbent generation keeps serving",
                    number,
                    slot,
                    reason,
                )
                return False
            candidates[slot] = candidate
        # Readiness dips for the remap window, exactly like the in-process
        # /admin/hotswap path; in-flight requests keep the models they
        # already resolved.
        self.service._ready = False
        try:
            outcomes = {}
            for slot, candidate in candidates.items():
                report = registry.swap(slot, candidate)
                outcomes[slot] = report.status
                self.swaps.append(
                    {"slot": slot, "status": report.status, "reason": report.reason}
                )
        finally:
            self.service._ready = True
        if outcomes and all(status == "promoted" for status in outcomes.values()):
            self.applied = number
            self._log.info("remapped to artifact generation %d: %s", number, outcomes)
            if self.on_applied is not None:
                self.on_applied(number)
            return True
        self._log.warning(
            "artifact generation %d not fully applied: %s (incumbent keeps serving)",
            number,
            outcomes,
        )
        return False

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.check_once()
            except Exception:  # noqa: BLE001 - the watcher must survive anything
                self._log.error("artifact watcher check failed", exc_info=True)
            self._wake.wait(self.poll_interval)
            self._wake.clear()


def _fleet_socket(host: str, port: int) -> socket.socket:
    """A bound (not listening) SO_REUSEPORT socket reserving the fleet port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if _HAS_REUSEPORT:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


def run_worker(
    index: int,
    service_factory: Callable[[], RecommendationService],
    *,
    host: str,
    fleet_port: int,
    state_dir: Path,
    store: ArtifactStore | None,
    parent_pid: int,
    poll_interval: float = 0.25,
    inherited_sock: socket.socket | None = None,
    drain_grace_s: float = 5.0,
) -> int:
    """Body of one worker process; returns the exit code.

    Builds the service (models mmap'd from the artifact store when one is
    wired), binds the shared fleet port plus a unique direct port, writes
    the discovery state file, then serves until SIGTERM or the death of
    ``parent_pid``, the process that forked it (read before the fork, so
    a parent killed right after it is still seen).  SIGHUP forces an
    immediate artifact re-check.  The drain stops accepting first, then
    waits up to ``drain_grace_s`` for in-flight requests.
    """
    log = get_logger("serve.fleet.worker")
    stop = threading.Event()
    watcher: ArtifactWatcher | None = None

    def on_term(signum: int, frame: object) -> None:
        del signum, frame
        stop.set()

    def on_hup(signum: int, frame: object) -> None:
        del signum, frame
        if watcher is not None:
            watcher.wake()

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    signal.signal(signal.SIGHUP, on_hup)
    # Orphaned, a worker would go on sharing the fleet port with whatever
    # binds it next; it drains instead, as on SIGTERM.
    watch_parent(parent_pid, stop.set)

    generation_at_build = store.generation() or 0 if store is not None else 0
    service = service_factory()

    # Shared fleet listener: kernel-balanced SO_REUSEPORT bind, or the
    # socket the supervisor bound once pre-fork.
    if inherited_sock is None:
        inherited_sock = _fleet_socket(host, fleet_port)
    fleet_server = ServiceHTTPServer((host, fleet_port), service, sock=inherited_sock)
    # Unique direct listener for scrapes, routed traffic and health probes.
    direct_server = ServiceHTTPServer((host, 0), service)
    direct_port = direct_server.server_address[1]

    def publish_state(generation: int) -> None:
        _write_state(
            state_dir,
            WorkerState(
                index=index,
                pid=os.getpid(),
                fleet_port=fleet_server.server_address[1],
                direct_port=direct_port,
                generation=generation,
                started_at=time.time(),
            ),
        )

    if store is not None:
        watcher = ArtifactWatcher(
            service,
            store,
            poll_interval=poll_interval,
            applied=generation_at_build,
            on_applied=publish_state,
        )
        watcher.start()

    publish_state(generation_at_build)
    threads = [
        threading.Thread(target=fleet_server.serve_forever, daemon=True),
        threading.Thread(target=direct_server.serve_forever, daemon=True),
    ]
    for thread in threads:
        thread.start()
    log.info(
        "worker %d up: pid %d, fleet :%d, direct :%d",
        index, os.getpid(), fleet_server.server_address[1], direct_port,
    )
    try:
        stop.wait()
    finally:
        # Graceful drain: stop accepting, let in-flight requests finish.
        fleet_server.shutdown()
        direct_server.shutdown()
        deadline = time.monotonic() + drain_grace_s
        while time.monotonic() < deadline and service._inflight > 0:
            time.sleep(0.02)
        if watcher is not None:
            watcher.stop()
        service.close()
        fleet_server.server_close()
        direct_server.server_close()
        try:
            (state_dir / f"worker-{index}.json").unlink(missing_ok=True)
        except OSError:
            pass
    return 0


class FleetSupervisor:
    """Forks, watches, restarts and drains a fleet of serving workers.

    Parameters
    ----------
    service_factory:
        ``factory() -> RecommendationService``; called *inside* each worker
        after the fork, so per-process resources (batcher threads, mmap
        handles) are never shared across processes.  Every worker builds
        the same full replica.
    n_workers:
        Fleet width.
    host, port:
        The shared fleet address; ``port=0`` reserves a free port.
    state_dir:
        Worker discovery directory (state files, read by the router).
    store:
        Optional :class:`ArtifactStore` workers watch for hot-swaps.
    restart_backoff_s, max_backoff_s:
        Exponential backoff between restarts of a crashing worker slot;
        the backoff resets once a worker stays up ``stable_after_s``.
    """

    def __init__(
        self,
        service_factory: Callable[[], RecommendationService],
        *,
        n_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dir: str | Path,
        store: ArtifactStore | None = None,
        poll_interval: float = 0.25,
        restart_backoff_s: float = 0.1,
        max_backoff_s: float = 2.0,
        stable_after_s: float = 5.0,
        drain_grace_s: float = 5.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.service_factory = service_factory
        self.n_workers = n_workers
        self.host = host
        self.port = port
        self.state_dir = Path(state_dir)
        self.store = store
        self.poll_interval = poll_interval
        self.restart_backoff_s = restart_backoff_s
        self.max_backoff_s = max_backoff_s
        self.stable_after_s = stable_after_s
        self.drain_grace_s = drain_grace_s
        self.restarts = 0
        self._reserved: socket.socket | None = None
        self._pids: dict[int, int] = {}  # worker index -> pid
        self._spawned_at: dict[int, float] = {}
        self._failures: dict[int, int] = {}
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._lock = threading.Lock()
        self._log = get_logger("serve.fleet")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        """Reserve the fleet port, fork every worker, start the monitor."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.state_dir.glob("worker-*.json"):
            stale.unlink(missing_ok=True)
        # The reserved socket pins the port without listening: with
        # SO_REUSEPORT the kernel only balances across *listening*
        # sockets, so the supervisor holding a bound-but-quiet socket
        # keeps the port ours while receiving no traffic.  Without
        # SO_REUSEPORT this same socket is put into listen mode once and
        # inherited by every child (accept-herd sharing).
        self._reserved = _fleet_socket(self.host, self.port)
        self.fleet_port = self._reserved.getsockname()[1]
        if not _HAS_REUSEPORT:
            self._reserved.listen(128)
        for index in range(self.n_workers):
            self._spawn(index)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    @property
    def fleet_url(self) -> str:
        return f"http://{self.host}:{self.fleet_port}"

    def _spawn(self, index: int) -> None:
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            # Child: never return into the parent's stack.
            code = 1
            try:
                inherited = self._reserved if not _HAS_REUSEPORT else None
                if inherited is None and self._reserved is not None:
                    self._reserved.close()
                code = run_worker(
                    index,
                    self.service_factory,
                    host=self.host,
                    fleet_port=self.fleet_port,
                    state_dir=self.state_dir,
                    store=self.store,
                    parent_pid=parent,
                    poll_interval=self.poll_interval,
                    inherited_sock=inherited,
                    drain_grace_s=self.drain_grace_s,
                )
            except BaseException:  # noqa: BLE001 - the child must exit, not unwind
                try:
                    self._log.error("worker %d crashed at startup", index, exc_info=True)
                except Exception:  # noqa: BLE001
                    pass
                code = 1
            finally:
                os._exit(code)
        with self._lock:
            self._pids[index] = pid
            self._spawned_at[index] = time.monotonic()
        self._log.info("spawned worker %d as pid %d", index, pid)

    def _monitor_loop(self) -> None:
        """Reap exited workers and restart crashes with backoff.

        Waits on each tracked pid individually (never ``waitpid(-1)``,
        which would steal exit notifications from process pools sharing
        this process).
        """
        while not self._stopping.is_set():
            with self._lock:
                tracked = dict(self._pids)
            for index, pid in tracked.items():
                try:
                    done, status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done, status = pid, 1 << 8  # lost: treat as crash
                if done == 0:
                    continue
                if self._stopping.is_set():
                    break
                exited_clean = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
                uptime = time.monotonic() - self._spawned_at.get(index, 0.0)
                with self._lock:
                    self._pids.pop(index, None)
                if exited_clean:
                    self._log.info("worker %d exited cleanly; not restarting", index)
                    continue
                failures = self._failures.get(index, 0)
                if uptime >= self.stable_after_s:
                    failures = 0  # it had settled; fresh backoff ladder
                self._failures[index] = failures + 1
                delay = min(
                    self.restart_backoff_s * (2 ** failures), self.max_backoff_s
                )
                self._log.warning(
                    "worker %d (pid %d) died with status %d after %.1fs; "
                    "restart in %.2fs (attempt %d)",
                    index, pid, status, uptime, delay, failures + 1,
                )
                self.restarts += 1
                if self._stopping.wait(delay):
                    break
                self._spawn(index)
            self._stopping.wait(0.05)

    def workers(self) -> list[WorkerState]:
        """Discovery view: every worker state file currently published."""
        return read_fleet_state(self.state_dir)

    def live_pids(self) -> dict[int, int]:
        """Tracked worker pids by index."""
        with self._lock:
            return dict(self._pids)

    def wait_ready(self, timeout: float = 30.0) -> list[WorkerState]:
        """Block until every worker slot has published a live state file."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            states = self.workers()
            with self._lock:
                pids = dict(self._pids)
            if len(states) >= self.n_workers and all(
                s.pid == pids.get(s.index) for s in states
            ):
                return states
            time.sleep(0.05)
        raise TimeoutError(
            f"fleet not ready after {timeout}s: "
            f"{len(self.workers())}/{self.n_workers} workers published"
        )

    def signal_workers(self, signum: int) -> None:
        """Send a signal (e.g. SIGHUP for remap-now) to every live worker."""
        for pid in self.live_pids().values():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def publish(self, models, *, hup: bool = True):
        """Publish a new model generation and nudge workers to remap."""
        if self.store is None:
            raise RuntimeError("this fleet has no artifact store wired")
        published = self.store.publish(models)
        if hup:
            self.signal_workers(signal.SIGHUP)
        return published

    def wait_generation(self, generation: int, timeout: float = 30.0) -> list[WorkerState]:
        """Block until every worker advertises ``generation`` applied."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            states = self.workers()
            if len(states) >= self.n_workers and all(
                s.generation >= generation for s in states
            ):
                return states
            time.sleep(0.05)
        raise TimeoutError(
            f"workers never converged to generation {generation}: "
            f"{[(s.index, s.generation) for s in self.workers()]}"
        )

    def stop(self, grace_s: float | None = None) -> None:
        """Drain the fleet: SIGTERM, bounded wait, SIGKILL stragglers."""
        grace = self.drain_grace_s if grace_s is None else grace_s
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        with self._lock:
            pids = dict(self._pids)
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        remaining = dict(pids)
        while remaining and time.monotonic() < deadline:
            for index, pid in list(remaining.items()):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    remaining.pop(index)
            time.sleep(0.02)
        for index, pid in remaining.items():
            self._log.warning("worker %d (pid %d) ignored SIGTERM; killing", index, pid)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        with self._lock:
            self._pids.clear()
        if self._reserved is not None:
            try:
                self._reserved.close()
            except OSError:
                pass
            self._reserved = None

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
