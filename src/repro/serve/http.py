"""Stdlib HTTP transport for the recommendation service.

A thin :class:`~http.server.ThreadingHTTPServer` shell around
:meth:`RecommendationService.handle` — every request thread reads the JSON
body, forwards the request headers (so the core can honour
``X-Request-Id`` and content-negotiate ``/metrics``), dispatches into the
transport-agnostic core, and writes the response payload with whatever
extra headers (``Retry-After``, ``Allow``, ``X-Request-Id``) and content
type the core attached.  No framework, no dependency: the paper's tool is
a deployed service and this layer is what lets the reproduction answer
real sockets.

Transport tuning comes from :class:`~repro.serve.service.ServiceConfig`:
``listen_backlog`` (socketserver's default of 5 resets connections under
bursts), ``reuse_address``, and ``reuse_port`` — SO_REUSEPORT lets every
worker of a pre-fork fleet bind the same port so the kernel spreads
accepts across processes (:mod:`repro.serve.fleet`).  Where SO_REUSEPORT
is unavailable, the fleet passes an already-bound socket instead and the
server adopts it.

The transport also guarantees the accepted socket is closed when a
handler crashes (fault site ``serve/http/handler``): the crash is
answered with a best-effort 500 and the connection torn down, so a
misbehaving handler can never leak file descriptors.
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.logging import get_logger
from repro.runtime import faults
from repro.serve.service import RecommendationService

__all__ = ["ServiceHTTPServer", "start_server"]

#: Request bodies beyond this many bytes are rejected before being read
#: into memory (413) — the transport-level half of admission control.
MAX_BODY_BYTES = 1 << 20


class _OneWriteHandler(BaseHTTPRequestHandler):
    """Request handler whose responses leave the socket in one send.

    Headers and body written unbuffered go out as two sends, and on a
    reused keep-alive connection the second waits out the client's
    delayed ACK (~40 ms).  The buffered writer gathers both, respond
    methods flush once at the end, and TCP_NODELAY keeps a payload larger
    than the buffer from stalling the same way.
    """

    wbufsize = -1
    disable_nagle_algorithm = True

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now, before waiting for the request body."""
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted


class _Handler(_OneWriteHandler):
    """Translates HTTP requests into ``service.handle`` calls."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> RecommendationService:
        return self.server.service  # type: ignore[attr-defined]

    def _respond(
        self,
        status: int,
        payload: bytes,
        headers: dict[str, str],
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()

    def _dispatch(self, body: bytes | None) -> None:
        try:
            faults.inject("serve/http/handler")
            response = self.service.handle(
                self.command, self.path, body, dict(self.headers.items())
            )
        except Exception:  # noqa: BLE001 - transport crash: close, never leak
            get_logger("serve.http").error(
                "transport handler crashed", exc_info=True
            )
            self.close_connection = True
            try:
                self._respond(
                    500,
                    b'{"error": "internal", "detail": "transport handler crashed"}',
                    {},
                )
            except OSError:
                pass  # client already gone; the finally in socketserver closes
            return
        try:
            self._respond(
                response.status,
                response.payload(),
                response.headers,
                response.content_type,
            )
        except OSError:
            # The client hung up mid-write; drop the connection so the
            # thread (and its socket) is reclaimed immediately.
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch(None)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        try:
            length = int(self.headers.get("Content-Length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # Reject without reading the body; the unread bytes make the
            # connection unusable for keep-alive, so close it.
            self.close_connection = True
            self._respond(
                413,
                b'{"error": "oversized", "detail": "request body too large"}',
                {},
            )
            return
        self._dispatch(self.rfile.read(length))

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        get_logger("serve.http").debug(format, *args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`RecommendationService`.

    Listen-socket tuning (backlog, SO_REUSEADDR, SO_REUSEPORT) comes from
    the service's :class:`~repro.serve.service.ServiceConfig`.  Passing
    ``sock`` adopts an already-bound listening socket instead of binding
    ``address`` — the pre-fork fleet's inherited-FD path on platforms
    without SO_REUSEPORT.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: RecommendationService,
        *,
        sock: socket.socket | None = None,
    ) -> None:
        config = service.config
        # Instance attributes shadow the socketserver class defaults and
        # must exist before super().__init__ triggers server_bind().
        self.request_queue_size = config.listen_backlog
        self.allow_reuse_address = config.reuse_address
        self._reuse_port = config.reuse_port
        self.service = service
        if sock is None:
            super().__init__(address, _Handler)
        else:
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            sock.listen(self.request_queue_size)

    def server_bind(self) -> None:
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError(
                    "SO_REUSEPORT requested but unsupported on this platform; "
                    "pass a shared pre-bound socket instead"
                )
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def start_server(
    service: RecommendationService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceHTTPServer, threading.Thread]:
    """Start the service on a background thread; ``port=0`` picks a free one.

    Returns the server (``server.server_address`` holds the bound port)
    and its thread.  Call ``server.shutdown()`` to stop.
    """
    server = ServiceHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server, thread
