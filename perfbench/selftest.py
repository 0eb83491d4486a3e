"""Self-test of the benchmark's own accounting; ``run.py`` runs it first.

Covers the percentile, sample-count and relative-time arithmetic, failure accounting
(a refused connection is one attempted, failed operation with no latency
sample), and open-loop lateness (a request that waits for a busy sender
is timed from its due time).  Run alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import http.server
import json
import socket
import sys
import threading
import time

from host import relative
from loadgen import Client, TransportError, closed_loop, open_loop
from stats import Tally, beyond, percentile, percentile_or_zero, summarize


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(f"perfbench self-test failed: {what}")


def _percentiles() -> None:
    values = list(range(1, 101))  # 1..100
    _check(percentile(values, 50) == 50.5, "median of 1..100")
    _check(abs(percentile(values, 99) - 99.01) < 1e-9, "p99 of 1..100 (linear)")
    _check(percentile([7.0], 99) == 7.0, "percentile of one sample")
    _check(percentile([3, 1, 2], 0) == 1 and percentile([3, 1, 2], 100) == 3, "extremes")
    _check(beyond(1000, 99) == 10, "p99 of 1000 samples has 10 beyond it")
    _check(beyond(100, 99) == 1, "p99 of 100 samples has 1 beyond it")
    _check(summarize([], scale=1.0) == {"n": 0, "p50": 0.0, "p99": 0.0},
           "empty summary has no samples and reads 0")
    _check(percentile_or_zero([], 99, 1000.0) == 0.0, "a layer never called reads 0")
    _check(percentile_or_zero([0.002, 0.004], 50, 1000.0) == 3.0, "scaled median")
    _check(relative([2.0, 3.0], [1.0, 1.0, 2.0]) == 4.0,
           "each step over the mean of the yardsticks around it")
    try:
        percentile([], 50)
    except ValueError:
        pass
    else:
        _check(False, "percentile of nothing must raise")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _failure_accounting() -> None:
    tally = Tally()
    port = _free_port()  # nothing listens here once the probe socket closes
    client = Client("127.0.0.1", port, keep_alive=True)
    try:
        client.call("POST", "/recommend", {"history": []})
    except TransportError:
        tally.fail("/recommend", "transport")
    else:
        _check(False, "a refused connection must raise TransportError")
    tally.ok("/recommend", 0.002)
    _check(tally.attempted == 2 and tally.failed == 1, "attempted/failed after one refusal")
    _check(tally.samples("/recommend") == [0.002], "a failed request adds no latency sample")
    _check(tally.failures == {"/recommend:transport": 1}, "failure reason recorded")


class _SlowHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay_s = 0.05

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        time.sleep(self.delay_s)
        body = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def _open_loop_lateness() -> None:
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        seen = []

        def run_item(item, due):
            sent = time.perf_counter()
            Client(host, port, keep_alive=False).call("POST", "/x", {})
            seen.append((item, sent - due, time.perf_counter() - due))

        # Two requests due at once through one sender: the second waits a
        # whole service time before it is sent, and its latency (from due)
        # includes that wait.
        open_loop([(0.0, "a"), (0.0, "b")], run_item, concurrency=1)
        (_, late_a, lat_a), (_, late_b, lat_b) = sorted(seen)
        _check(late_a < 0.04, "the first request goes out on time")
        _check(late_b >= 0.045, "the second request's lateness covers the first's service")
        _check(lat_b >= late_b + 0.045, "latency is timed from the due time")

        done = []
        elapsed, connections = closed_loop(
            lambda: Client(host, port, keep_alive=True), iter(range(3)),
            lambda client, job: done.append(client.call("POST", "/x", {})[0]),
            clients=1, seconds=5.0)
        _check(done == [200, 200, 200] and connections == 1, "keep-alive reuses one connection")
        _check(elapsed >= 0.15, "closed loop waits for each answer")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def run() -> None:
    """Run every check; raises ``AssertionError`` on the first that fails."""
    _percentiles()
    _failure_accounting()
    _open_loop_lateness()


if __name__ == "__main__":
    run()
    print("perfbench self-test passed")
    sys.exit(0)
