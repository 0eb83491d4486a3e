"""Run ``repro serve`` through the CLI with the benchmark's span recorder.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py --spans OUT.json -- --companies 20000 --seed 1 serve --port 0

The CLI's own ``main`` builds the service, so the traced server runs the
exact ``ServiceConfig`` the untraced one does; the launcher only swaps in
an instrumenting ``build_demo_service`` and a connection-counting server
class before the CLI imports them.  Spans are written to ``--spans`` when
the server stops on SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import signal
import sys

import tracer


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span dump")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the repro CLI arguments")
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import repro.serve as serve
    from repro.cli import main as cli_main

    recorder = tracer.Recorder()
    tracer.instrument_classes(recorder)
    built = []
    build = serve.build_demo_service

    def build_instrumented(*a, **kw):
        service = build(*a, **kw)
        tracer.instrument_service(recorder, service)
        built.append(service)
        return service

    serve.build_demo_service = build_instrumented
    # Stop requests arrive as SIGTERM (or Ctrl-C); both end the CLI's
    # serve loop through its own KeyboardInterrupt path.
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    code = cli_main(cli_args)
    counters = built[0].metrics_snapshot()["counters"] if built else {}
    recorder.dump(args.spans, counters)
    return code


if __name__ == "__main__":
    sys.exit(main())
