"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload enrich-keepalive --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics against the unmodified
program; ``--trace 1`` repeats the same pass untraced, then once more with
the benchmark's span recorder around each layer's entry points, and prints
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); every line before it is the human-readable report.  See
``perfbench/README.md`` for the workloads, the metrics and what no workload
covers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def declared(root: str) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _fail_fast(root: str) -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {os.path.join(root, 'src', 'repro')}; "
              "run from the root of a full checkout", file=sys.stderr)
        raise SystemExit(2)


def _terminate(signum, frame) -> None:
    # Unwind through the workloads' cleanup so no server outlives the run.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["enrich-keepalive", "hotset-swap", "paper-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    _fail_fast(root)
    sys.path.insert(0, HERE)
    sys.path.insert(1, os.path.join(root, "src"))

    import host
    import selftest

    end_to_end, per_layer = declared(root)
    selftest.run()
    if args.workload == "paper-pipeline":
        import pipeline

        result = pipeline.measure(root, args.seed, trace=bool(args.trace))
    else:
        import workloads

        result = workloads.measure(args.workload, root, args.seed, args.seconds,
                                   trace=bool(args.trace))
    facts = host.facts(root)
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}",
             "host: " + json.dumps(facts, sort_keys=True),
             "inputs: " + json.dumps(result["inputs"], sort_keys=True)]
    lines += result["report"]
    e2e = result["end_to_end"]
    lines.append("end-to-end metrics (gated):")
    lines += [f"  {name:<22} {e2e[name]:>12.4f} {unit}" for name, unit in end_to_end.items()]
    lines.append("end-to-end metrics (reported, not gated: see perfbench/README.md):")
    lines += [f"  {name:<22} {value:>12.4f} {unit}"
              for name, (value, unit) in result["reported"].items()]
    if args.trace:
        lines.append("tracing overhead (traced - untraced):")
        lines += [f"  {k:<22} {v:+.4f}" for k, v in result["tracing_overhead"].items()]
        lines.append("per-layer metrics:")
        lines += [f"  {k:<46} {v['value']:>12.4f} {v['unit']}"
                  for k, v in result["per_layer"].items()]
        layers = result["per_layer"]
        undeclared = set(layers) - set(per_layer)
        if undeclared:
            raise SystemExit(f"perfbench: per-layer metrics missing from BENCHMARK.json: "
                             f"{sorted(undeclared)}")
        # A layer the workload never calls reports zero work.
        metrics = {name: layers.get(name, {"value": 0.0, "unit": unit})
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end.items()}
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": facts, **result}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    lines.append(f"result written to {os.path.relpath(path, root)}")
    lines.append("correct: " + ("yes" if result["correct"] else "NO"))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
