"""Record the paper-pipeline values its correctness check compares against.

Run from the checkout root (``src`` on ``PYTHONPATH``)::

    PYTHONPATH=src python3 perfbench/record_expected.py 0 1 2 3 4 5 6 7 8 9

Values are recorded serially (``n_jobs=1``); the benchmark runs the same
experiment functions with ``n_jobs`` = the core count, so the check also holds the
program to its promise that results do not depend on the job count.
Re-record only when a change is meant to move the paper's numbers.
"""

from __future__ import annotations

import json
import sys

import pipeline


def record(seed: int) -> dict:
    """Table 1 perplexities and LDA3 recall at phi = 0.1 for one universe seed."""
    from repro.experiments import (
        make_experiment_data,
        run_perplexity_table,
        run_recommendation_accuracy,
    )
    from repro.recommend.windows import SlidingWindowSpec

    data = make_experiment_data(pipeline.N_COMPANIES, seed=seed)
    table = run_perplexity_table(data, n_jobs=1)
    curves = run_recommendation_accuracy(
        data, spec=SlidingWindowSpec(n_windows=pipeline.WINDOWS), retrain_per_window=True,
        n_jobs=1)
    return {"table1": table, "lda_recall_phi0.1": curves["LDA3"].recall(0.1)[0]}


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv]
    payload = {
        "companies": pipeline.N_COMPANIES,
        "windows": pipeline.WINDOWS,
        "seeds": {str(seed): record(seed) for seed in seeds},
    }
    with open(pipeline.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for seed, values in payload["seeds"].items():
        order = sorted(values["table1"], key=values["table1"].get)
        print(seed, "<".join(order), round(values["lda_recall_phi0.1"], 4))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
