"""Table 1's LDA row and LDA3 recall against the benchmark's recorded values.

``perfbench/expected_pipeline.json`` records, per universe seed, the Table 1
perplexities and the LDA3 recall at phi = 0.1 that the ``paper-pipeline``
workload checks every run against (``perfbench/record_expected.py`` wrote
them, serially).  This test holds the LDA numbers to those records at all
ten seeds with the benchmark's own tolerance, so a change that moves them
fails here rather than only in a benchmark run.  It reads the file and
never writes it.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import make_experiment_data, run_perplexity_table
from repro.experiments.fig34_recommendation import (
    DEFAULT_THRESHOLDS,
    recommendation_factories,
)
from repro.recommend.evaluation import RecommendationEvaluator
from repro.recommend.windows import SlidingWindowSpec

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected_pipeline.json"
#: The benchmark's tolerance for "equal to the recorded value": relative
#: for a perplexity, absolute for a recall.
RECORDED_TOL = 1e-9

RECORDED = json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", sorted(RECORDED["seeds"], key=int))
def test_lda_numbers_equal_the_recorded_ones(seed):
    recorded = RECORDED["seeds"][seed]
    data = make_experiment_data(RECORDED["companies"], seed=int(seed))

    perplexity = run_perplexity_table(data, methods=("lda",))["lda"]
    want = recorded["table1"]["lda"]
    assert abs(perplexity - want) <= RECORDED_TOL * abs(want), (perplexity, want)

    evaluator = RecommendationEvaluator(
        data.corpus,
        spec=SlidingWindowSpec(n_windows=RECORDED["windows"]),
        thresholds=DEFAULT_THRESHOLDS,
        retrain_per_window=True,
    )
    curves = evaluator.evaluate({"LDA3": recommendation_factories()["LDA3"]})
    recall = curves["LDA3"].recall(0.1)[0]
    want = recorded["lda_recall_phi0.1"]
    assert abs(recall - want) <= RECORDED_TOL, (recall, want)
