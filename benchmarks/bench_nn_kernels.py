"""Kernel-level perf claims of the numpy neural substrate.

Three claims from the fused-kernel PR, each timed with plain
``time.perf_counter`` (no pytest-benchmark — the CI smoke job runs this
file with only numpy/scipy/pytest installed):

* **Fused float32 training**: one time-fused input GEMM per layer plus
  preallocated BPTT workspaces train a 1300-node LSTM epoch >= 3x faster
  than the historical per-step float64 recurrence, with test perplexity
  within 1% on the same seed (the dropout rng stream is shared across
  dtypes).
* **Length-bucketed scoring**: scoring ragged recommendation histories in
  length order pads each chunk to its own maximum, >= 2x faster than
  caller-order padding on the sliding-window prefix workload.
* **Batch simulator kernel**: the array-wise universe generator is >= 5x
  faster than the per-company loop at 100k companies (the scale band where
  ``generate`` picks it automatically).

``REPRO_BENCH_SMOKE=1`` shrinks every configuration to CI size and relaxes
the ratio asserts to sanity checks; the claims above are only asserted in
full runs.  All timings land in the ``BENCH_METRICS.json`` artifact as
``bench.nn.*`` gauges.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig
from repro.experiments import make_experiment_data
from repro.models.lstm import LSTMModel
from repro.obs import metrics, trace

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: (corpus size, hidden nodes) per mode; full mode matches the grid's
#: largest useful layer width where the float64 working set leaves cache.
N_COMPANIES = 150 if SMOKE else 400
HIDDEN = 64 if SMOKE else 1300
SCORING_HIDDEN = 64 if SMOKE else 650
SIM_COMPANIES = 3_000 if SMOKE else 100_000


@pytest.fixture(scope="module")
def kernel_data():
    """A small corpus matching the kernel-timing methodology (seed 7)."""
    return make_experiment_data(N_COMPANIES, seed=7)


def _fit_epoch_seconds(label: str, model: LSTMModel, corpus) -> float:
    """Fit ``model`` and return its mean per-epoch wall seconds."""
    with trace.span(f"bench.nn.fit.{label}") as span:
        model.fit(corpus)
    fit_span = next(c for c in span.children if c.name == "model.lstm.fit")
    epoch = next(c for c in fit_span.children if c.name == "model.lstm.epoch")
    return epoch.wall / epoch.n_calls


def test_fused_float32_epoch_throughput(kernel_data):
    split = kernel_data.split
    kwargs = dict(hidden=HIDDEN, n_layers=1, n_epochs=2, seed=0)
    # Warm-up: first-touch BLAS/allocator costs stay out of the timings.
    LSTMModel(hidden=HIDDEN, n_layers=1, n_epochs=1, seed=0).fit(split.train)

    fused = LSTMModel(dtype="float32", kernel="fused", **kwargs)
    fused_s = _fit_epoch_seconds("fused_f32", fused, split.train)
    fused_ppl = fused.perplexity(split.test)

    reference = LSTMModel(dtype="float64", kernel="reference", **kwargs)
    reference_s = _fit_epoch_seconds("reference_f64", reference, split.train)
    reference_ppl = reference.perplexity(split.test)

    speedup = reference_s / fused_s
    rel_ppl = abs(fused_ppl - reference_ppl) / reference_ppl
    metrics.set_gauge("bench.nn.epoch_fused_f32_s", fused_s)
    metrics.set_gauge("bench.nn.epoch_reference_f64_s", reference_s)
    metrics.set_gauge("bench.nn.epoch_speedup", speedup)
    print(f"\nLSTM epoch, hidden={HIDDEN}, {N_COMPANIES} companies")
    print(f"  reference float64: {reference_s:7.3f} s/epoch  ppl {reference_ppl:.4f}")
    print(f"  fused float32:     {fused_s:7.3f} s/epoch  ppl {fused_ppl:.4f}")
    print(f"  speedup: {speedup:.2f}x  ppl drift {rel_ppl:.4%}")

    assert rel_ppl < (0.05 if SMOKE else 0.01)
    assert speedup >= (0.7 if SMOKE else 3.0)


def test_bucketed_scoring_throughput(kernel_data):
    split = kernel_data.split
    kwargs = dict(
        hidden=SCORING_HIDDEN, n_epochs=1, seed=0, dtype="float32", batch_size=128
    )
    bucketed = LSTMModel(bucketed=True, **kwargs).fit(split.train)
    padded = LSTMModel(bucketed=False, **kwargs)
    # Scoring only: share the fitted network instead of refitting.
    padded._network = bucketed.network
    padded._vocab_size = bucketed._vocab_size

    # The sliding-window workload: every proper prefix of every test
    # sequence — many short histories, a ragged long tail.
    repeats = 2 if SMOKE else 4
    histories = [
        seq[:k] for seq in split.test.sequences() for k in range(len(seq))
    ] * repeats

    def best_of(model: LSTMModel, reps: int = 3):
        model.batch_next_product_proba(histories[:64])  # warm
        best, result = np.inf, None
        for __ in range(reps):
            start = time.perf_counter()
            result = model.batch_next_product_proba(histories)
            best = min(best, time.perf_counter() - start)
        return best, result

    bucketed_s, scores_b = best_of(bucketed)
    padded_s, scores_p = best_of(padded)
    speedup = padded_s / bucketed_s
    metrics.set_gauge("bench.nn.scoring_bucketed_s", bucketed_s)
    metrics.set_gauge("bench.nn.scoring_padded_s", padded_s)
    metrics.set_gauge("bench.nn.scoring_speedup", speedup)
    print(f"\nBatch scoring, {len(histories)} prefix histories, "
          f"hidden={SCORING_HIDDEN}")
    print(f"  caller-order padding: {padded_s:7.3f} s")
    print(f"  length-bucketed:      {bucketed_s:7.3f} s")
    print(f"  speedup: {speedup:.2f}x")

    np.testing.assert_allclose(scores_b, scores_p, rtol=1e-4, atol=1e-6)
    assert speedup >= (0.7 if SMOKE else 2.0)


def test_simulator_batch_kernel():
    """Batch vs loop kernel, each timed to its ``generate`` return.

    The batch side aggregates companies straight from its draws and
    defers the raw per-site feed until it is read; the loop side builds
    the feed eagerly.  The ratio therefore compares what a caller that
    needs only ``companies`` (corpus builds, serving) pays on each path.
    """
    simulator = InstallBaseSimulator(SimulatorConfig(n_companies=SIM_COMPANIES))

    def timed(method: str):
        start = time.perf_counter()
        universe = simulator.generate(seed=7, method=method)
        return time.perf_counter() - start, universe

    batch_s, batch_universe = timed("batch")
    loop_s, loop_universe = timed("loop")
    speedup = loop_s / batch_s
    metrics.set_gauge("bench.nn.simulator_batch_s", batch_s)
    metrics.set_gauge("bench.nn.simulator_loop_s", loop_s)
    metrics.set_gauge("bench.nn.simulator_speedup", speedup)
    print(f"\nSimulator, {SIM_COMPANIES} companies")
    print(f"  per-company loop: {loop_s:7.2f} s")
    print(f"  batch kernel:     {batch_s:7.2f} s")
    print(f"  speedup: {speedup:.1f}x")

    assert len(batch_universe.companies) == len(loop_universe.companies)
    mean_loop = np.mean([len(c) for c in loop_universe.companies])
    mean_batch = np.mean([len(c) for c in batch_universe.companies])
    assert abs(mean_loop - mean_batch) / mean_loop < 0.05
    assert speedup >= (1.2 if SMOKE else 5.0)
