"""Columnar corpus gate: build/stream throughput and bounded-memory runs.

The data-layer counterpart of the serve gates: builds an on-disk columnar
corpus at scale, then proves the memmap-backed path holds its contract
end to end:

* **build determinism** — two same-seed builds produce byte-identical
  manifest fingerprints, and a single-chunk build's fingerprint matches
  the in-memory simulator exactly;
* **stream throughput** — full passes over ``iter_matrix_chunks`` and
  ``sequences()`` clear conservative rows/s floors (recorded as
  ``bench.corpus.*`` gauges in ``BENCH_METRICS.json``);
* **bounded memory** — ``repro table1 --corpus-dir`` (unigram/ngram/lda
  rows) and the serve bootstrap each complete in a subprocess whose peak
  RSS stays under 2 GB, at 1M companies in the full run.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus to CI scale (20k companies);
the RSS ceiling is never relaxed.  Run under pytest along with the other
benchmarks, or directly::

    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_corpus.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.data.columnar import manifest_fingerprint, open_corpus, simulate_to_columnar
from repro.experiments import make_experiment_data
from repro.obs import metrics as obs_metrics

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Corpus scale for the build/stream/memory gates.  The paper's corpus is
#: 860k companies; the full bench rounds up to 1M.
CORPUS_COMPANIES = 20_000 if SMOKE else 1_000_000
CORPUS_SEED = 7
CHUNK_SIZE = 10_000 if SMOKE else 50_000

#: Peak-RSS ceiling for the end-to-end subprocess gates, in MiB.  This is
#: the tentpole claim — 1M companies, table1 and serve bootstrap, < 2 GB —
#: and smoke mode keeps the same ceiling rather than a proportional one.
RSS_LIMIT_MIB = 2048

#: Conservative throughput floors (rows per second).  The vectorized
#: streaming path clears these by an order of magnitude on a laptop; the
#: floors only catch catastrophic regressions (per-row Python loops).
BUILD_FLOOR_ROWS_S = 500.0
STREAM_FLOOR_ROWS_S = 5_000.0

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Wrapper that runs a child command and reports the child's peak RSS as a
#: JSON line.  ``RUSAGE_CHILDREN`` inside the wrapper covers exactly its
#: own children, so other subprocesses of the bench session cannot leak in.
_RSS_WRAPPER = """\
import json, resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": code, "peak_kb": usage.ru_maxrss}))
"""


def _run_with_peak_rss(command: list[str]) -> dict:
    """Run ``command`` in a subprocess; return its exit code and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (_SRC, env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_WRAPPER, *command],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["peak_mib"] = report["peak_kb"] / 1024.0
    report["stdout"] = proc.stdout
    return report


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Build the bench corpus once, recording build throughput gauges."""
    target = tmp_path_factory.mktemp("columnar") / "corpus"
    started = time.perf_counter()
    manifest = simulate_to_columnar(
        str(target),
        n_companies=CORPUS_COMPANIES,
        seed=CORPUS_SEED,
        chunk_size=CHUNK_SIZE,
    )
    elapsed = time.perf_counter() - started
    rate = manifest["n_companies"] / elapsed
    registry = obs_metrics.get_registry()
    registry.gauge("bench.corpus.build.companies").set(float(manifest["n_companies"]))
    registry.gauge("bench.corpus.build.wall_s").set(round(elapsed, 3))
    registry.gauge("bench.corpus.build.rows_per_s").set(round(rate, 1))
    assert rate >= BUILD_FLOOR_ROWS_S, (
        f"corpus build too slow: {rate:,.0f} rows/s < floor {BUILD_FLOOR_ROWS_S}"
    )
    return str(target)


def test_build_fingerprint_stability(tmp_path):
    """Two same-seed builds fingerprint identically; single-chunk builds
    match the in-memory simulator bit for bit."""
    scale = min(CORPUS_COMPANIES, 5_000)
    first, second = tmp_path / "a", tmp_path / "b"
    simulate_to_columnar(str(first), n_companies=scale, seed=11, chunk_size=1_000)
    simulate_to_columnar(str(second), n_companies=scale, seed=11, chunk_size=1_000)
    assert manifest_fingerprint(first) == manifest_fingerprint(second)

    single = tmp_path / "single"
    simulate_to_columnar(str(single), n_companies=1_000, seed=11, chunk_size=1_000)
    in_memory = make_experiment_data(1_000, seed=11).corpus
    assert manifest_fingerprint(single) == in_memory.fingerprint()


def test_stream_throughput(corpus_dir):
    """Full matrix-chunk and sequence passes clear the rows/s floors."""
    corpus = open_corpus(corpus_dir)
    registry = obs_metrics.get_registry()

    started = time.perf_counter()
    rows = tokens = 0
    for offset, chunk in corpus.iter_matrix_chunks(chunk_size=16_384):
        rows += chunk.shape[0]
        tokens += int(chunk.sum())
    matrix_elapsed = time.perf_counter() - started
    assert rows == corpus.n_companies
    matrix_rate = rows / matrix_elapsed
    registry.gauge("bench.corpus.stream.matrix_rows_per_s").set(round(matrix_rate, 1))

    started = time.perf_counter()
    n_tokens = 0
    for sequence in corpus.sequences():
        n_tokens += len(sequence)
    seq_elapsed = time.perf_counter() - started
    seq_rate = corpus.n_companies / seq_elapsed
    registry.gauge("bench.corpus.stream.sequence_rows_per_s").set(round(seq_rate, 1))
    registry.gauge("bench.corpus.stream.tokens").set(float(n_tokens))

    assert matrix_rate >= STREAM_FLOOR_ROWS_S, (
        f"matrix streaming too slow: {matrix_rate:,.0f} rows/s"
    )
    assert seq_rate >= STREAM_FLOOR_ROWS_S, (
        f"sequence streaming too slow: {seq_rate:,.0f} rows/s"
    )


def test_table1_memory_gate(corpus_dir):
    """`repro table1 --corpus-dir` end to end under the 2 GB RSS ceiling.

    The LSTM row is excluded (``--methods``): its training cost scales
    with epochs × corpus and is gated by its own benchmark; the memory
    claim concerns the data path, which unigram/ngram/lda already walk in
    full (binary matrices, sequence scans, perplexity passes).
    """
    started = time.perf_counter()
    report = _run_with_peak_rss(
        [
            sys.executable,
            "-m",
            "repro",
            "table1",
            "--corpus-dir",
            corpus_dir,
            "--methods",
            "unigram,ngram,lda",
        ]
    )
    elapsed = time.perf_counter() - started
    registry = obs_metrics.get_registry()
    registry.gauge("bench.corpus.table1.peak_mib").set(round(report["peak_mib"], 1))
    registry.gauge("bench.corpus.table1.wall_s").set(round(elapsed, 3))
    assert report["peak_mib"] < RSS_LIMIT_MIB, (
        f"table1 --corpus-dir peak RSS {report['peak_mib']:.0f} MiB "
        f">= {RSS_LIMIT_MIB} MiB"
    )
    assert "unigram" in report["stdout"]


def test_serve_bootstrap_memory_gate(corpus_dir):
    """Serve bootstrap from the published corpus under the RSS ceiling."""
    bootstrap = (
        "from repro.serve import build_demo_service\n"
        f"service = build_demo_service(corpus_dir={corpus_dir!r})\n"
        "response = service.handle('GET', '/readyz', b'')\n"
        "assert response.status == 200, response.status\n"
        "print('bootstrap-ok', service.corpus.n_companies)\n"
    )
    started = time.perf_counter()
    report = _run_with_peak_rss([sys.executable, "-c", bootstrap])
    elapsed = time.perf_counter() - started
    registry = obs_metrics.get_registry()
    registry.gauge("bench.corpus.serve.peak_mib").set(round(report["peak_mib"], 1))
    registry.gauge("bench.corpus.serve.wall_s").set(round(elapsed, 3))
    assert report["peak_mib"] < RSS_LIMIT_MIB, (
        f"serve bootstrap peak RSS {report['peak_mib']:.0f} MiB "
        f">= {RSS_LIMIT_MIB} MiB"
    )
    assert "bootstrap-ok" in report["stdout"]
