"""Shared fixtures: small deterministic universes and fitted models.

Expensive artefacts (generated universes, fitted models) are session-scoped
so the whole suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.corpus import Corpus
from repro.data.synthetic import InstallBaseSimulator, SimulatorConfig
from repro.models.lda import LatentDirichletAllocation


@pytest.fixture(scope="session")
def simulator() -> InstallBaseSimulator:
    """Simulator over the default 38-category catalog, 300 companies."""
    return InstallBaseSimulator(SimulatorConfig(n_companies=300))


@pytest.fixture(scope="session")
def universe(simulator):
    """A generated 300-company universe (seed 7)."""
    return simulator.generate(seed=7)


@pytest.fixture(scope="session")
def corpus(simulator, universe) -> Corpus:
    """Corpus over the full 38-category vocabulary."""
    return Corpus(universe.companies, simulator.catalog.categories)


@pytest.fixture(scope="session")
def split(corpus):
    """The standard 70/10/20 split of the session corpus."""
    return corpus.split((0.7, 0.1, 0.2), seed=1)


@pytest.fixture(scope="session")
def fitted_lda(split) -> LatentDirichletAllocation:
    """A variational LDA(3) fitted on the session train split."""
    return LatentDirichletAllocation(
        n_topics=3, inference="variational", n_iter=60, seed=0
    ).fit(split.train)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _read_before(fd: int, deadline: float) -> bytes | None:
    """One read from ``fd``: data, ``b""`` at EOF, None once ``deadline`` passes."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
        return None
    return os.read(fd, 65536)


@pytest.fixture()
def orphaned_stdout_eof(tmp_path):
    """Kill a script but not its children; see whether its stdout reaches EOF.

    ``run(script, *argv, marker, timeout)`` starts ``python -c script`` in
    its own session with ``src`` importable and stdout on a pipe, waits
    until the output holds ``marker``, then SIGKILLs the script alone.  It
    returns whether every process holding the pipe (the script's children
    included) closed it within ``timeout`` seconds of the kill.  Teardown
    kills the whole session whatever the outcome.
    """
    started: list[subprocess.Popen] = []
    stderr_path = tmp_path / "orphan-stderr.txt"

    def run(script: str, *argv: object, marker: bytes, timeout: float) -> bool:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p
        )
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", script, *map(str, argv)],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
                start_new_session=True,
            )
        started.append(proc)
        fd = proc.stdout.fileno()
        seen = b""
        deadline = time.monotonic() + 120.0
        while marker not in seen:
            chunk = _read_before(fd, deadline)
            if not chunk:
                pytest.fail(
                    f"script never printed {marker!r} (got {seen!r}): "
                    + stderr_path.read_text(errors="replace")[-2000:]
                )
            seen += chunk
        proc.kill()
        deadline = time.monotonic() + timeout
        proc.wait()
        while chunk := _read_before(fd, deadline):
            pass
        return chunk == b""

    yield run
    for proc in started:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
