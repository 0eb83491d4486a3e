"""Host facts recorded with every result, process memory readings and the
host-speed yardstick that relative timings are taken against."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import time
from typing import Callable


def git_sha(root: str) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources: identifies a checkout without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def peak_rss_mib(pid: int | str = "self") -> float:
    """A process's resident-set high-water mark (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def yardstick_s() -> float:
    """Fastest of eight timings of a fixed workload that never touches the program.

    A small matrix product, a pass over an 8 MB array and an interpreter
    loop, 12-20 ms a repetition on the 2-core host the benchmark was sized
    on.  It creates no object the garbage collector tracks, so the calling
    process's heap cannot move it.  That host's speed drifts up to 2x
    within minutes, and a timed step drifts with it; the step's time over
    the yardsticks timed just before and after it (``relative``) drifts far
    less, and a change to the program cannot move the yardstick.  The
    fastest repetition leaves out a scheduler pause that lands in one.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((200, 200))
    product = np.empty_like(matrix)
    stream = rng.random(1_000_000)
    scaled = np.empty_like(stream)
    best = float("inf")
    for _ in range(8):
        started = time.perf_counter()
        for _ in range(3):
            np.matmul(matrix, matrix, out=product)
        for _ in range(4):
            np.multiply(stream, 1.0001, out=scaled)
        total = 0
        for i in range(150_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


def relative(times: list[float], yardsticks: list[float]) -> float:
    """Sum of ``times[i]`` each over the mean of ``yardsticks[i]`` and ``[i + 1]``.

    ``yardsticks`` are timed between the steps: one before the first step
    and one after each.
    """
    if len(yardsticks) != len(times) + 1:
        raise ValueError("need one yardstick before the first step and one after each")
    return sum(t / ((yardsticks[i] + yardsticks[i + 1]) / 2) for i, t in enumerate(times))


def between_yardsticks(step: Callable[[], float]) -> tuple[float, float]:
    """Run ``step`` (it returns its own wall time) between two yardsticks.

    Returns the step's wall time and that time relative to the yardsticks.
    """
    before = yardstick_s()
    took = step()
    return took, relative([took], [before, yardstick_s()])


def blas_facts() -> dict[str, object]:
    """The BLAS numpy links and the thread count it defaults to here."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    # OpenBLAS exports its thread query under a build-specific prefix.
    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def facts(root: str) -> dict[str, object]:
    """``nproc``, git sha, interpreter, numpy and BLAS of this host."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
    }
