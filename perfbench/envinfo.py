"""Environment record attached to every benchmark result."""

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Threads the BLAS may use: one, and never more than the CPUs available.

    On a 2-CPU host with one other busy process, two OpenBLAS threads made
    paper-scale steps 2-5x slower than one thread; one thread keeps the
    workload process to a single CPU and its step times steady.
    """
    return min(1, len(os.sched_getaffinity(0)))


def host_record(root):
    """Facts the parent process can gather without importing numpy."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def runtime_record():
    """Facts from inside the workload process: library versions and BLAS."""
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def gemm_gflops(n=1024, reps=5):
    """Median float64 GEMM rate of an n x n x n product, in GFLOP/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        a @ b
        times.append(perf_counter() - t0)
    times.sort()
    return 2.0 * n ** 3 / times[len(times) // 2] / 1e9


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _git_commit(root):
    if not (Path(root) / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root):
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "cloudmae").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
