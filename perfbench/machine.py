"""Provenance of a benchmark result and the machine's measured zgemm rate."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

# Gram of the trace law at d = 32 is a (d^2 x d^2) complex product.
ZGEMM_N = 1024
ZGEMM_REPS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def zgemm_gflops() -> float:
    """Median rate of a ZGEMM_N-square complex128 product, 8 n^3 flops each."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((ZGEMM_N, ZGEMM_N)) + 1j * rng.standard_normal((ZGEMM_N, ZGEMM_N))
    b = a.conj().T.copy()
    a @ b  # first call pays for thread start-up
    times = []
    for _ in range(ZGEMM_REPS):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 8.0 * ZGEMM_N ** 3 / statistics.median(times) / 1e9


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mubkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip(),
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
    }
