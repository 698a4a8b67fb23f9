"""Print, as one JSON object, the environment a benchmark result was taken in.

Run in the same interpreter and environment as the timed `qsct run`
invocations (`python3 bench/envinfo.py`), so the BLAS thread count is the
one in effect for them: OpenBLAS is asked through its own API after numpy
has loaded it.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

# OpenBLAS exports these under a prefix and suffix that depend on the build.
_OPENBLAS_PREFIXES = ("openblas_", "scipy_openblas_")
_OPENBLAS_SUFFIXES = ("", "64_")


def _openblas_call(lib, name: str, restype):
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def _blas_threads() -> tuple[int | None, str | None]:
    """(threads, config string) from the OpenBLAS library this process loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _openblas_call(lib, "get_num_threads", ctypes.c_int)
        config = _openblas_call(lib, "get_config", ctypes.c_char_p)
        if threads is not None:
            return threads, config.decode() if config else None
    return None, None


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def collect() -> dict:
    import numpy

    import qsct

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = _blas_threads()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": config,
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "mem_available_mb": _mem_available_mb(),
        "qsct": os.path.relpath(os.path.dirname(qsct.__file__)),
        "note": (f"{nproc}-core machine shared with other tenants: timings carry "
                 "their noise; compare only runs with equal blas_threads"),
    }


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
