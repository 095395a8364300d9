"""Environment record attached to every benchmark result.

The benchmark runs at the defaults users get: ``thread_map`` uses
min(4, cpu_count) workers unless BILOP_THREADS is set, and OpenBLAS
starts one thread per core unless OPENBLAS_NUM_THREADS is set.  Neither
is tuned here; both are recorded as the running code reports them: the
worker count by bilop, the OpenBLAS thread count and configuration by
the OpenBLAS library numpy loaded.
"""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Level -> size string of the first CPU's data/unified caches."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _blas() -> dict:
    """BLAS name and version from numpy's build configuration."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {}


def _openblas_runtime() -> dict:
    """Thread count and configuration read from numpy's loaded OpenBLAS.

    Linux numpy wheels bundle OpenBLAS under ``numpy.libs`` with
    64-bit-integer symbol names (prefixed ``scipy_openblas_`` since numpy
    2.0).  Empty if no such library is found.
    """
    import numpy.linalg  # noqa: F401 - loads the BLAS library

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads64_")
                config = getattr(lib, f"{prefix}get_config64_")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return {"library": lib_path.name, "threads": threads(),
                    "config": config().decode(errors="replace")}
    return {}


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": _blas(),
        "BILOP_THREADS": os.environ.get("BILOP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_runtime": _openblas_runtime(),
    }
