"""bilop's one thread policy: thread_map, with numpy's OpenBLAS pinned to one thread.

thread_map.  numpy releases the GIL inside its FFTs, array loops and BLAS
calls, so items that each run for a while overlap on a thread pool.
Short items lose: every hand-off between threads waits up to one switch
interval (sys.getswitchinterval(), 5 ms by default) for the GIL, and a
norm scan of 1-3 ms items (an apply, family members and norms) ran
slower on two threads than on one.  thread_map therefore runs the first
two items in the calling thread, the first paying for FFT plans and
first allocations, and sends the rest to the pool only when the second,
warm item took longer than a switch interval.  Its callers split their
work into items of fixed bounds (the family members of a scan, the row and
column blocks of a streamed frequency matrix in operator._factorize, the
chunks of a kernel's row-block stream in kernel.KernelQuadrature) and
join or add the results in order, so a result does not depend on how many
workers ran it.  BILOP_THREADS caps the pool; 1 never starts one.

OpenBLAS.  numpy's bundled OpenBLAS starts one thread per core and splits
every call above its own small gates, but the paper's constructions make
streams of small products (the randomized sketches, QRs and SVDs of each
x-expansion, the row-block products of each truncated kernel), on which
a second thread only spins or stalls.  Measured on 2 cores (numpy 2.4.6,
scipy-openblas 0.3.31): every threaded call leaves its helper thread
spinning for 60-100 ms after its last job, even after the count is set
to one, and when another process holds a core, threaded products of
2^21-2^24 multiply-adds took 8-24 ms against 0.1-0.8 ms on one thread,
the helper waiting whole scheduler ticks.  Numpy gives no per-call thread
count, so importing this module sets OpenBLAS's process-wide count to 1,
once, before any bilop call, and nothing sets it again: a library call,
a pooled item and a cli.main command all run on one BLAS thread and give
the same bits, and pool threads never oversubscribe the cores.  The cost
is process-wide: importing bilop leaves the whole process, its other
libraries included, at one OpenBLAS thread, and a host that raises the
count afterwards runs its bilop calls threaded, with other roundoff.  Any
other BLAS is left as it is.
"""
import ctypes
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError


def worker_count() -> int:
    """BILOP_THREADS, or min(4, cpu_count) when it is empty or unset."""
    env = os.environ.get("BILOP_THREADS", "").strip()
    if not env:
        return min(4, os.cpu_count() or 1)
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"BILOP_THREADS must be a positive integer, got {env!r}")
    return count


def thread_map(fn, items):
    """[fn(item) for item in items], the items after the second on a thread
    pool when the second outlasted a switch interval."""
    items = list(items)
    out = [fn(item) for item in items[:1]]
    start = time.perf_counter()
    out += [fn(item) for item in items[1:2]]
    slow = time.perf_counter() - start > sys.getswitchinterval()
    workers = min(worker_count(), len(items) - 2)
    if workers <= 1 or not slow:
        return out + [fn(item) for item in items[2:]]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return out + list(pool.map(fn, items[2:]))


def _openblas_handle():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles
    under numpy.libs, its symbols prefixed scipy_openblas_ (numpy >= 2) or
    openblas_; None for any other BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            try:
                get = getattr(lib, f"{prefix}get_num_threads64_")
                put = getattr(lib, f"{prefix}set_num_threads64_")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_OPENBLAS = _openblas_handle()
if _OPENBLAS is not None:
    _OPENBLAS[1](1)  # the one BLAS thread of every bilop call, set once
