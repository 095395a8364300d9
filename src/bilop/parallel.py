"""Thread policies: when thread_map pools, and how many threads BLAS runs on.

thread_map.  numpy releases the GIL inside its FFTs and array loops, so
items that each run for a while overlap on a thread pool.  Short items
lose: every hand-off between threads waits up to one switch interval
(sys.getswitchinterval(), 5 ms by default) for the GIL, and a norm scan
of 1-3 ms items (an apply, family members and norms) ran slower on two
threads than on one.  thread_map therefore runs the first two items in
the calling thread, the first paying for FFT plans and first
allocations, and sends the rest to the pool only when the second, warm
item took longer than a switch interval.

blas.  numpy's bundled OpenBLAS starts one thread per core and splits
every call above its own small gates, but the paper's constructions make
streams of small products (the randomized sketches, QRs and SVDs of each
x-expansion, the row-block products of each truncated kernel), on which
a second thread only spins or stalls: capped at one thread, the
benchmark's verify workload used 43 % less cpu time at the same wall
time.  Numpy gives no per-call thread count, so blas(work) sets
OpenBLAS's process-wide one for the block it guards: one thread, or
min(count at import, worker_count()) when the block's largest BLAS call
does work >= BLAS_PARALLEL_WORK multiply-adds.  cli.main runs every
command inside blas(), and the products that can be large pass their
own count.  Since the count is process-wide, blas acts only on the main
thread; thread_map's pool threads run at the count the main thread set,
one inside a command, so pooled items never oversubscribe the cores.

The crossover, on 2 cores (numpy 2.4.6, scipy-openblas 0.3.31), median
of 5 alternations in one process; work counts multiply-adds, for a QR or
SVD of an m x k panel those of its largest inner update (lapack_work):

    call                      work   1 thread   2 threads  speed-up
    GEMM 32 x 512 x 128       2^21     0.09 ms    0.06 ms      1.36
    GEMM 256 x 256 x 74       2^22     0.18 ms    0.13 ms      1.32
    GEMM 32 x 1024 x 256      2^23     0.33 ms    0.21 ms      1.59
    GEMM 512 x 512 x 64       2^24     0.57 ms    0.30 ms      1.91
    GEMM 32 x 1024 x 512      2^24     0.66 ms    0.37 ms      1.77
    GEMM 512 x 8192 x 74      2^28    13.7 ms     7.5 ms       1.82
    QR 1024 x 64              2^21     1.9 ms     5.1 ms       0.38
    QR 4096 x 64              2^23    14.7 ms    21.0 ms       0.70
    QR 1024 x 256             2^23    15.5 ms    26.6 ms       0.58
    QR 8192 x 64              2^24    42.1 ms    45.5 ms       0.92
    QR 8192 x 128             2^25   128 ms      98 ms         1.31
    QR 16384 x 64             2^25    95 ms      78 ms         1.22
    SVD 64 x 4096             2^23    18.8 ms    27.7 ms       0.68
    SVD 64 x 8192             2^24    56.4 ms    55.9 ms       1.01
    SVD 128 x 8192            2^25   178 ms     161 ms         1.11

A GEMM gains from 2^21 on, but only from 2^24 does it run near the
2-core limit; below that the second thread saves tens of microseconds
per call, which one stall undoes: when another process holds a core,
every threaded call can wait whole 4 ms scheduler ticks for its helper
(a 32 x 512 x 128 GEMM took 18-32 ms instead of 0.1 ms, and a 5 ms
apply 1 s), and a single thread waits for no helper.  A QR or SVD makes
one threaded update per LAPACK_BLOCK columns between panel steps that a
second thread slows, so counted by their total multiply-adds they would
lift at sizes where they lose; counted by their largest update they
lift where they break even or gain.  BILOP_THREADS caps both policies;
1 never starts a pool and keeps BLAS on one thread.
"""
import ctypes
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError

BLAS_PARALLEL_WORK = 2 ** 24  # multiply-adds of one call from which 2 threads pay
LAPACK_BLOCK = 32  # columns per blocked update in LAPACK's QR and SVD (ilaenv NB)


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
    rest = items[2:]
    workers = min(worker_count(), len(rest))
    if workers <= 1 or not slow:
        return out + [fn(item) for item in rest]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return out + list(pool.map(fn, rest))


def _find_openblas():
    """(get, set, count at import) of the thread count of the OpenBLAS that
    numpy bundles under numpy.libs, its symbols prefixed scipy_openblas_
    (numpy >= 2) or openblas_; None for any other BLAS."""
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
            return get, put, get()
    return None


_OPENBLAS = _find_openblas()


def lapack_work(m: int, k: int) -> int:
    """The work blas weighs a QR or SVD of an m x k (m >= k) matrix by: the
    multiply-adds of its largest update, m k min(k, LAPACK_BLOCK)."""
    return m * k * min(k, LAPACK_BLOCK)


@contextmanager
def blas(work: int = 0):
    """Run the block's OpenBLAS calls on min(count at import, worker_count())
    threads when work >= BLAS_PARALLEL_WORK, else on one, and restore the
    count after.  A no-op off the main thread and for any other BLAS."""
    cap = worker_count()  # a bad BILOP_THREADS raises wherever it would apply
    if _OPENBLAS is None or threading.current_thread() is not threading.main_thread():
        yield
        return
    get, put, count = _OPENBLAS
    before, threads = get(), min(count, cap) if work >= BLAS_PARALLEL_WORK else 1
    if threads != before:
        put(threads)
    try:
        yield
    finally:
        if threads != before:
            put(before)
