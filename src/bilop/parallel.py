"""Order-keeping map over a family of items, threaded only where it pays.

numpy releases the GIL inside its FFTs and array loops, so items that each
run for a while overlap on a thread pool.  Short items lose: every
hand-off between threads waits up to one switch interval
(sys.getswitchinterval(), 5 ms by default) for the GIL, and a norm scan
of 1-3 ms items (an apply, family members and norms) ran slower on two
threads than on one.  thread_map therefore runs the first two items in
the calling thread, the first paying for FFT plans and first
allocations, and sends the rest to the pool only when the second, warm
item took longer than a switch interval.
BILOP_THREADS caps the worker count; 1 never starts a pool.
"""
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    env = os.environ.get("BILOP_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return min(4, os.cpu_count() or 1)


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
