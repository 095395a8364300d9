"""thread_map: order, the warm-item gate in front of the pool, errors, caps;
OpenBLAS at one thread from the import of bilop on, its helpers idle in
commands and library calls alike; pooled passes equal one-thread ones bit
for bit; symbols evaluate alike on two threads at once."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilop
import bilop.operator as operator_module
import bilop.parallel as parallel
from bilop.cli import main as cli_main
from bilop.errors import ConfigError
from bilop.grid import Grid
from bilop.kernel import KernelQuadrature
from bilop.operator import FACTOR_FLOOR_C, _factorize, apply, make_operator
from bilop.parallel import thread_map
from bilop.symbols import (SymbolClassParams, catalog_symbol, ftc_decompose,
                           multiplier_function, symbol_from_expr)
from bilop.symbols.expr import FUNCTIONS


@pytest.fixture
def pools(monkeypatch):
    """The ThreadPoolExecutors thread_map creates, through a spy."""
    made = []

    class Spy(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Spy)
    monkeypatch.setenv("BILOP_THREADS", "2")
    return made


def _slow_second(item):
    """item squared; item 1 outlasts the switch interval, the others do not."""
    if item == 1:
        time.sleep(4 * sys.getswitchinterval())
    return item * item


def test_fast_items_run_in_order_without_a_pool(pools):
    assert thread_map(lambda i: i * i, range(50)) == [i * i for i in range(50)]
    assert pools == []


def test_a_slow_second_item_sends_the_rest_to_the_pool_in_order(pools):
    assert thread_map(_slow_second, range(20)) == [i * i for i in range(20)]
    assert pools == [2]


def test_a_slow_first_item_alone_keeps_the_map_serial(pools):
    # the first item pays for plans and first allocations, so it does not count
    def slow_first(item):
        if item == 0:
            time.sleep(4 * sys.getswitchinterval())
        return -item

    assert thread_map(slow_first, range(10)) == [-i for i in range(10)]
    assert pools == []


@pytest.mark.parametrize("fn", [lambda i: i, _slow_second], ids=["serial", "pooled"])
@pytest.mark.parametrize("bad", [0, 1, 2, 9])
def test_an_exception_in_any_item_propagates(pools, fn, bad):
    def item(i):
        if i == bad:
            raise ValueError(f"item {i}")
        return fn(i)

    with pytest.raises(ValueError, match=f"item {bad}"):
        thread_map(item, range(10))


def test_one_thread_never_creates_a_pool(pools, monkeypatch):
    monkeypatch.setenv("BILOP_THREADS", "1")
    assert thread_map(_slow_second, range(6)) == [i * i for i in range(6)]
    assert pools == []


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_short_lists_run_serially(pools, size):
    assert thread_map(_slow_second, range(size)) == [i * i for i in range(size)]
    assert pools == []  # at most one item is left after the first two


@pytest.mark.parametrize("value", ["abc", "-3", "0", "1.5"])
def test_a_malformed_thread_count_is_a_config_error(monkeypatch, capsys, value):
    monkeypatch.setenv("BILOP_THREADS", value)
    with pytest.raises(ConfigError, match=f"BILOP_THREADS must be a positive integer, got '{value}'"):
        parallel.worker_count()
    assert cli_main(["list-catalog"]) == 1
    assert capsys.readouterr().err.startswith("bilop: config error: BILOP_THREADS")


@pytest.mark.parametrize("value", [None, "", "  "])
def test_an_unset_or_empty_thread_count_keeps_the_default(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("BILOP_THREADS", raising=False)
    else:
        monkeypatch.setenv("BILOP_THREADS", value)
    assert parallel.worker_count() == min(4, os.cpu_count() or 1)


# ------------------------------------------- OpenBLAS pinned at import

@pytest.mark.skipif(parallel._OPENBLAS is None, reason="numpy's BLAS is not its bundled OpenBLAS")
def test_importing_bilop_pins_openblas_to_one_thread():
    # a fresh process whose OpenBLAS starts at two threads; no block is entered
    code = "import bilop, bilop.parallel as p; print(p._OPENBLAS[0]())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(Path(bilop.__file__).parents[1]), *sys.path])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


# even or odd in neither frequency, so S is factored unfolded
PARITY_FREE = "sqrt(1+xi^2+eta^2)+xi+eta"


# --------------------------------- the real library: pooled against one thread

@pytest.fixture
def pooled(monkeypatch, pools):
    """run(): its result at BILOP_THREADS=2 and =1, with a switch interval
    short enough that every map past two items pools; skipped without
    numpy's bundled OpenBLAS."""
    if parallel._OPENBLAS is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    interval = sys.getswitchinterval()

    def run(fn):
        outs = []
        sys.setswitchinterval(1e-6)
        try:
            for cap in ("2", "1"):
                monkeypatch.setenv("BILOP_THREADS", cap)
                outs.append(fn())
        finally:
            sys.setswitchinterval(interval)
        assert pools and set(pools) == {2}  # the two-worker run pooled, the other did not
        return outs

    return run


def test_a_pooled_factorization_equals_a_one_thread_one_bit_for_bit(pooled, monkeypatch):
    # FACTOR_BUDGET 2^16 streams the 512 x 512 S in 16 row chunks of 32 rows
    monkeypatch.setattr(operator_module, "FACTOR_BUDGET", 2 ** 16)
    grid = Grid(dim=1, points_per_axis=512)
    sigma = symbol_from_expr(PARITY_FREE, SymbolClassParams(1.0))
    floor = FACTOR_FLOOR_C * np.finfo(float).eps * np.sqrt(grid.points_per_axis)
    two, one = pooled(lambda: _factorize(sigma, grid, floor))
    assert two[6] == one[6] == 16
    assert np.array_equal(two[0], one[0]) and np.array_equal(two[1], one[1])
    assert two[2:] == one[2:]


def test_a_pooled_kernel_stream_equals_a_one_thread_one_bit_for_bit(pooled):
    # level 512: 4097 rows t >= 0 in 129 row blocks, in 16 chunks
    quad = KernelQuadrature(catalog_symbol("theta_sqrt1"), 512.0)
    rng = np.random.default_rng(0)
    us, vs = rng.uniform(0.05, 3.0, (2, 160))
    two, one = pooled(lambda: quad.values(0.4, us, vs, deriv=(1, 0, 0)))
    assert quad.account()["row_chunks"] == 16
    assert np.array_equal(two, one)


def _task_ticks() -> dict:
    """{thread id: user + system clock ticks} of this process's threads."""
    ticks = {}
    for task in Path("/proc/self/task").iterdir():
        try:
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        ticks[int(task.name)] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads Linux /proc/self/task")
def test_commands_leave_no_blas_helper_spinning(tmp_path):
    # a threaded OpenBLAS call leaves its helpers spinning for 60-100 ms after
    # their last job; with every call on one thread they never wake, in
    # cli.main and in library calls outside it alike
    grid = Grid(dim=1, points_per_axis=1024)
    f, g = multiplier_function("sinx", grid), multiplier_function("bump", grid)

    def commands():
        for argv in (["norm-scan", "--op", "commutator1", "--n", "1024", "--k-max", "16"],
                     ["certify-czk", "--symbol", "sqrt1", "--samples", "200"]):
            assert cli_main([*argv, "--out-dir", str(tmp_path)]) == 0

    def library_calls():
        for _ in range(3):
            apply(make_operator(catalog_symbol("sqrt1"), grid), f, g)

    caller = threading.get_native_id()
    for work in (commands, library_calls):
        time.sleep(0.15)  # past the spin of any threaded call made before
        before = _task_ticks()
        work()
        time.sleep(0.15)
        after = _task_ticks()
        spun = {tid: after[tid] - t for tid, t in before.items() if tid != caller and tid in after}
        assert all(ticks == 0 for ticks in spun.values()), (work.__name__, spun)


# ------------------------------------------------ symbols on two threads at once

@st.composite
def expressions(draw):
    """Source text over x, xi and eta from every grammar function, the four
    operators and small integer powers."""
    leaves = st.sampled_from(("x", "xi", "eta", "0.5", "2"))

    def extend(child):
        return st.one_of(
            st.tuples(st.sampled_from(FUNCTIONS), child).map(lambda a: f"{a[0]}({a[1]})"),
            st.tuples(child, st.sampled_from("+-*/"), child).map(lambda a: "({}{}{})".format(*a)),
            st.tuples(child, st.integers(-2, 3)).map(lambda a: f"({a[0]})^{a[1]}"))

    return draw(st.recursive(leaves, extend, max_leaves=8))


_POINTS = tuple(np.random.default_rng(4).uniform(-3.0, 3.0, (3, 64)))  # x, xi, eta


def _values_of(sigma):
    """sigma and its first xi and x partials at _POINTS."""
    return [np.asarray(ev(*_POINTS)) for ev in
            (sigma.partial(), sigma.partial((0,), (1,), (0,)), sigma.partial((1,), (0,), (0,)))]


@settings(max_examples=60, deadline=None)
@given(text=expressions(), pick=st.integers(0, 1))
def test_a_fresh_symbol_evaluates_alike_on_two_threads_at_once(text, pick):
    # each AST fills its evaluation program and derivatives lazily, on first
    # use; two pool threads may be the first users together
    def make():
        sigma = symbol_from_expr(text, SymbolClassParams(1.0))
        return [sigma, ftc_decompose(sigma, quad_points=16, guard=False)[pick]]

    start = threading.Barrier(2)

    def race(sigma):
        start.wait(timeout=10)
        return _values_of(sigma)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over between the threads often
    try:
        for serial, shared in zip(make(), make()):
            want = _values_of(serial)
            with parallel.ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(race, [shared, shared], timeout=60))
            for values in got:
                for a, b in zip(values, want):
                    assert np.array_equal(a, b, equal_nan=True)
    finally:
        sys.setswitchinterval(interval)
