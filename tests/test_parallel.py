"""thread_map: order, the warm-item gate in front of the pool, errors, caps;
blas: its thread policy against a fake handle, and results lifted or not."""

import os
import sys
import threading
import time

import numpy as np
import pytest

import bilop.parallel as parallel
from bilop.cli import main as cli_main
from bilop.errors import ConfigError
from bilop.grid import Grid
from bilop.kernel import KernelQuadrature
from bilop.operator import FACTOR_FLOOR_C, FACTOR_RTOL, _factorize
from bilop.parallel import blas, thread_map
from bilop.symbols import SymbolClassParams, catalog_symbol, symbol_from_expr


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


# ------------------------------------------------------------ blas policy

LARGE = parallel.BLAS_PARALLEL_WORK


class FakeBlas:
    """A thread count with the get/set pair of the OpenBLAS handle."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake_blas(monkeypatch):
    """A handle whose count at import was 3, now 5, with BILOP_THREADS=2."""
    fake = FakeBlas(5)
    monkeypatch.setattr(parallel, "_OPENBLAS", (fake.get, fake.set, 3))
    monkeypatch.setenv("BILOP_THREADS", "2")
    return fake


@pytest.mark.parametrize("work, threads", [(0, 1), (LARGE - 1, 1), (LARGE, 2), (10 * LARGE, 2)])
def test_blas_runs_small_work_on_one_thread_and_large_work_on_the_cap(fake_blas, work, threads):
    with blas(work):
        assert fake_blas.count == threads
    assert fake_blas.sets == [threads, 5]


@pytest.mark.parametrize("cap, threads", [("1", 1), ("2", 2), ("8", 3)])
def test_large_work_takes_the_smaller_of_the_import_count_and_the_cap(
        fake_blas, monkeypatch, cap, threads):
    monkeypatch.setenv("BILOP_THREADS", cap)
    with blas(LARGE):
        assert fake_blas.count == threads


def test_a_lift_inside_a_capped_block_returns_to_one_thread(fake_blas):
    with blas():
        with blas(LARGE):
            assert fake_blas.count == 2
        assert fake_blas.count == 1
        with blas(LARGE - 1):  # already at one thread: nothing to set
            pass
    assert fake_blas.sets == [1, 2, 1, 5]


def test_blas_restores_the_count_when_the_block_raises(fake_blas):
    for work in (0, LARGE):
        with pytest.raises(ValueError, match="inside"):
            with blas(work):
                raise ValueError("inside")
        assert fake_blas.count == 5


def test_blas_off_the_main_thread_never_sets_the_count(fake_blas):
    seen = []

    def body():
        for work in (0, LARGE):
            with blas(work):
                seen.append(fake_blas.count)

    worker = threading.Thread(target=body)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [5, 5] and fake_blas.sets == []


def test_blas_without_a_handle_does_nothing(monkeypatch):
    real = parallel._OPENBLAS
    monkeypatch.setattr(parallel, "_OPENBLAS", None)
    before = real[0]() if real else None
    for work in (0, LARGE):
        with blas(work):
            assert (real[0]() if real else None) == before


# even or odd in neither frequency, so S is factored unfolded
PARITY_FREE = "sqrt(1+xi^2+eta^2)+xi+eta"


def test_cli_runs_each_command_on_one_thread_and_lifts_large_products(fake_blas, tmp_path):
    # apply at N = 16 makes only small products; at N = 512 the sketch S omega
    # of a parity-free symbol (512 x 512 x 74) passes BLAS_PARALLEL_WORK
    assert cli_main(["apply", "--n", "16", "--out-dir", str(tmp_path)]) == 0
    assert fake_blas.sets == [1, 5]
    fake_blas.sets.clear()
    assert cli_main(["apply", "--n", "512", "--symbol", PARITY_FREE,
                     "--out-dir", str(tmp_path)]) == 0
    assert fake_blas.sets[0] == 1 and fake_blas.sets[-1] == 5
    assert set(fake_blas.sets[1:-1]) == {1, 2}


# ------------------------------------------- the real library, lifted or not

@pytest.fixture
def real_blas(monkeypatch):
    """The sets made through the real OpenBLAS handle; skipped without one."""
    if parallel._OPENBLAS is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, put, count = parallel._OPENBLAS
    if count < 2:
        pytest.skip("OpenBLAS started with one thread")
    sets = []
    monkeypatch.setattr(parallel, "_OPENBLAS", (get, lambda n: sets.append(n) or put(n), count))
    return sets


def _lifted_and_serial(real_blas, monkeypatch, run):
    """run() with BILOP_THREADS=2 and =1, each inside a one-thread block."""
    outs = []
    for cap in ("2", "1"):
        monkeypatch.setenv("BILOP_THREADS", cap)
        real_blas.clear()
        with blas():
            outs.append(run())
        assert (max(real_blas[:-1]) > 1) == (cap == "2")  # the last set restores
    return outs


def test_a_lifted_factorization_matches_a_serial_one(real_blas, monkeypatch):
    grid = Grid(dim=1, points_per_axis=512)  # S omega is 512 x 512 x 74
    sigma = symbol_from_expr(PARITY_FREE, SymbolClassParams(1.0))
    floor = FACTOR_FLOOR_C * np.finfo(float).eps * np.sqrt(grid.points_per_axis)
    (u1, v1, *rest1), (u2, v2, *rest2) = _lifted_and_serial(
        real_blas, monkeypatch, lambda: _factorize(sigma, grid, floor))
    assert u1.shape == u2.shape and v1.shape == v2.shape  # the same rank
    assert rest1[1] == rest2[1]  # the same basis width
    scale = FACTOR_RTOL * np.linalg.norm(u1.T @ v1, 2)
    assert np.max(np.abs(u1.T @ v1 - u2.T @ v2)) <= scale
    assert np.max(np.abs(u1 - u2)) <= scale and np.max(np.abs(v1 - v2)) <= scale


def test_a_lifted_kernel_stream_matches_a_serial_one(real_blas, monkeypatch):
    # level 512: 32 x 4097 row blocks times 4097 x 160 phase columns
    quad = KernelQuadrature(catalog_symbol("sqrt1", 1), 512.0)
    rng = np.random.default_rng(0)
    us, vs = rng.uniform(0.05, 3.0, (2, 160))
    lifted, serial = _lifted_and_serial(real_blas, monkeypatch, lambda: quad.values(0.0, us, vs))
    assert np.max(np.abs(lifted - serial)) <= 1e-12 * np.max(np.abs(serial))
