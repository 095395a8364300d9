"""thread_map: order, the warm-item gate in front of the pool, errors, caps."""

import sys
import time

import pytest

import bilop.parallel as parallel
from bilop.parallel import thread_map


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
