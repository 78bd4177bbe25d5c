import threading

import pytest

from bnsjump.seeding import ordered_map


@pytest.mark.parametrize("workers", [1, 3])
def test_ordered_map_yields_in_item_order(workers):
    """Results come back in item order, even when a later item finishes first."""
    finished = []
    lock = threading.Lock()
    item_2_done = threading.Event()

    def work(i):
        if i == 0 and workers > 1:  # three threads: hold item 0 until item 2 is done
            assert item_2_done.wait(timeout=10)
        with lock:
            finished.append(i)
        if i == 2:
            item_2_done.set()
        return i * i

    assert list(ordered_map(work, range(6), workers)) == [i * i for i in range(6)]
    assert sorted(finished) == list(range(6))
    if workers > 1:
        assert finished.index(2) < finished.index(0)


@pytest.mark.parametrize("workers", [0, 1])
def test_ordered_map_is_lazy_without_a_pool(workers):
    calls = []

    def work(i):
        calls.append(i)
        return -i

    results = ordered_map(work, range(3), workers)
    assert calls == []
    assert next(results) == 0
    assert calls == [0]
    assert next(results) == -1
    assert calls == [0, 1]
    assert list(results) == [-2]
