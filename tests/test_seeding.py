import os
import random
import threading
import time

import numpy as np
import pytest

from bnsjump import seeding
from bnsjump.seeding import ordered_map, substream


def cpus(monkeypatch, n: int) -> None:
    """Let ``ordered_map`` see ``n`` usable CPUs, whatever the host has."""
    monkeypatch.setattr(seeding, "usable_cpus", lambda: n)


@pytest.mark.parametrize("workers", [1, 3])
def test_ordered_map_yields_in_item_order(monkeypatch, workers):
    """Results come back in item order, even when a later item finishes first."""
    cpus(monkeypatch, 3)
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


def test_ordered_map_on_one_cpu_runs_lazily_on_the_calling_thread(monkeypatch):
    """Three workers asked for on one usable CPU: no pool, the lazy ``map``."""
    cpus(monkeypatch, 1)
    calls = []

    def work(i):
        calls.append((i, threading.get_ident()))
        return -i

    results = ordered_map(work, range(3), 3)
    assert calls == []
    assert next(results) == 0
    assert calls == [(0, threading.get_ident())]
    assert list(results) == [-1, -2]
    assert calls == [(i, threading.get_ident()) for i in range(3)]


def test_ordered_map_runs_no_more_calls_at_once_than_cpus(monkeypatch):
    """Three workers asked for on two usable CPUs: at most two calls at once,
    and two do run at once."""
    cpus(monkeypatch, 2)
    lock = threading.Lock()
    running, most = 0, 0
    both = threading.Barrier(2, timeout=10)

    def work(i):
        nonlocal running, most
        with lock:
            running += 1
            most = max(most, running)
        if i < 2:
            both.wait()  # the first two calls meet, so a pool of one would fail here
        time.sleep(0.01)
        with lock:
            running -= 1
        return i

    assert list(ordered_map(work, range(8), 3)) == list(range(8))
    assert most == 2


def test_usable_cpus_is_the_affinity_mask_or_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert seeding.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert seeding.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert seeding.usable_cpus() == 6


def list_entropy_stream(seed, *key):
    """``substream`` as it was: SeedSequence coerces each Python int of a list."""
    entropy = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    return np.random.default_rng(entropy + [int(k) for k in key])


def test_substream_matches_list_entropy():
    """The uint32-array entropy gives the list's streams, at the word edges too."""
    rng = random.Random(5)
    edges = [0, 1, 2**31, 2**32 - 1]

    def word():
        return rng.choice(edges) if rng.random() < 0.3 else rng.randrange(2**32)

    for _ in range(2000):
        seed = word() if rng.random() < 0.5 else tuple(word() for _ in range(rng.randint(1, 3)))
        key = [word() for _ in range(rng.randint(0, 4))]
        assert substream(seed, *key).bit_generator.state == list_entropy_stream(seed, *key).bit_generator.state


@pytest.mark.parametrize("seed,key", [(2**32, (1,)), (2**40 + 3, ()), (5, (2**33, 0)), ((7, 2**64), (1,)),
                                      (np.int64(9), (np.uint8(3),)), ((), ())],
                         ids=["seed-2^32", "seed-2^40", "key-2^33", "tuple-2^64", "numpy-ints",
                              "no-words"])
def test_substream_falls_back_to_the_list(seed, key):
    """Words past 32 bits keep the list form, which SeedSequence splits into words;
    numpy integers and no words at all read as before."""
    assert substream(seed, *key).bit_generator.state == list_entropy_stream(seed, *key).bit_generator.state


@pytest.mark.parametrize("seed,key", [(-1, ()), (5, (-3,)), ((1, -2), ())])
def test_substream_rejects_negative_words_as_before(seed, key):
    with pytest.raises(ValueError) as new:
        substream(seed, *key)
    with pytest.raises(ValueError) as old:
        list_entropy_stream(seed, *key)
    assert str(new.value) == str(old.value)
