"""Deterministic RNG stream derivation.

Every stochastic routine in the package derives its generator from
(seed, *key) entropy tuples, so simulations are reproducible bit-for-bit
and independent streams (jumps vs. Brownian vs. measurement noise, path i
vs. path j, tree i vs. tree j) never collide even under a shared master
seed.

``ordered_map`` is the one place such independent seeded units fan out
over threads; each unit owns its stream, so results never depend on the
worker count.  It runs no more workers than the process has CPUs to run
on (``usable_cpus``): the units hold the GIL, so a pool larger than that
costs time and memory and saves nothing, and on one CPU it runs none.
"""

from __future__ import annotations

import os

import numpy as np

# Substream tags for the model's independent drivers.
JUMP_STREAM = 11
BROWNIAN_STREAM = 23
NOISE_STREAM = 37


def substream(seed, *key: int) -> np.random.Generator:
    """Generator for (seed, *key); distinct keys give disjoint streams."""
    words = (seed, *key) if isinstance(seed, (int, np.integer)) else (*seed, *key)
    for w in words:
        # numpy integers and bools, which a uint32 array would wrap, and words outside uint32
        if type(w) is not int or not 0 <= w < 2**32:
            break
    else:
        # the same words SeedSequence makes of the list, without its per-int coercion
        return np.random.default_rng(np.array(words, dtype=np.uint32))
    # the list keeps SeedSequence's errors and its split of a wide int into words
    return np.random.default_rng([int(w) for w in words])


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, items, workers: int):
    """``fn`` over ``items``, yielding results in item order as they are ready.

    ``workers`` is capped at ``usable_cpus()``.  With one worker or none
    this is the lazy builtin ``map``: nothing runs before the first
    ``next``, and each call runs on the calling thread when its result is
    asked for.  Otherwise the calls run on a pool of that many threads.
    """
    workers = min(workers, usable_cpus())
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # only runs that start a pool pay its import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)
