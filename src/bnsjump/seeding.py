"""Deterministic RNG stream derivation.

Every stochastic routine in the package derives its generator from
(seed, *key) entropy tuples, so simulations are reproducible bit-for-bit
and independent streams (jumps vs. Brownian vs. measurement noise, path i
vs. path j, tree i vs. tree j) never collide even under a shared master
seed.

``ordered_map`` is the one place such independent seeded units fan out
over threads; each unit owns its stream, so results never depend on the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Substream tags for the model's independent drivers.
JUMP_STREAM = 11
BROWNIAN_STREAM = 23
NOISE_STREAM = 37


def substream(seed, *key: int) -> np.random.Generator:
    """Generator for (seed, *key); distinct keys give disjoint streams."""
    if isinstance(seed, (int, np.integer)):
        entropy = [int(seed)]
    else:
        entropy = [int(s) for s in seed]
    entropy += map(int, key)
    if min(entropy, default=0) >= 0 and max(entropy, default=0) < 2**32:
        # the same words SeedSequence makes of the list, without its per-int coercion;
        # other values keep the list and its errors
        entropy = np.array(entropy, dtype=np.uint32)
    return np.random.default_rng(entropy)


def ordered_map(fn, items, workers: int):
    """``fn`` over ``items``, yielding results in item order as they are ready.

    With ``workers`` <= 1 this is the lazy builtin ``map``: nothing runs
    before the first ``next``, and each call runs when its result is asked
    for.  Otherwise the calls run on a pool of ``workers`` threads.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)
