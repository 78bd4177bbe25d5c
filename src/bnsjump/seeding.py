"""Deterministic RNG stream derivation.

Every stochastic routine in the package derives its generator from
(seed, *key) entropy tuples, so simulations are reproducible bit-for-bit
and independent streams (jumps vs. Brownian vs. measurement noise, path i
vs. path j, tree i vs. tree j) never collide even under a shared master
seed.
"""

from __future__ import annotations

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

