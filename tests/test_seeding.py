import random

import numpy as np
import pytest

from bnsjump.seeding import substream


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


@pytest.mark.parametrize("seed,key", [((np.int64(-1),), ()), (3, (np.int64(-1),)), (3, (np.int64(2**40),)),
                                      ((np.uint64(2**32), 1), ()), (True, ()), (7, (True, False)),
                                      ((2**31, True), (np.uint32(5),))],
                         ids=["int64-minus-1", "key-int64-minus-1", "key-int64-2^40", "uint64-2^32",
                              "bool-seed", "bool-keys", "mixed"])
def test_substream_words_a_uint32_array_would_wrap_read_as_the_list(seed, key):
    """numpy integers and bools take the list form: its stream, or its exact ValueError,
    never the wrapped word a uint32 array would hold."""
    try:
        want = list_entropy_stream(seed, *key).bit_generator.state
    except ValueError as old:
        with pytest.raises(ValueError) as new:
            substream(seed, *key)
        assert str(new.value) == str(old)
    else:
        assert substream(seed, *key).bit_generator.state == want
